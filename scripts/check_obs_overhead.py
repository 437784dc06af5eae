"""Gate the observability layer's disabled-instrumentation overhead.

Times whole-window ingest on the ``caida_like`` workload at bench scale,
on the ``kernel`` batch engine, four ways:

* ``bare``       — no observability at all;
* ``bound``      — a :class:`~repro.obs.registry.MetricsRegistry` with
  every catalog instrument bound pull-style (the "instrumentation
  disabled" production default: nothing reads the counters until a
  scrape, so the ingest path must be unaffected);
* ``traced_off`` — a :class:`~repro.obs.trace.TraceRecorder` attached
  but **disabled** (the flight-recorder default: every emission site is
  behind an enabled-check, so the hot path must only pay that check);
* ``profiled``   — a :class:`~repro.obs.profiler.WindowProfiler`
  attached (it only reads the sketch's stage clock at window
  boundaries, so ingest is unchanged; informational, not gated).

The stage clock inside ``ingest_window`` runs in every variant,
``bare`` included, so this gate does not see its cost.

Fails (exit 1) when the ``bound`` or ``traced_off``
median regresses more than ``--max-overhead`` (default 5%, env
``REPRO_OBS_OVERHEAD_MAX``) over that engine's ``bare``, and writes the
measurements to ``--out`` for the CI artifact.  Usage::

    PYTHONPATH=src python scripts/check_obs_overhead.py [--out OBS_overhead.json]
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import HSConfig, make_hypersistent_simd
from repro.experiments.figures.common import bench_scale
from repro.obs import (
    MetricsRegistry,
    TraceRecorder,
    WindowProfiler,
    bind_sketch,
)
from repro.streams.traces import caida_like

ROUNDS = 9

#: Engines under the gate (the scalar path is not a batch ingest engine).
ENGINES = ("kernel",)

#: Variant name -> (prepare hook, gated?).
VARIANTS = (
    ("bare", lambda sketch: None, False),
    ("bound", lambda sketch: bind_sketch(MetricsRegistry(), sketch), True),
    ("traced_off",
     lambda sketch: TraceRecorder(enabled=False).attach(sketch), True),
    ("profiled", lambda sketch: WindowProfiler().attach(sketch), False),
)


def _one_round(arrays, config, engine, prepare):
    sketch = make_hypersistent_simd(config, engine=engine)
    prepare(sketch)
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        for keys in arrays:
            sketch.insert_window(keys)
        return time.perf_counter() - started
    finally:
        gc.enable()


def _time_variants(arrays, config, engine, prepares):
    """Best-of-ROUNDS per variant, interleaved with rotating order.

    Timing each variant in its own contiguous block lets
    CPU-frequency / allocator drift masquerade as overhead, and a fixed
    within-round order gives the same variant the same neighbours every
    time; interleaving with a per-round rotation exposes every variant
    to the same conditions.  The minimum discards transient stalls
    (context switches, page faults) that only ever inflate a
    measurement, and GC is paused over each timed region.
    """
    best = [float("inf")] * len(prepares)
    for round_no in range(ROUNDS + 1):
        for offset in range(len(prepares)):
            i = (round_no + offset) % len(prepares)
            seconds = _one_round(arrays, config, engine, prepares[i])
            if round_no > 0:  # round 0 is warmup
                best[i] = min(best[i], seconds)
    return best


def run(out_path: str, max_overhead: float) -> dict:
    # 8x the figure-bench scale: a round must run tens of milliseconds,
    # or scheduler/frequency jitter drowns the few-percent signal
    scale = 8 * bench_scale()
    n_windows = max(4, round(1500 * scale))
    trace = caida_like(scale=scale, n_windows=n_windows, overlay=False)
    config = HSConfig.for_estimation(
        32 * 1024, n_windows,
        window_distinct_hint=trace.mean_window_distinct(),
    )
    arrays = trace.window_arrays()

    prepares = tuple(prepare for _, prepare, _ in VARIANTS)
    result = {
        "workload": {
            "trace": trace.name,
            "records": trace.n_records,
            "windows": trace.n_windows,
            "rounds": ROUNDS,
        },
        "max_overhead": max_overhead,
        "engines": {},
        "passed": True,
    }
    for engine in ENGINES:
        timings = _time_variants(arrays, config, engine, prepares)
        bare_s = timings[0]
        entry = {"bare_seconds": round(bare_s, 5)}
        print(f"[{engine}]")
        print(f"  bare       : {bare_s * 1e3:8.2f}ms")
        for (name, _, gated), seconds in zip(VARIANTS[1:], timings[1:]):
            overhead = seconds / bare_s - 1.0
            entry[f"{name}_seconds"] = round(seconds, 5)
            entry[f"{name}_overhead"] = round(overhead, 4)
            if gated:
                ok = overhead <= max_overhead
                entry["passed"] = entry.get("passed", True) and ok
                result["passed"] = result["passed"] and ok
                note = f"budget {max_overhead:.0%}"
            else:
                note = "informational"
            print(f"  {name:<11}: {seconds * 1e3:8.2f}ms "
                  f"({overhead:+.1%} — {note})")
        result["engines"][engine] = entry
    Path(out_path).write_text(json.dumps(result, indent=2) + "\n")
    print(f"-> {out_path}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="OBS_overhead.json")
    parser.add_argument(
        "--max-overhead", type=float,
        default=float(os.environ.get("REPRO_OBS_OVERHEAD_MAX", "0.05")),
        help="maximum tolerated slowdown (fraction) for the gated "
             "variants (bound registry, disabled trace recorder)",
    )
    args = parser.parse_args()
    result = run(args.out, args.max_overhead)
    if not result["passed"]:
        for engine, entry in result["engines"].items():
            for name in ("bound", "traced_off"):
                overhead = entry.get(f"{name}_overhead", 0.0)
                if overhead > args.max_overhead:
                    print(f"FAIL: {engine} {name} overhead {overhead:+.1%} "
                          f"exceeds {args.max_overhead:.0%}",
                          file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
