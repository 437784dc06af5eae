"""Record the scalar / kernel ingestion benchmark to BENCH_ingest.json.

Times the record-at-a-time ``insert`` loop against the fused
structure-of-arrays kernel backend (``engine="kernel"``, whole windows
through ``insert_window``) on the ``caida_like`` workload at the default
bench scale, and writes the measured Mops, hash-ops-per-insert, the
kernel-over-scalar speedup, and the kernel's per-stage time breakdown.
This is the 15-window ratio-gate smoke behind ``check_bench.py``; the
benchmark of record is ``perfbench/`` (see ``perfbench/README.md``).
Usage::

    PYTHONPATH=src python scripts/record_bench.py [--out BENCH_ingest.json]
    PYTHONPATH=src python scripts/record_bench.py --quick   # CI smoke (1 round)
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import HSConfig, HypersistentSketch, make_hypersistent_simd
from repro.experiments.figures.common import bench_scale
from repro.streams.traces import caida_like

ROUNDS = 3


def provenance() -> dict:
    """Where/when this record was measured, so the perf trajectory in
    BENCH_ingest.json stays attributable across commits and machines."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
            cwd=Path(__file__).resolve().parent,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    import numpy
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "numpy": numpy.__version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def _median(values):
    values = sorted(values)
    return values[len(values) // 2]


def _time_rounds(build, feed, rounds):
    seconds, sketch = [], None
    for _ in range(rounds):
        sketch = build()
        started = time.perf_counter()
        feed(sketch)
        seconds.append(time.perf_counter() - started)
    return _median(seconds), sketch


def run(out_path: str, quick: bool = False) -> dict:
    # Scale the window count with the trace so the per-window record
    # density stays the paper's (~2.49M packets / 1500 windows ≈ 1660
    # records per window); scaling only the records would chop the trace
    # into unrealistically sparse windows.
    rounds = 1 if quick else ROUNDS
    scale = bench_scale()
    n_windows = max(4, round(1500 * scale))
    trace = caida_like(scale=scale, n_windows=n_windows, overlay=False)
    config = HSConfig.for_estimation(
        32 * 1024, n_windows, window_distinct_hint=trace.mean_window_distinct()
    )
    windows = [items for _, items in trace.windows()]
    arrays = trace.window_arrays()
    n = trace.n_records

    def feed_scalar(sketch):
        for items in windows:
            for item in items:
                sketch.insert(item)
            sketch.end_window()

    def feed_windows(sketch):
        for keys in arrays:
            sketch.insert_window(keys)

    scalar_s, scalar = _time_rounds(
        lambda: HypersistentSketch(config), feed_scalar, rounds
    )
    kernel_s, kernel = _time_rounds(
        lambda: make_hypersistent_simd(config), feed_windows, rounds
    )
    if scalar.stats()["hash_ops"] != kernel.stats()["hash_ops"]:
        raise SystemExit("hash-op cost models diverged between scalar and "
                         "kernel")

    # Per-stage breakdown: the stage clock the last kernel round's sketch
    # kept while it was timed.
    stage_total = sum(kernel.stage_seconds.values()) or 1.0
    stages = {
        stage: {
            "seconds": round(seconds, 4),
            "share": round(seconds / stage_total, 4),
        }
        for stage, seconds in kernel.stage_seconds.items()
    }

    result = {
        "provenance": provenance(),
        "workload": {
            "trace": trace.name,
            "records": n,
            "windows": trace.n_windows,
            "records_per_window": round(n / trace.n_windows, 1),
            "memory_kb": 32,
            "rounds": rounds,
        },
        "scalar": {
            "seconds": round(scalar_s, 4),
            "mops": round(n / scalar_s / 1e6, 4),
            "hash_ops_per_insert": round(scalar.stats()["hash_ops"] / n, 4),
        },
        "kernel": {
            "seconds": round(kernel_s, 4),
            "mops": round(n / kernel_s / 1e6, 4),
            "hash_ops_per_insert": round(kernel.stats()["hash_ops"] / n, 4),
            "stages": stages,
        },
        "speedup_kernel": round(scalar_s / kernel_s, 2),
    }
    Path(out_path).write_text(json.dumps(result, indent=2) + "\n")
    print(f"scalar  : {result['scalar']['mops']:.3f} Mops "
          f"({scalar_s:.3f}s)")
    print(f"kernel  : {result['kernel']['mops']:.3f} Mops "
          f"({kernel_s:.3f}s, {result['speedup_kernel']:.2f}x scalar)")
    print("stages  : " + "  ".join(
        f"{stage}={spec['share']:.0%}" for stage, spec in stages.items()))
    print(f"-> {out_path}")
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_ingest.json")
    parser.add_argument(
        "--quick", action="store_true",
        help="single timing round (CI smoke; numbers are noisier)",
    )
    args = parser.parse_args()
    run(args.out, quick=args.quick)


if __name__ == "__main__":
    main()
