"""Experiment harness: drive sketches over traces, measure everything once.

The harness is the single place that owns the insert/end_window loop, the
timing, and the hash-op instrumentation, so every figure driver and bench
measures identically.  It also owns the algorithm factory — the mapping from
the paper's algorithm labels ("HS", "OO", "WS", ...) to configured sketch
instances for each task.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

from ..analysis.metrics import ThroughputRecord
from ..baselines import (
    CMPersistenceSketch,
    OnOffSketchV1,
    OnOffSketchV2,
    PIESketch,
    PSketch,
    SmallSpace,
    TightSketch,
    WavingPersistenceSketch,
)
from ..common.errors import ConfigError
from ..core import HSConfig, HypersistentSketch, make_hypersistent_simd
from ..streams.model import Trace

#: Algorithm labels for the persistence-estimation task (figures 11-14, 19-20).
ESTIMATION_ALGORITHMS = ("HS", "HS-SIMD", "OO", "WS", "CM", "PIE")

#: Labels that stream through the whole-window batch path (the
#: library-level fast ingestion pipeline; identical estimates, coalesced
#: hashing).  The classic labels keep the paper's record-at-a-time loop so
#: the figure-19 per-record cost reproduction is undisturbed.
#: ``HS-KERNEL`` runs the fused structure-of-arrays kernels
#: (:mod:`repro.core.kernels`) and is bit-identical to ``HS``.
BATCHED_ALGORITHMS = ("HS-KERNEL",)

#: Algorithm labels for the finding-persistent-items task (figures 15-18).
FINDING_ALGORITHMS = ("HS", "OO", "WS", "SS", "TS", "PS")


def make_estimator(
    name: str,
    memory_bytes: int,
    n_windows: int = 3000,
    seed: int = 42,
    window_distinct_hint: float = None,
):
    """Build a persistence estimator in the paper's evaluation setup.

    ``window_distinct_hint`` (per-window distinct arrivals, measured from
    the trace) sizes HS's Burst Filter to the actual working set; the
    baselines ignore it.
    """
    if name == "HS":
        return HypersistentSketch(
            HSConfig.for_estimation(
                memory_bytes, n_windows, seed=seed,
                window_distinct_hint=window_distinct_hint,
            )
        )
    if name in ("HS-SIMD", "HS-KERNEL"):
        # HS-KERNEL shares the SIMD build: the vectorized Burst Filter is
        # the fastest stage-1 under whole-window batches as well.
        return make_hypersistent_simd(
            HSConfig.for_estimation(
                memory_bytes, n_windows, seed=seed,
                window_distinct_hint=window_distinct_hint,
            )
        )
    if name == "OO":
        return OnOffSketchV1(memory_bytes, depth=3, seed=seed)
    if name == "WS":
        return WavingPersistenceSketch(memory_bytes, seed=seed)
    if name == "CM":
        return CMPersistenceSketch(memory_bytes, seed=seed)
    if name == "PIE":
        return PIESketch(memory_bytes, seed=seed)
    raise ConfigError(f"unknown estimation algorithm: {name}")


def make_finder(
    name: str,
    memory_bytes: int,
    n_windows: int = 1500,
    seed: int = 42,
):
    """Build a persistent-item finder in the paper's evaluation setup."""
    if name == "HS":
        return HypersistentSketch(
            HSConfig.for_finding(memory_bytes, n_windows, seed=seed)
        )
    if name == "OO":
        return OnOffSketchV2(memory_bytes, seed=seed)
    if name == "WS":
        return WavingPersistenceSketch(memory_bytes, seed=seed)
    if name == "SS":
        return SmallSpace(memory_bytes, seed=seed)
    if name == "TS":
        return TightSketch(memory_bytes, seed=seed)
    if name == "PS":
        return PSketch(memory_bytes, seed=seed)
    raise ConfigError(f"unknown finding algorithm: {name}")


@dataclass
class RunResult:
    """Outcome of one sketch x trace streaming run."""

    sketch: object
    trace_name: str
    insert: ThroughputRecord
    stats: Dict[str, float] = field(default_factory=dict)
    profile: Optional[Dict[str, object]] = None

    def query_all(self, keys: Iterable[int]) -> Dict[int, int]:
        """Evaluate the sketch's query over a key set."""
        return {key: self.sketch.query(key) for key in keys}


def _hash_ops(sketch) -> int:
    return getattr(sketch, "hash_ops", 0)


def run_stream(
    sketch, trace: Trace, batched: Optional[bool] = None, profiler=None,
    on_window: Optional[Callable[[int], None]] = None,
    checkpoint=None, engine: Optional[str] = None,
    trace_recorder=None,
) -> RunResult:
    """Feed a trace through a sketch with window boundaries, timed.

    Every window (including empty ones) ends with ``end_window`` so flag
    resets happen exactly ``n_windows`` times, as on a real timeline.

    ``batched=None`` (the default) prefers the sketch's whole-window
    ``insert_window`` whenever it has one — the batch path is bit-for-bit
    equivalent to the record loop, so results are unchanged and only the
    wall clock improves.  Pass ``batched=False`` to force the
    record-at-a-time loop (the paper's measured insertion path) or
    ``batched=True`` to require the batch path.

    ``profiler`` (a :class:`~repro.obs.profiler.WindowProfiler`) turns on
    per-window telemetry: the harness attaches it, times every window's
    feed, and reports each boundary; the aggregated summary lands in
    ``RunResult.profile``.  Without one, the ingest loops are untouched.

    ``on_window(window_id)`` fires after every window boundary, once the
    sketch has sealed that window — the hook point the verification
    invariants use to audit state mid-stream.  Its runtime is inside the
    measured span, so leave it ``None`` for throughput experiments.

    ``checkpoint`` (a :class:`~repro.persist.CheckpointPolicy`) persists
    the sketch atomically every K closed windows; a crashed run restarts
    from the last checkpoint via :func:`repro.persist.resume` and ends
    bit-identical to an uninterrupted one.  Checkpoint writes happen
    inside the measured span — keep it ``None`` for throughput runs.

    ``engine`` selects the sketch's batch ingestion backend
    (``"scalar"`` or ``"kernel"``) before streaming; both backends are
    bit-identical, so this is a speed knob only.  Raises for
    sketches without an engine selector rather than silently ignoring it.

    ``trace_recorder`` (a :class:`~repro.obs.trace.TraceRecorder`) wires
    the flight recorder into the sketch's stages before streaming and
    leaves it attached afterwards, so callers can export or ``explain``
    against the finished run.  Raises for sketches without trace wiring.
    """
    if engine is not None:
        if not hasattr(sketch, "engine"):
            raise ConfigError(
                f"{type(sketch).__name__} has no engine selector; "
                f"cannot apply engine={engine!r}"
            )
        sketch.engine = engine
    has_window_api = hasattr(sketch, "insert_window")
    use_batched = has_window_api if batched is None else batched
    if use_batched and not has_window_api:
        raise ConfigError(
            f"{type(sketch).__name__} has no insert_window batch path"
        )
    if profiler is not None and not profiler.attached:
        profiler.attach(sketch)
    if trace_recorder is not None:
        trace_recorder.attach(sketch)
    slow_path = (profiler is not None or on_window is not None
                 or checkpoint is not None)
    ops_before = _hash_ops(sketch)
    if use_batched:
        window_arrays = trace.window_arrays()
        started = time.perf_counter()
        if slow_path:
            for wid, window_keys in enumerate(window_arrays):
                window_started = time.perf_counter()
                sketch.insert_window(window_keys)
                if profiler is not None:
                    profiler.window_closed(
                        time.perf_counter() - window_started
                    )
                if on_window is not None:
                    on_window(wid)
                if checkpoint is not None:
                    checkpoint.window_closed(sketch, wid + 1, trace=trace)
        else:
            insert_window = sketch.insert_window
            for window_keys in window_arrays:
                insert_window(window_keys)
        elapsed = time.perf_counter() - started
    else:
        started = time.perf_counter()
        if slow_path:
            for wid, window_items in trace.windows():
                window_started = time.perf_counter()
                for item in window_items:
                    sketch.insert(item)
                sketch.end_window()
                if profiler is not None:
                    profiler.window_closed(
                        time.perf_counter() - window_started
                    )
                if on_window is not None:
                    on_window(wid)
                if checkpoint is not None:
                    checkpoint.window_closed(sketch, wid + 1, trace=trace)
        else:
            insert = sketch.insert
            for _, window_items in trace.windows():
                for item in window_items:
                    insert(item)
                sketch.end_window()
        elapsed = time.perf_counter() - started
    record = ThroughputRecord(
        operations=trace.n_records,
        seconds=elapsed,
        hash_ops=_hash_ops(sketch) - ops_before,
    )
    if profiler is not None:
        profiler.detach()
    stats = sketch.stats() if hasattr(sketch, "stats") else {}
    return RunResult(
        sketch=sketch, trace_name=trace.name, insert=record, stats=stats,
        profile=profiler.profile() if profiler is not None else None,
    )


def time_queries(sketch, keys: List[int]) -> ThroughputRecord:
    """Measure query-side throughput over a fixed key list."""
    ops_before = _hash_ops(sketch)
    query = sketch.query
    started = time.perf_counter()
    for key in keys:
        query(key)
    elapsed = time.perf_counter() - started
    return ThroughputRecord(
        operations=len(keys),
        seconds=elapsed,
        hash_ops=_hash_ops(sketch) - ops_before,
    )


def run_algorithm(
    name: str,
    trace: Trace,
    memory_bytes: int,
    task: str = "estimation",
    seed: int = 42,
    batched: Optional[bool] = None,
    profiler=None,
    on_window: Optional[Callable[[int], None]] = None,
    checkpoint=None,
    engine: Optional[str] = None,
    trace_recorder=None,
) -> RunResult:
    """Factory + streaming in one call (what the sweeps use).

    Classic paper labels stream record-at-a-time (their throughput series
    reproduce the paper's per-record cost); ``BATCHED_ALGORITHMS`` labels
    stream through the whole-window path.  ``batched`` overrides, and
    ``engine`` forces a specific batch backend (see :func:`run_stream`).
    """
    if task == "estimation":
        sketch = make_estimator(
            name, memory_bytes, n_windows=trace.n_windows, seed=seed,
            window_distinct_hint=trace.mean_window_distinct(),
        )
    elif task == "finding":
        sketch = make_finder(name, memory_bytes, n_windows=trace.n_windows,
                             seed=seed)
    else:
        raise ConfigError(f"unknown task: {task}")
    if batched is None:
        batched = name in BATCHED_ALGORITHMS
    return run_stream(sketch, trace, batched=batched, profiler=profiler,
                      on_window=on_window, checkpoint=checkpoint,
                      engine=engine, trace_recorder=trace_recorder)


def repeat_median(
    fn: Callable[[], float], repeats: int = 3
) -> float:
    """Median of repeated measurements (the paper reports run medians)."""
    if repeats < 1:
        raise ConfigError("repeats must be >= 1")
    values = sorted(fn() for _ in range(repeats))
    return values[len(values) // 2]


def stage_distribution(result: RunResult) -> Optional[Dict[str, float]]:
    """HS *insert*-side stage-hit fractions; None for baselines."""
    sketch = result.sketch
    if not isinstance(sketch, HypersistentSketch):
        return None
    l1, l2, hot = sketch.cold.stage_distribution()
    return {"l1": l1, "l2": l2, "hot": hot}


def query_stage_shares(sketch, keys) -> Optional[Dict[str, float]]:
    """Fraction of queries resolved at each HS stage (figure 20(e)/(f)).

    Most queried items are cold, so L1 should dominate on skewed traffic.
    Returns None for sketches without a staged query path.
    """
    if not isinstance(sketch, HypersistentSketch):
        return None
    counts = {"l1": 0, "l2": 0, "hot": 0}
    total = 0
    for key in keys:
        counts[sketch.resolving_stage(key)] += 1
        total += 1
    if not total:
        return {"l1": 0.0, "l2": 0.0, "hot": 0.0}
    return {stage: n / total for stage, n in counts.items()}
