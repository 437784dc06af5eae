"""Per-window profiler: stage wall-time, routed items, occupancy snapshots.

The pipeline's operational counters (absorbed / l1_hits / overflows / ...)
are cumulative; what a long run needs is the *per-window* view — how much
traffic each stage took this window, how long it spent there, and where
occupancy sits.  :class:`WindowProfiler` produces exactly that:

* ``attach(sketch)`` swaps the sketch's ``burst`` / ``cold`` / ``hot``
  stage objects for transparent timing proxies (the stages themselves are
  ``__slots__`` classes, so their methods cannot be patched in place —
  but the composed sketch's stage attributes can).  Every proxied hot
  method (``insert``, ``insert_batch``, ``window_kernel``, ...) accumulates
  wall-time into a per-stage timer; everything else delegates untouched,
  so the scalar and batch ingest paths both profile through the same hooks.
* ``window_closed(seconds)`` diffs the catalog counter snapshot against
  the previous boundary and appends one flat telemetry record (counter
  deltas, gauge levels, per-stage seconds).  Records stream to an optional
  JSON-lines sink as they are produced, which is what the live
  ``repro obs`` panel tails.
* ``report()`` renders the aggregated stage-latency breakdown.

Profiling is opt-in and fully reversible (``detach()`` restores the
original stage objects); an un-attached sketch runs the exact pre-profiler
code with zero added cost.
"""

from __future__ import annotations

from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

from .catalog import (
    BURST_INSTRUMENTS,
    COLD_INSTRUMENTS,
    HOT_INSTRUMENTS,
    SKETCH_INSTRUMENTS,
    sketch_metrics,
)
from .exporters import to_jsonl
from .registry import KIND_COUNTER, MetricsRegistry

#: Stage attribute names on the composed sketch, in pipeline order.
STAGES = ("burst", "cold", "hot")

#: Methods whose wall-time is charged to their stage.  Generators
#: (``drain``) are deliberately absent: their work interleaves with
#: downstream inserts, so timing them would double-count.
_TIMED_METHODS = (
    "insert", "insert_batch", "window_kernel", "drain_array",
    "contains", "end_window", "query",
)

#: Histogram bin edges for window/stage latencies, in seconds: ~1us .. 67s
#: on a power-of-four grid (13 finite buckets keeps scrapes small).
LATENCY_BIN_EDGES = tuple(1e-6 * 4 ** e for e in range(13))

#: Canonical counter names (window records store their per-window deltas).
_COUNTER_NAMES = frozenset(
    spec.name
    for spec in (SKETCH_INSTRUMENTS + BURST_INSTRUMENTS
                 + COLD_INSTRUMENTS + HOT_INSTRUMENTS)
    if spec.kind == KIND_COUNTER
)


class _StageTimer:
    """Accumulated wall-time and call count for one pipeline stage."""

    __slots__ = ("seconds", "calls")

    def __init__(self) -> None:
        self.seconds = 0.0
        self.calls = 0


class _TimedStage:
    """Transparent proxy charging selected method calls to a timer.

    Attribute reads (counters, properties) and un-timed methods delegate
    straight to the wrapped stage, so catalog readers and ``stats()``
    views see the live values; only the hot-path methods in
    ``_TIMED_METHODS`` gain a ``perf_counter`` bracket.
    """

    def __init__(self, inner, timer: _StageTimer):
        self._inner = inner
        self._timer = timer
        for name in _TIMED_METHODS:
            method = getattr(inner, name, None)
            if callable(method):
                setattr(self, name, self._wrap(method, timer))

    @staticmethod
    def _wrap(method, timer: _StageTimer):
        def timed(*args, **kwargs):
            started = perf_counter()
            try:
                return method(*args, **kwargs)
            finally:
                timer.seconds += perf_counter() - started
                timer.calls += 1
        timed.__doc__ = method.__doc__
        return timed

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __len__(self) -> int:  # len() bypasses __getattr__
        return len(self._inner)

    def __repr__(self) -> str:
        return f"_TimedStage({self._inner!r})"


class WindowProfiler:
    """Record per-window telemetry for a Hypersistent-style sketch.

    ``registry`` (optional) receives latency histograms
    (``hs_window_seconds``, ``hs_stage_seconds{stage=...}``) so exported
    scrapes carry the latency distribution; ``sink`` (optional path)
    receives each window record as an appended JSON line the moment the
    window closes.

    >>> from repro.core import HSConfig, HypersistentSketch
    >>> sketch = HypersistentSketch(HSConfig(memory_bytes=16 * 1024))
    >>> profiler = WindowProfiler()
    >>> profiler.attach(sketch)
    >>> sketch.insert("flow"); sketch.end_window()
    >>> profiler.window_closed(0.001)
    >>> profiler.records[0]["hs_inserts_total"]
    1
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 sink=None):
        self.registry = registry
        self.records: List[Dict] = []
        self.timers: Dict[str, _StageTimer] = {}
        self._sink = Path(sink) if sink is not None else None
        self._sketch = None
        self._originals: Dict[str, object] = {}
        self._baseline: Dict[str, float] = {}
        self._stage_baseline: Dict[str, float] = {}
        if self._sink is not None:
            self._sink.parent.mkdir(parents=True, exist_ok=True)
            self._sink.write_text("")  # truncate: one run per sink file
        if registry is not None:
            self._window_hist = registry.histogram(
                "hs_window_seconds",
                help="Wall-time per closed window",
                bin_edges=LATENCY_BIN_EDGES,
            )
            self._stage_hists = {
                stage: registry.histogram(
                    "hs_stage_seconds",
                    help="Wall-time spent in one stage per window",
                    labels={"stage": stage},
                    bin_edges=LATENCY_BIN_EDGES,
                )
                for stage in STAGES
            }

    # ------------------------------------------------------------------
    @property
    def attached(self) -> bool:
        """Whether a sketch is currently being profiled."""
        return self._sketch is not None

    def attach(self, sketch) -> "WindowProfiler":
        """Swap the sketch's stages for timing proxies and snapshot
        counters.  Returns ``self`` for chaining."""
        if self._sketch is not None:
            raise RuntimeError("profiler is already attached")
        if not (hasattr(sketch, "cold") and hasattr(sketch, "hot")):
            raise RuntimeError(
                f"{type(sketch).__name__} has no Hypersistent stage "
                "attributes to profile"
            )
        self._sketch = sketch
        for stage in STAGES:
            inner = getattr(sketch, stage, None)
            if inner is None:
                continue
            timer = self.timers.setdefault(stage, _StageTimer())
            self._originals[stage] = inner
            setattr(sketch, stage, _TimedStage(inner, timer))
        self._baseline = sketch_metrics(sketch)
        self._stage_baseline = {
            stage: timer.seconds for stage, timer in self.timers.items()
        }
        return self

    def detach(self) -> None:
        """Restore the original stage objects (no-op when not attached)."""
        if self._sketch is None:
            return
        for stage, inner in self._originals.items():
            setattr(self._sketch, stage, inner)
        self._originals.clear()
        self._sketch = None

    # ------------------------------------------------------------------
    def window_closed(self, seconds: Optional[float] = None) -> Dict:
        """Record the window that just closed.

        ``seconds`` is the window's wall-time as measured by the caller
        (the harness times each window's feed); pass ``None`` to fall
        back to the sum of stage time accrued since the last boundary —
        what an event-time driver, which has no natural per-window clock,
        reports.
        """
        if self._sketch is None:
            raise RuntimeError("profiler is not attached to a sketch")
        current = sketch_metrics(self._sketch)
        stage_seconds = {}
        for stage, timer in self.timers.items():
            previous = self._stage_baseline.get(stage, 0.0)
            stage_seconds[stage] = timer.seconds - previous
            self._stage_baseline[stage] = timer.seconds
        if seconds is None:
            seconds = sum(stage_seconds.values())
        record: Dict[str, float] = {
            "window": int(current["hs_windows_total"]),
            "seconds": seconds,
        }
        for name, value in current.items():
            if name in _COUNTER_NAMES:
                record[name] = value - self._baseline.get(name, 0)
            else:
                record[name] = value
        for stage, spent in stage_seconds.items():
            record[f"{stage}_seconds"] = spent
        self._baseline = current
        self.records.append(record)
        if self.registry is not None:
            self._window_hist.observe(seconds)
            for stage, spent in stage_seconds.items():
                self._stage_hists[stage].observe(spent)
        if self._sink is not None:
            with self._sink.open("a") as handle:
                handle.write(to_jsonl([record]))
        return record

    # ------------------------------------------------------------------
    def profile(self) -> Dict:
        """Aggregated run summary: totals, per-stage seconds and shares."""
        total_seconds = sum(r["seconds"] for r in self.records)
        stage_seconds = {
            stage: sum(r.get(f"{stage}_seconds", 0.0) for r in self.records)
            for stage in self.timers
        }
        timed = sum(stage_seconds.values())
        return {
            "windows": len(self.records),
            "seconds": total_seconds,
            "stage_seconds": stage_seconds,
            "stage_calls": {
                stage: timer.calls for stage, timer in self.timers.items()
            },
            "stage_share": {
                stage: (spent / timed if timed else 0.0)
                for stage, spent in stage_seconds.items()
            },
            "overhead_seconds": max(0.0, total_seconds - timed),
        }

    def report(self) -> str:
        """Human-readable stage-latency breakdown of the whole run."""
        summary = self.profile()
        lines = [
            f"stage-latency profile: {summary['windows']} windows, "
            f"{summary['seconds'] * 1e3:.2f}ms total",
            f"{'stage':<8} {'seconds':>10} {'share':>7} {'calls':>9}",
        ]
        for stage in STAGES:
            if stage not in summary["stage_seconds"]:
                continue
            lines.append(
                f"{stage:<8} {summary['stage_seconds'][stage]:>10.4f} "
                f"{summary['stage_share'][stage]:>6.1%} "
                f"{summary['stage_calls'][stage]:>9}"
            )
        lines.append(
            f"{'(other)':<8} {summary['overhead_seconds']:>10.4f}"
        )
        if self.records:
            last = self.records[-1]
            occupancy = last.get("hs_hot_occupancy")
            if occupancy is not None:
                lines.append(f"final hot occupancy: {occupancy:.1%}")
        return "\n".join(lines)
