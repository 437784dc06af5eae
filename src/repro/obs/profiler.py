"""Per-window profiler: stage wall-time, routed items, occupancy snapshots.

The pipeline's operational counters (absorbed / l1_hits / overflows / ...)
are cumulative; what a long run needs is the *per-window* view — how much
traffic each stage took this window, how long it spent there, and where
occupancy sits.  :class:`WindowProfiler` produces exactly that:

* ``attach(sketch)`` snapshots the catalog counters and the sketch's
  ``stage_seconds`` — the one stage clock, kept by the kernel engine's
  :func:`~repro.core.kernels.ingest_window`.  Nothing on the sketch is
  replaced or wrapped.
* ``window_closed(seconds)`` diffs both against the previous boundary
  and appends one flat telemetry record (counter deltas, gauge levels,
  burst / cold / hot / end seconds).  Records stream to an optional
  JSON-lines sink as they are produced, which is what the live
  ``repro obs`` panel tails.
* ``report()`` renders the aggregated stage-latency breakdown.

Only the kernel engine's window path is clocked.  The per-record loop
and ``engine="scalar"`` are the oracle and read no stage clock, so their
records carry zero stage seconds and ``report()`` says the stages were
not clocked.  Attaching adds nothing to the ingest path.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional

from .catalog import (
    BURST_INSTRUMENTS,
    COLD_INSTRUMENTS,
    HOT_INSTRUMENTS,
    SKETCH_INSTRUMENTS,
    sketch_metrics,
)
from .events import STAGES
from .exporters import to_jsonl
from .registry import KIND_COUNTER, MetricsRegistry

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


class WindowProfiler:
    """Record per-window telemetry for a Hypersistent-style sketch.

    ``registry`` (optional) receives latency histograms
    (``hs_window_seconds``, ``hs_stage_seconds{stage=...}``) so exported
    scrapes carry the latency distribution; ``sink`` (optional path)
    receives each window record as an appended JSON line the moment the
    window closes.

    >>> from repro.core import HSConfig, HypersistentSketch
    >>> sketch = HypersistentSketch(HSConfig(memory_bytes=16 * 1024))
    >>> profiler = WindowProfiler().attach(sketch)
    >>> sketch.insert("flow"); sketch.end_window()
    >>> record = profiler.window_closed(0.001)
    >>> record["hs_inserts_total"], profiler.records == [record]
    (1, True)
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 sink=None):
        self.registry = registry
        self.records: List[Dict] = []
        self._sink = Path(sink) if sink is not None else None
        self._sketch = None
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
        """Snapshot the sketch's counters and ``stage_seconds``; the
        sketch itself is left as it is.  Returns ``self`` for chaining."""
        if self._sketch is not None:
            raise RuntimeError("profiler is already attached")
        if not hasattr(sketch, "stage_seconds"):
            raise RuntimeError(
                f"{type(sketch).__name__} keeps no stage clock "
                "(stage_seconds) to profile"
            )
        self._sketch = sketch
        self._baseline = sketch_metrics(sketch)
        self._stage_baseline = dict(sketch.stage_seconds)
        return self

    def detach(self) -> None:
        """Stop profiling: drop the sketch reference."""
        self._sketch = None

    # ------------------------------------------------------------------
    def window_closed(self, seconds: Optional[float] = None) -> Dict:
        """Record the window that just closed.

        ``seconds`` is the window's wall-time as measured by the caller
        (the harness times each window's feed); pass ``None`` to fall
        back to the sum of stage time accrued since the last boundary.
        """
        if self._sketch is None:
            raise RuntimeError("profiler is not attached to a sketch")
        current = sketch_metrics(self._sketch)
        clock = self._sketch.stage_seconds
        stage_seconds = {
            stage: clock[stage] - self._stage_baseline[stage]
            for stage in STAGES
        }
        self._stage_baseline = dict(clock)
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
            stage: sum(r[f"{stage}_seconds"] for r in self.records)
            for stage in STAGES
        }
        timed = sum(stage_seconds.values())
        return {
            "windows": len(self.records),
            "seconds": total_seconds,
            "stage_seconds": stage_seconds,
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
        ]
        if any(summary["stage_seconds"].values()):
            lines.append(f"{'stage':<8} {'seconds':>10} {'share':>7}")
            for stage in STAGES:
                lines.append(
                    f"{stage:<8} {summary['stage_seconds'][stage]:>10.6f} "
                    f"{summary['stage_share'][stage]:>6.1%}"
                )
            lines.append(
                f"{'(other)':<8} {summary['overhead_seconds']:>10.6f}"
            )
        else:
            lines.append(
                "stages not clocked: per-record and scalar-engine feeds "
                "read no stage clock (the kernel engine's insert_window "
                "does)"
            )
        if self.records:
            last = self.records[-1]
            occupancy = last.get("hs_hot_occupancy")
            if occupancy is not None:
                lines.append(f"final hot occupancy: {occupancy:.1%}")
        return "\n".join(lines)
