"""Flight recorder: bounded ring buffer of stage events, window/stage
spans, per-key audit, and JSONL / Chrome trace-event exports.

Design constraints (mirroring the rest of :mod:`repro.obs`):

* **Off by default** — stages hold ``trace = None`` until a recorder is
  attached, and every emission site in the hot path is guarded by an
  enabled-check (enforced by the SC-OBS staticcheck rule), so the
  disabled cost is one attribute read per *wave*, not per item.  The
  ``check_obs_overhead.py`` CI gate bounds it below 5%.
* **Bounded** — events and spans live in ``deque(maxlen=capacity)``
  rings; a runaway stream evicts the oldest events instead of growing
  without bound.  ``TraceRecorder.dropped`` reports evictions.
* **Loop-free on the kernel path** — the kernel engine emits
  *bulk* events whose key arrays are slices of the SoA planes already
  computed by the wave kernels; no per-item Python executes.

Typical wiring::

    from repro.obs import TraceRecorder

    recorder = TraceRecorder(capacity=8192)
    recorder.attach(sketch)              # wires every stage
    ...                                  # ingest windows
    print(sketch.explain("10.0.0.1"))    # narrative decision audit
    write_events_jsonl(recorder, "events.jsonl")
    json.dump(to_chrome_trace(recorder), open("trace.json", "w"))
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Union

import numpy as np

from .events import (
    EVENT_KINDS,
    EVENT_STAGE,
    EXPORT_KEY_CAP,
    STAGES,
    WINDOW_ROTATE,
    StageEvent,
)

PathLike = Union[str, Path]

#: Default ring capacity: enough for thousands of windows of bulk events
#: (one slot per wave-stage, not per item) while staying a few MB worst
#: case.
DEFAULT_CAPACITY = 4096


class Span(NamedTuple):
    """A timed region: ``start`` is seconds since the recorder's epoch,
    ``dur`` its length in seconds, ``window`` the window it closed."""

    name: str
    window: int
    start: float
    dur: float


class TraceRecorder:
    """Bounded flight recorder for pipeline stage events and spans.

    One recorder can serve one sketch (or a sharded/sliding ensemble —
    every member then shares the ring).  ``enabled`` may be toggled at
    any time; emission sites check it before doing any work.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 enabled: bool = True) -> None:
        if capacity < 1:
            raise ValueError("trace capacity must be >= 1")
        self.capacity = int(capacity)
        self.enabled = bool(enabled)
        self.window = 0
        self.emitted = 0
        self.events: "deque[StageEvent]" = deque(maxlen=self.capacity)
        self.spans: "deque[Span]" = deque(maxlen=self.capacity)
        self._seq = 0
        self._t0 = time.perf_counter()

    # -- emission (hot-path side) ------------------------------------------

    def _append(self, kind: str, key: Optional[int], count: int,
                keys: Optional[np.ndarray]) -> None:
        self.events.append(StageEvent(
            self._seq, self.window, kind, key, count, keys,
            time.perf_counter() - self._t0,
        ))
        self._seq += 1
        self.emitted += 1

    def emit(self, kind: str, key: int, count: int = 1) -> None:
        """Record one scalar routing decision for ``key``."""
        if not self.enabled:
            return
        self._append(kind, int(key), count, None)

    def emit_bulk(self, kind: str, keys: Any,
                  count: Optional[int] = None) -> None:
        """Record one bulk decision covering ``keys`` (array-like of
        uint64).  Empty bulks are skipped; the array is copied so later
        in-place kernel mutation cannot corrupt the ring."""
        if not self.enabled:
            return
        arr = np.asarray(keys, dtype=np.uint64)
        if arr.size == 0:
            return
        self._append(kind, None, int(arr.size if count is None else count),
                     arr.copy())

    def rotate(self, window: int) -> None:
        """Record a window boundary.  The rotation event is tagged with
        the window that just closed; subsequent events belong to
        ``window``."""
        if self.enabled:
            self._append(WINDOW_ROTATE, None, 0, None)
        self.window = int(window)

    def record_span(self, name: str, started: float, window: int) -> None:
        """Close a span opened at ``started`` (a ``perf_counter`` stamp
        taken by the caller) ending now."""
        if not self.enabled:
            return
        now = time.perf_counter()
        self.spans.append(Span(name, int(window),
                               started - self._t0, now - started))

    def record_stage_spans(self, window: int, durations: Sequence[float],
                           started: float) -> None:
        """Lay one span per :data:`~repro.obs.events.STAGES` entry
        back-to-back from ``started`` (a ``perf_counter`` stamp), taking
        their lengths from ``durations`` in that order, plus one covering
        ``window`` span.

        ``ingest_window`` passes the durations it reads at the stage
        boundaries, so the spans tile the window exactly.
        """
        if not self.enabled:
            return
        cursor = started - self._t0
        total = 0.0
        for name, dur in zip(STAGES, durations):
            dur = float(dur)
            self.spans.append(Span(name, int(window), cursor, dur))
            cursor += dur
            total += dur
        self.spans.append(Span("window", int(window),
                               started - self._t0, total))

    # -- wiring -------------------------------------------------------------

    def attach(self, target: Any) -> "TraceRecorder":
        """Wire this recorder into ``target`` (a sketch / ensemble that
        implements ``_wire_trace``); returns ``self`` for chaining."""
        wire = getattr(target, "_wire_trace", None)
        if wire is None:
            raise TypeError(
                f"{type(target).__name__} does not support tracing "
                "(no _wire_trace hook)"
            )
        wire(self)
        return self

    def detach(self, target: Any) -> None:
        """Unwire tracing from ``target`` (stages go back to ``None``)."""
        wire = getattr(target, "_wire_trace", None)
        if wire is not None:
            wire(None)

    # -- query side ----------------------------------------------------------

    @property
    def dropped(self) -> int:
        """Events evicted from the ring since creation."""
        return self.emitted - len(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def events_for(self, key: int) -> List[StageEvent]:
        """All retained events covering ``key`` (scalar or bulk), plus
        rotations, in emission order — the raw material for
        :meth:`Explanation.narrative`."""
        key = int(key)
        return [ev for ev in self.events
                if ev.kind == WINDOW_ROTATE or ev.involves(key)]

    def clear(self) -> None:
        """Drop all retained events and spans (counters keep running)."""
        self.events.clear()
        self.spans.clear()


# -- exports ------------------------------------------------------------------


def events_to_records(recorder: TraceRecorder,
                      max_keys: int = EXPORT_KEY_CAP) -> List[dict]:
    """The retained ring as JSON-able dicts, oldest first."""
    return [ev.to_record(max_keys) for ev in recorder.events]


def write_spans_jsonl(recorder: TraceRecorder, path: PathLike) -> int:
    """Write one JSON object per recorded span; returns the count."""
    import json
    target = Path(path)
    if target.parent != Path(""):
        target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w") as handle:
        for span in recorder.spans:
            handle.write(json.dumps(span._asdict()) + "\n")
    return len(recorder.spans)


def write_events_jsonl(recorder: TraceRecorder, path: PathLike,
                       max_keys: int = EXPORT_KEY_CAP) -> int:
    """Write one JSON object per retained event; returns the count."""
    import json
    records = events_to_records(recorder, max_keys)
    target = Path(path)
    if target.parent != Path(""):
        target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
    return len(records)


def to_chrome_trace(recorder: TraceRecorder,
                    pid: int = 1) -> Dict[str, Any]:
    """Render spans + events in Chrome trace-event format (the JSON
    object flavour), loadable in ``chrome://tracing`` or Perfetto.

    Spans become ``"X"`` complete events on a per-stage tid; stage
    events become ``"i"`` instants.  Timestamps are microseconds since
    the recorder epoch.
    """
    tids = {name: i + 1 for i, name in
            enumerate(("window",) + STAGES)}
    trace_events: List[dict] = []
    for span in recorder.spans:
        trace_events.append({
            "name": span.name,
            "ph": "X",
            "ts": span.start * 1e6,
            "dur": span.dur * 1e6,
            "pid": pid,
            "tid": tids.get(span.name, len(tids) + 1),
            "cat": "stage" if span.name != "window" else "window",
            "args": {"window": span.window},
        })
    for ev in recorder.events:
        args: Dict[str, Any] = {"window": ev.window, "count": ev.count}
        if ev.key is not None:
            args["key"] = int(ev.key)
        if ev.keys is not None:
            args["n_keys"] = int(ev.keys.size)
        stage = EVENT_STAGE.get(ev.kind, "window")
        trace_events.append({
            "name": ev.kind,
            "ph": "i",
            "ts": ev.ts * 1e6,
            "s": "t",
            "pid": pid,
            "tid": tids.get(stage, len(tids) + 1),
            "cat": "event",
            "args": args,
        })
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


#: Phases emitted by :func:`to_chrome_trace`; the validator accepts only
#: these (we never produce B/E pairs or counters).
_CHROME_PHASES = {"X", "i"}


def validate_chrome_trace(payload: Any) -> List[str]:
    """Structural schema check over a Chrome trace-event JSON object.

    Returns a list of problems (empty == valid).  Dependency-free on
    purpose: CI round-trips exports through ``json`` and this check
    instead of requiring an external schema validator.
    """
    problems: List[str] = []
    if not isinstance(payload, dict):
        return ["top level must be a JSON object"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        for key in ("name", "ph", "ts", "pid", "tid"):
            if key not in ev:
                problems.append(f"{where}: missing {key!r}")
        ph = ev.get("ph")
        if ph not in _CHROME_PHASES:
            problems.append(f"{where}: unexpected phase {ph!r}")
        if not isinstance(ev.get("name"), str):
            problems.append(f"{where}: name must be a string")
        for key in ("ts", "dur"):
            if key in ev and not isinstance(ev[key], (int, float)):
                problems.append(f"{where}: {key} must be numeric")
        if ph == "X" and "dur" not in ev:
            problems.append(f"{where}: complete event missing dur")
        if ev.get("ts", 0) < 0:
            problems.append(f"{where}: negative ts")
        name = ev.get("name")
        if (ev.get("cat") == "event" and isinstance(name, str)
                and name not in EVENT_KINDS):
            problems.append(f"{where}: unknown event kind {name!r}")
        args = ev.get("args")
        if args is not None and not isinstance(args, dict):
            problems.append(f"{where}: args must be an object")
    return problems


# -- per-key decision audit ---------------------------------------------------


@dataclass
class Explanation:
    """A key's full decision audit: where it lives, why, and how its
    ``query()`` estimate decomposes.  Built by ``sketch.explain(item)``
    from *counter-neutral* probes, so explaining never perturbs the
    operational counters the registry exports.
    """

    item: Any
    key: int
    window: int
    engine: str
    #: 1 when the key is pending in the Burst Filter this window.
    pending_burst: int
    l1_min: int
    l2_min: int
    delta1: int
    delta2: int
    #: Resolving stage: ``'l1'``, ``'l2'`` or ``'hot'``.
    stage: str
    #: The Cold Filter's contribution (including error-ceiling terms).
    cold_partial: int
    needs_hot: bool
    hot_resident: bool
    hot_value: int
    #: Must equal ``sketch.query(item)[0]`` exactly.
    estimate: int
    events: List[StageEvent] = field(default_factory=list)

    @property
    def hot_contribution(self) -> int:
        return self.hot_value if self.needs_hot else 0

    def decomposition(self) -> Dict[str, int]:
        """The additive estimate decomposition (sums to ``estimate``)."""
        return {
            "burst": self.pending_burst,
            "cold": self.cold_partial,
            "hot": self.hot_contribution,
        }

    def _stage_lines(self) -> List[str]:
        lines = []
        if self.pending_burst:
            lines.append("  burst : pending this window (+1 once drained)")
        else:
            lines.append("  burst : not pending")
        if self.stage == "l1":
            lines.append(
                f"  L1    : min counter {self.l1_min}/{self.delta1} "
                f"-> resolves here (estimate {self.l1_min})"
            )
        else:
            lines.append(
                f"  L1    : saturated at delta1={self.delta1} "
                "-> escalated to L2"
            )
        if self.stage == "l1":
            lines.append("  L2    : not consulted")
        elif self.stage == "l2":
            lines.append(
                f"  L2    : min counter {self.l2_min}/{self.delta2} "
                f"-> resolves here (delta1 + {self.l2_min} "
                f"= {self.cold_partial})"
            )
        else:
            lines.append(
                f"  L2    : saturated at delta2={self.delta2} "
                f"-> cold ceiling delta1+delta2 = {self.cold_partial}"
            )
        if not self.needs_hot:
            lines.append("  hot   : not consulted (resolved in cold)")
        elif self.hot_resident:
            lines.append(
                f"  hot   : resident, stored persistence {self.hot_value}"
            )
        else:
            lines.append(
                "  hot   : NOT resident (lost promotion/replacement) "
                "-> contribution 0"
            )
        return lines

    def _event_lines(self, max_events: int = 12) -> List[str]:
        decisions = [ev for ev in self.events if ev.kind != WINDOW_ROTATE]
        if not decisions:
            return ["  events: none recorded "
                    "(no recorder attached, or evicted from the ring)"]
        lines = [f"  events: {len(decisions)} recorded decision(s)"]
        for ev in decisions[-max_events:]:
            bulk = " [bulk]" if ev.keys is not None else ""
            lines.append(f"    w{ev.window:<4d} {ev.kind}{bulk}")
        if len(decisions) > max_events:
            lines.insert(2, f"    ... {len(decisions) - max_events} older "
                            "event(s) elided")
        return lines

    def narrative(self) -> str:
        """Multi-line human-readable account of the key's journey."""
        head = (
            f"key {self.key}"
            + (f" (item {self.item!r})" if self.item != self.key else "")
            + f" at window {self.window} [{self.engine} engine] "
            f"-> resolves at {self.stage.upper()}"
        )
        parts = self.decomposition()
        total = (
            f"  query : {parts['burst']} (burst) + {parts['cold']} (cold) "
            f"+ {parts['hot']} (hot) = {self.estimate}"
            + ("  [upper bound: cold layers saturated]"
               if self.needs_hot and not self.hot_resident else "")
        )
        return "\n".join([head, *self._stage_lines(), total,
                          *self._event_lines()])

    def __str__(self) -> str:
        return self.narrative()
