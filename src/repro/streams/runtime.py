"""Online event-time driver: run a sketch on live ``(item, time)`` events.

Precomputed :class:`~repro.streams.model.Trace` objects suit experiments;
a deployment consumes an unbounded event stream and must decide window
boundaries itself.  :class:`StreamDriver` owns that logic:

* fixed-duration windows anchored at the first event's timestamp;
* automatic ``end_window`` calls when an event crosses the boundary
  (including closing any empty windows skipped over — flag semantics
  require every boundary to fire);
* policy for late (out-of-order) events: count into the current window
  (default, what a one-pass system can do), or drop, or raise.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..common.errors import StreamError
from ..common.hashing import ItemKey
from ..obs.catalog import bind_driver, legacy_driver_stats

#: Late-event policies.
LATE_CURRENT = "current"   # fold into the current window (default)
LATE_DROP = "drop"         # ignore the event
LATE_ERROR = "error"       # raise StreamError


class StreamDriver:
    """Feed timestamped events into any windowed sketch.

    >>> from repro.baselines.exact import ExactTracker
    >>> driver = StreamDriver(ExactTracker(), window_duration=10.0)
    >>> for t in (0.0, 5.0, 12.0, 27.0):
    ...     driver.process("flow", t)
    >>> driver.flush()
    >>> driver.sketch.query("flow")   # windows [0,10) [10,20) [20,30)
    3
    """

    def __init__(
        self,
        sketch,
        window_duration: float,
        late_policy: str = LATE_CURRENT,
        max_catchup_windows: int = 100_000,
        checkpoint_path=None,
        checkpoint_every: int = 1,
        trace_recorder=None,
    ):
        if window_duration <= 0:
            raise StreamError("window_duration must be positive")
        if late_policy not in (LATE_CURRENT, LATE_DROP, LATE_ERROR):
            raise StreamError(f"unknown late policy: {late_policy}")
        if max_catchup_windows < 1:
            raise StreamError("max_catchup_windows must be >= 1")
        if checkpoint_every < 1:
            raise StreamError("checkpoint_every must be >= 1")
        self.sketch = sketch
        self.window_duration = float(window_duration)
        self.late_policy = late_policy
        self.max_catchup_windows = max_catchup_windows
        # flight recorder (repro.obs.trace): wired only for sketches that
        # support it; the driver never emits events itself
        self.trace_recorder = trace_recorder
        if trace_recorder is not None and hasattr(sketch, "_wire_trace"):
            trace_recorder.attach(sketch)
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = int(checkpoint_every)
        self._origin: Optional[float] = None
        self._current_window = 0
        self._flushed = False
        self.events = 0
        self.late_events = 0
        self.dropped_events = 0

    # ------------------------------------------------------------------
    def _window_of(self, timestamp: float) -> int:
        return int((timestamp - self._origin) // self.window_duration)

    def process(self, item: ItemKey, timestamp: float) -> None:
        """Ingest one event; closes windows as event time advances."""
        if self._flushed:
            raise StreamError("driver already flushed")
        self.events += 1
        if self._origin is None:
            self._origin = float(timestamp)
        target = self._window_of(timestamp)
        if target < self._current_window:
            self.late_events += 1
            if self.late_policy == LATE_DROP:
                self.dropped_events += 1
                return
            if self.late_policy == LATE_ERROR:
                raise StreamError(
                    f"late event at t={timestamp} "
                    f"(window {target} < {self._current_window})"
                )
            target = self._current_window  # fold into the open window
        advance = target - self._current_window
        if advance > self.max_catchup_windows:
            raise StreamError(
                f"event jumps {advance} windows ahead "
                f"(> max_catchup_windows={self.max_catchup_windows})"
            )
        for _ in range(advance):
            self._close_window()
        self.sketch.insert(item)

    def _close_window(self) -> None:
        """Fire one boundary.

        With a ``checkpoint_path`` configured, every ``checkpoint_every``-th
        boundary atomically persists the driver (clock, counters, sketch);
        :meth:`restore` rebuilds it and the stream continues from the
        last checkpointed boundary as if the process never died.
        """
        self.sketch.end_window()
        self._current_window += 1
        if self.checkpoint_path is not None and \
                self._current_window % self.checkpoint_every == 0:
            self.checkpoint(self.checkpoint_path)

    # ------------------------------------------------------------------
    # crash recovery (see repro.persist)
    # ------------------------------------------------------------------
    def checkpoint(self, path) -> None:
        """Atomically persist the driver and its sketch to ``path``."""
        from ..persist.checkpoint import KIND_STREAM_DRIVER
        from ..persist.codec import write_frame
        from ..persist.state import tagged_state

        write_frame(path, {
            "kind": KIND_STREAM_DRIVER,
            "window_duration": self.window_duration,
            "late_policy": self.late_policy,
            "max_catchup_windows": self.max_catchup_windows,
            "origin": self._origin,
            "current_window": self._current_window,
            "flushed": self._flushed,
            "events": self.events,
            "late_events": self.late_events,
            "dropped_events": self.dropped_events,
            "sketch": tagged_state(self.sketch),
        })

    @classmethod
    def restore(cls, path, checkpoint_path=None,
                checkpoint_every: int = 1) -> "StreamDriver":
        """Rebuild a driver checkpointed with :meth:`checkpoint`.

        The restored driver sits exactly at the checkpointed window
        boundary: feeding it the events that arrived after the checkpoint
        produces the same estimates as a driver that never crashed.
        Checkpointing does not resume automatically — pass
        ``checkpoint_path`` (commonly the same ``path``) to re-arm it.
        """
        from ..common.errors import SnapshotError
        from ..persist.checkpoint import KIND_STREAM_DRIVER
        from ..persist.codec import read_frame
        from ..persist.state import restore_tagged

        payload = read_frame(path)
        if not isinstance(payload, dict) or \
                payload.get("kind") != KIND_STREAM_DRIVER:
            raise SnapshotError(f"{path} is not a stream-driver checkpoint")
        try:
            driver = cls(
                restore_tagged(payload["sketch"]),
                window_duration=payload["window_duration"],
                late_policy=payload["late_policy"],
                max_catchup_windows=int(payload["max_catchup_windows"]),
                checkpoint_path=checkpoint_path,
                checkpoint_every=checkpoint_every,
            )
            origin = payload["origin"]
            driver._origin = None if origin is None else float(origin)
            driver._current_window = int(payload["current_window"])
            driver._flushed = bool(payload["flushed"])
            driver.events = int(payload["events"])
            driver.late_events = int(payload["late_events"])
            driver.dropped_events = int(payload["dropped_events"])
        except (KeyError, TypeError, ValueError, StreamError) as exc:
            raise SnapshotError(
                f"stream-driver checkpoint {path} is invalid: {exc}"
            ) from exc
        if driver._current_window < 0:
            raise SnapshotError(
                f"stream-driver checkpoint {path} is invalid: negative "
                f"window clock"
            )
        return driver

    def flush(self) -> None:
        """Close the final window (call once, when the stream ends)."""
        if self._flushed:
            return
        if self._origin is not None:
            self._close_window()
        self._flushed = True

    # ------------------------------------------------------------------
    @property
    def windows_closed(self) -> int:
        """How many window boundaries have fired so far."""
        return self._current_window

    @property
    def current_window_start(self) -> Optional[float]:
        """Event-time start of the currently open window."""
        if self._origin is None:
            return None
        return self._origin + self._current_window * self.window_duration

    def query(self, item: ItemKey) -> int:
        """Live persistence estimate (delegates to the sketch)."""
        return self.sketch.query(item)

    def stats(self) -> Dict[str, float]:
        """Operational counters (thin view over the instrument catalog)."""
        return legacy_driver_stats(self)

    def bind(self, registry, labels=None):
        """Register this driver's pull instruments on ``registry``."""
        return bind_driver(registry, self, labels=labels)
