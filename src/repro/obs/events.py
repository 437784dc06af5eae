"""Typed stage events for the flight recorder (:mod:`repro.obs.trace`).

Every routing decision the pipeline makes — a key absorbed by the Burst
Filter, escalated from Cold Filter L1 to L2, promoted into or rejected
from the Hot Part — maps to exactly one event kind here.  The scalar
engine emits one event per decision; the kernel engine emits
*bulk* events reconstructed from the SoA masks after each wave, so a
single :class:`StageEvent` may carry an array of keys.  Both encodings
describe the same decisions and `repro explain` treats them uniformly.

Events are deliberately tiny (a NamedTuple over ints and an optional
``uint64`` array) so the ring buffer stays cheap even at high rates, and
carry no wall-clock work beyond one ``perf_counter`` read at emission.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

# -- Burst Filter -----------------------------------------------------------
#: Key newly stored in a burst cell (first occurrence this window).
BURST_ADMIT = "burst_admit"
#: Key could not be stored (bucket full) and was routed downstream.
BURST_OVERFLOW = "burst_overflow"
#: Stored keys flushed downstream at window close.
BURST_DRAIN = "burst_drain"

# -- Cold Filter ------------------------------------------------------------
#: Occurrence accepted by the L1 conservative-update layer.
COLD_L1_ACCEPT = "cold_l1_accept"
#: L1 saturated (>= delta1); occurrence escalated to and accepted by L2.
COLD_ESCALATE = "cold_escalate"
#: Both layers saturated; occurrence routed to the Hot Part.
COLD_OVERFLOW = "cold_overflow"

# -- Hot Part ---------------------------------------------------------------
#: Key already resident; its persistence counter advanced (or absorbed).
HOT_HIT = "hot_hit"
#: Key promoted into an empty Hot Part cell.
HOT_INSERT = "hot_insert"
#: Key won a probabilistic replacement trial and evicted a minimum cell.
HOT_REPLACE = "hot_replace"
#: Key lost its replacement trial and was dropped.
HOT_REJECT = "hot_reject"

# -- Pipeline ---------------------------------------------------------------
#: Window boundary: all stages rotated, subsequent events belong to the
#: next window.
WINDOW_ROTATE = "window_rotate"

#: Every event kind, in pipeline order (stable across releases; exporters
#: and the explain renderer index into this).
EVENT_KINDS = (
    BURST_ADMIT,
    BURST_OVERFLOW,
    BURST_DRAIN,
    COLD_L1_ACCEPT,
    COLD_ESCALATE,
    COLD_OVERFLOW,
    HOT_HIT,
    HOT_INSERT,
    HOT_REPLACE,
    HOT_REJECT,
    WINDOW_ROTATE,
)

#: Which pipeline stage each kind belongs to (used for span/track labels).
EVENT_STAGE = {
    BURST_ADMIT: "burst",
    BURST_OVERFLOW: "burst",
    BURST_DRAIN: "burst",
    COLD_L1_ACCEPT: "cold",
    COLD_ESCALATE: "cold",
    COLD_OVERFLOW: "cold",
    HOT_HIT: "hot",
    HOT_INSERT: "hot",
    HOT_REPLACE: "hot",
    HOT_REJECT: "hot",
    WINDOW_ROTATE: "window",
}

#: The insert path's clocked stages, in execution order: Algorithm 4's
#: three stages, then the window boundary.  ``ingest_window`` times each
#: one into ``HypersistentSketch.stage_seconds``, and the flight
#: recorder lays its stage spans in this order.
STAGES = ("burst", "cold", "hot", "end")

#: Cap on per-event key listings in JSON exports; bulk events always
#: report their exact total via ``count`` even when the listing is cut.
EXPORT_KEY_CAP = 16


class StageEvent(NamedTuple):
    """One recorded routing decision (or a bulk of identical decisions).

    ``key`` is set for scalar-engine events, ``keys`` (a ``uint64``
    array) for bulk events from the kernel engine; exactly one
    of the two is non-``None`` except for :data:`WINDOW_ROTATE`, which
    carries neither.  ``count`` is the number of occurrences covered and
    ``ts`` is seconds since the recorder was created (monotonic).
    """

    seq: int
    window: int
    kind: str
    key: Optional[int]
    count: int
    keys: Optional[np.ndarray]
    ts: float

    def involves(self, key: int) -> bool:
        """Whether this event covers ``key`` (scalar match or bulk
        membership; rotations cover no key)."""
        if self.key is not None:
            return self.key == key
        if self.keys is not None:
            return bool(np.any(self.keys == np.uint64(key)))
        return False

    def to_record(self, max_keys: int = EXPORT_KEY_CAP) -> dict:
        """JSON-able dict; bulk key listings are capped at ``max_keys``
        (the full size is always present in ``count``)."""
        record = {
            "seq": self.seq,
            "window": self.window,
            "kind": self.kind,
            "stage": EVENT_STAGE.get(self.kind, "other"),
            "count": self.count,
            "ts": round(self.ts, 9),
        }
        if self.key is not None:
            record["key"] = int(self.key)
        if self.keys is not None:
            listed = self.keys[:max_keys]
            record["keys"] = [int(k) for k in listed]
            record["n_keys"] = int(self.keys.size)
        return record
