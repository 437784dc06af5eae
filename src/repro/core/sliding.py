"""Sliding-window persistence estimation (extension beyond the paper).

The paper estimates persistence over the *whole* stream.  Operationally one
usually asks a sliding question — "in how many of the last ``W`` windows did
this flow appear?" — e.g. to expire old threats.  This module extends the
Hypersistent Sketch with the standard two-panel technique:

Two sketches cover alternating half-ranges of ``W`` windows.  At any moment
the *old* panel holds a completed half-range and the *young* panel the
in-progress one; their sum covers between ``W/2`` and ``W`` recent windows.
Every ``W/2`` window boundaries the old panel is cleared and the roles swap.
The estimate ``young + old`` therefore satisfies::

    p_last_half  <=  estimate_window_coverage  <=  p_last_W

plus the underlying sketch's own (one-sided) overestimation error.  This is
the classic jumping-window approximation: coverage jumps in half-range
steps instead of sliding by single windows, in exchange for only two
constant-size panels.
"""

from __future__ import annotations

from typing import Dict, List

from ..common.errors import ConfigError
from ..common.hashing import ItemKey
from .config import HSConfig
from .hypersistent import HypersistentSketch
from .kernels import ENGINE_KERNEL


class SlidingHypersistentSketch:
    """Persistence over (approximately) the last ``horizon`` windows.

    The memory budget is split evenly between the two panels, so accuracy
    per panel corresponds to ``memory_bytes / 2``.

    ``engine`` selects the batch ingestion backend exactly as on
    :class:`HypersistentSketch` (``scalar`` or ``kernel``); it is applied
    to both panels and follows them through rotation.  Both backends are
    bit-for-bit equivalent on the sliding wrapper too — the
    ``sliding-engine-equivalence`` verify invariant pins this — so the
    engine is a runtime choice and never enters :meth:`state_dict`.

    >>> sw = SlidingHypersistentSketch(memory_bytes=32 * 1024, horizon=8)
    >>> for _ in range(20):
    ...     sw.insert("flow")
    ...     sw.end_window()
    >>> 4 <= sw.query("flow") <= 8
    True
    """

    def __init__(self, memory_bytes: int, horizon: int, seed: int = 42,
                 engine: str = ENGINE_KERNEL):
        if horizon < 2:
            raise ConfigError("sliding horizon must be >= 2 windows")
        if memory_bytes < 2:
            raise ConfigError("memory_bytes must be >= 2")
        self.horizon = horizon
        # Ceiling split: with floor(horizon / 2) an odd horizon's maximum
        # coverage would top out at 2*half - 1 = horizon - 2, below the
        # documented sandwich.  Ceiling panels cover [ceil(W/2), 2*half - 1]
        # windows, whose upper end equals W for odd W (and W - 1 for even).
        self.half = max(1, (horizon + 1) // 2)
        panel_config = HSConfig.for_estimation(
            memory_bytes // 2, n_windows=horizon, seed=seed
        )
        self._young = HypersistentSketch(panel_config, engine=engine)
        self._old = HypersistentSketch(panel_config.with_seed(seed ^ 0x51),
                                       engine=engine)
        self._windows_in_young = 0
        self.window = 0

    @property
    def engine(self) -> str:
        """Active batch ingestion backend of both panels."""
        return self._young.engine

    @engine.setter
    def engine(self, value: str) -> None:
        self._young.engine = value
        self._old.engine = value

    def insert(self, item: ItemKey) -> None:
        """Record one occurrence in the current window."""
        self._young.insert(item)

    def insert_batch(self, items) -> None:
        """Columnar :meth:`insert` of a batch of occurrences, in order.

        Bit-for-bit equivalent to per-item ``insert`` calls (the batch
        lands in the young panel's open window through its own
        ``insert_batch``).  The window stays open — call
        :meth:`end_window` (or use :meth:`insert_window`) to close it.
        """
        self._young.insert_batch(items)

    def insert_window(self, items) -> None:
        """Process one whole window of occurrences and close it.

        The batch equivalent of ``insert`` x N + :meth:`end_window`, and
        bit-for-bit equivalent to it: the young panel ingests the window
        through its engine-dispatched ``insert_window`` (the scalar oracle
        or the fused SoA kernels per :attr:`engine`), the old
        panel fires its boundary to keep the flag epochs aligned, and the
        rotation bookkeeping runs exactly as the scalar path's.  Before
        this existed, batch callers (``run_stream`` auto-batching, the
        service ingest queue) silently degraded to per-item scalar
        inserts — or skipped the sliding wrapper entirely.
        """
        self._young.insert_window(items)
        self._old.end_window()  # keeps its flag epochs aligned
        self._advance()

    def end_window(self) -> None:
        """Close the window; rotate panels every half-horizon."""
        self._young.end_window()
        self._old.end_window()  # keeps its flag epochs aligned
        self._advance()

    def _advance(self) -> None:
        """Shared boundary bookkeeping: count the window, rotate panels."""
        self._windows_in_young += 1
        self.window += 1
        if self._windows_in_young >= self.half:
            self._old.clear()
            self._young, self._old = self._old, self._young
            self._windows_in_young = 0

    def query(self, item: ItemKey) -> int:
        """Estimated appearances within the covered recent range.

        The covered range spans the last ``half + windows_in_young``
        windows (between ``ceil(horizon/2)`` and ``horizon``); see
        :attr:`coverage` for its current exact length.
        """
        return self._young.query(item) + self._old.query(item)

    def explain(self, item: ItemKey) -> Dict[str, object]:
        """Per-panel decision audit: ``{"young": ..., "old": ...}``.

        Each value is an :class:`~repro.obs.trace.Explanation` (see
        :meth:`HypersistentSketch.explain
        <repro.core.hypersistent.HypersistentSketch.explain>`); the
        sliding estimate is the sum of the two panels' ``estimate``
        fields, covering the last :attr:`coverage` windows.
        """
        return {
            "young": self._young.explain(item),
            "old": self._old.explain(item),
        }

    def _wire_trace(self, recorder) -> None:
        """Propagate a flight recorder to both panels (the panels swap
        roles on rotation, so both must stay wired)."""
        self._young._wire_trace(recorder)
        self._old._wire_trace(recorder)

    @property
    def coverage(self) -> int:
        """How many recent windows the current estimate covers."""
        return min(self.window, self.half + self._windows_in_young)

    def report(self, threshold: int) -> Dict[int, int]:
        """Items whose recent-range persistence estimate >= ``threshold``.

        Candidates are the union of both panels' Hot Part populations
        (the only items either panel can name), and each candidate is
        scored through the same staged path :meth:`query` uses — so
        ``report(t)`` and ``query(e) >= t`` always agree on the same item,
        mirroring the flat sketch's report/query consistency invariant.
        An item hot in one panel and still cold in the other therefore
        picks up the cold panel's partial estimate too, instead of only
        its Hot Part contributions.
        """
        candidates = set(self._young.hot.items()) | set(self._old.hot.items())
        out: Dict[int, int] = {}
        for key in sorted(candidates):
            estimate = self.query(key)
            if estimate >= threshold:
                out[key] = estimate
        return out

    @property
    def memory_bytes(self) -> int:
        """Modeled memory footprint in bytes."""
        return self._young.memory_bytes + self._old.memory_bytes

    @property
    def hash_ops(self) -> int:
        """Total hash computations across both panels (cost model)."""
        return self._young.hash_ops + self._old.hash_ops

    def query_ceiling(self) -> int:
        """Provable upper bound on any boundary-time query estimate.

        Each panel's estimate is at most ``delta1 + delta2`` (a cold item
        capped at the thresholds) plus its Hot Part's stored count, which
        by induction never exceeds the panel's window clock plus its
        replacement count.  The verification invariants check against
        this — not against :attr:`coverage`, which the underlying
        sketch's one-sided overestimation error may legitimately exceed.
        """
        return sum(
            panel.cold.delta1 + panel.cold.delta2 + panel.window
            + panel.hot.replacements
            for panel in (self._young, self._old)
        )

    @property
    def panel_replacements(self) -> int:
        """Total Hot Part replacements across both panels.

        When zero, neither panel has ever evicted an item, so the
        jumping-window sandwich (coverage lower bound for an every-window
        item, one-sided overestimation above it) holds exactly — the
        condition the verification invariants key on.
        """
        return (self._young.hot.replacements + self._old.hot.replacements)

    def verify_state(self) -> List[str]:
        """Structural self-check over both panels (empty list = OK).

        Delegates to the panels' ``verify_state`` and checks the rotation
        bookkeeping: the in-progress half-range never reaches ``half``
        (rotation fires exactly at the boundary), the panel split is the
        ceiling of ``horizon / 2`` (the sizing that lets coverage reach an
        odd horizon), and the advertised coverage stays within
        ``[0, horizon]``.
        """
        problems = [f"young: {p}" for p in self._young.verify_state()]
        problems += [f"old: {p}" for p in self._old.verify_state()]
        if not 0 <= self._windows_in_young < self.half:
            problems.append(
                f"windows_in_young {self._windows_in_young} outside "
                f"[0, {self.half})"
            )
        if self.half != max(1, (self.horizon + 1) // 2):
            problems.append(
                f"panel split {self.half} != ceil({self.horizon} / 2)"
            )
        if not 0 <= self.coverage <= self.horizon:
            problems.append(
                f"coverage {self.coverage} outside [0, {self.horizon}]"
            )
        return problems

    def state_dict(self) -> Dict:
        """Exact state as plain values (see :mod:`repro.persist`)."""
        return {
            "horizon": self.horizon,
            "half": self.half,
            "young": self._young.state_dict(),
            "old": self._old.state_dict(),
            "windows_in_young": self._windows_in_young,
            "window": self.window,
        }

    @classmethod
    def from_state(cls, state: Dict) -> "SlidingHypersistentSketch":
        """Rebuild a sliding sketch bit-identical to the saved one."""
        obj = cls.__new__(cls)
        obj.horizon = int(state["horizon"])
        obj.half = int(state["half"])
        obj._young = HypersistentSketch.from_state(state["young"])
        obj._old = HypersistentSketch.from_state(state["old"])
        obj._windows_in_young = int(state["windows_in_young"])
        obj.window = int(state["window"])
        return obj
