"""The composed Hypersistent Sketch (paper Sections III-E/F, Algorithms 4/5).

Insert path (Algorithm 4)::

    item --> Burst Filter --(bucket full)--> Cold Filter --(overflow)--> Hot Part

At every window boundary the Burst Filter is drained into the Cold Filter
(promoting overflows to the Hot Part), then all on/off flags reset.

Query path (Algorithm 5): an in-window Burst Filter probe contributes at most
1, then the staged Cold Filter / Hot Part walk returns
``v1``, ``delta1 + v2`` or ``delta1 + delta2 + v3`` depending on where the
item's persistence lives.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from ..common.errors import ConfigError, MergeError
from ..common.hashing import ItemKey, canonical_key, canonical_keys
from ..obs.catalog import bind_sketch, legacy_sketch_stats, sketch_metrics
from ..obs.events import BURST_DRAIN, STAGES
from .burst_filter import BurstFilter
from .cold_filter import ColdFilter
from .config import HSConfig
from .hot_part import HotPart
from .kernels import ENGINE_KERNEL, ENGINE_SCALAR, ENGINES, ingest_window
from .simd import VectorizedBurstFilter


class HypersistentSketch:
    """Three-stage persistence sketch.

    Implements both paper tasks: :meth:`query` for persistence estimation
    and :meth:`report` for finding persistent items (the Hot Part stores
    full IDs, so every reportable item is collision-free).

    ``engine`` selects the batch ingestion backend (how
    :meth:`insert_window` / :meth:`insert_batch` replay a window —
    per-record :meth:`insert` calls are always scalar):

    * ``"scalar"`` — per-record replay, the oracle the fast path is
      checked against;
    * ``"kernel"`` — the fused structure-of-arrays kernels of
      :mod:`repro.core.kernels` (default).

    Both are bit-for-bit equivalent — state, estimates, and counters — so
    the engine is a runtime choice and never enters :meth:`state_dict`.

    :attr:`stage_seconds` maps each of :data:`~repro.obs.events.STAGES`
    to the wall seconds the kernel engine's :meth:`insert_window` spent
    in it; per-record and scalar-engine feeds read no stage clock.  It is
    run timing, not state: never serialized, zeroed by
    :meth:`reset_stats`.

    >>> sketch = HypersistentSketch(HSConfig(memory_bytes=64 * 1024))
    >>> for window in range(3):
    ...     sketch.insert("10.0.0.1")
    ...     sketch.insert("10.0.0.1")   # same window: counted once
    ...     sketch.end_window()
    >>> sketch.query("10.0.0.1")
    3
    """

    def __init__(self, config: Optional[HSConfig] = None,
                 engine: str = ENGINE_KERNEL, **kwargs):
        if config is None:
            config = HSConfig(**kwargs)
        elif kwargs:
            raise TypeError("pass either a config object or keyword fields")
        self.config = config
        # runtime-only backend choice, never serialized (the engines are
        # bit-identical; from_state always restores as "kernel")
        self.engine = engine  # staticcheck: ignore[SC-PERSIST]
        seed = config.seed
        n_burst = config.burst_buckets()
        self.burst: Optional[BurstFilter] = (
            BurstFilter(n_burst, config.burst_cells_per_bucket,
                        seed=seed ^ 0xB0_0001)
            if n_burst
            else None
        )
        self.cold = ColdFilter(
            l1_width=config.l1_width(),
            l2_width=config.l2_width(),
            delta1=config.delta1,
            delta2=config.delta2,
            d1=config.d1,
            d2=config.d2,
            seed=seed,
        )
        self.hot = HotPart(
            n_buckets=config.hot_buckets(),
            entries_per_bucket=config.hot_entries_per_bucket,
            replacement=config.replacement,
            seed=seed,
        )
        self.window = 0
        self.inserts = 0
        # flight-recorder hook; runtime wiring via TraceRecorder.attach,
        # never serialized
        # staticcheck: ignore[SC-PERSIST]
        self.trace = None
        # wall seconds per stage, added by the kernel engine's
        # ingest_window; a run's timing, not sketch state, so it is never
        # serialized and stays out of stats() and the metric catalog
        # staticcheck: ignore[SC-PERSIST]
        self.stage_seconds = dict.fromkeys(STAGES, 0.0)

    @property
    def engine(self) -> str:
        """Active batch ingestion backend (``scalar`` or ``kernel``)."""
        return self._engine

    @engine.setter
    def engine(self, value: str) -> None:
        if value not in ENGINES:
            raise ConfigError(
                f"unknown engine {value!r}; choose from {ENGINES}"
            )
        self._engine = value

    # ------------------------------------------------------------------
    # insertion (Algorithm 4)
    # ------------------------------------------------------------------
    def insert(self, item: ItemKey) -> None:
        """Record one occurrence of ``item`` in the current window."""
        self.inserts += 1
        key = canonical_key(item)
        if self.burst is not None and self.burst.insert(key):
            return
        self._insert_downstream(key)

    def _insert_downstream(self, key: int) -> None:
        """Cold Filter, then Hot Part on overflow (stages 2-3)."""
        if not self.cold.insert(key):
            self.hot.insert(key)

    def end_window(self) -> None:
        """Flush the Burst Filter, then reset all window flags."""
        tr = self.trace
        if self.burst is not None:
            if tr is not None and tr.enabled:
                # buffer the drain so it can be recorded as one bulk
                # event before the downstream inserts emit theirs
                drained = list(self.burst.drain())
                tr.emit_bulk(BURST_DRAIN, drained)
                for key in drained:
                    self._insert_downstream(key)
            else:
                for key in self.burst.drain():
                    self._insert_downstream(key)
        self.cold.end_window()
        self.hot.end_window()
        self.window += 1
        if tr is not None and tr.enabled:
            tr.rotate(self.window)

    def insert_batch(self, items) -> None:
        """Columnar :meth:`insert` of a batch of occurrences, in order.

        Bit-for-bit equivalent to calling ``insert`` per item: the Burst
        Filter admits the whole batch in one columnar plan, and the
        occurrences it could not absorb walk the Cold Filter / Hot Part in
        their original arrival order via the stages' batch paths.  The
        window stays open — call :meth:`end_window` (or use
        :meth:`insert_window`) to close it.  Under ``engine="scalar"`` the
        batch is replayed record-at-a-time instead (the oracle path).
        """
        keys = canonical_keys(items)
        if self._engine == ENGINE_SCALAR:
            self._scalar_replay(keys)
            return
        self.inserts += int(keys.size)
        if self.burst is not None:
            absorbed = self.burst.insert_batch(keys)
            keys = keys[~absorbed]
        if keys.size:
            accepted = self.cold.insert_batch(keys)
            self.hot.insert_batch(keys[~accepted])

    def _scalar_replay(self, keys: np.ndarray) -> None:
        """The oracle path: feed canonical keys through scalar ``insert``."""
        for key in keys.tolist():  # staticcheck: ignore[SC-LOOP]
            self.insert(key)

    def insert_window(self, items) -> None:
        """Process one whole window of occurrences and close it.

        The batch equivalent of ``insert`` x N + ``end_window``, and
        bit-for-bit equivalent to it.  Use it when the caller already holds
        the window's records as a batch (see
        :meth:`~repro.streams.model.Trace.window_arrays`).

        Dispatches on :attr:`engine`: ``"scalar"`` replays the window
        record-at-a-time (the oracle), ``"kernel"`` runs the fused SoA
        kernels (:func:`repro.core.kernels.ingest_window`): the Burst
        Filter's whole-window plan decides absorption exactly as the
        per-record scans would, the overflowing occurrences go downstream
        in arrival order, and the absorbed distinct keys follow in drain
        order — the same downstream sequence the scalar path produces.
        """
        keys = canonical_keys(items)
        if self._engine == ENGINE_SCALAR:
            self._scalar_replay(keys)
            self.end_window()
            return
        ingest_window(self, keys)

    # ------------------------------------------------------------------
    # query (Algorithm 5)
    # ------------------------------------------------------------------
    def query(self, item: ItemKey) -> int:
        """Estimated persistence of ``item``.

        Mid-window queries include the Burst Filter's pending +1; right
        after :meth:`end_window` the Burst Filter is empty and the probe is
        a no-op, so one code path serves both of the paper's query modes.
        """
        key = canonical_key(item)
        pending = 0
        if self.burst is not None and len(self.burst) and \
                self.burst.contains(key):
            pending = 1
        estimate, needs_hot = self.cold.query(key)
        if needs_hot:
            estimate += self.hot.query(key)
        return pending + estimate

    def resolving_stage(self, item: ItemKey) -> str:
        """Which stage answers a query for ``item``: 'l1', 'l2' or 'hot'.

        The staged-query property behind figure 20(e)/(f): cold items are
        answered at L1, the mid band at L2, and only the hot tail walks to
        the Hot Part.  Does not touch any statistics counters.
        """
        key = canonical_key(item)
        if self.cold.l1.minimum(key) < self.cold.delta1:
            return "l1"
        if self.cold.l2.minimum(key) < self.cold.delta2:
            return "l2"
        return "hot"

    def explain(self, item: ItemKey):
        """Per-key decision audit: where ``item`` lives, why, and how its
        :meth:`query` estimate decomposes into burst/cold/hot terms.

        Returns an :class:`~repro.obs.trace.Explanation` whose
        ``estimate`` equals ``query(item)`` exactly and whose
        ``narrative()`` renders the journey (including the recorded
        routing events when a :class:`~repro.obs.trace.TraceRecorder` is
        attached).  Counter-neutral: explaining never moves the
        ``hash_ops`` / ``compare_ops`` cost model the registry exports.
        """
        from ..obs.trace import Explanation  # local: keep import light
        key = canonical_key(item)
        pending = 0
        if self.burst is not None and len(self.burst) \
                and self.burst.peek(key):
            pending = 1
        l1_min = self.cold.l1.minimum(key)
        l2_min = self.cold.l2.minimum(key)
        delta1, delta2 = self.cold.delta1, self.cold.delta2
        if l1_min < delta1:
            stage, cold_partial, needs_hot = "l1", l1_min, False
        elif l2_min < delta2:
            stage, cold_partial, needs_hot = "l2", delta1 + l2_min, False
        else:
            stage, cold_partial, needs_hot = "hot", delta1 + delta2, True
        hot_value = self.hot.peek(key)
        hot_resident = hot_value is not None
        hot_contrib = hot_value if (needs_hot and hot_resident) else 0
        events = (self.trace.events_for(key)
                  if self.trace is not None else [])
        return Explanation(
            item=item,
            key=key,
            window=self.window,
            engine=self._engine,
            pending_burst=pending,
            l1_min=l1_min,
            l2_min=l2_min,
            delta1=delta1,
            delta2=delta2,
            stage=stage,
            cold_partial=cold_partial,
            needs_hot=needs_hot,
            hot_resident=hot_resident,
            hot_value=hot_value if hot_resident else 0,
            estimate=pending + cold_partial + hot_contrib,
            events=events,
        )

    def _wire_trace(self, recorder) -> None:
        """Attach (``TraceRecorder``) or detach (``None``) the flight
        recorder on this sketch and all its stages."""
        self.trace = recorder
        for name in ("burst", "cold", "hot"):
            stage = getattr(self, name)
            if stage is not None:
                stage.trace = recorder

    # ------------------------------------------------------------------
    # merge (distributed ingestion; see docs/DISTRIBUTED.md)
    # ------------------------------------------------------------------
    def merge(self, *others: "HypersistentSketch") -> "HypersistentSketch":
        """Union this sketch with ``others`` into a **new** sketch.

        The merged sketch summarizes the union of the operands' streams:
        Cold Filter counters add (clamped at each layer threshold — the
        values past which the staged query escalates anyway), on/off
        flags OR in canonical stamp form, and each Hot Part bucket keeps
        its best candidates by (persistence desc, key asc) with
        duplicate keys summing their evidence.  The result is bit-exact
        commutative, and associative whenever the operands hold disjoint
        key sets (the distributed pipeline's partitioning guarantees
        that; with overlapping keys, bucket-capacity eviction can order
        ties differently, like any top-k union).

        Error composition: each operand carries the Cold Filter's
        one-sided error of at most ``delta1 + delta2`` per key, and the
        counter add can at worst stack those underestimated residues —
        so a merge of ``n`` partitions overestimates a key's persistence
        by at most ``(n - 1) * (delta1 + delta2)`` beyond the single
        operand bounds, and never underestimates below the maximum
        operand estimate.  Under *key-disjoint* partitioning the owning
        operand holds the key's whole history, and the distributed
        runner's sharded form (:meth:`ShardedSketch.coalesce
        <repro.core.sharded.ShardedSketch.coalesce>`) is exact.

        Preconditions (:class:`MergeError` otherwise, operands
        untouched): identical configs, equal window clocks, drained
        Burst Filters (merge at window boundaries only), distinct
        sketch objects, at least one other sketch.  The merged config's
        ``meta["merge"]["parts"]`` records how many original sketches
        fed the result (cumulative across merge chains — the ``n`` of
        the error bound above); per-layer clamp and eviction counts are
        returned by the stage-level ``merge_from`` methods and recorded
        as a ``merge`` span when a flight recorder is attached.
        """
        if not others:
            raise MergeError("merge needs at least one other sketch")
        sketches = (self,) + tuple(others)
        if len({id(s) for s in sketches}) != len(sketches):
            raise MergeError("cannot merge a sketch with itself")
        for other in others:
            if not isinstance(other, HypersistentSketch):
                raise MergeError(
                    f"cannot merge HypersistentSketch with "
                    f"{type(other).__name__}"
                )
            if other.config != self.config:
                raise MergeError(
                    "sketch configs differ; merge requires identical "
                    "sizing, thresholds, policies, and seeds"
                )
            if other.window != self.window:
                raise MergeError(
                    f"window clocks differ: {self.window} vs "
                    f"{other.window}"
                )
            if (self.burst is not None and
                    (len(self.burst) or len(other.burst))):
                raise MergeError(
                    "burst filters must be drained before merging "
                    "(call end_window / insert_window first)"
                )
        tr = self.trace
        started = time.perf_counter() if (tr is not None and tr.enabled) \
            else 0.0
        merged = HypersistentSketch.from_state(self.state_dict())
        merged.engine = self._engine
        # cumulative operand count: a merge-of-merges sums the original
        # part counts, so the provenance marker stays associative (and
        # merged states stay byte-identical across association orders)
        parts = sum(
            s.config.meta.get("merge", {}).get("parts", 1)
            for s in sketches
        )
        for other in others:
            if merged.burst is not None:
                merged.burst.merge_from(other.burst)
            merged.cold.merge_from(other.cold)
            merged.hot.merge_from(other.hot)
            merged.inserts += other.inserts
        merged.config.meta["merge"] = {"parts": parts}
        if tr is not None and tr.enabled:
            tr.record_span("merge", started, self.window)
        return merged

    def report(self, threshold: int) -> Dict[int, int]:
        """Items with estimated persistence >= ``threshold``.

        Reportable items are exactly those promoted to the Hot Part; their
        estimate is ``delta1 + delta2 + stored`` per Algorithm 5.
        """
        base = self.cold.delta1 + self.cold.delta2
        return {
            key: base + per
            for key, per in self.hot.items().items()
            if base + per >= threshold
        }

    # ------------------------------------------------------------------
    # accounting / diagnostics
    # ------------------------------------------------------------------
    @property
    def memory_bytes(self) -> int:
        """Modeled memory of all three stages, in bytes."""
        bits = self.cold.modeled_bits + self.hot.modeled_bits
        if self.burst is not None:
            bits += self.burst.modeled_bits
        return (bits + 7) // 8

    @property
    def hash_ops(self) -> int:
        """Total hash computations across stages (Section III-D cost model)."""
        ops = self.cold.hash_ops + self.hot.hash_ops
        if self.burst is not None:
            ops += self.burst.hash_ops
        return ops

    def stats(self) -> Dict[str, float]:
        """Operational counters for the harness and the ablation benches.

        A thin view over the canonical instrument catalog
        (:mod:`repro.obs.catalog`): the legacy keys rename catalog rows
        that read the very same stage attributes the registry exporters
        read, so ``stats()`` and exported telemetry cannot diverge.
        """
        return legacy_sketch_stats(self)

    def metrics(self) -> Dict[str, float]:
        """Canonical metric snapshot (``hs_*`` catalog names)."""
        return sketch_metrics(self)

    def bind(self, registry, labels: Optional[Dict[str, str]] = None):
        """Register pull instruments for this sketch on ``registry``.

        Zero ingest-path cost: instruments read the stage counters only
        when the registry is collected.  Returns the bound instruments.
        """
        return bind_sketch(registry, self, labels=labels)

    def verify_state(self) -> List[str]:
        """Structural self-check across all three stages (empty list = OK).

        The invariant hook point for :mod:`repro.verify`: delegates to each
        stage's ``verify_state`` and cross-checks the stage-1 accounting
        (every insert is either absorbed by the Burst Filter or forwarded
        downstream — the two counters partition the insert count exactly).
        Pure read: no counters move, no state changes.
        """
        problems = list(self.cold.verify_state())
        problems += self.hot.verify_state()
        if self.burst is not None:
            problems += self.burst.verify_state()
            handled = self.burst.absorbed + self.burst.overflowed
            if handled != self.inserts:
                problems.append(
                    f"burst absorbed+overflowed = {handled} != inserts "
                    f"{self.inserts}"
                )
        if self.window < 0:
            problems.append(f"window clock is negative: {self.window}")
        return problems

    def reset_stats(self) -> None:
        """Zero the instrumentation counters and :attr:`stage_seconds`
        (state is untouched)."""
        self.inserts = 0
        self.stage_seconds = dict.fromkeys(STAGES, 0.0)
        self.cold.reset_stats()
        self.hot.reset_stats()
        if self.burst is not None:
            self.burst.reset_stats()

    def __repr__(self) -> str:
        burst_kb = (self.burst.modeled_bits / 8192
                    if self.burst is not None else 0.0)
        return (
            f"HypersistentSketch(memory={self.memory_bytes / 1024:.1f}KB, "
            f"burst={burst_kb:.1f}KB, "
            f"delta=({self.cold.delta1}, {self.cold.delta2}), "
            f"window={self.window})"
        )

    def clear(self) -> None:
        """Reset all state (counters, flags, stored IDs) but keep sizing.

        Instrumentation counters reset too: a cleared sketch's accounting
        (``inserts`` vs the Burst Filter's absorbed/overflowed split,
        ``hot.replacements``) must describe its current incarnation, or
        the structural cross-checks in :mod:`repro.verify` — and the
        sliding panels' eviction-free condition — would read stale
        history after every panel rotation.
        """
        if self.burst is not None:
            self.burst.clear()
        self.cold.clear()
        self.hot.clear()
        self.window = 0
        self.reset_stats()

    # ------------------------------------------------------------------
    # persistence (see repro.persist)
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict:
        """Exact state as plain values (see :mod:`repro.persist`).

        The stage-1 entry is tagged with the Burst Filter's compare-cost
        model (``scalar``, or ``simd`` when :attr:`BurstFilter.lanes` is
        set) so a restore rebuilds the same accounting.
        """
        if self.burst is None:
            burst_kind, burst_state = "none", None
        else:
            burst_kind = "scalar" if self.burst.lanes is None else "simd"
            burst_state = self.burst.state_dict()
        return {
            "config": self.config.state_dict(),
            "burst_kind": burst_kind,
            "burst": burst_state,
            "cold": self.cold.state_dict(),
            "hot": self.hot.state_dict(),
            "window": self.window,
            "inserts": self.inserts,
        }

    @classmethod
    def from_state(cls, state: Dict) -> "HypersistentSketch":
        """Rebuild a sketch bit-identical to the one that was saved.

        The ingestion engine is a runtime choice, not state — snapshots are
        bit-identical across backends — so a restored sketch starts on the
        default engine; set :attr:`engine` afterwards to switch.
        """
        obj = cls.__new__(cls)
        obj._engine = ENGINE_KERNEL
        obj.config = HSConfig.from_state(state["config"])
        kind = state["burst_kind"]
        if kind == "none":
            obj.burst = None
        elif kind == "scalar":
            obj.burst = BurstFilter.from_state(state["burst"])
        elif kind == "simd":
            obj.burst = VectorizedBurstFilter.from_state(state["burst"])
        else:
            raise ValueError(f"unknown burst filter kind: {kind!r}")
        obj.cold = ColdFilter.from_state(state["cold"])
        obj.hot = HotPart.from_state(state["hot"])
        obj.window = int(state["window"])
        obj.inserts = int(state["inserts"])
        obj.trace = None
        obj.stage_seconds = dict.fromkeys(STAGES, 0.0)
        return obj
