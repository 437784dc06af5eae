"""Sharded persistence sketching: scale out by partitioning the key space.

A single sketch is bound by one core and one memory budget.  Sharding
routes each item (by hash) to one of ``n_shards`` independent sketches, so

* ingestion parallelizes trivially (each shard owns disjoint items — no
  cross-shard coordination beyond the shared window clock);
* semantics are *exact* with respect to the unsharded design: an item's
  whole history lives in one shard, so estimates equal those of a
  same-sized single sketch holding that item's collision neighbourhood.

The wrapper is synchronous (this is a reproduction library, not a server),
but the routing/merging logic is exactly what a multi-threaded or
multi-process deployment needs, and `report` shows the merge.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from ..common.errors import ConfigError, MergeError
from ..common.hashing import HashFamily, ItemKey, canonical_key, canonical_keys
from ..obs.catalog import bind_sharded


class ShardedSketch:
    """Hash-partitioned ensemble of windowed persistence sketches.

    ``shard_factory`` builds one shard from its index; every shard must
    implement ``insert``/``end_window``/``query`` (and ``report`` for the
    finding task).

    >>> from repro.core import HSConfig, HypersistentSketch
    >>> sharded = ShardedSketch(
    ...     lambda i: HypersistentSketch(
    ...         HSConfig.for_estimation(16 * 1024, 10, seed=100 + i)
    ...     ),
    ...     n_shards=4,
    ... )
    >>> for _ in range(5):
    ...     sharded.insert("flow")
    ...     sharded.end_window()
    >>> sharded.query("flow")
    5
    """

    def __init__(
        self,
        shard_factory: Callable[[int], object],
        n_shards: int,
        seed: int = 42,
        engine: Optional[str] = None,
    ):
        if n_shards < 1:
            raise ConfigError("need at least one shard")
        self.n_shards = n_shards
        self.shards: List[object] = [
            shard_factory(i) for i in range(n_shards)
        ]
        if engine is not None:
            # runtime-only speed knob, never persisted (see the property)
            self.engine = engine  # staticcheck: ignore[SC-PERSIST]
        self._router = HashFamily(1, seed ^ 0x5AAD)
        self.window = 0

    @property
    def engine(self) -> Optional[str]:
        """Uniform batch ingestion backend of the shards.

        ``None`` when the shards expose no selector or disagree (e.g. a
        heterogeneous ensemble).  Setting propagates to every shard; all
        backends are bit-equivalent, so this is a speed knob only.
        """
        engines = {getattr(shard, "engine", None) for shard in self.shards}
        return engines.pop() if len(engines) == 1 else None

    @engine.setter
    def engine(self, value: str) -> None:
        for i, shard in enumerate(self.shards):
            if not hasattr(shard, "engine"):
                raise ConfigError(
                    f"shard {i} ({type(shard).__name__}) has no engine "
                    f"selector; cannot apply engine={value!r}"
                )
        for shard in self.shards:
            shard.engine = value

    @classmethod
    def coalesce(cls, shards: List[object], seed: int = 42,
                 copy: bool = True) -> "ShardedSketch":
        """Reassemble a sharded ensemble from independently-fed shards.

        The distributed pipeline's merge: worker ``i`` ingests exactly
        the keys the router sends to shard ``i``, so handing the worker
        sketches back in shard order rebuilds an ensemble *bit-identical*
        to a single-process :class:`ShardedSketch` that streamed the
        whole trace — every key's full history lives in its owning
        shard, so estimates, reports, and stats are exact, not
        approximations.  ``seed`` must be the ensemble/partitioner seed
        (it rebuilds the router).

        ``copy`` (default) snapshots each shard through its
        ``state_dict`` round-trip, so the coalesced ensemble shares no
        mutable state (and no stale flight-recorder wiring) with the
        worker objects — later mutation of either side cannot corrupt
        the other, and no stage counter is double-counted.

        Raises :class:`MergeError` when the shard list is empty, holds
        duplicate objects, or the shard window clocks disagree (a worker
        that stopped mid-trace must be resumed before coalescing).
        """
        if not shards:
            raise MergeError("coalesce needs at least one shard")
        if len({id(s) for s in shards}) != len(shards):
            raise MergeError("coalesce received the same shard twice")
        windows = {int(getattr(s, "window", 0)) for s in shards}
        if len(windows) != 1:
            raise MergeError(
                f"shard window clocks disagree: {sorted(windows)}; "
                f"resume the lagging workers before coalescing"
            )
        if copy:
            from ..persist.state import (  # local: avoid cycle
                restore_tagged,
                tagged_state,
            )
            shards = [restore_tagged(tagged_state(s)) for s in shards]
        obj = cls.__new__(cls)
        obj.n_shards = len(shards)
        obj.shards = list(shards)
        obj._router = HashFamily(1, seed ^ 0x5AAD)
        obj.window = windows.pop()
        return obj

    def _shard_of(self, key: int) -> object:
        return self.shards[self._router.index(key, 0, self.n_shards)]

    def insert(self, item: ItemKey) -> None:
        """Route one occurrence to the owning shard."""
        key = canonical_key(item)
        self._shard_of(key).insert(key)

    def insert_window(self, items) -> None:
        """Batched feed of one whole window, routed columnar to all shards.

        The window's keys are canonicalized and routed in one vectorized
        hashing pass, then each shard ingests its slice (order preserved)
        through its own ``insert_window`` — so results are bit-for-bit the
        scalar route-and-insert sequence.
        """
        keys = canonical_keys(items)
        route = self._router.index_batch(keys, 0, self.n_shards)
        for i, shard in enumerate(self.shards):
            shard_keys = keys[route == i]
            if hasattr(shard, "insert_window"):
                shard.insert_window(shard_keys)
            elif hasattr(shard, "insert_batch"):
                # columnar fallback: batch paths keep the scalar cost
                # model, so counter parity with per-key inserts holds
                shard.insert_batch(shard_keys)
                shard.end_window()
            else:
                for key in shard_keys:
                    shard.insert(int(key))
                shard.end_window()
        self.window += 1

    def end_window(self) -> None:
        """Advance the shared window clock on every shard."""
        for shard in self.shards:
            shard.end_window()
        self.window += 1

    def query(self, item: ItemKey) -> int:
        """Estimated persistence from the owning shard."""
        key = canonical_key(item)
        return self._shard_of(key).query(key)

    def explain(self, item: ItemKey):
        """Per-key decision audit from the owning shard (see
        :meth:`HypersistentSketch.explain
        <repro.core.hypersistent.HypersistentSketch.explain>`); sharding
        is exact, so the owning shard's audit is the ensemble's."""
        key = canonical_key(item)
        shard = self._shard_of(key)
        explain = getattr(shard, "explain", None)
        if explain is None:
            raise ConfigError(
                f"shard type {type(shard).__name__} does not support "
                "explain()"
            )
        return explain(key)

    def _wire_trace(self, recorder) -> None:
        """Propagate a flight recorder to every shard that supports one
        (all shards then share the recorder's ring; each shard emits its
        own window-rotation events)."""
        for shard in self.shards:
            wire = getattr(shard, "_wire_trace", None)
            if wire is not None:
                wire(recorder)

    def report(self, threshold: int) -> Dict[int, int]:
        """Merged persistent-item report across all shards.

        Shards own disjoint key ranges, so the merge is a plain union.
        """
        merged: Dict[int, int] = {}
        for shard in self.shards:
            merged.update(shard.report(threshold))
        return merged

    @property
    def memory_bytes(self) -> int:
        """Sum of the shards' modeled footprints."""
        return sum(getattr(s, "memory_bytes", 0) for s in self.shards)

    def shard_loads(self) -> List[int]:
        """Per-shard insert counts (routing balance diagnostic)."""
        return [getattr(s, "inserts", 0) for s in self.shards]

    def verify_state(self) -> List[str]:
        """Structural self-check across all shards (empty list = OK).

        Delegates to each shard's ``verify_state`` (prefixing the shard
        index) and checks the shared window clock: every shard must sit on
        the ensemble's window count.
        """
        problems: List[str] = []
        for i, shard in enumerate(self.shards):
            if hasattr(shard, "verify_state"):
                problems += [f"shard {i}: {p}" for p in shard.verify_state()]
            shard_window = getattr(shard, "window", None)
            if shard_window is not None and shard_window != self.window:
                problems.append(
                    f"shard {i} window clock {shard_window} != ensemble "
                    f"clock {self.window}"
                )
        return problems

    def stats(self) -> Dict[str, float]:
        """Aggregated operational counters across all shards.

        Counter keys sum; the ``hot_occupancy`` gauge averages (each shard
        is an equal slice of the key space); ``window`` is the shared
        clock, not a sum.  Shards without a ``stats()`` contribute nothing.
        """
        merged: Dict[str, float] = {"window": self.window}
        occupancies: List[float] = []
        for shard in self.shards:
            if not hasattr(shard, "stats"):
                continue
            for key, value in shard.stats().items():
                if key == "window":
                    continue
                if key == "hot_occupancy":
                    occupancies.append(value)
                    continue
                merged[key] = merged.get(key, 0) + value
        if occupancies:
            merged["hot_occupancy"] = sum(occupancies) / len(occupancies)
        return merged

    def metrics(self) -> Dict[str, Dict[str, float]]:
        """Per-shard canonical metric snapshots, keyed ``shard=<i>``."""
        return {
            f"shard={i}": shard.metrics()
            for i, shard in enumerate(self.shards)
            if hasattr(shard, "metrics")
        }

    def bind(self, registry):
        """Register per-shard pull instrument series on ``registry``
        (labelled ``shard=<i>``).  Returns the bound instruments."""
        return bind_sharded(registry, self)

    def state_dict(self) -> Dict:
        """Exact state as plain values (see :mod:`repro.persist`).

        Each shard is stored as a class-tagged state tree, so restore can
        rebuild heterogeneous ensembles without the original
        ``shard_factory``; every shard must implement ``state_dict``.
        """
        from ..persist.state import tagged_state  # local: avoid cycle

        return {
            "n_shards": self.n_shards,
            "router": self._router.state_dict(),
            "window": self.window,
            "shards": [tagged_state(shard) for shard in self.shards],
        }

    @classmethod
    def from_state(cls, state: Dict) -> "ShardedSketch":
        """Rebuild an ensemble bit-identical to the one that was saved."""
        from ..persist.state import restore_tagged  # local: avoid cycle

        obj = cls.__new__(cls)
        obj.n_shards = int(state["n_shards"])
        obj._router = HashFamily.from_state(state["router"])
        obj.window = int(state["window"])
        obj.shards = [restore_tagged(tagged) for tagged in state["shards"]]
        if len(obj.shards) != obj.n_shards or obj.n_shards < 1:
            raise ValueError("sharded sketch state is inconsistent")
        return obj

    def __repr__(self) -> str:
        return (f"ShardedSketch(n_shards={self.n_shards}, "
                f"window={self.window})")
