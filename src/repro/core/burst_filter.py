"""Stage 1 — the Burst Filter (paper Sections III-D and III-H).

A tiny ID store that absorbs repeated occurrences of an item inside one time
window.  Persistence grows by at most one per window, so only the *first*
occurrence matters; keeping the IDs here and flushing them once at the window
boundary skips the Cold Filter's multi-hash work for every repeat.

Structure: ``w`` buckets of ``gamma`` ID cells.  Insert hashes to one bucket
(Algorithm 3):

1. item already present              -> absorbed (no-op);
2. empty cell                        -> stored, absorbed;
3. bucket full                       -> NOT absorbed (caller forwards the
   item to the Cold Filter immediately, Algorithm 4 handles this).

At the window end :meth:`BurstFilter.drain` yields every stored ID exactly
once and clears the filter.

One storage, two cost models.  Storage is structure-of-arrays: a contiguous
``(w, gamma)`` ``uint64`` key matrix plus a per-bucket fill vector, so the
batch paths scatter whole plans with numpy fancy indexing and the membership
probes are masked vector compares.  What a bucket scan *costs* is the only
thing the paper's two scans (Algorithm 3's sequential walk, Algorithm 6's
SIMD compare) differ in, so it is the only thing the class constant
:attr:`BurstFilter.lanes` selects:

* ``lanes = None`` (:class:`BurstFilter`) — ``compare_ops`` counts the
  sequential early-exit scan's ID comparisons, the quantity behind the
  paper's hash-savings analysis;
* ``lanes = SIMD_LANES`` (:class:`~repro.core.simd.VectorizedBurstFilter`)
  — every scan costs :func:`simd_scan_cost` vector compares,
  ``ceil(gamma / 4)`` for 128-bit registers and 4-byte IDs.

Storage, admission decisions, drain order and the state layout are shared,
so the two builds agree on everything but ``compare_ops``.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional, Sequence

import numpy as np

from ..common.bitmem import ID_BITS
from ..common.errors import ConfigError, MergeError
from ..common.hashing import HashFamily
from ..obs.events import BURST_ADMIT, BURST_DRAIN, BURST_OVERFLOW
from .kernels import burst_window_plan, plan_burst_admission

#: 128-bit register / 32-bit IDs -> four comparisons per instruction.
SIMD_LANES = 4


def scalar_scan_cost(cells_per_bucket: int) -> int:
    """Worst-case compare count for a sequential bucket scan."""
    return cells_per_bucket


def simd_scan_cost(cells_per_bucket: int, lanes: int = SIMD_LANES) -> int:
    """Worst-case vector-compare count for an Algorithm 6 scan."""
    return math.ceil(cells_per_bucket / lanes)


def _occupied_prefix_layout(state: dict) -> dict:
    """``state`` in the layout :meth:`BurstFilter.state_dict` writes.

    Checkpoints written before the SIMD variant shared this class's
    storage hold a :class:`~repro.core.simd.VectorizedBurstFilter` as the
    full ``(w, gamma)`` key matrix plus a ``fill`` vector.  This keeps each
    bucket's occupied prefix and renames ``fill`` to ``fills``; the bounds
    on each fill are then checked by :meth:`BurstFilter.from_state`, as
    for any other state.
    """
    if "fill" not in state:
        return state
    n_buckets = int(state["n_buckets"])
    cells = int(state["cells_per_bucket"])
    keys = np.asarray(state["keys"], dtype=np.uint64)
    fills = np.asarray(state["fill"], dtype=np.int64)
    if keys.size != n_buckets * cells or fills.shape != (n_buckets,):
        raise ValueError("burst filter state is inconsistent")
    filled = np.arange(cells)[None, :] < fills[:, None]
    converted = {key: value for key, value in state.items() if key != "fill"}
    converted["keys"] = keys.reshape(n_buckets, cells)[filled]
    converted["fills"] = fills
    return converted


class BurstFilter:
    """Within-window item deduplication store.

    Instrumented with ``hash_ops`` (hash computations performed) and
    ``compare_ops`` (ID comparisons during bucket scans) so the benchmark
    harness can reproduce the paper's hash-savings analysis (Section III-D)
    without relying on wall-clock timing of interpreted code.
    """

    __slots__ = ("n_buckets", "cells_per_bucket", "_hash", "_keys", "_fill",
                 "hash_ops", "compare_ops", "absorbed", "overflowed", "trace")

    #: Compare-cost model of a bucket scan: ``None`` charges the sequential
    #: early-exit scan's ID comparisons, a lane count charges
    #: :func:`simd_scan_cost` vector compares per scan.
    lanes: Optional[int] = None

    def __init__(self, n_buckets: int, cells_per_bucket: int = 4,
                 seed: int = 42):
        if n_buckets < 1:
            raise ConfigError("BurstFilter needs at least one bucket")
        if cells_per_bucket < 1:
            raise ConfigError("BurstFilter buckets need at least one cell")
        self.n_buckets = n_buckets
        self.cells_per_bucket = cells_per_bucket
        self._hash = HashFamily(1, seed)
        self._keys = np.zeros((n_buckets, cells_per_bucket), dtype=np.uint64)
        self._fill = np.zeros(n_buckets, dtype=np.int64)
        self.hash_ops = 0
        self.compare_ops = 0
        self.absorbed = 0
        self.overflowed = 0
        # flight-recorder hook; runtime wiring, never serialized
        # staticcheck: ignore[SC-PERSIST]
        self.trace = None

    def insert(self, key: int) -> bool:
        """Try to absorb one occurrence of ``key``.

        Returns ``True`` when the occurrence is captured here (cases 1-2 of
        Algorithm 3) and ``False`` when the bucket is full and the caller
        must forward the item downstream (case 3).
        """
        self.hash_ops += 1
        b = self._hash.index(key, 0, self.n_buckets)
        fill = int(self._fill[b])
        hit = -1
        if fill:
            hits = np.flatnonzero(self._keys[b, :fill] == np.uint64(key))
            if hits.size:
                hit = int(hits[0])
        lanes = self.lanes
        if lanes is None:
            # the sequential scan stops at the hit: slot s costs s + 1
            self.compare_ops += fill if hit < 0 else hit + 1
        else:
            self.compare_ops += simd_scan_cost(self.cells_per_bucket, lanes)
        if hit >= 0:
            self.absorbed += 1
            return True
        tr = self.trace
        if fill < self.cells_per_bucket:
            self._keys[b, fill] = key
            self._fill[b] = fill + 1
            self.absorbed += 1
            if tr is not None and tr.enabled:
                tr.emit(BURST_ADMIT, key)
            return True
        self.overflowed += 1
        if tr is not None and tr.enabled:
            tr.emit(BURST_OVERFLOW, key)
        return False

    def insert_batch(self, keys: np.ndarray) -> np.ndarray:
        """Columnar :meth:`insert` of a whole batch of occurrences.

        Returns the per-occurrence absorbed mask (``True`` where the scalar
        ``insert`` would have returned ``True``); the caller forwards
        ``keys[~mask]`` downstream in order, which is exactly the scalar
        forwarding sequence.  State and the ``absorbed`` / ``overflowed`` /
        ``compare_ops`` counters match a record-at-a-time replay bit for
        bit under either compare-cost model; ``hash_ops`` keeps the scalar
        cost model (one hash per record) even though the batch coalesces
        the actual hashing into one vectorized pass over the batch's
        *distinct* keys.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        n = int(keys.size)
        if not n:
            return np.zeros(0, dtype=bool)
        self.hash_ops += n
        empty = not self._fill.any()
        plan = plan_burst_admission(
            keys,
            lambda u: self._hash.index_batch(u, 0, self.n_buckets),
            self.cells_per_bucket,
            fill_of_unique=None if empty else self._fill_of,
            slot_of_unique=None if empty else self._slot_of,
        )
        new = plan.newly_stored
        if new.any():
            self._keys[plan.buckets[new], plan.slots[new]] = \
                plan.unique_keys[new]
            np.add.at(self._fill, plan.buckets[new], 1)
        lanes = self.lanes
        self.compare_ops += plan.scan_compares if lanes is None else \
            n * simd_scan_cost(self.cells_per_bucket, lanes)
        self.absorbed += plan.n_absorbed
        self.overflowed += n - plan.n_absorbed
        tr = self.trace
        if tr is not None and tr.enabled:
            tr.emit_bulk(BURST_ADMIT, plan.unique_keys[new])
            tr.emit_bulk(BURST_OVERFLOW, keys[~plan.absorbed])
        return plan.absorbed

    def window_kernel(self, keys: np.ndarray) -> Optional[np.ndarray]:
        """Whole-window fast path: admission plus drain in one plan.

        Returns the downstream key sequence the scalar window would send to
        the Cold Filter — every overflowing occurrence in arrival order,
        then the stored distinct keys in drain (bucket-major, slot-minor)
        order — leaving the filter empty, exactly as
        ``insert_batch`` + ``drain_array`` would.  Because the stored set
        is drained at the window end regardless, bucket storage is never
        touched; only the plan (:func:`~repro.core.kernels
        .burst_window_plan`) and the counters are computed.  Requires an
        empty filter (the whole-window invariant); returns ``None`` when
        the filter holds keys so the caller can take the general path.
        """
        if self._fill.any():
            return None
        keys = np.asarray(keys, dtype=np.uint64)
        n = int(keys.size)
        if not n:
            return keys
        self.hash_ops += n
        lanes = self.lanes
        downstream, n_absorbed, scan_compares = burst_window_plan(
            keys,
            lambda u: self._hash.index_batch(u, 0, self.n_buckets),
            self.cells_per_bucket,
            with_compares=lanes is None,
        )
        self.compare_ops += scan_compares if lanes is None else \
            n * simd_scan_cost(self.cells_per_bucket, lanes)
        self.absorbed += n_absorbed
        self.overflowed += n - n_absorbed
        self._emit_window_bulks(downstream, n - n_absorbed)
        return downstream

    def _emit_window_bulks(self, downstream: np.ndarray,
                           n_overflow: int) -> None:
        """Reconstruct the whole-window fast path's events in bulk.

        ``downstream`` is overflow occurrences followed by the drained
        distinct keys (the :meth:`window_kernel` layout), so the two
        slices are exactly the scalar window's OVERFLOW and ADMIT+DRAIN
        emissions — no per-item work.
        """
        tr = self.trace
        if tr is not None and tr.enabled:
            tr.emit_bulk(BURST_OVERFLOW, downstream[:n_overflow])
            tr.emit_bulk(BURST_ADMIT, downstream[n_overflow:])
            tr.emit_bulk(BURST_DRAIN, downstream[n_overflow:])

    def _fill_of(self, buckets: np.ndarray) -> np.ndarray:
        """Current fill of each listed bucket (general-path helper)."""
        return self._fill[buckets]

    def _slot_of(self, keys: np.ndarray, buckets: np.ndarray) -> np.ndarray:
        """Slot of each already-stored key, -1 where absent.

        One masked vector compare over the gathered bucket rows (cells at
        or beyond a bucket's fill never match because the mask excludes
        them) — no per-key probing.
        """
        rows = self._keys[buckets]
        hit = (rows == keys[:, None]) & (
            np.arange(self.cells_per_bucket)[None, :]
            < self._fill[buckets][:, None]
        )
        found = hit.any(axis=1)
        return np.where(found, hit.argmax(axis=1), -1).astype(np.int64)

    def contains(self, key: int) -> bool:
        """In-window membership probe (Algorithm 5's Burst Filter check)."""
        self.hash_ops += 1
        b = self._hash.index(key, 0, self.n_buckets)
        fill = int(self._fill[b])
        lanes = self.lanes
        self.compare_ops += fill if lanes is None else \
            simd_scan_cost(self.cells_per_bucket, lanes)
        return fill > 0 and bool(
            (self._keys[b, :fill] == np.uint64(key)).any()
        )

    def peek(self, key: int) -> bool:
        """Counter-free :meth:`contains` (the audit probe behind
        ``sketch.explain``: observing must not move the cost model)."""
        b = self._hash.index(key, 0, self.n_buckets)
        fill = int(self._fill[b])
        return fill > 0 and bool(
            (self._keys[b, :fill] == np.uint64(key)).any()
        )

    def full_bucket_fraction(self) -> float:
        """Fraction of buckets with no free cell (health gauge: a full
        bucket overflows every new key straight downstream)."""
        return float((self._fill >= self.cells_per_bucket).mean())

    def drain(self) -> Iterator[int]:
        """Yield every stored ID once and clear the filter (window end)."""
        for b in np.flatnonzero(self._fill):
            fill = int(self._fill[b])
            for key in self._keys[b, :fill]:
                yield int(key)
            self._fill[b] = 0

    def drain_array(self) -> np.ndarray:
        """Columnar :meth:`drain`: stored IDs in the same bucket-major,
        slot-minor order, as one ``uint64`` array, clearing the filter."""
        filled = (np.arange(self.cells_per_bucket)[None, :]
                  < self._fill[:, None])
        out = self._keys[filled]
        self._fill.fill(0)
        return out

    def clear(self) -> None:
        """Reset all state (keeps sizing).

        Only the fills are zeroed: cells at or beyond a bucket's fill are
        never read (every scan masks by fill) and never serialized
        (:meth:`state_dict` stores the occupied prefix only).
        """
        self._fill.fill(0)

    def merge_from(self, other: "BurstFilter") -> None:
        """Absorb ``other``'s accounting into this filter (in place).

        The Burst Filter holds only *within-window* state and merge is
        defined at window boundaries, where both filters have drained —
        so the structural merge is empty-plus-empty and only the cost
        counters combine.  Raises :class:`MergeError` when either filter
        still holds keys or the sizings/hash seeds differ.
        """
        if (self.n_buckets != other.n_buckets
                or self.cells_per_bucket != other.cells_per_bucket):
            raise MergeError(
                f"burst filter sizings differ: "
                f"{self.n_buckets}x{self.cells_per_bucket} vs "
                f"{other.n_buckets}x{other.cells_per_bucket}"
            )
        if self._hash.state_dict() != other._hash.state_dict():
            raise MergeError("burst filter hash families differ")
        if len(self) or len(other):
            raise MergeError(
                "burst filters must be drained before merging "
                "(merge happens at window boundaries)"
            )
        self.hash_ops += other.hash_ops
        self.compare_ops += other.compare_ops
        self.absorbed += other.absorbed
        self.overflowed += other.overflowed

    def bucket_fills(self) -> Sequence[int]:
        """Per-bucket cell occupancy (verification/occupancy diagnostics)."""
        return self._fill.tolist()

    def verify_state(self) -> List[str]:
        """Structural self-check; returns problem descriptions (empty = OK).

        Checked: every bucket fill lies in ``[0, cells_per_bucket]``, no ID
        is stored twice in one bucket, and every stored ID hashes to the
        bucket it sits in.  Hook point for :mod:`repro.verify`; does not
        touch the instrumentation counters.
        """
        problems: List[str] = []
        for b in range(self.n_buckets):
            fill = int(self._fill[b])
            if not 0 <= fill <= self.cells_per_bucket:
                problems.append(
                    f"burst bucket {b} fill {fill} outside "
                    f"[0, {self.cells_per_bucket}]"
                )
                continue
            stored = [int(key) for key in self._keys[b, :fill]]
            if len(set(stored)) != len(stored):
                problems.append(f"burst bucket {b} stores a duplicate ID")
            for key in stored:
                home = self._hash.index(key, 0, self.n_buckets)
                if home != b:
                    problems.append(
                        f"burst key {key} sits in bucket {b}, hashes to "
                        f"{home}"
                    )
        return problems

    def __len__(self) -> int:
        """Number of distinct IDs currently held."""
        return int(self._fill.sum())

    @property
    def capacity(self) -> int:
        """Total cell count."""
        return self.n_buckets * self.cells_per_bucket

    @property
    def load_factor(self) -> float:
        """Fraction of cells in use."""
        return len(self) / self.capacity

    @property
    def modeled_bits(self) -> int:
        """Modeled memory: one 4-byte ID per cell (paper's layout)."""
        return self.capacity * ID_BITS

    def reset_stats(self) -> None:
        """Zero the instrumentation counters."""
        self.hash_ops = 0
        self.compare_ops = 0
        self.absorbed = 0
        self.overflowed = 0

    def state_dict(self) -> dict:
        """Exact state as plain values (see :mod:`repro.persist`).

        Bucket contents are flattened to one concatenated key array plus
        per-bucket fills, preserving slot order — the order :meth:`drain`
        yields, which downstream determinism depends on.  Only the occupied
        prefix of each bucket is serialized, so garbage beyond the fill can
        never leak into a snapshot.
        """
        filled = (np.arange(self.cells_per_bucket)[None, :]
                  < self._fill[:, None])
        return {
            "n_buckets": self.n_buckets,
            "cells_per_bucket": self.cells_per_bucket,
            "hash": self._hash.state_dict(),
            "keys": self._keys[filled],
            "fills": self._fill.copy(),
            "hash_ops": self.hash_ops,
            "compare_ops": self.compare_ops,
            "absorbed": self.absorbed,
            "overflowed": self.overflowed,
        }

    @classmethod
    def from_state(cls, state: dict) -> "BurstFilter":
        """Rebuild a filter bit-identical to the one that was saved.

        Also reads the full-matrix layout older SIMD checkpoints used (see
        :func:`_occupied_prefix_layout`).
        """
        state = _occupied_prefix_layout(state)
        obj = cls.__new__(cls)
        obj.n_buckets = int(state["n_buckets"])
        obj.cells_per_bucket = int(state["cells_per_bucket"])
        obj._hash = HashFamily.from_state(state["hash"])
        keys = np.asarray(state["keys"], dtype=np.uint64)
        fills = np.asarray(state["fills"], dtype=np.int64)
        if (fills.shape != (obj.n_buckets,)
                or int(fills.sum()) != int(keys.size)
                or (fills < 0).any()
                or (fills > obj.cells_per_bucket).any()):
            raise ValueError("burst filter state is inconsistent")
        obj._keys = np.zeros(
            (obj.n_buckets, obj.cells_per_bucket), dtype=np.uint64
        )
        filled = (np.arange(obj.cells_per_bucket)[None, :] < fills[:, None])
        obj._keys[filled] = keys
        obj._fill = fills.copy()
        obj.hash_ops = int(state["hash_ops"])
        obj.compare_ops = int(state["compare_ops"])
        obj.absorbed = int(state["absorbed"])
        obj.overflowed = int(state["overflowed"])
        obj.trace = None
        return obj
