"""SIMD-style vectorized Burst Filter (paper Section III-H, Algorithm 6).

The paper accelerates Burst Filter bucket scans with 128-bit AVX2 compares
(four 32-bit IDs per instruction).  Pure Python has no vector ISA, so we
reproduce the *algorithmic* effect two ways:

* :class:`VectorizedBurstFilter` stores buckets in a contiguous numpy array
  and scans with one vectorized ``==`` per insert — the same data-parallel
  comparison Algorithm 6 performs, with the loop pushed into C;
* an explicit comparison-cost model: a scalar scan of a ``gamma``-cell
  bucket costs up to ``gamma`` compares, the SIMD scan ``ceil(gamma / 4)``
  vector compares (``SIMD_LANES == 4`` for 128-bit registers and 4-byte
  IDs), which is the quantity behind figure 19's SIMD deltas.

The class is drop-in compatible with :class:`~repro.core.burst_filter
.BurstFilter` so :class:`~repro.core.hypersistent.HypersistentSketch` can be
built over either (see :func:`make_hypersistent_simd`).
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from ..common.bitmem import ID_BITS
from ..common.errors import ConfigError, MergeError
from ..common.hashing import HashFamily
from ..obs.events import BURST_ADMIT, BURST_DRAIN, BURST_OVERFLOW
from .kernels import ENGINE_KERNEL, burst_window_plan, plan_burst_admission

#: 128-bit register / 32-bit IDs -> four comparisons per instruction.
SIMD_LANES = 4

#: Sentinel for an empty cell.  Cells at or beyond a bucket's fill are
#: never consulted by scans (every scan masks by fill), but the sentinel is
#: *not* cosmetic: ``state_dict`` serializes the full keys matrix, so
#: cleared cells must hold a canonical value or snapshots of logically
#: identical filters would differ byte-for-byte.  uint64-max keeps the
#: array dtype unsigned like the canonical key space.
_EMPTY = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


def scalar_scan_cost(cells_per_bucket: int) -> int:
    """Worst-case compare count for a sequential bucket scan."""
    return cells_per_bucket


def simd_scan_cost(cells_per_bucket: int, lanes: int = SIMD_LANES) -> int:
    """Worst-case vector-compare count for an Algorithm 6 scan."""
    return math.ceil(cells_per_bucket / lanes)


class VectorizedBurstFilter:
    """Burst Filter with numpy-vectorized (SIMD-emulating) bucket scans.

    API-compatible with :class:`~repro.core.burst_filter.BurstFilter`;
    ``compare_ops`` counts *vector* compares (one per ``SIMD_LANES`` cells),
    reproducing Algorithm 6's cost model.
    """

    __slots__ = ("n_buckets", "cells_per_bucket", "_hash", "_keys", "_fill",
                 "hash_ops", "compare_ops", "absorbed", "overflowed",
                 "_vector_compares_per_scan", "trace")

    def __init__(self, n_buckets: int, cells_per_bucket: int = 4,
                 seed: int = 42):
        if n_buckets < 1:
            raise ConfigError("VectorizedBurstFilter needs >= 1 bucket")
        if cells_per_bucket < 1:
            raise ConfigError("buckets need >= 1 cell")
        self.n_buckets = n_buckets
        self.cells_per_bucket = cells_per_bucket
        self._hash = HashFamily(1, seed)
        self._keys = np.full(
            (n_buckets, cells_per_bucket), _EMPTY, dtype=np.uint64
        )
        self._fill = np.zeros(n_buckets, dtype=np.int32)
        # derived cost constant, absent from state_dict() on purpose
        # staticcheck: ignore[SC-PERSIST] from_state() recomputes it
        self._vector_compares_per_scan = simd_scan_cost(cells_per_bucket)
        self.hash_ops = 0
        self.compare_ops = 0
        self.absorbed = 0
        self.overflowed = 0
        # flight-recorder hook; runtime wiring, never serialized
        # staticcheck: ignore[SC-PERSIST]
        self.trace = None

    def insert(self, key: int) -> bool:
        """Absorb one occurrence; ``False`` when the bucket is full."""
        self.hash_ops += 1
        b = self._hash.index(key, 0, self.n_buckets)
        fill = int(self._fill[b])
        row = self._keys[b]
        self.compare_ops += self._vector_compares_per_scan
        if fill and bool((row[:fill] == key).any()):
            self.absorbed += 1
            return True
        tr = self.trace
        if fill < self.cells_per_bucket:
            row[fill] = key
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

        Same admission plan and return contract as
        :meth:`BurstFilter.insert_batch <repro.core.burst_filter
        .BurstFilter.insert_batch>`, with the storage scatter fully
        vectorized; ``compare_ops`` keeps this class's vector cost model
        (one ``ceil(gamma / SIMD_LANES)``-compare scan per record) and
        ``hash_ops`` the scalar one-hash-per-record model, while the actual
        hashing is coalesced over the batch's distinct keys.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        n = int(keys.size)
        if not n:
            return np.zeros(0, dtype=bool)
        self.hash_ops += n
        self.compare_ops += n * self._vector_compares_per_scan
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
        self.absorbed += plan.n_absorbed
        self.overflowed += n - plan.n_absorbed
        tr = self.trace
        if tr is not None and tr.enabled:
            tr.emit_bulk(BURST_ADMIT, plan.unique_keys[new])
            tr.emit_bulk(BURST_OVERFLOW, keys[~plan.absorbed])
        return plan.absorbed

    def window_kernel(self, keys: np.ndarray):
        """Whole-window fast path: admission plus drain in one plan.

        Same contract as :meth:`BurstFilter.window_kernel
        <repro.core.burst_filter.BurstFilter.window_kernel>`: requires an
        empty filter (returns ``None`` otherwise), never touches bucket
        storage, and returns the downstream sequence — overflow occurrences
        in arrival order, then the stored keys in drain order.
        ``compare_ops`` keeps this class's vector cost model (the fused
        plan's scalar early-exit count is discarded).
        """
        if self._fill.any():
            return None
        keys = np.asarray(keys, dtype=np.uint64)
        n = int(keys.size)
        if not n:
            return keys
        self.hash_ops += n
        self.compare_ops += n * self._vector_compares_per_scan
        downstream, n_absorbed, _ = burst_window_plan(
            keys,
            lambda u: self._hash.index_batch(u, 0, self.n_buckets),
            self.cells_per_bucket,
            with_compares=False,  # vector cost model added above
        )
        self.absorbed += n_absorbed
        self.overflowed += n - n_absorbed
        self._emit_window_bulks(downstream, n - n_absorbed)
        return downstream

    def _emit_window_bulks(self, downstream: np.ndarray,
                           n_overflow: int) -> None:
        """Reconstruct the whole-window fast path's events in bulk (same
        downstream layout as :meth:`BurstFilter._emit_window_bulks
        <repro.core.burst_filter.BurstFilter._emit_window_bulks>`)."""
        tr = self.trace
        if tr is not None and tr.enabled:
            tr.emit_bulk(BURST_OVERFLOW, downstream[:n_overflow])
            tr.emit_bulk(BURST_ADMIT, downstream[n_overflow:])
            tr.emit_bulk(BURST_DRAIN, downstream[n_overflow:])

    def _fill_of(self, buckets: np.ndarray) -> np.ndarray:
        """Current fill of each listed bucket (general-path helper)."""
        return self._fill[buckets].astype(np.int64)

    def _slot_of(self, keys: np.ndarray, buckets: np.ndarray) -> np.ndarray:
        """Slot of each already-stored key, -1 where absent."""
        rows = self._keys[buckets]
        hit = (rows == keys[:, None]) & (
            np.arange(self.cells_per_bucket)[None, :]
            < self._fill[buckets][:, None]
        )
        found = hit.any(axis=1)
        return np.where(found, hit.argmax(axis=1), -1).astype(np.int64)

    def contains(self, key: int) -> bool:
        """Whether ``key`` is currently stored."""
        self.hash_ops += 1
        b = self._hash.index(key, 0, self.n_buckets)
        fill = int(self._fill[b])
        self.compare_ops += self._vector_compares_per_scan
        return fill > 0 and bool((self._keys[b, :fill] == key).any())

    def peek(self, key: int) -> bool:
        """Counter-free :meth:`contains` (the audit probe behind
        ``sketch.explain``: observing must not move the cost model)."""
        b = self._hash.index(key, 0, self.n_buckets)
        fill = int(self._fill[b])
        return fill > 0 and bool((self._keys[b, :fill] == key).any())

    def full_bucket_fraction(self) -> float:
        """Fraction of buckets with no free cell (health gauge: a full
        bucket overflows every new key straight downstream)."""
        return float((self._fill >= self.cells_per_bucket).mean())

    def drain(self) -> Iterator[int]:
        """Yield stored IDs once and clear (window boundary)."""
        occupied = np.nonzero(self._fill)[0]
        for b in occupied:
            fill = int(self._fill[b])
            for key in self._keys[b, :fill]:
                yield int(key)
        self._keys[occupied] = _EMPTY
        self._fill[occupied] = 0

    def drain_array(self) -> np.ndarray:
        """Columnar :meth:`drain`: stored IDs in bucket-major, slot-minor
        order as one ``uint64`` array, clearing the filter."""
        filled = (np.arange(self.cells_per_bucket)[None, :]
                  < self._fill[:, None])
        out = self._keys[filled]
        self._keys[filled] = _EMPTY
        self._fill.fill(0)
        return out

    def clear(self) -> None:
        """Reset all state (keeps sizing)."""
        self._keys.fill(_EMPTY)
        self._fill.fill(0)

    def bucket_fills(self):
        """Per-bucket cell occupancy (verification/occupancy diagnostics)."""
        return self._fill.tolist()

    def merge_from(self, other) -> None:
        """Absorb ``other``'s accounting into this filter (in place).

        Same contract as :meth:`BurstFilter.merge_from
        <repro.core.burst_filter.BurstFilter.merge_from>`: both filters
        must be drained (merge is a window-boundary operation), so only
        the cost counters combine.
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

    def verify_state(self):
        """Structural self-check; returns problem descriptions (empty = OK).

        Same contract as :meth:`BurstFilter.verify_state
        <repro.core.burst_filter.BurstFilter.verify_state>`: bucket fills
        within capacity, no duplicate ID inside a bucket, every stored ID
        in its home bucket.
        """
        problems = []
        for b in range(self.n_buckets):
            fill = int(self._fill[b])
            if not 0 <= fill <= self.cells_per_bucket:
                problems.append(
                    f"burst bucket {b} fill {fill} outside "
                    f"[0, {self.cells_per_bucket}]"
                )
                continue
            stored = self._keys[b, :fill].tolist()
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
        """Modeled memory footprint in bits."""
        return self.capacity * ID_BITS

    def reset_stats(self) -> None:
        """Zero the instrumentation counters."""
        self.hash_ops = 0
        self.compare_ops = 0
        self.absorbed = 0
        self.overflowed = 0

    def state_dict(self) -> dict:
        """Exact state as plain values (see :mod:`repro.persist`)."""
        return {
            "n_buckets": self.n_buckets,
            "cells_per_bucket": self.cells_per_bucket,
            "hash": self._hash.state_dict(),
            "keys": self._keys.copy(),
            "fill": self._fill.copy(),
            "hash_ops": self.hash_ops,
            "compare_ops": self.compare_ops,
            "absorbed": self.absorbed,
            "overflowed": self.overflowed,
        }

    @classmethod
    def from_state(cls, state: dict) -> "VectorizedBurstFilter":
        """Rebuild a filter bit-identical to the one that was saved."""
        obj = cls.__new__(cls)
        obj.n_buckets = int(state["n_buckets"])
        obj.cells_per_bucket = int(state["cells_per_bucket"])
        obj._hash = HashFamily.from_state(state["hash"])
        obj._keys = np.asarray(state["keys"], dtype=np.uint64).reshape(
            obj.n_buckets, obj.cells_per_bucket
        ).copy()
        obj._fill = np.asarray(state["fill"], dtype=np.int32).copy()
        if obj._fill.shape != (obj.n_buckets,):
            raise ValueError("vectorized burst filter state is inconsistent")
        obj._vector_compares_per_scan = simd_scan_cost(obj.cells_per_bucket)
        obj.hash_ops = int(state["hash_ops"])
        obj.compare_ops = int(state["compare_ops"])
        obj.absorbed = int(state["absorbed"])
        obj.overflowed = int(state["overflowed"])
        obj.trace = None
        return obj


def make_hypersistent_simd(
    config, engine: str = ENGINE_KERNEL
) -> "HypersistentSketch":
    """A :class:`HypersistentSketch` whose stage 1 uses the SIMD scan path.

    ``engine`` selects the batch ingestion backend, exactly as on
    :class:`~repro.core.hypersistent.HypersistentSketch`.
    """
    from .hypersistent import HypersistentSketch  # local: avoid import cycle

    sketch = HypersistentSketch(config, engine=engine)
    n_burst = config.burst_buckets()
    if n_burst:
        sketch.burst = VectorizedBurstFilter(
            n_burst,
            config.burst_cells_per_bucket,
            seed=config.seed ^ 0xB0_0001,
        )
    return sketch
