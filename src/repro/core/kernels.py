"""Whole-window structure-of-arrays kernels for the three-stage pipeline.

This module is the fast ingestion backend — ``engine="kernel"``, the
default — beside the scalar record-at-a-time oracle.  Each stage's
per-window update is a handful of numpy array ops over the whole batch
operating directly on the stages' structure-of-arrays storage:

* :func:`burst_window_plan` — the Burst Filter's whole-window admission,
  drain order, and scan-compare accounting from **one** ``numpy.unique``
  and **one** composite argsort;
* :func:`plan_burst_admission` — the general (open-window) admission plan
  behind the burst filters' ``insert_batch``, which also honours buckets
  that already hold keys;
* :func:`cold_layer_batch` — the Cold Filter wave engine: conflict-free
  wave selection with a **single** stable argsort over the flattened
  ``row * width + cell`` ids of all rows at once, fused gather / row-min /
  flag-aware scatter, plus two exact bulk retirements (settled keys and
  frozen rejects) that collapse duplicate tails;
* :func:`cold_insert_batch` — the fused L1→L2 escalation: L1 rejects flow
  to L2 in arrival order inside the same call, with the scalar hash-op
  cost model;
* :func:`hot_insert_batch` — the Hot Part's Algorithm 1 walk as grouped
  gather → bucket-scan compare → conditional scatter rounds, with the
  ``REPLACE_HASH`` Bernoulli trial vectorized via ``mix_array``;
* :func:`ingest_window` — the whole-window driver gluing the three stages
  together (what ``HypersistentSketch.insert_window`` runs under
  ``engine="kernel"``), and the sketch's one stage clock: it adds each
  window's burst / cold / hot / end wall time to ``stage_seconds``.

Every kernel is **bit-for-bit equivalent** to the scalar record-at-a-time
replay — state, estimates, reports, and the instrumentation counters all
match — which the ``kernel-equivalence`` invariant in :mod:`repro.verify`
checks on every fuzz case.  The module is deliberately free of stage-class
imports (it duck-types the stage attributes), so the stage modules can
import it without cycles.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..common.hashing import mix_array
from ..obs.events import (
    BURST_DRAIN,
    COLD_ESCALATE,
    COLD_L1_ACCEPT,
    COLD_OVERFLOW,
    HOT_HIT,
    HOT_INSERT,
    HOT_REJECT,
    HOT_REPLACE,
    STAGES,
)

#: Ingestion engine names accepted by ``HypersistentSketch(engine=...)``.
ENGINE_SCALAR = "scalar"
ENGINE_KERNEL = "kernel"
ENGINES = (ENGINE_SCALAR, ENGINE_KERNEL)


def _unique_order(keys: np.ndarray):
    """``(uniq, first_pos, inverse)`` from one stable argsort.

    Value-identical to ``np.unique(keys, return_index=True,
    return_inverse=True)`` (sorted distinct keys, first-arrival positions,
    group id per occurrence) without the optional-output plumbing —
    ``numpy.unique`` spends as long assembling those outputs as sorting at
    the window sizes the kernels see.
    """
    n = int(keys.size)
    order = np.argsort(keys, kind="stable")
    ks = keys[order]
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    boundary[1:] = ks[1:] != ks[:-1]
    gid = np.cumsum(boundary) - 1
    inverse = np.empty(n, dtype=np.int64)
    inverse[order] = gid
    return ks[boundary], order[boundary], inverse


# ----------------------------------------------------------------------
# stage 1 — Burst Filter
# ----------------------------------------------------------------------
def burst_window_plan(
    keys: np.ndarray, buckets_of_unique, capacity: int,
    with_compares: bool = True,
) -> Tuple[np.ndarray, int, int]:
    """Whole-window burst admission into an *empty* filter, fused.

    Returns ``(downstream, n_absorbed, scan_compares)`` where
    ``downstream`` is exactly the key sequence the scalar window forwards
    to the Cold Filter — every overflowing occurrence in arrival order,
    then the stored distinct keys in drain (bucket-major, slot-minor)
    order — and ``scan_compares`` is the scalar scan's early-exit compare
    count (what :class:`~repro.core.burst_filter.BurstFilter` adds to
    ``compare_ops``).  Callers with their own compare cost model (the SIMD
    variant) pass ``with_compares=False`` to skip that accounting
    (``scan_compares`` comes back 0).

    Correctness mirrors :func:`plan_burst_admission`: within one window a
    bucket only fills, so the stored set is the first ``capacity``
    distinct keys per bucket in first-arrival order.  The fusion: one
    ``numpy.unique`` gives distinct keys, counts, and first positions;
    one argsort of the composite ``bucket * n + first_pos``
    (distinct per key, so no stable sort needed) yields bucket-major,
    arrival-minor order, from which within-bucket slots, the stored set,
    *and* the drain sequence all fall out without further sorting.
    """
    n = int(keys.size)
    uniq, first_pos, inverse = _unique_order(keys)
    u = int(uniq.size)
    buckets = buckets_of_unique(uniq)
    order = np.argsort(buckets * np.int64(n) + first_pos.astype(np.int64))
    b_sorted = buckets[order]
    pos = np.arange(u, dtype=np.int64)
    starts = np.empty(u, dtype=bool)
    starts[0] = True
    starts[1:] = b_sorted[1:] != b_sorted[:-1]
    group_start = np.maximum.accumulate(np.where(starts, pos, 0))
    slots_sorted = pos - group_start
    stored_sorted = slots_sorted < capacity
    # bucket-major, slot-minor == drain order, directly from the sort
    drained = uniq[order[stored_sorted]]
    stored = np.empty(u, dtype=bool)
    stored[order] = stored_sorted
    absorbed = stored[inverse]
    n_absorbed = int(absorbed.sum())
    if with_compares:
        counts = np.bincount(inverse, minlength=u)
        counts_sorted = counts[order]
        slot_st = slots_sorted[stored_sorted]
        count_st = counts_sorted[stored_sorted]
        # scalar early-exit scan: slot s costs s to append, s + 1 per
        # repeat hit, and an overflowing occurrence scans the full bucket
        scan_compares = \
            int((slot_st + (count_st - 1) * (slot_st + 1)).sum()) \
            + int((counts_sorted[~stored_sorted] * np.int64(capacity)).sum())
    else:
        scan_compares = 0
    overflow = keys[~absorbed]
    downstream = (
        np.concatenate((overflow, drained)) if overflow.size else drained
    )
    return downstream, n_absorbed, scan_compares


def group_ranks(groups: np.ndarray) -> np.ndarray:
    """Rank of each element within its equal-valued group, order-preserving.

    ``group_ranks([3, 5, 3, 3, 5]) == [0, 0, 1, 2, 1]``: the i-th element's
    rank counts the earlier elements with the same group value.  Used to
    assign bucket slots to newly-stored keys in first-arrival order.
    """
    n = groups.size
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    order = np.argsort(groups, kind="stable")
    sorted_groups = groups[order]
    positions = np.arange(n, dtype=np.int64)
    starts = np.empty(n, dtype=bool)
    starts[0] = True
    starts[1:] = sorted_groups[1:] != sorted_groups[:-1]
    group_start = np.maximum.accumulate(np.where(starts, positions, 0))
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = positions - group_start
    return ranks


@dataclass
class BurstBatchPlan:
    """One batch's Burst-Filter admission decisions.

    All per-distinct arrays are ordered by first arrival (the order bucket
    slots fill in the scalar path).
    """

    #: distinct keys in first-arrival order (``uint64``)
    unique_keys: np.ndarray
    #: bucket of each distinct key
    buckets: np.ndarray
    #: bucket slot of each distinct key (-1 for overflowed keys)
    slots: np.ndarray
    #: True where the distinct key is (or was already) stored
    stored: np.ndarray
    #: True where the distinct key was newly stored by this batch
    newly_stored: np.ndarray
    #: per-occurrence absorbed mask, aligned with the input key array
    absorbed: np.ndarray
    #: total absorbed occurrences
    n_absorbed: int
    #: scalar-equivalent ID comparisons of the whole batch
    scan_compares: int


def plan_burst_admission(
    keys: np.ndarray,
    buckets_of_unique,
    capacity: int,
    fill_of_unique=None,
    slot_of_unique=None,
) -> BurstBatchPlan:
    """Compute a batch's Burst-Filter admission plan in one pass.

    The open-window counterpart of :func:`burst_window_plan`, behind the
    burst filters' ``insert_batch``.  ``buckets_of_unique`` maps the
    first-arrival-ordered distinct-key array to bucket indexes (vectorized
    hashing).  ``fill_of_unique`` / ``slot_of_unique`` report pre-existing
    bucket fill and the slot of already-stored keys (-1 when absent); both
    default to the empty-filter case.

    The returned plan reproduces the scalar insert loop exactly:

    * a distinct key is stored iff ``existing fill + arrival rank`` among
      the batch's new keys in its bucket is below ``capacity``;
    * every occurrence of a stored key is absorbed, every occurrence of a
      non-stored key overflows (a full bucket never drains mid-window);
    * ``scan_compares`` counts the sequential scan's early-exiting ID
      comparisons: a key stored at slot ``s`` costs ``s`` compares to
      append and ``s + 1`` per repeat hit; an overflowing occurrence scans
      the full bucket for ``capacity`` compares.
    """
    unique, first_pos, inverse = np.unique(
        keys, return_index=True, return_inverse=True
    )
    counts = np.bincount(inverse, minlength=unique.size)
    arrival = np.argsort(first_pos, kind="stable")
    unique_keys = unique[arrival]
    counts_ord = counts[arrival]
    buckets = buckets_of_unique(unique_keys)

    if slot_of_unique is None:
        slots = np.full(unique_keys.size, -1, dtype=np.int64)
    else:
        slots = slot_of_unique(unique_keys, buckets)
    present = slots >= 0
    if fill_of_unique is None:
        fill = np.zeros(unique_keys.size, dtype=np.int64)
    else:
        fill = fill_of_unique(buckets)

    new = ~present
    new_slots = fill[new] + group_ranks(buckets[new])
    newly_stored = np.zeros(unique_keys.size, dtype=bool)
    newly_stored[new] = new_slots < capacity
    slots[new] = np.where(new_slots < capacity, new_slots, -1)
    stored = present | newly_stored

    absorbed_unique = np.zeros(unique.size, dtype=bool)
    absorbed_unique[arrival] = stored
    absorbed = absorbed_unique[inverse]
    n_absorbed = int(counts_ord[stored].sum())

    # scalar-scan compare accounting (early exit on hits, full scan on miss)
    hit_cost = counts_ord[present] * (slots[present] + 1)
    append_cost = (slots[newly_stored]
                   + (counts_ord[newly_stored] - 1)
                   * (slots[newly_stored] + 1))
    overflow_cost = counts_ord[~stored] * capacity
    scan_compares = int(hit_cost.sum()) + int(append_cost.sum()) \
        + int(overflow_cost.sum())

    return BurstBatchPlan(
        unique_keys=unique_keys,
        buckets=buckets,
        slots=slots,
        stored=stored,
        newly_stored=newly_stored,
        absorbed=absorbed,
        n_absorbed=n_absorbed,
        scan_compares=scan_compares,
    )


# ----------------------------------------------------------------------
# stage 2 — Cold Filter
# ----------------------------------------------------------------------
def cold_layer_batch(
    layer, keys: np.ndarray, idx: Optional[np.ndarray] = None
) -> np.ndarray:
    """One CU layer's Algorithm 2 step over an ordered key batch.

    Returns the per-key accepted mask, bit-for-bit equal to calling the
    scalar ``try_insert`` per key in order.  Three exactness arguments:

    * **Waves.**  A key may run as soon as it is the earliest pending user
      of *all* its cells; selected keys share no cell, so one gather /
      row-min / scatter processes the wave while every cell still sees its
      users in arrival order.  Because cell ids are flattened to
      ``row * width + cell`` (disjoint across rows), a single linear
      scatter finds the first user of every cell in all rows at once:
      writing each pending position into a scratch slab in *reverse*
      arrival order leaves the earliest position in every cell (fancy
      assignment applies duplicate indices in order, last write wins) —
      no sort anywhere in the loop.
    * **Settled retirement.**  A cell increments at most once per window
      (its flag turns off), so once every cell of a key is off its minimum
      is frozen: the remaining occurrences are state no-ops whose accept
      bit is the frozen ``vmin < threshold``, independent of order.
    * **Frozen-reject retirement.**  Counters only grow within a window,
      so a key's row-minimum is non-decreasing; once one occurrence is
      rejected (``vmin >= threshold``) every later occurrence of that key
      is rejected too, and rejected occurrences write nothing — so all
      pending duplicates of a rejected key retire immediately.  (The dual
      is *not* true in general: acceptance can flip to rejection when the
      minimum crosses the threshold mid-window.)
    * **Stable-accept retirement.**  An accepted occurrence that updates
      *no* cell is a fixed point: every minimal cell must already be off
      (that is the only way an accepted CU step writes nothing), and an
      off cell cannot change again this window, so the key's minimum —
      and with it the accept bit of every later duplicate — is frozen.
      Together with frozen-reject this bounds the wave count: a key's
      occurrences stop consuming waves as soon as one of them runs
      without writing, and each write turns a flag off permanently.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    n = int(keys.size)
    accepted = np.zeros(n, dtype=bool)
    if not n:
        return accepted
    if idx is None:
        idx = layer._hash.indexes_batch(keys, layer.width)
    rows = layer.rows
    threshold = layer.threshold
    cap = layer._cap
    values = layer._values.reshape(-1)
    off = layer._off.reshape(-1)
    epochs = layer._epochs
    flat = idx + (np.arange(rows, dtype=np.int64) * layer.width)[:, None]
    # resolved-key bookkeeping (frozen rejects + stable accepts), built
    # lazily the first time a key resolves while duplicates still pend:
    # 0 = unresolved, 1 = frozen reject, 2 = stable accept
    inverse = resolved = None
    scratch = np.empty(rows * layer.width, dtype=np.int64)
    pending = np.arange(n)
    while pending.size:
        cells = flat[:, pending]             # (rows, m)
        m = int(pending.size)
        # earliest pending user per cell: scatter pending positions in
        # reverse arrival order (fancy assignment applies duplicates in
        # order, so the last write — the earliest position — wins); only
        # cells written this wave are read back, so the slab needs no
        # reset between waves.  Row-wise ops: `rows` is the configured
        # hash-row count (2 by default), not a batch dimension.
        ar = np.arange(m, dtype=np.int64)
        ar_rev = ar[::-1]
        for r in range(rows):
            scratch[cells[r, ::-1]] = ar_rev
        selected = scratch[cells[0]] == ar
        for r in range(1, rows):
            selected &= scratch[cells[r]] == ar
        wave_cells = cells[:, selected]
        vals = values[wave_cells]
        vmin = vals.min(axis=0)
        ok = vmin < threshold
        wave = pending[selected]
        accepted[wave] = ok
        pending = pending[~selected]
        wrote = np.zeros(int(ok.sum()), dtype=bool)
        if wrote.size:
            ok_cells = wave_cells[:, ok]
            vmin_ok = vmin[ok]
            for r in range(rows):
                row_cells = ok_cells[r]
                update = (vals[r][ok] == vmin_ok) \
                    & (off[row_cells] != epochs[r])
                touched = row_cells[update]
                # vmin < threshold <= cap for every sized layer, so the
                # saturating minimum only matters for hand-built states
                values[touched] = np.minimum(values[touched] + 1, cap)
                off[touched] = epochs[r]
                wrote |= update
        if not pending.size:
            break
        # mark keys that resolved this wave, then bulk-retire their
        # pending duplicates
        rejects = wave[~ok]
        stable = wave[ok][~wrote]
        if rejects.size or stable.size:
            if resolved is None:
                uniq, _, inverse = _unique_order(keys)
                resolved = np.zeros(uniq.size, dtype=np.int8)
            resolved[inverse[rejects]] = 1
            resolved[inverse[stable]] = 2
        if resolved is not None:
            tag = resolved[inverse[pending]]
            done = tag != 0
            if done.any():
                retired = pending[done]
                accepted[retired] = tag[done] == 2
                pending = pending[~done]
                if not pending.size:
                    break
        # settled retirement: all cells off -> frozen minimum
        pending_cells = flat[:, pending]
        on_any = off[pending_cells[0]] != epochs[0]
        for r in range(1, rows):
            on_any |= off[pending_cells[r]] != epochs[r]
        if not on_any.all():
            settled = pending[~on_any]
            settled_vmin = values[flat[:, settled]].min(axis=0)
            accepted[settled] = settled_vmin < threshold
            pending = pending[on_any]
    return accepted


def cold_insert_batch(cold, keys: np.ndarray) -> np.ndarray:
    """Fused two-layer Cold Filter step over an ordered key batch.

    Returns the per-key accepted mask (``False`` marks overflow to the Hot
    Part).  The L1 rejects flow to L2 *inside this call*, in arrival order
    (``np.flatnonzero`` of the reject mask preserves it), which is exactly
    the scalar interleaving because the two layers are disjoint structures
    and only per-structure arrival order matters.  ``hash_ops`` keeps the
    scalar cost model: ``d1`` per key plus ``d2`` per L1-rejected key.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    n = int(keys.size)
    cold.hash_ops += cold.l1.rows * n
    accepted = cold_layer_batch(cold.l1, keys)
    cold.l1_hits += int(accepted.sum())
    rejected = np.flatnonzero(~accepted)
    # bulk event reconstruction straight from the wave masks; the L1
    # slice must happen before the in-place escalation merge below
    tr = getattr(cold, "trace", None)
    if tr is not None and tr.enabled:
        tr.emit_bulk(COLD_L1_ACCEPT, keys[accepted])
    if rejected.size:
        cold.hash_ops += cold.l2.rows * int(rejected.size)
        l2_accepted = cold_layer_batch(cold.l2, keys[rejected])
        cold.l2_hits += int(l2_accepted.sum())
        cold.overflows += int(rejected.size) - int(l2_accepted.sum())
        if tr is not None and tr.enabled:
            tr.emit_bulk(COLD_ESCALATE, keys[rejected[l2_accepted]])
            tr.emit_bulk(COLD_OVERFLOW, keys[rejected[~l2_accepted]])
        accepted[rejected[l2_accepted]] = True
    return accepted


# ----------------------------------------------------------------------
# stage 3 — Hot Part
# ----------------------------------------------------------------------
def _hot_round(hot, buckets: np.ndarray, keys: np.ndarray) -> None:
    """One collision-free Hot Part round (``buckets`` pairwise distinct).

    The vectorized Algorithm 1 walk: for each (bucket, key) pair compute
    the walk's stopping slot — the first empty slot and the first matching
    occupied slot; whichever comes first decides insert vs hit, and a full
    bucket with no match runs the replacement trial.  Distinct buckets
    make every gather and scatter collision-free.
    """
    per_bucket = hot.entries_per_bucket
    bucket_keys = hot._keys[buckets]
    bucket_occ = hot._occ[buckets]
    match = (bucket_keys == keys[:, None]) & bucket_occ
    has_match = match.any(axis=1)
    first_match = np.where(has_match, match.argmax(axis=1), per_bucket)
    all_occupied = bucket_occ.all(axis=1)
    first_empty = np.where(
        all_occupied, per_bucket, (~bucket_occ).argmax(axis=1)
    )
    hit = first_match < first_empty
    if hit.any():
        hit_buckets = buckets[hit]
        hit_slots = first_match[hit]
        on = hot._off[hit_buckets, hit_slots] != hot._epoch
        inc_buckets = hit_buckets[on]
        inc_slots = hit_slots[on]
        hot._per[inc_buckets, inc_slots] += 1
        hot._off[inc_buckets, inc_slots] = hot._epoch
    inserts = (~hit) & (first_empty < per_bucket)
    if inserts.any():
        ins_buckets = buckets[inserts]
        ins_slots = first_empty[inserts]
        hot._keys[ins_buckets, ins_slots] = keys[inserts]
        hot._per[ins_buckets, ins_slots] = 1
        hot._occ[ins_buckets, ins_slots] = True
        hot._off[ins_buckets, ins_slots] = hot._epoch
    replace = (~hit) & (first_empty == per_bucket)
    tr = getattr(hot, "trace", None)
    if replace.any():
        rep_buckets = buckets[replace]
        rep_keys = keys[replace]
        pers = hot._per[rep_buckets]
        # argmin returns the first minimum — the walk's earliest-min rule
        slots = pers.argmin(axis=1)
        min_per = pers[np.arange(rep_buckets.size), slots]
        hot.replacement_attempts += int(rep_buckets.size)
        allowed = mix_array(rep_keys, hot._window_salt) \
            % (min_per.astype(np.uint64) + np.uint64(1)) == 0
        if allowed.any():
            hot.replacements += int(allowed.sum())
            win_buckets = rep_buckets[allowed]
            win_slots = slots[allowed]
            hot._keys[win_buckets, win_slots] = rep_keys[allowed]
            hot._per[win_buckets, win_slots] = min_per[allowed] + 1
            hot._off[win_buckets, win_slots] = hot._epoch
        if tr is not None and tr.enabled:
            tr.emit_bulk(HOT_REPLACE, rep_keys[allowed])
            tr.emit_bulk(HOT_REJECT, rep_keys[~allowed])
    # bulk event reconstruction from the round's masks (loop-free)
    if tr is not None and tr.enabled:
        tr.emit_bulk(HOT_HIT, keys[hit])
        tr.emit_bulk(HOT_INSERT, keys[inserts])


def hot_insert_batch(hot, buckets: np.ndarray, keys: np.ndarray) -> None:
    """Algorithm 1 over an ordered batch of promoted keys, in rounds.

    Only valid for the deterministic ``REPLACE_HASH`` policy (the caller
    keeps the seeded-RNG policy on the ordered scalar loop, because the
    Mersenne stream must be drawn in arrival order).  Each round runs the
    earliest pending occurrence per bucket — buckets within a round are
    distinct, so the round is one collision-free gather/scatter pass, and
    sequential rounds preserve per-bucket arrival order, which is the only
    order Algorithm 1 observes (buckets are independent).  Between rounds,
    pending occurrences whose key already sits in its bucket with the flag
    off this window are bulk-retired: the walk would hit the entry and
    no-op.  Promotions are the pipeline's rare tail, so the round count is
    small in practice.
    """
    pending = np.arange(keys.size)
    while pending.size:
        pending_buckets = buckets[pending]
        order = np.argsort(pending_buckets, kind="stable")
        sorted_buckets = pending_buckets[order]
        first_sorted = np.empty(order.size, dtype=bool)
        first_sorted[0] = True
        first_sorted[1:] = sorted_buckets[1:] != sorted_buckets[:-1]
        selected = np.empty(order.size, dtype=bool)
        selected[order] = first_sorted
        chosen = pending[selected]
        _hot_round(hot, buckets[chosen], keys[chosen])
        pending = pending[~selected]
        if not pending.size:
            break
        # Retire guaranteed no-ops: occurrences whose key already sits in
        # its bucket (before any empty slot, i.e. the walk reaches it) with
        # the flag off this window, provided every *earlier* pending
        # occurrence in the same bucket carries the same key.  Those
        # interleaving occurrences are hit-with-flag-off no-ops too, so the
        # bucket provably cannot change (no eviction, no flag flip) before
        # the retired occurrence's turn.  Without the uniform-prefix guard
        # an earlier occurrence of a *different* key could evict the
        # matched entry via replacement, turning the "no-op" into a live
        # replacement trial.
        rest_buckets = buckets[pending]
        rest_keys = keys[pending]
        order = np.argsort(rest_buckets, kind="stable")
        sb = rest_buckets[order]
        sk = rest_keys[order]
        starts = np.empty(order.size, dtype=bool)
        starts[0] = True
        starts[1:] = sb[1:] != sb[:-1]
        pos = np.arange(order.size, dtype=np.int64)
        group_start = np.maximum.accumulate(np.where(starts, pos, 0))
        mismatch = (sk != sk[group_start]).astype(np.int64)
        cum = np.cumsum(mismatch)
        # zero mismatches in the group prefix up to and including here
        uniform_prefix = cum == cum[group_start]
        eligible = np.empty(order.size, dtype=bool)
        eligible[order] = uniform_prefix
        bucket_keys = hot._keys[rest_buckets]
        bucket_occ = hot._occ[rest_buckets]
        match = (bucket_keys == rest_keys[:, None]) & bucket_occ
        has_match = match.any(axis=1)
        first_match = np.where(
            has_match, match.argmax(axis=1), hot.entries_per_bucket
        )
        first_empty = np.where(
            bucket_occ.all(axis=1), hot.entries_per_bucket,
            (~bucket_occ).argmax(axis=1),
        )
        hits = first_match < first_empty
        slot_guard = np.minimum(first_match, hot.entries_per_bucket - 1)
        flag_off = hot._off[rest_buckets, slot_guard] == hot._epoch
        retire = hits & flag_off & eligible
        # the scalar walk still counts a retired occurrence as a hit
        tr = getattr(hot, "trace", None)
        if tr is not None and tr.enabled:
            tr.emit_bulk(HOT_HIT, rest_keys[retire])
        pending = pending[~retire]


# ----------------------------------------------------------------------
# whole-window driver
# ----------------------------------------------------------------------
def ingest_window(sketch, keys: np.ndarray) -> None:
    """Process one whole window through the fused SoA kernels and close it.

    ``keys`` must already be canonical ``uint64``
    (:func:`~repro.common.hashing.canonical_keys`).  Bit-for-bit equivalent
    to the scalar ``insert`` x N + ``end_window`` sequence, including every
    instrumentation counter.

    This is the sketch's one stage clock: five ``perf_counter`` reads
    bracket the :data:`~repro.obs.events.STAGES`, their durations add to
    ``sketch.stage_seconds``, and an enabled flight recorder lays the
    same four durations out as this window's stage spans.
    """
    tr = getattr(sketch, "trace", None)
    started = time.perf_counter()
    n = int(keys.size)
    sketch.inserts += n
    burst = sketch.burst
    if burst is None:
        downstream = keys
    else:
        downstream = burst.window_kernel(keys)
        if downstream is None:  # open window left by insert_batch
            absorbed = burst.insert_batch(keys)
            overflow = keys[~absorbed]
            drained = burst.drain_array()
            if tr is not None and tr.enabled:
                tr.emit_bulk(BURST_DRAIN, drained)
            downstream = (
                np.concatenate((overflow, drained))
                if overflow.size else drained
            )
    burst_done = time.perf_counter()
    promoted = downstream
    if downstream.size:
        accepted = sketch.cold.insert_batch(downstream)
        promoted = downstream[~accepted]
    cold_done = time.perf_counter()
    if promoted.size:
        sketch.hot.insert_batch(promoted)
    hot_done = time.perf_counter()
    sketch.cold.end_window()
    sketch.hot.end_window()
    sketch.window += 1
    end_done = time.perf_counter()
    durations = (burst_done - started, cold_done - burst_done,
                 hot_done - cold_done, end_done - hot_done)
    totals = sketch.stage_seconds
    for stage, spent in zip(STAGES, durations):
        totals[stage] += spent
    if tr is not None and tr.enabled:
        tr.record_stage_spans(sketch.window - 1, durations, started)
        tr.rotate(sketch.window)
