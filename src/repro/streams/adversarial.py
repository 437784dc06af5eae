"""Adversarial and stress workloads.

Sketches are usually evaluated on friendly Zipf traffic; these generators
produce the patterns that actually break naive designs, used by the
robustness tests and available to users hardening a deployment:

* :func:`distinct_flood` — every record a brand-new item (no reuse): the
  worst case for ID stores (Burst Filter overflow, Hot Part churn).
* :func:`single_item_flood` — one item repeated at line rate: the best
  case for the Burst Filter, worst case for naive per-occurrence counting.
* :func:`boundary_spikes` — all traffic lands in alternating windows,
  stressing flag-reset correctness at boundaries.
* :func:`churn_trace` — the active item population is replaced every
  ``phase`` windows, stressing eviction policies (stale residents must
  drain out).
"""

from __future__ import annotations

import numpy as np

from ..common.errors import StreamError
from ..common.hashing import canonical_key, derive_seed
from .model import Trace, even_window_ids

_ADV_BASE = 1 << 40


def distinct_flood(n_records: int, n_windows: int, seed: int = 1) -> Trace:
    """Every record is a never-seen-before item."""
    if n_records < 1 or n_windows < 1:
        raise StreamError("need n_records >= 1 and n_windows >= 1")
    items = _ADV_BASE + np.arange(n_records, dtype=np.int64)
    return Trace(items, even_window_ids(n_records, n_windows), n_windows,
                 name="distinct_flood", meta={"seed": seed})


def single_item_flood(
    n_records: int, n_windows: int, item: int = 7, seed: int = 1
) -> Trace:
    """One item repeated for the whole stream (persistence == n_windows)."""
    if n_records < n_windows:
        raise StreamError("need at least one record per window")
    items = np.full(n_records, canonical_key(item), dtype=np.uint64)
    return Trace(items, even_window_ids(n_records, n_windows), n_windows,
                 name="single_item_flood", meta={"seed": seed})


def boundary_spikes(
    n_items: int, n_windows: int, seed: int = 1
) -> Trace:
    """All items appear in every *even* window and never in odd ones.

    Exact persistence is ``ceil(n_windows / 2)`` for every item; any
    flag-reset bug (resetting too often or not at all) shifts estimates
    visibly.
    """
    if n_items < 1 or n_windows < 1:
        raise StreamError("need n_items >= 1 and n_windows >= 1")
    rng = np.random.default_rng(derive_seed(seed, n_items, n_windows))
    even = np.arange(0, n_windows, 2, dtype=np.int64)
    items = _ADV_BASE + np.concatenate(
        [rng.permutation(n_items) for _ in even]
    )
    return Trace(items, np.repeat(even, n_items), n_windows,
                 name="boundary_spikes", meta={"seed": seed})


def churn_trace(
    n_items_per_phase: int,
    n_windows: int,
    phase: int = 10,
    seed: int = 1,
) -> Trace:
    """The active population is fully replaced every ``phase`` windows.

    Each cohort of items appears once per window for exactly ``phase``
    windows and then disappears forever — eviction policies that protect
    residents too aggressively (or inherit counters) mis-handle this.
    """
    if n_items_per_phase < 1 or n_windows < 1 or phase < 1:
        raise StreamError("all parameters must be >= 1")
    wids = np.repeat(np.arange(n_windows, dtype=np.int64),
                     n_items_per_phase)
    cohort_base = _ADV_BASE + (wids // phase) * n_items_per_phase
    offsets = np.tile(np.arange(n_items_per_phase, dtype=np.int64),
                      n_windows)
    return Trace(cohort_base + offsets, wids, n_windows, name="churn",
                 meta={"phase": phase, "seed": seed})
