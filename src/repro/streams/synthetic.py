"""Synthetic workload generators.

The paper evaluates on Zipf-distributed streams produced by Web Polygraph
(skew 1.5-2.5) and on real packet traces.  This module generates seeded,
reproducible streams with the two properties the algorithms care about:

* **frequency skew** — item popularity follows a finite Zipf(s) law, so a few
  items dominate the record count;
* **persistence structure** — records are spread uniformly over the time
  range, so an item with frequency ``f`` occupies roughly
  ``w * (1 - (1 - 1/w)**f)`` of the ``w`` windows.  That yields exactly the
  skewed persistence CDFs of the paper's figure 4 (most items persistence
  <= 5, a small head near ``w``).

Generators can additionally *plant* stealthy persistent items — items that
appear in (almost) every window but only a handful of times per window — the
low-frequency advanced-persistent-threat scenario from the introduction.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..common.errors import StreamError
from ..common.hashing import derive_seed
from .model import Trace

# Item-key spaces are offset so planted items never collide with Zipf items.
_STEALTHY_BASE = 1 << 48
_BAND_BASE = 1 << 44
_ITEM_BASE = 1


def _zipf_probabilities(n_items: int, skew: float) -> np.ndarray:
    """Normalized finite Zipf(s) pmf over ranks 1..n_items."""
    ranks = np.arange(1, n_items + 1, dtype=np.float64)
    weights = ranks ** (-skew)
    return weights / weights.sum()


def _sample_ranks(
    rng: np.random.Generator, probs: np.ndarray, n_records: int
) -> np.ndarray:
    """Sample ``n_records`` ranks from a finite pmf via inverse CDF."""
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0  # guard against floating-point slack
    u = rng.random(n_records)
    return np.searchsorted(cdf, u, side="right")


def zipf_trace(
    n_records: int,
    n_windows: int,
    skew: float = 1.5,
    n_items: Optional[int] = None,
    seed: int = 1,
    n_stealthy: int = 0,
    stealthy_rate: int = 2,
    within_window_repeats: float = 1.0,
    name: Optional[str] = None,
) -> Trace:
    """A Zipf(s) stream over ``n_windows`` uniform windows.

    Parameters
    ----------
    n_records:
        Total number of records (packets), approximate when
        ``within_window_repeats > 1``.
    n_windows:
        Number of equal time windows.
    skew:
        Zipf exponent ``s`` (the paper sweeps 1.5-2.5).
    n_items:
        Size of the item universe.  Defaults to ``max(64, n_records // 32)``,
        which produces distinct-item counts in the same regime as Web
        Polygraph traces of the paper's sizes.
    seed:
        Master RNG seed; every derived quantity is deterministic in it.
    n_stealthy:
        Number of planted persistent-but-infrequent items.  Each appears
        ``stealthy_rate`` times in *every* window (persistence == n_windows).
    within_window_repeats:
        Mean packets per (item, window) arrival burst (geometric).  Real
        flows send packet trains, so each appearance of an item in a window
        carries several records back-to-back — the redundancy the paper's
        Burst Filter is designed to absorb.  ``1.0`` disables bursting.
    """
    if n_records < 1:
        raise StreamError("n_records must be >= 1")
    if n_windows < 1:
        raise StreamError("n_windows must be >= 1")
    if skew < 0:
        raise StreamError("skew must be >= 0")
    if within_window_repeats < 1:
        raise StreamError("within_window_repeats must be >= 1")
    if n_items is None:
        n_items = max(64, n_records // 32)
    rng = np.random.default_rng(derive_seed(seed, n_records, n_windows))

    n_base = max(1, int(round(n_records / within_window_repeats)))
    probs = _zipf_probabilities(n_items, skew)
    ranks = _sample_ranks(rng, probs, n_base)
    items = ranks.astype(np.int64) + _ITEM_BASE
    # Uniform arrival positions over the time range -> uniform window ids.
    wids = rng.integers(0, n_windows, size=n_base, dtype=np.int64)
    if within_window_repeats > 1:
        repeats = rng.geometric(1.0 / within_window_repeats, size=n_base)
        items = np.repeat(items, repeats)
        wids = np.repeat(wids, repeats)

    if n_stealthy:
        # key-major: each planted key, then each window, stealthy_rate times
        s_items = np.repeat(
            _STEALTHY_BASE + np.arange(n_stealthy, dtype=np.int64),
            n_windows * stealthy_rate,
        )
        s_wids = np.tile(
            np.repeat(np.arange(n_windows, dtype=np.int64), stealthy_rate),
            n_stealthy,
        )
        items = np.concatenate([items, s_items])
        wids = np.concatenate([wids, s_wids])

    order = np.argsort(wids, kind="stable")
    trace_name = name or f"zipf{skew:g}"
    return Trace(
        items[order],
        wids[order],
        n_windows,
        name=trace_name,
        meta={"skew": skew, "n_items": n_items, "n_stealthy": n_stealthy,
              "within_window_repeats": within_window_repeats, "seed": seed},
    )


def persistence_trace(
    bands: Sequence[Tuple[int, int, int]],
    n_windows: int,
    seed: int = 1,
    occurrences_per_window: int = 1,
    late_start: bool = True,
    key_base: int = _BAND_BASE,
    name: str = "bands",
) -> Trace:
    """A workload with *explicit* per-item persistence bands.

    ``bands`` is a sequence of ``(count, p_lo, p_hi)`` tuples: ``count``
    items whose persistence is uniform in ``[p_lo, p_hi]``; each item
    appears ``occurrences_per_window`` times in each of its (randomly
    chosen) windows.  This models the persistence *spectrum* of real traces
    directly — including the hard negatives just below a detection
    threshold that make the finding task discriminative — independent of
    the frequency distribution.

    With ``late_start`` (the default, matching real traces where persistent
    flows begin throughout the capture), each item's active span starts at
    a uniformly random window, so sketches must admit persistent items that
    show up after their structures have filled.
    """
    if n_windows < 1:
        raise StreamError("n_windows must be >= 1")
    if occurrences_per_window < 1:
        raise StreamError("occurrences_per_window must be >= 1")
    rng = np.random.default_rng(derive_seed(seed, n_windows, 0xBA2D))
    item_windows: List[np.ndarray] = []
    for count, p_lo, p_hi in bands:
        if count < 0 or p_lo < 1 or p_hi < p_lo:
            raise StreamError(f"invalid band {(count, p_lo, p_hi)}")
        persistences = rng.integers(p_lo, p_hi + 1, size=count)
        for p in persistences:
            p = min(int(p), n_windows)
            start = int(rng.integers(0, n_windows - p + 1)) if late_start \
                else 0
            item_windows.append(start + rng.choice(
                n_windows - start, size=p, replace=False
            ))
    # item k (key ``key_base + k``) holds occurrences_per_window records
    # in each of its windows, in the order its windows were drawn
    lengths = np.array([len(w) for w in item_windows], dtype=np.int64)
    items = np.repeat(key_base + np.arange(len(lengths), dtype=np.int64),
                      lengths * occurrences_per_window)
    windows = (np.concatenate(item_windows) if item_windows
               else np.zeros(0, dtype=np.int64))
    wids = np.repeat(windows, occurrences_per_window)
    order = np.argsort(wids, kind="stable")
    return Trace(
        items[order],
        wids[order],
        n_windows,
        name=name,
        meta={"bands": list(bands), "seed": seed},
    )


def uniform_trace(
    n_records: int,
    n_windows: int,
    n_items: int,
    seed: int = 1,
    name: str = "uniform",
) -> Trace:
    """A non-skewed control workload (every item equally likely)."""
    if n_items < 1:
        raise StreamError("n_items must be >= 1")
    rng = np.random.default_rng(derive_seed(seed, n_records, n_windows, 7))
    items = rng.integers(_ITEM_BASE, _ITEM_BASE + n_items, size=n_records)
    wids = np.sort(rng.integers(0, n_windows, size=n_records))
    return Trace(
        items,
        wids,
        n_windows,
        name=name,
        meta={"n_items": n_items, "seed": seed},
    )


def exponential_trace(
    n_records: int,
    n_windows: int,
    n_items: int,
    scale: float = 0.08,
    seed: int = 1,
    name: str = "exponential",
) -> Trace:
    """Item popularity decaying exponentially with rank (Thm IV.8 workload)."""
    if n_items < 1:
        raise StreamError("n_items must be >= 1")
    rng = np.random.default_rng(derive_seed(seed, n_records, n_windows, 13))
    ranks = np.arange(n_items, dtype=np.float64)
    weights = np.exp(-scale * ranks)
    probs = weights / weights.sum()
    items = _sample_ranks(rng, probs, n_records).astype(np.int64) + _ITEM_BASE
    wids = np.sort(rng.integers(0, n_windows, size=n_records))
    return Trace(
        items,
        wids,
        n_windows,
        name=name,
        meta={"n_items": n_items, "scale": scale, "seed": seed},
    )


def burst_trace(
    n_records: int,
    n_windows: int,
    n_items: int,
    burst_fraction: float = 0.3,
    seed: int = 1,
    name: str = "bursty",
) -> Trace:
    """A workload where a fraction of items appear in concentrated bursts.

    Bursty items land all their records inside one randomly chosen window
    (high frequency, persistence 1); the rest behave like a uniform stream.
    Exercises the Burst Filter's within-window dedup specifically.
    """
    if not 0 <= burst_fraction <= 1:
        raise StreamError("burst_fraction must be in [0, 1]")
    rng = np.random.default_rng(derive_seed(seed, n_records, n_windows, 23))
    n_burst = int(n_records * burst_fraction)
    items = rng.integers(
        _ITEM_BASE, _ITEM_BASE + max(1, n_items), size=n_records
    ).astype(np.int64)
    wids = rng.integers(0, n_windows, size=n_records).astype(np.int64)
    if n_burst:
        # concentrate the first n_burst records of each bursty item
        burst_items = rng.integers(
            _ITEM_BASE, _ITEM_BASE + max(1, n_items // 10 or 1), size=n_burst
        )
        burst_window = rng.integers(0, n_windows, size=n_burst)
        items[:n_burst] = burst_items
        wids[:n_burst] = burst_window
    order = np.argsort(wids, kind="stable")
    return Trace(
        items[order],
        wids[order],
        n_windows,
        name=name,
        meta={"n_items": n_items, "burst_fraction": burst_fraction,
              "seed": seed},
    )
