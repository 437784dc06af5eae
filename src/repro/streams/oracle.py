"""Exact ground truth for persistence tasks.

All accuracy metrics in the paper (AAE, ARE, F1, FNR, FPR) compare sketch
estimates against exact per-item persistence, which a one-pass dictionary
computes easily offline.  This module is the reference implementation every
sketch is tested against.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from .model import Trace


def exact_persistence(trace: Trace) -> Dict[int, int]:
    """Exact persistence of every distinct item in the trace.

    Persistence of ``e`` = number of distinct windows containing ``e``.
    Keys appear in first-appearance order (metrics sum in that order).
    """
    keys, _, persistence = trace.distinct_keys()
    return dict(zip(keys.tolist(), persistence.tolist()))


def exact_frequency(trace: Trace) -> Dict[int, int]:
    """Exact record count per item (used by frequency-style baselines' tests)."""
    keys, frequency, _ = trace.distinct_keys()
    return dict(zip(keys.tolist(), frequency.tolist()))


def persistent_items(
    truth: Dict[int, int], threshold: int
) -> Set[int]:
    """The exact set of items with persistence >= ``threshold``."""
    return {item for item, p in truth.items() if p >= threshold}


def alpha_threshold(n_windows: int, alpha: float) -> int:
    """Absolute persistence threshold for ``alpha``-persistent items."""
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    return max(1, int(alpha * n_windows))


def top_persistent(truth: Dict[int, int], k: int) -> List[Tuple[int, int]]:
    """The ``k`` items of largest exact persistence, descending."""
    return sorted(truth.items(), key=lambda kv: (-kv[1], kv[0]))[:k]


def persistence_histogram(truth: Dict[int, int]) -> Dict[int, int]:
    """How many items have each persistence value (feeds the CDF of fig 4)."""
    hist: Dict[int, int] = {}
    for p in truth.values():
        hist[p] = hist.get(p, 0) + 1
    return hist


def sample_query_set(
    truth: Dict[int, int], include: Iterable[int] = ()
) -> List[int]:
    """The canonical query set ``Phi``: every distinct item, plus extras."""
    keys = set(truth)
    keys.update(include)
    return sorted(keys)
