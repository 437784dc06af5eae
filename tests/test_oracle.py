"""Unit tests for the exact-persistence oracle."""

import numpy as np
import pytest

from repro.streams.model import Trace
from repro.streams.oracle import (
    alpha_threshold,
    exact_frequency,
    exact_persistence,
    persistence_histogram,
    persistent_items,
    sample_query_set,
    top_persistent,
)


class TestExactPersistence:
    def test_hand_checked(self, tiny_trace):
        truth = exact_persistence(tiny_trace)
        # item 1 appears in windows 0,1,2,3; item 2 in 0,1; item 3 in 1,3
        assert truth == {1: 4, 2: 2, 3: 2}

    def test_duplicates_within_window_count_once(self):
        t = Trace([5, 5, 5], [0, 0, 0], 2)
        assert exact_persistence(t) == {5: 1}

    def test_empty(self):
        assert exact_persistence(Trace([], [], 3)) == {}

    def test_persistence_bounded_by_windows(self, small_zipf, small_truth):
        assert all(1 <= p <= small_zipf.n_windows
                   for p in small_truth.values())

    def test_persistence_bounded_by_frequency(self, small_zipf, small_truth):
        freq = exact_frequency(small_zipf)
        assert all(small_truth[k] <= freq[k] for k in small_truth)


def _loop_persistence(trace):
    """The record-at-a-time reference the columnar oracle must match."""
    last_window, persistence, frequency = {}, {}, {}
    for item, wid in trace.records():
        frequency[item] = frequency.get(item, 0) + 1
        if last_window.get(item) != wid:
            last_window[item] = wid
            persistence[item] = persistence.get(item, 0) + 1
    return persistence, frequency


class TestColumnarOracleMatchesLoop:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_traces(self, seed):
        rng = np.random.default_rng(seed)
        n, n_windows = int(rng.integers(0, 400)), int(rng.integers(1, 12))
        keys = rng.integers(0, 1 + int(rng.integers(1, 60)), size=n)
        keys[rng.random(n) < 0.1] |= np.int64(-1) << 63  # keys >= 2**63
        wids = np.sort(rng.integers(0, n_windows, size=n))
        trace = Trace(keys, wids, n_windows)
        persistence, frequency = _loop_persistence(trace)
        assert list(exact_persistence(trace).items()) == \
            list(persistence.items())
        assert list(exact_frequency(trace).items()) == \
            list(frequency.items())
        assert trace.mean_window_distinct() == \
            sum(persistence.values()) / n_windows
        assert trace.n_distinct == len(persistence)


class TestExactFrequency:
    def test_counts(self, tiny_trace):
        freq = exact_frequency(tiny_trace)
        assert freq == {1: 4, 2: 2, 3: 2}


class TestSelectors:
    def test_persistent_items(self, tiny_trace):
        truth = exact_persistence(tiny_trace)
        assert persistent_items(truth, 3) == {1}
        assert persistent_items(truth, 2) == {1, 2, 3}
        assert persistent_items(truth, 5) == set()

    def test_alpha_threshold(self):
        assert alpha_threshold(100, 0.5) == 50
        assert alpha_threshold(100, 0.001) == 1  # floor of 1

    def test_alpha_threshold_validation(self):
        with pytest.raises(ValueError):
            alpha_threshold(100, 0.0)
        with pytest.raises(ValueError):
            alpha_threshold(100, 1.5)

    def test_top_persistent_order(self, tiny_trace):
        truth = exact_persistence(tiny_trace)
        top = top_persistent(truth, 2)
        assert top[0] == (1, 4)
        assert len(top) == 2

    def test_top_persistent_ties_broken_by_key(self):
        truth = {9: 2, 3: 2, 1: 5}
        assert top_persistent(truth, 3) == [(1, 5), (3, 2), (9, 2)]

    def test_histogram(self, tiny_trace):
        truth = exact_persistence(tiny_trace)
        assert persistence_histogram(truth) == {4: 1, 2: 2}

    def test_sample_query_set_sorted_and_complete(self, tiny_trace):
        truth = exact_persistence(tiny_trace)
        keys = sample_query_set(truth, include=[99])
        assert keys == [1, 2, 3, 99]
