"""Tests for working-set measurement and stage-share classification."""

import pytest

from repro.core import HSConfig, HypersistentSketch
from repro.experiments.harness import query_stage_shares, run_algorithm
from repro.streams import Trace, zipf_trace
from repro.streams.oracle import exact_persistence


class TestMeanWindowDistinct:
    def test_hand_checked(self):
        t = Trace([1, 1, 2, 1, 2, 2], [0, 0, 0, 1, 1, 1], 2)
        # window 0: {1, 2}; window 1: {1, 2} -> 2.0 distinct per window
        assert t.mean_window_distinct() == pytest.approx(2.0)

    def test_counts_repeats_once(self):
        t = Trace([5, 5, 5, 5], [0, 0, 0, 0], 1)
        assert t.mean_window_distinct() == pytest.approx(1.0)

    def test_empty_windows_dilute(self):
        t = Trace([1], [0], 4)
        assert t.mean_window_distinct() == pytest.approx(0.25)

    def test_repeatable(self):
        t = Trace([1, 2], [0, 0], 1)
        first = t.mean_window_distinct()
        assert t.mean_window_distinct() == first
        assert Trace([1, 2], [0, 0], 1).mean_window_distinct() == first
        assert t.meta == {}


class TestResolvingStage:
    def test_cold_item_resolves_at_l1(self):
        sketch = HypersistentSketch(HSConfig.for_estimation(32 * 1024, 50))
        for _ in range(3):
            sketch.insert("cold")
            sketch.end_window()
        assert sketch.resolving_stage("cold") == "l1"

    def test_mid_item_resolves_at_l2(self):
        sketch = HypersistentSketch(HSConfig.for_estimation(32 * 1024, 50))
        for _ in range(40):
            sketch.insert("mid")
            sketch.end_window()
        assert sketch.resolving_stage("mid") == "l2"

    def test_hot_item_resolves_at_hot(self):
        sketch = HypersistentSketch(HSConfig.for_estimation(64 * 1024, 200))
        for _ in range(150):
            sketch.insert("hot")
            sketch.end_window()
        assert sketch.resolving_stage("hot") == "hot"

    def test_stage_matches_query_value_band(self):
        sketch = HypersistentSketch(HSConfig.for_estimation(64 * 1024, 200))
        for _ in range(150):
            sketch.insert("hot")
            sketch.insert("cold") if sketch.window < 3 else None
            sketch.end_window()
        d1 = sketch.cold.delta1
        assert sketch.query("cold") < d1
        assert sketch.query("hot") >= d1 + sketch.cold.delta2


class TestQueryStageShares:
    def test_shares_sum_to_one_and_l1_dominates(self):
        trace = zipf_trace(30_000, 100, skew=1.2, n_items=4000, seed=41,
                           within_window_repeats=4.0)
        result = run_algorithm("HS", trace, 8 * 1024)
        keys = list(exact_persistence(trace))
        shares = query_stage_shares(result.sketch, keys)
        assert sum(shares.values()) == pytest.approx(1.0)
        assert shares["l1"] > 0.5

    def test_none_for_baselines(self):
        trace = zipf_trace(1000, 10, seed=1)
        result = run_algorithm("OO", trace, 4096)
        assert query_stage_shares(result.sketch, [1, 2]) is None

    def test_empty_keys(self):
        trace = zipf_trace(1000, 10, seed=1)
        result = run_algorithm("HS", trace, 4096)
        shares = query_stage_shares(result.sketch, [])
        assert shares == {"l1": 0.0, "l2": 0.0, "hot": 0.0}
