"""Tests for the sweep engines (small configurations), including the
paper's 'error flat in window count' claim."""

import pytest

from repro.experiments.sweeps import (
    estimation_memory_sweep,
    estimation_window_sweep,
    finding_sweep,
    insert_throughput_sweep,
    query_throughput_sweep,
)
from repro.common.errors import ConfigError
from repro.streams import merge_traces, zipf_trace
from repro.streams.synthetic import persistence_trace


@pytest.fixture(scope="module")
def finding_trace():
    background = zipf_trace(8000, 60, skew=1.0, n_items=4000, seed=21)
    overlay = persistence_trace(
        [(10, 40, 60), (20, 15, 30), (60, 2, 10)], 60, seed=22
    )
    return merge_traces(background, overlay, name="finding-test")


class TestEstimationSweeps:
    def test_memory_sweep_shape(self, small_zipf):
        figures = estimation_memory_sweep(
            small_zipf, [2, 4], algorithms=("HS", "OO")
        )
        assert set(figures) == {"aae", "are"}
        fig = figures["aae"]
        assert fig.x_values == [2, 4]
        assert set(fig.series) == {"HS", "OO"}
        assert len(fig.series["HS"]) == 2

    def test_memory_sweep_error_decreases(self, small_zipf):
        figures = estimation_memory_sweep(
            small_zipf, [1, 16], algorithms=("OO",)
        )
        aae = figures["aae"].series["OO"]
        assert aae[1] < aae[0]

    def test_window_sweep_shape(self, small_zipf):
        figures = estimation_window_sweep(
            small_zipf, [20, 40], memory_kb=8, algorithms=("HS",)
        )
        assert figures["are"].x_values == [20, 40]
        assert len(figures["are"].series["HS"]) == 2

    def test_metric_values_nonnegative(self, small_zipf):
        figures = estimation_memory_sweep(
            small_zipf, [4], algorithms=("HS", "CM")
        )
        for fig in figures.values():
            for series in fig.series.values():
                assert all(v >= 0 for v in series)


class TestFindingSweep:
    def test_all_four_metrics(self, finding_trace):
        figures = finding_sweep(
            finding_trace, [2], alpha=0.5, algorithms=("HS", "OO")
        )
        assert set(figures) == {"f1", "are", "fnr", "fpr"}
        for fig in figures.values():
            assert set(fig.series) == {"HS", "OO"}

    def test_metrics_in_unit_range(self, finding_trace):
        figures = finding_sweep(
            finding_trace, [2, 4], alpha=0.5, algorithms=("HS",)
        )
        for metric in ("f1", "fnr", "fpr"):
            for v in figures[metric].series["HS"]:
                assert 0.0 <= v <= 1.0

    def test_notes_record_threshold(self, finding_trace):
        figures = finding_sweep(finding_trace, [2], alpha=0.5,
                                algorithms=("HS",))
        assert "threshold=30" in figures["f1"].notes[0]

    def test_alpha_validated(self, finding_trace):
        with pytest.raises(ConfigError):
            finding_sweep(finding_trace, [2], alpha=0.0)


class TestThroughputSweeps:
    def test_insert_sweep(self, small_zipf):
        figures = insert_throughput_sweep(
            small_zipf, [4], algorithms=("HS", "OO")
        )
        assert set(figures) == {"mops", "hash_ops"}
        assert figures["mops"].series["HS"][0] > 0
        assert figures["hash_ops"].series["OO"][0] > 0

    def test_hs_fewer_hash_ops_than_oo(self, small_zipf):
        """The Burst Filter's whole point (Section III-D)."""
        figures = insert_throughput_sweep(
            small_zipf, [8], algorithms=("HS", "OO")
        )
        hs = figures["hash_ops"].series["HS"][0]
        oo = figures["hash_ops"].series["OO"][0]
        assert hs < oo

    def test_query_sweep_includes_stage_distribution(self, small_zipf):
        figures = query_throughput_sweep(
            small_zipf, [4], algorithms=("HS", "OO")
        )
        assert "mqps" in figures and "stages" in figures
        stages = figures["stages"]
        total = sum(stages.series[s][0] for s in ("l1", "l2", "hot"))
        assert total == pytest.approx(1.0)

    def test_query_sweep_custom_queries(self, small_zipf):
        figures = query_throughput_sweep(
            small_zipf, [4], algorithms=("OO",), queries=[1, 2, 3]
        )
        assert figures["mqps"].series["OO"][0] > 0


@pytest.fixture(scope="module")
def trace():
    return zipf_trace(20_000, 100, skew=1.2, n_items=3000, seed=43,
                      within_window_repeats=3.0)


class TestWindowSweepShape:
    def test_rewindowing_preserves_records(self, trace):
        for w in (20, 50, 200):
            re = trace.rewindowed(w)
            assert re.n_records == trace.n_records
            assert re.n_distinct == trace.n_distinct

    def test_error_relatively_flat_for_on_off(self, trace):
        """Figure 11's qualitative claim at reduced scale."""
        figures = estimation_window_sweep(
            trace, [25, 50, 100], memory_kb=8, algorithms=("OO",)
        )
        aae = figures["aae"].series["OO"]
        # no order-of-magnitude blow-up across a 4x window-count range
        positive = [v for v in aae if v > 0]
        if len(positive) >= 2:
            assert max(positive) / min(positive) < 10

    def test_hs_tracks_oo_or_better_across_windows(self, trace):
        figures = estimation_window_sweep(
            trace, [25, 100], memory_kb=4, algorithms=("HS", "OO")
        )
        for i in range(2):
            hs = figures["are"].series["HS"][i]
            oo = figures["are"].series["OO"][i]
            assert hs <= oo * 1.2 + 0.5
