"""Unit tests for the experiment harness: factories, run_stream
accounting, seed threading and the working-set hint."""

import pytest

from repro.common.errors import ConfigError
from repro.core import HypersistentSketch
from repro.experiments.harness import (
    ESTIMATION_ALGORITHMS,
    FINDING_ALGORITHMS,
    make_estimator,
    make_finder,
    repeat_median,
    run_algorithm,
    run_stream,
    stage_distribution,
    time_queries,
)
from repro.streams import zipf_trace
from repro.streams.oracle import exact_persistence


class TestFactories:
    @pytest.mark.parametrize("name", ESTIMATION_ALGORITHMS)
    def test_every_estimator_constructs_and_works(self, name, tiny_trace):
        sketch = make_estimator(name, 4096, n_windows=tiny_trace.n_windows)
        result = run_stream(sketch, tiny_trace)
        assert result.sketch.query(1) >= 0

    @pytest.mark.parametrize("name", FINDING_ALGORITHMS)
    def test_every_finder_constructs_and_reports(self, name, tiny_trace):
        finder = make_finder(name, 4096)
        run_stream(finder, tiny_trace)
        assert isinstance(finder.report(1), dict)

    def test_unknown_names_rejected(self):
        with pytest.raises(ConfigError):
            make_estimator("nope", 4096)
        with pytest.raises(ConfigError):
            make_finder("nope", 4096)

    def test_run_algorithm_tasks(self, tiny_trace):
        est = run_algorithm("HS", tiny_trace, 4096, task="estimation")
        fnd = run_algorithm("HS", tiny_trace, 4096, task="finding")
        assert est.sketch.config.meta["preset"] == "estimation"
        assert fnd.sketch.config.meta["preset"] == "finding"
        with pytest.raises(ConfigError):
            run_algorithm("HS", tiny_trace, 4096, task="bogus")


class TestRunStream:
    def test_all_windows_closed(self, tiny_trace):
        sketch = make_estimator("HS", 4096, n_windows=tiny_trace.n_windows)
        run_stream(sketch, tiny_trace)
        assert sketch.window == tiny_trace.n_windows

    def test_throughput_record_populated(self, small_zipf):
        sketch = make_estimator("OO", 4096)
        result = run_stream(sketch, small_zipf)
        assert result.insert.operations == small_zipf.n_records
        assert result.insert.seconds > 0
        assert result.insert.hash_ops > 0

    def test_estimates_match_direct_query(self, tiny_trace):
        result = run_algorithm("HS", tiny_trace, 4096)
        truth = exact_persistence(tiny_trace)
        estimates = result.query_all(truth)
        assert estimates[1] == result.sketch.query(1)

    def test_stats_captured_for_hs(self, tiny_trace):
        result = run_algorithm("HS", tiny_trace, 4096)
        assert "inserts" in result.stats


class TestQueriesAndHelpers:
    def test_time_queries(self, tiny_trace):
        result = run_algorithm("HS", tiny_trace, 4096)
        record = time_queries(result.sketch, [1, 2, 3])
        assert record.operations == 3
        assert record.seconds > 0

    def test_repeat_median(self):
        values = iter([3.0, 1.0, 2.0])
        assert repeat_median(lambda: next(values), repeats=3) == 2.0

    def test_repeat_median_validation(self):
        with pytest.raises(ConfigError):
            repeat_median(lambda: 1.0, repeats=0)

    def test_stage_distribution_only_for_hs(self, tiny_trace):
        hs = run_algorithm("HS", tiny_trace, 4096)
        oo = run_algorithm("OO", tiny_trace, 4096)
        dist = stage_distribution(hs)
        assert dist is not None and set(dist) == {"l1", "l2", "hot"}
        assert stage_distribution(oo) is None

    def test_hs_stage_distribution_sums_to_one(self, small_zipf):
        result = run_algorithm("HS", small_zipf, 8192)
        dist = stage_distribution(result)
        assert sum(dist.values()) == pytest.approx(1.0)


@pytest.fixture(scope="module")
def trace():
    return zipf_trace(6000, 40, skew=1.1, n_items=1500, seed=61,
                      within_window_repeats=3.0)


class TestSeedThreading:
    def test_seed_changes_hash_layout(self, trace):
        a = run_algorithm("HS", trace, 4096, seed=1)
        b = run_algorithm("HS", trace, 4096, seed=2)
        keys = set(trace.items)
        diffs = sum(
            1 for k in keys if a.sketch.query(k) != b.sketch.query(k)
        )
        assert diffs > 0  # different seeds, different collision patterns

    def test_same_seed_identical_results(self, trace):
        a = run_algorithm("OO", trace, 2048, seed=9)
        b = run_algorithm("OO", trace, 2048, seed=9)
        keys = sorted(set(trace.items))[:200]
        assert all(a.sketch.query(k) == b.sketch.query(k) for k in keys)


class TestWorkingSetHint:
    def test_hint_sizes_burst_filter(self):
        small = make_estimator("HS", 64 * 1024, n_windows=100,
                               window_distinct_hint=10)
        large = make_estimator("HS", 64 * 1024, n_windows=100,
                               window_distinct_hint=2000)
        assert large.config.burst_bytes > small.config.burst_bytes

    def test_run_algorithm_applies_trace_hint(self, trace):
        result = run_algorithm("HS", trace, 64 * 1024)
        sketch = result.sketch
        assert isinstance(sketch, HypersistentSketch)
        expected = int(trace.mean_window_distinct() * 1.5 * 4)
        assert sketch.config.burst_bytes == max(16, min(
            expected, 64 * 1024 // 2
        ))

    def test_hint_keeps_burst_capture_high(self, trace):
        result = run_algorithm("HS", trace, 64 * 1024)
        stats = result.sketch.stats()
        total = stats["burst_absorbed"] + stats["burst_overflowed"]
        assert stats["burst_absorbed"] / total > 0.9


class TestRunStreamAccounting:
    def test_insert_record_fields(self, trace):
        result = run_stream(make_estimator("CM", 4096), trace)
        record = result.insert
        assert record.operations == trace.n_records
        assert record.hash_ops > record.operations  # CM hashes per insert
        assert record.mops > 0

    def test_hash_ops_delta_not_cumulative(self, trace):
        sketch = make_estimator("OO", 4096)
        first = run_stream(sketch, trace)
        second = run_stream(sketch, trace)
        # per-run hash ops measured as a delta, not the lifetime total
        assert abs(second.insert.hash_ops - first.insert.hash_ops) \
            <= first.insert.hash_ops * 0.01
