"""Tests for the sliding-window persistence extension."""

import pytest

from repro.common.errors import ConfigError
from repro.core import ENGINES
from repro.core.sliding import SlidingHypersistentSketch


def run_pattern(sketch, pattern):
    """pattern: list of per-window item lists."""
    for window_items in pattern:
        for item in window_items:
            sketch.insert(item)
        sketch.end_window()


class TestBasics:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SlidingHypersistentSketch(memory_bytes=1024, horizon=1)
        with pytest.raises(ConfigError):
            SlidingHypersistentSketch(memory_bytes=1, horizon=8)

    def test_memory_split_between_panels(self):
        sw = SlidingHypersistentSketch(memory_bytes=32 * 1024, horizon=10)
        assert sw.memory_bytes <= 32 * 1024

    def test_always_present_item_within_horizon_bounds(self):
        sw = SlidingHypersistentSketch(memory_bytes=32 * 1024, horizon=8)
        run_pattern(sw, [["x"]] * 40)
        assert 4 <= sw.query("x") <= 8

    def test_coverage_tracks_rotation(self):
        sw = SlidingHypersistentSketch(memory_bytes=16 * 1024, horizon=8)
        assert sw.coverage == 0
        run_pattern(sw, [["a"]] * 3)
        assert sw.coverage == 3
        run_pattern(sw, [["a"]] * 20)
        assert 4 <= sw.coverage <= 8


class TestExpiry:
    def test_item_that_stops_appearing_decays_to_zero(self):
        sw = SlidingHypersistentSketch(memory_bytes=32 * 1024, horizon=6)
        run_pattern(sw, [["old"]] * 10)       # active for 10 windows
        assert sw.query("old") >= 3
        run_pattern(sw, [["other"]] * 12)     # absent for 2x horizon
        assert sw.query("old") == 0

    def test_recent_item_not_expired(self):
        sw = SlidingHypersistentSketch(memory_bytes=32 * 1024, horizon=6)
        run_pattern(sw, [["noise"]] * 20)
        run_pattern(sw, [["fresh", "noise"]] * 3)
        assert sw.query("fresh") == 3

    def test_duplicates_within_window_still_deduped(self):
        sw = SlidingHypersistentSketch(memory_bytes=32 * 1024, horizon=6)
        run_pattern(sw, [["x", "x", "x"]] * 3)
        assert sw.query("x") == 3


class TestOddHorizon:
    def test_panel_split_is_ceiling(self):
        assert SlidingHypersistentSketch(32 * 1024, horizon=7).half == 4
        assert SlidingHypersistentSketch(32 * 1024, horizon=8).half == 4
        assert SlidingHypersistentSketch(32 * 1024, horizon=2).half == 1

    @pytest.mark.parametrize("horizon", [3, 5, 7, 9, 11])
    def test_coverage_reaches_odd_horizon(self, horizon):
        # regression: floor(horizon/2) panels capped coverage at
        # horizon - 2 for odd horizons, below the documented sandwich
        sw = SlidingHypersistentSketch(32 * 1024, horizon=horizon)
        best = 0
        for _ in range(4 * horizon):
            sw.insert("x")
            sw.end_window()
            best = max(best, sw.coverage)
        assert best == horizon

    @pytest.mark.parametrize("horizon", [3, 5, 7, 9])
    def test_always_present_item_within_odd_horizon_bounds(self, horizon):
        sw = SlidingHypersistentSketch(32 * 1024, horizon=horizon)
        run_pattern(sw, [["x"]] * (5 * horizon))
        assert (horizon + 1) // 2 <= sw.query("x") <= horizon

    @pytest.mark.parametrize("horizon", [3, 5, 7, 9, 12])
    def test_verify_state_clean_at_every_boundary(self, horizon):
        sw = SlidingHypersistentSketch(32 * 1024, horizon=horizon)
        for _ in range(3 * horizon):
            sw.insert("x")
            sw.end_window()
            assert sw.verify_state() == []

    def test_expiry_still_bounded_by_odd_horizon(self):
        sw = SlidingHypersistentSketch(32 * 1024, horizon=7)
        run_pattern(sw, [["old"]] * 14)
        run_pattern(sw, [["other"]] * 14)   # absent for 2x horizon
        assert sw.query("old") == 0


class TestReport:
    def test_reports_currently_persistent(self):
        sw = SlidingHypersistentSketch(memory_bytes=64 * 1024, horizon=400)
        # items crossing the panels' cold thresholds need long activity
        for _ in range(300):
            sw.insert("hot")
            sw.end_window()
        reported = sw.report(threshold=100)
        from repro.common.hashing import canonical_key
        assert canonical_key("hot") in reported

    def test_report_threshold_respected(self):
        sw = SlidingHypersistentSketch(memory_bytes=64 * 1024, horizon=400)
        for _ in range(300):
            sw.insert("hot")
            sw.end_window()
        assert all(v >= 10_000 for v in sw.report(10_000).values()) or \
            sw.report(10_000) == {}

    def test_report_agrees_with_query(self):
        # regression: report used to sum only the panels' Hot Part
        # contributions while query sums full cold+hot estimates, so the
        # two could disagree about the same item
        sw = SlidingHypersistentSketch(memory_bytes=64 * 1024, horizon=400,
                                       seed=11)
        for w in range(260):
            sw.insert("hot")
            if w % 2 == 0:
                sw.insert("warm")
            sw.insert(w)  # churn
            sw.end_window()
        for threshold in (1, 50, 100, 150):
            reported = sw.report(threshold)
            for key, estimate in reported.items():
                assert estimate == sw.query(key)
                assert estimate >= threshold

    def test_reported_value_includes_cold_panel_share(self):
        # an item hot in one panel but still below the other panel's cold
        # thresholds must be reported with its full query estimate, not
        # just the hot contribution
        sw = SlidingHypersistentSketch(memory_bytes=64 * 1024, horizon=400,
                                       seed=11)
        for _ in range(260):
            sw.insert("hot")
            sw.end_window()
        reported = sw.report(1)
        from repro.common.hashing import canonical_key
        key = canonical_key("hot")
        assert reported[key] == sw.query("hot")


class TestBatchPaths:
    """The batch-path bugfix: insert_window / insert_batch on every
    engine must be bit-identical to the record-at-a-time path (before
    this, batch callers silently degraded to scalar per-item inserts)."""

    @pytest.fixture(scope="class")
    def pattern(self):
        from repro.streams.synthetic import zipf_trace
        trace = zipf_trace(n_records=4000, n_windows=11, n_items=200,
                           seed=13)
        return [w for w in trace.window_arrays()]

    @pytest.fixture(scope="class")
    def reference_bytes(self, pattern):
        from repro.persist import encode_state
        ref = SlidingHypersistentSketch(memory_bytes=16 * 1024, horizon=6)
        for window in pattern:
            for item in window.tolist():
                ref.insert(item)
            ref.end_window()
        return encode_state(ref.state_dict())

    @pytest.mark.parametrize("engine", ENGINES)
    def test_insert_window_matches_scalar_oracle(
        self, pattern, reference_bytes, engine
    ):
        from repro.persist import encode_state
        sw = SlidingHypersistentSketch(memory_bytes=16 * 1024, horizon=6,
                                       engine=engine)
        assert sw.engine == engine
        for window in pattern:
            sw.insert_window(window)
        assert encode_state(sw.state_dict()) == reference_bytes

    @pytest.mark.parametrize("engine", ENGINES)
    def test_split_insert_batch_matches_scalar_oracle(
        self, pattern, reference_bytes, engine
    ):
        from repro.persist import encode_state
        sw = SlidingHypersistentSketch(memory_bytes=16 * 1024, horizon=6,
                                       engine=engine)
        for window in pattern:
            mid = len(window) // 2
            sw.insert_batch(window[:mid])
            sw.insert_batch(window[mid:])
            sw.end_window()
        assert encode_state(sw.state_dict()) == reference_bytes

    def test_engine_setter_switches_both_panels(self):
        sw = SlidingHypersistentSketch(memory_bytes=16 * 1024, horizon=4)
        assert sw.engine == "kernel"  # the default
        sw.engine = "scalar"
        assert sw._young.engine == "scalar"
        assert sw._old.engine == "scalar"
        with pytest.raises(ConfigError):
            sw.engine = "warp-drive"

    def test_engine_survives_rotation(self, pattern):
        sw = SlidingHypersistentSketch(memory_bytes=16 * 1024, horizon=4,
                                       engine="kernel")
        for window in pattern:  # 11 windows > 2 rotations at half=2
            sw.insert_window(window)
        assert sw.engine == "kernel"

    def test_run_stream_auto_batches_through_insert_window(self, pattern):
        """run_stream(batched=None) must now pick the window path (the
        wrapper advertises insert_window) and stay bit-identical."""
        from repro.experiments.harness import run_stream
        from repro.persist import encode_state
        from repro.streams.synthetic import zipf_trace
        trace = zipf_trace(n_records=4000, n_windows=11, n_items=200,
                           seed=13)
        auto = SlidingHypersistentSketch(memory_bytes=16 * 1024,
                                         horizon=6)
        run_stream(auto, trace, engine="kernel")
        scalar = SlidingHypersistentSketch(memory_bytes=16 * 1024,
                                           horizon=6)
        run_stream(scalar, trace, batched=False)
        assert encode_state(auto.state_dict()) == \
            encode_state(scalar.state_dict())

    def test_engine_not_serialized(self):
        sw = SlidingHypersistentSketch(memory_bytes=16 * 1024, horizon=4,
                                       engine="scalar")
        state = sw.state_dict()
        assert "engine" not in state
        restored = SlidingHypersistentSketch.from_state(state)
        assert restored.engine == "kernel"  # the default, not "scalar"
