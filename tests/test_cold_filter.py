"""Unit tests for the Cold Filter (stage 2): layers, staging, accounting,
flags, saturation dynamics and CU semantics."""

import pytest

from repro.common.errors import ConfigError
from repro.core.cold_filter import ColdFilter, _ColdLayer


def make_filter(**kwargs):
    defaults = dict(l1_width=64, l2_width=32, delta1=15, delta2=100,
                    d1=2, d2=2, seed=5)
    defaults.update(kwargs)
    return ColdFilter(**defaults)


class TestLayer:
    def test_validation(self):
        with pytest.raises(ConfigError):
            _ColdLayer(0, 8, 15, seed=1)
        with pytest.raises(ConfigError):
            _ColdLayer(2, 0, 15, seed=1)
        with pytest.raises(ConfigError):
            _ColdLayer(2, 8, 0, seed=1)

    def test_minimum_starts_zero(self):
        layer = _ColdLayer(2, 16, 15, seed=1)
        assert layer.minimum(123) == 0

    def test_insert_increments_once_per_window(self):
        layer = _ColdLayer(2, 16, 15, seed=1)
        assert layer.try_insert(7) is True
        assert layer.minimum(7) == 1
        # second insert in the same window: accepted but no increment
        assert layer.try_insert(7) is True
        assert layer.minimum(7) == 1

    def test_increments_resume_after_window_reset(self):
        layer = _ColdLayer(2, 16, 15, seed=1)
        for expected in range(1, 6):
            layer.try_insert(7)
            layer.end_window()
            assert layer.minimum(7) == expected

    def test_threshold_stops_layer(self):
        layer = _ColdLayer(2, 16, 3, seed=1)
        for _ in range(3):
            assert layer.try_insert(7) is True
            layer.end_window()
        assert layer.minimum(7) == 3
        assert layer.try_insert(7) is False  # outgrown

    def test_counter_bits_match_threshold(self):
        layer = _ColdLayer(1, 4, 15, seed=1)
        # 15 needs 4 bits + 1 flag bit per cell
        assert layer.modeled_bits == 4 * 5

    def test_saturated_fraction(self):
        layer = _ColdLayer(1, 4, 1, seed=1)
        assert layer.saturated_fraction() == 0.0
        for k in range(50):
            layer.try_insert(k)
        layer.end_window()
        assert layer.saturated_fraction() == 1.0

    def test_clear(self):
        layer = _ColdLayer(2, 16, 15, seed=1)
        layer.try_insert(7)
        layer.clear()
        assert layer.minimum(7) == 0


class TestColdFilterStaging:
    def test_cold_item_stays_in_l1(self):
        cf = make_filter()
        for _ in range(5):
            assert cf.insert(9) is True
            cf.end_window()
        value, needs_hot = cf.query(9)
        assert value == 5 and needs_hot is False

    def test_escalates_to_l2_after_delta1(self):
        cf = make_filter(delta1=3, delta2=10)
        for _ in range(7):
            cf.insert(9)
            cf.end_window()
        value, needs_hot = cf.query(9)
        assert value == 3 + 4  # delta1 + L2 value
        assert needs_hot is False

    def test_overflow_after_both_thresholds(self):
        cf = make_filter(delta1=2, delta2=3)
        results = []
        for _ in range(8):
            results.append(cf.insert(9))
            cf.end_window()
        assert results[:5] == [True] * 5   # 2 in L1 + 3 in L2
        assert results[5:] == [False] * 3  # overflow -> hot part
        value, needs_hot = cf.query(9)
        assert value == 5 and needs_hot is True

    def test_one_sided_error_for_single_item(self):
        cf = make_filter()
        for _ in range(4):
            cf.insert(1)
            cf.end_window()
        value, _ = cf.query(1)
        assert value >= 4  # never underestimates

    def test_stage_distribution(self):
        cf = make_filter(delta1=1, delta2=1)
        cf.insert(1)          # l1
        cf.end_window()
        cf.insert(1)          # l2
        cf.end_window()
        cf.insert(1)          # overflow
        assert cf.stage_distribution() == pytest.approx((1/3, 1/3, 1/3))

    def test_stage_distribution_empty(self):
        assert make_filter().stage_distribution() == (0.0, 0.0, 0.0)


class TestColdFilterAccounting:
    def test_hash_ops_counted_per_layer(self):
        cf = make_filter()
        cf.insert(1)  # only L1 touched: d1 hashes
        assert cf.hash_ops == 2
        cf.query(1)
        assert cf.hash_ops == 4

    def test_modeled_bits(self):
        cf = make_filter(l1_width=64, l2_width=32)
        # L1: 2 rows x 64 cells x (4+1) bits; L2: 2 x 32 x (7+1)
        assert cf.modeled_bits == 2 * 64 * 5 + 2 * 32 * 8

    def test_reset_stats(self):
        cf = make_filter()
        cf.insert(1)
        cf.reset_stats()
        assert cf.hash_ops == 0 and cf.l1_hits == 0

    def test_clear(self):
        cf = make_filter()
        cf.insert(1)
        cf.clear()
        assert cf.query(1)[0] == 0


class TestFlagSemantics:
    def test_collision_flag_suppression_is_per_window(self):
        # two items sharing all cells: within one window the second item's
        # increment is suppressed (flags off), across windows both count.
        cf = make_filter(l1_width=1, d1=1, l2_width=1, d2=1,
                         delta1=15, delta2=100)
        cf.insert(1)
        cf.insert(2)  # same single cell, flag already off
        value1, _ = cf.query(1)
        value2, _ = cf.query(2)
        assert value1 == value2 == 1
        cf.end_window()
        cf.insert(2)
        value2, _ = cf.query(2)
        assert value2 == 2  # flag reset allowed the increment


def make(l1=32, l2=16, d1=2, d2=2, delta1=15, delta2=100, seed=7):
    return ColdFilter(l1_width=l1, l2_width=l2, delta1=delta1,
                      delta2=delta2, d1=d1, d2=d2, seed=seed)


class TestCuUpdateSemantics:
    def test_only_minimum_cells_advance(self):
        """A colliding item cannot push a cell past its own minimum path."""
        cf = make(l1=4, d1=2, delta1=15)
        # drive item A for 5 windows
        for _ in range(5):
            cf.insert(1)
            cf.end_window()
        a_before, _ = cf.query(1)
        # a new item colliding on ONE of A's cells raises only its own min
        for _ in range(2):
            cf.insert(2)
            cf.end_window()
        a_after, _ = cf.query(1)
        # A's estimate can only have grown by at most the collision amount
        assert a_before <= a_after <= a_before + 2

    def test_saturation_escalates_everything(self):
        cf = make(l1=2, l2=2, d1=1, d2=1, delta1=3, delta2=4)
        # saturate both layers with a steady item
        for _ in range(10):
            cf.insert(1)
            cf.end_window()
        # every cell is at threshold: any new item overflows immediately
        assert cf.insert(999) is False
        value, needs_hot = cf.query(999)
        assert needs_hot is True
        assert value == 3 + 4

    def test_saturated_fraction_monotone(self):
        cf = make(l1=8, d1=1, delta1=3)
        fractions = []
        for window in range(12):
            for item in range(20):
                cf.insert(item)
            cf.end_window()
            fractions.append(cf.l1.saturated_fraction())
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0


class TestStagedQueryBoundaries:
    def test_query_exactly_at_delta1(self):
        cf = make(d1=1, l1=1, delta1=3, delta2=100)
        for _ in range(3):
            cf.insert(1)
            cf.end_window()
        value, needs_hot = cf.query(1)
        # v1 == delta1 -> escalate to L2 (which is still 0)
        assert value == 3 + 0
        assert needs_hot is False

    def test_query_exactly_at_delta2(self):
        cf = make(d1=1, l1=1, d2=1, l2=1, delta1=2, delta2=3)
        for _ in range(5):
            cf.insert(1)
            cf.end_window()
        value, needs_hot = cf.query(1)
        assert value == 2 + 3
        assert needs_hot is True

    def test_unknown_item_stays_cold(self):
        cf = make()
        value, needs_hot = cf.query(12345)
        assert value == 0 and needs_hot is False


class TestMultiRowIndependence:
    def test_rows_use_distinct_hashes(self):
        cf = make(l1=64, d1=3)
        # insert many items; if rows shared hashes, row minima would match
        for item in range(200):
            cf.insert(item)
        cf.end_window()
        layer = cf.l1
        idx_sets = [
            tuple(layer._hash.index(7, i, layer.width)
                  for i in range(layer.rows))
        ]
        assert len(set(idx_sets[0])) > 1  # not all the same position

    def test_deeper_l1_changes_hash_budget(self):
        shallow = make(d1=1)
        deep = make(d1=4)
        shallow.insert(1)
        deep.insert(1)
        assert deep.hash_ops == 4 * shallow.hash_ops
