"""Unit tests for repro.common.bitmem."""

import pytest

from repro.common.bitmem import (
    FlagArray,
    MemoryReport,
    cells_for_budget,
    counter_bits_for,
    split_budget,
)


class TestCounterBits:
    def test_small_values(self):
        assert counter_bits_for(1) == 1
        assert counter_bits_for(2) == 2
        assert counter_bits_for(3) == 2
        assert counter_bits_for(15) == 4
        assert counter_bits_for(16) == 5
        assert counter_bits_for(100) == 7

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            counter_bits_for(0)


class TestCellsForBudget:
    def test_basic(self):
        assert cells_for_budget(1, 8) == 1
        assert cells_for_budget(10, 4) == 20

    def test_minimum_enforced(self):
        assert cells_for_budget(0, 32, minimum=3) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            cells_for_budget(-1, 8)
        with pytest.raises(ValueError):
            cells_for_budget(8, 0)


class TestSplitBudget:
    def test_proportions(self):
        assert split_budget(100, 3, 2) == [60, 40]

    def test_sum_preserved_with_rounding(self):
        parts = split_budget(101, 1, 1, 1)
        assert sum(parts) == 101

    def test_17_3_ratio(self):
        l1, l2 = split_budget(2000, 17, 3)
        assert l1 == 1700 and l2 == 300

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            split_budget(10, 0, 0)


class TestFlagArray:
    def test_all_on_initially(self):
        flags = FlagArray(5)
        assert all(flags.is_on(i) for i in range(5))

    def test_turn_off(self):
        flags = FlagArray(3)
        flags.turn_off(1)
        assert not flags.is_on(1)
        assert flags.is_on(0) and flags.is_on(2)

    def test_reset_turns_everything_on(self):
        flags = FlagArray(4)
        for i in range(4):
            flags.turn_off(i)
        flags.reset()
        assert all(flags.is_on(i) for i in range(4))

    def test_off_again_after_reset(self):
        flags = FlagArray(2)
        flags.turn_off(0)
        flags.reset()
        flags.turn_off(0)
        assert not flags.is_on(0)
        assert flags.is_on(1)

    def test_many_resets(self):
        flags = FlagArray(1)
        for _ in range(100):
            flags.turn_off(0)
            assert not flags.is_on(0)
            flags.reset()
            assert flags.is_on(0)

    def test_modeled_bits_is_one_per_flag(self):
        assert FlagArray(77).modeled_bits == 77

    def test_len(self):
        assert len(FlagArray(9)) == 9


class TestMemoryReport:
    def test_totals(self):
        report = MemoryReport({"a": 8, "b": 9})
        assert report.total_bits == 17
        assert report.total_bytes == 3  # ceil(17 / 8)

    def test_fraction(self):
        report = MemoryReport({"a": 30, "b": 70})
        assert report.fraction("b") == pytest.approx(0.7)

    def test_fraction_empty(self):
        assert MemoryReport({"a": 0}).fraction("a") == 0.0
