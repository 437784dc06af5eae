"""Unit tests for the Hot Part (stage 3): insert cases, replacement
(and its per-window salts), reporting and accounting."""

import pytest

from repro.common.errors import ConfigError
from repro.core.config import REPLACE_HASH, REPLACE_RANDOM
from repro.core.hot_part import HotPart


class TestInsertCases:
    def test_new_item_takes_empty_entry(self):
        hp = HotPart(4, entries_per_bucket=2, seed=1)
        hp.insert(10)
        assert hp.query(10) == 1

    def test_flag_prevents_double_increment_within_window(self):
        hp = HotPart(4, entries_per_bucket=2, seed=1)
        hp.insert(10)
        hp.insert(10)
        assert hp.query(10) == 1

    def test_increment_across_windows(self):
        hp = HotPart(4, entries_per_bucket=2, seed=1)
        for _ in range(5):
            hp.insert(10)
            hp.end_window()
        assert hp.query(10) == 5

    def test_absent_item_queries_zero(self):
        hp = HotPart(4, entries_per_bucket=2, seed=1)
        assert hp.query(99) == 0

    def test_contains(self):
        hp = HotPart(4, entries_per_bucket=2, seed=1)
        hp.insert(10)
        assert hp.contains(10) and not hp.contains(11)


class TestReplacement:
    def _full_bucket(self, seed=1, entries=2, per=10):
        """A single-bucket HotPart whose entries have built-up counters."""
        hp = HotPart(1, entries_per_bucket=entries,
                     replacement=REPLACE_RANDOM, seed=seed)
        for window in range(per):
            for key in range(entries):
                hp.insert(key)
            hp.end_window()
        return hp

    def test_replacement_probability_roughly_one_over_per_plus_one(self):
        import random
        successes = 0
        trials = 300
        for seed in range(trials):
            hp = self._full_bucket(seed=seed, entries=2, per=4)
            hp.insert(777)  # bucket full -> probabilistic replacement
            if hp.contains(777):
                successes += 1
        rate = successes / trials
        assert 0.08 < rate < 0.35  # expect ~1/5 = 0.2

    def test_successful_replacement_inherits_counter_plus_one(self):
        for seed in range(100):
            hp = self._full_bucket(seed=seed, entries=2, per=4)
            hp.insert(777)
            if hp.contains(777):
                assert hp.query(777) == 5  # min per 4 + 1
                break
        else:  # pragma: no cover - vanishingly unlikely
            pytest.fail("replacement never succeeded in 100 seeds")

    def test_item_present_with_flag_off_never_replaced(self):
        # prose fix for the Algorithm 1 pseudocode quirk (DESIGN.md §5)
        hp = HotPart(1, entries_per_bucket=1, seed=1)
        hp.insert(5)
        before = hp.query(5)
        for _ in range(50):
            hp.insert(5)  # flag off: strict no-op, not replacement trials
        assert hp.query(5) == before
        assert hp.replacement_attempts == 0

    def test_hash_policy_deterministic_within_window(self):
        hp = HotPart(1, entries_per_bucket=1, replacement="hash", seed=3)
        for _ in range(3):
            hp.insert(1)
            hp.end_window()
        hp.insert(2)
        first = hp.contains(2)
        # identical state and window: the trial outcome cannot flip
        assert hp.contains(2) == first


class TestReporting:
    def test_items_lists_everything(self):
        hp = HotPart(8, entries_per_bucket=2, seed=2)
        for key in (1, 2, 3):
            hp.insert(key)
        assert hp.items() == {1: 1, 2: 1, 3: 1}

    def test_occupancy(self):
        hp = HotPart(2, entries_per_bucket=2, seed=2)
        assert hp.occupancy() == 0.0
        hp.insert(1)
        assert hp.occupancy() == pytest.approx(0.25)

    def test_clear(self):
        hp = HotPart(2, entries_per_bucket=2, seed=2)
        hp.insert(1)
        hp.clear()
        assert hp.items() == {} and hp.occupancy() == 0.0


class TestAccounting:
    def test_modeled_bits(self):
        hp = HotPart(4, entries_per_bucket=2, seed=1)
        # entry = 32 id + 16 per + 1 flag = 49 bits
        assert hp.modeled_bits == 4 * 2 * 49

    def test_hash_ops(self):
        hp = HotPart(4, entries_per_bucket=2, seed=1)
        hp.insert(1)
        hp.query(1)
        assert hp.hash_ops == 2

    def test_reset_stats(self):
        hp = HotPart(4, entries_per_bucket=2, seed=1)
        hp.insert(1)
        hp.reset_stats()
        assert hp.hash_ops == 0

    def test_validation(self):
        with pytest.raises(ConfigError):
            HotPart(0)
        with pytest.raises(ConfigError):
            HotPart(1, entries_per_bucket=0)
        with pytest.raises(ConfigError):
            HotPart(1, replacement="bogus")


class TestWindowSaltRotation:
    def test_hash_policy_outcome_can_change_across_windows(self):
        """The paper reseeds per window; a denied replacement this window
        may succeed later even with identical bucket state."""
        outcomes = set()
        hp = HotPart(1, entries_per_bucket=1, replacement=REPLACE_HASH,
                     seed=11)
        hp.insert(1)  # resident with per=1 -> replacement prob 1/2
        for _ in range(12):
            hp.end_window()
            before = hp.contains(2)
            hp.insert(2)
            outcomes.add(hp.contains(2))
            if hp.contains(2):
                break
        assert True in outcomes  # succeeded within a few salted windows


class TestReplacementDynamics:
    def test_high_counter_entries_are_sticky(self):
        hp = HotPart(1, entries_per_bucket=1, replacement=REPLACE_RANDOM,
                     seed=3)
        for _ in range(200):  # resident accrues per ~ 200
            hp.insert(1)
            hp.end_window()
        displaced = 0
        for attacker in range(100, 140):
            hp.insert(attacker)
            hp.end_window()
            if not hp.contains(1):
                displaced += 1
                break
        # displacement probability ~1/200 per attack; 40 attacks rarely win
        assert displaced <= 1

    def test_min_entry_is_the_target(self):
        hp = HotPart(1, entries_per_bucket=2, replacement=REPLACE_RANDOM,
                     seed=5)
        # strong and weak residents
        for window in range(30):
            hp.insert(1)
            if window < 3:
                hp.insert(2)
            hp.end_window()
        # hammer with attackers until one lands
        for attacker in range(1000, 1400):
            hp.insert(attacker)
            hp.end_window()
            if not hp.contains(2):
                break
        assert hp.contains(1)  # the strong resident survived


class TestItemsAndOccupancy:
    def test_items_reflect_replacements(self):
        hp = HotPart(1, entries_per_bucket=1, replacement=REPLACE_RANDOM,
                     seed=7)
        hp.insert(1)
        for attacker in range(2, 400):
            hp.insert(attacker)
            hp.end_window()
        items = hp.items()
        assert len(items) == 1  # single entry, whoever owns it
        (per,) = items.values()
        assert per >= 1

    def test_occupancy_caps_at_one(self):
        hp = HotPart(2, entries_per_bucket=2, seed=9)
        for item in range(100):
            hp.insert(item)
        assert hp.occupancy() == 1.0

    def test_clear_resets_epoch_behaviour(self):
        hp = HotPart(2, entries_per_bucket=2, seed=9)
        hp.insert(1)
        hp.end_window()
        hp.insert(1)
        assert hp.query(1) == 2
        hp.clear()
        hp.insert(1)
        assert hp.query(1) == 1
