"""Unit tests for WavingSketch and its persistence adaptation, including
the signed counter's unbiasedness and error-free flags."""

import statistics

import pytest

from repro.baselines.waving import WavingPersistenceSketch, WavingSketch
from repro.common.errors import ConfigError
from repro.common.hashing import canonical_key
from repro.streams.oracle import exact_persistence


class TestWavingCore:
    def test_heavy_item_exact_while_resident(self):
        ws = WavingSketch(2048, seed=1)
        for _ in range(9):
            ws.add(5)
        assert ws.estimate(5) == 9

    def test_absent_key_estimate_nonnegative(self):
        ws = WavingSketch(2048, seed=1)
        ws.add(1)
        assert ws.estimate(424242) >= 0

    def test_eviction_when_bucket_full(self):
        ws = WavingSketch(64, cells_per_bucket=1, seed=2)
        # many distinct keys hammer the single bucket; a heavy late key
        # must eventually displace the light resident
        for k in range(10, 40):
            ws.add(k)
        for _ in range(60):
            ws.add(7)
        assert ws.estimate(7) >= 1
        assert ws.swaps >= 1

    def test_heavy_items_listing(self):
        ws = WavingSketch(2048, seed=1)
        ws.add(1)
        ws.add(1)
        assert ws.heavy_items()[1] == 2

    def test_validation(self):
        with pytest.raises(ConfigError):
            WavingSketch(64, cells_per_bucket=0)


class TestWavingPersistence:
    def _run(self, trace, memory=8192):
        sketch = WavingPersistenceSketch(memory, seed=3)
        for _, items in trace.windows():
            for item in items:
                sketch.insert(item)
            sketch.end_window()
        return sketch

    def test_window_dedup(self, tiny_trace):
        sketch = self._run(tiny_trace)
        truth = exact_persistence(tiny_trace)
        assert sketch.query(1) == truth[1]

    def test_report(self, tiny_trace):
        sketch = self._run(tiny_trace)
        reported = sketch.report(3)
        assert canonical_key(1) in reported

    def test_report_threshold_respected(self, tiny_trace):
        sketch = self._run(tiny_trace)
        assert all(v >= 3 for v in sketch.report(3).values())

    def test_memory_within_budget(self):
        sketch = WavingPersistenceSketch(4096)
        assert sketch.memory_bytes <= 4096

    def test_hash_ops_positive(self, tiny_trace):
        sketch = self._run(tiny_trace)
        assert sketch.hash_ops > 0


class TestWavingCounterMechanics:
    def test_error_free_flag_survives_residency(self):
        ws = WavingSketch(2048, seed=1)
        for _ in range(10):
            ws.add(5)
        cells = [c for bucket in ws._cells for c in bucket if c.key == 5]
        assert cells and cells[0].error_free is True

    def test_swapped_in_item_flagged_error_prone(self):
        ws = WavingSketch(13, cells_per_bucket=1, seed=2)
        assert ws.n_buckets == 1  # force every item into one bucket
        ws.add(10)  # resident with freq 1
        for _ in range(80):
            ws.add(7)  # waving estimate overtakes -> swap in
        cells = [c for bucket in ws._cells for c in bucket if c.key == 7]
        assert cells
        assert cells[0].error_free is False

    def test_waving_estimate_roughly_unbiased_over_seeds(self):
        """The signed counter's estimate should center near the true count."""
        true_count = 30
        estimates = []
        for seed in range(24):
            ws = WavingSketch(64, cells_per_bucket=1, seed=seed)
            # occupy the heavy cell with a strong resident
            for _ in range(200):
                ws.add(999)
            # our probe item lands in the waving counter
            for _ in range(true_count):
                ws.add(123)
            # noise items push the counter both ways
            for k in range(60):
                ws.add(1000 + k)
            estimates.append(ws.estimate(123))
        center = statistics.median(estimates)
        assert abs(center - true_count) <= true_count  # centered regime

    def test_memory_accounting(self):
        ws = WavingSketch(4096, cells_per_bucket=4, seed=3)
        assert ws.modeled_bits <= 4096 * 8
        # bucket = 32-bit waving counter + 4 cells x (32+32+1)
        assert ws.modeled_bits == ws.n_buckets * (32 + 4 * 65)
