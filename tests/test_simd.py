"""Unit tests for the SIMD-emulating Burst Filter path."""

import numpy as np
import pytest

from repro.common.bitmem import KB
from repro.common.errors import ConfigError
from repro.core import HSConfig
from repro.core.burst_filter import BurstFilter
from repro.core.simd import (
    SIMD_LANES,
    VectorizedBurstFilter,
    make_hypersistent_simd,
    scalar_scan_cost,
    simd_scan_cost,
)


class TestScanCostModel:
    def test_scalar_cost(self):
        assert scalar_scan_cost(16) == 16

    def test_simd_cost_is_quarter_for_128bit(self):
        assert simd_scan_cost(16) == 4
        assert simd_scan_cost(4) == 1

    def test_simd_cost_rounds_up(self):
        assert simd_scan_cost(5) == 2

    def test_lanes_constant(self):
        assert SIMD_LANES == 4


class TestVectorizedFilterEquivalence:
    """The vectorized filter must behave exactly like the scalar one."""

    def _pair(self, n_buckets=8, cells=4, seed=7):
        return (
            BurstFilter(n_buckets, cells, seed=seed),
            VectorizedBurstFilter(n_buckets, cells, seed=seed),
        )

    def test_same_insert_outcomes(self):
        scalar, simd = self._pair()
        for key in list(range(50)) + list(range(25)):  # with repeats
            assert scalar.insert(key) == simd.insert(key)

    def test_same_membership(self):
        scalar, simd = self._pair()
        for key in range(30):
            scalar.insert(key)
            simd.insert(key)
        for key in range(60):
            assert scalar.contains(key) == simd.contains(key)

    def test_same_drain_content(self):
        scalar, simd = self._pair()
        for key in range(40):
            scalar.insert(key)
            simd.insert(key)
        assert sorted(scalar.drain()) == sorted(simd.drain())
        assert len(scalar) == len(simd) == 0

    def test_same_capacity_accounting(self):
        scalar, simd = self._pair(n_buckets=3, cells=5)
        assert scalar.capacity == simd.capacity
        assert scalar.modeled_bits == simd.modeled_bits


class TestVectorizedFilterSpecifics:
    def test_compare_ops_reduced_by_lane_count(self):
        scalar = BurstFilter(1, cells_per_bucket=8, seed=1)
        simd = VectorizedBurstFilter(1, cells_per_bucket=8, seed=1)
        for key in range(8):
            scalar.insert(key)
            simd.insert(key)
        # scalar compares each occupied cell; simd compares in 4-lane blocks
        assert simd.compare_ops < scalar.compare_ops

    def test_every_scan_costs_lane_blocks(self):
        # one ceil(gamma / 4) charge per scanned record on every path,
        # whatever the bucket holds
        simd = VectorizedBurstFilter(4, cells_per_bucket=6, seed=1)
        per_scan = simd_scan_cost(6)
        simd.insert(1)
        simd.contains(2)
        simd.insert_batch(np.arange(10, 17, dtype=np.uint64))
        assert simd.compare_ops == 9 * per_scan
        simd.drain_array()
        simd.window_kernel(np.arange(30, 35, dtype=np.uint64))
        assert simd.compare_ops == 14 * per_scan
        assert isinstance(simd, BurstFilter)

    def test_clear(self):
        simd = VectorizedBurstFilter(4, 4, seed=2)
        simd.insert(1)
        simd.clear()
        assert len(simd) == 0 and not simd.contains(1)

    def test_reset_stats(self):
        simd = VectorizedBurstFilter(4, 4, seed=2)
        simd.insert(1)
        simd.reset_stats()
        assert simd.hash_ops == 0 and simd.compare_ops == 0

    def test_load_factor(self):
        simd = VectorizedBurstFilter(2, 2, seed=2)
        simd.insert(1)
        assert simd.load_factor == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ConfigError):
            VectorizedBurstFilter(0)
        with pytest.raises(ConfigError):
            VectorizedBurstFilter(1, cells_per_bucket=0)


class TestSimdSketchFactory:
    def test_factory_swaps_stage1(self):
        config = HSConfig.for_estimation(16 * KB, 50)
        sketch = make_hypersistent_simd(config)
        assert isinstance(sketch.burst, VectorizedBurstFilter)

    def test_simd_sketch_matches_scalar_sketch(self):
        from repro.core import HypersistentSketch
        from repro.streams import zipf_trace

        config = HSConfig.for_estimation(16 * KB, 40)
        scalar = HypersistentSketch(config)
        simd = make_hypersistent_simd(config)
        trace = zipf_trace(4000, 40, seed=9, n_items=500)
        for _, items in trace.windows():
            for item in items:
                scalar.insert(item)
                simd.insert(item)
            scalar.end_window()
            simd.end_window()
        for key in sorted(set(trace.items)):
            assert scalar.query(key) == simd.query(key)
