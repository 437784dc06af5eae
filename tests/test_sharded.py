"""Tests for hash-partitioned (sharded) sketching."""

import pytest

from repro.baselines.exact import ExactTracker
from repro.common.errors import ConfigError
from repro.core import HSConfig, HypersistentSketch, ShardedSketch
from repro.streams import zipf_trace
from repro.streams.oracle import exact_persistence


def hs_factory(kb=8, n_windows=40):
    return lambda i: HypersistentSketch(
        HSConfig.for_estimation(kb * 1024, n_windows, seed=100 + i)
    )


class TestRoutingSemantics:
    def test_item_owned_by_one_shard(self):
        sharded = ShardedSketch(lambda i: ExactTracker(), n_shards=4)
        for _ in range(6):
            sharded.insert("flow")
            sharded.end_window()
        owners = [s for s in sharded.shards if s.query(
            __import__("repro.common.hashing",
                       fromlist=["canonical_key"]).canonical_key("flow"))]
        assert len(owners) == 1
        assert sharded.query("flow") == 6

    def test_exact_shards_match_oracle(self, small_zipf, small_truth):
        sharded = ShardedSketch(lambda i: ExactTracker(), n_shards=8)
        for _, items in small_zipf.windows():
            for item in items:
                sharded.insert(item)
            sharded.end_window()
        for key, p in small_truth.items():
            assert sharded.query(key) == p

    def test_window_clock_shared(self):
        sharded = ShardedSketch(hs_factory(), n_shards=3)
        for _ in range(5):
            sharded.end_window()
        assert sharded.window == 5
        assert all(s.window == 5 for s in sharded.shards)

    def test_validation(self):
        with pytest.raises(ConfigError):
            ShardedSketch(lambda i: ExactTracker(), n_shards=0)


class TestAccuracyAndBalance:
    def test_sharding_does_not_hurt_accuracy(self):
        """N shards of M/N memory ~ one sketch of M memory."""
        trace = zipf_trace(30_000, 40, skew=1.1, n_items=4000, seed=81,
                           within_window_repeats=3.0)
        truth = exact_persistence(trace)
        keys = list(truth)

        single = HypersistentSketch(
            HSConfig.for_estimation(16 * 1024, 40, seed=100)
        )
        sharded = ShardedSketch(hs_factory(kb=4), n_shards=4)
        for _, items in trace.windows():
            for item in items:
                single.insert(item)
                sharded.insert(item)
            single.end_window()
            sharded.end_window()

        def mean_err(sketch):
            return sum(abs(sketch.query(k) - truth[k]) for k in keys) \
                / len(keys)

        assert mean_err(sharded) <= mean_err(single) * 2 + 0.5

    def test_load_roughly_balanced(self):
        sharded = ShardedSketch(hs_factory(), n_shards=4)
        for item in range(4000):
            sharded.insert(item)
        loads = sharded.shard_loads()
        assert min(loads) > 0.7 * max(loads)

    def test_report_merges_shards(self):
        sharded = ShardedSketch(lambda i: ExactTracker(), n_shards=4)
        for window in range(10):
            for item in range(50):
                sharded.insert(item)
            sharded.end_window()
        reported = sharded.report(10)
        assert len(reported) == 50

    def test_memory_sums_shards(self):
        sharded = ShardedSketch(hs_factory(kb=4), n_shards=4)
        assert sharded.memory_bytes == sum(
            s.memory_bytes for s in sharded.shards
        )

    def test_repr(self):
        sharded = ShardedSketch(hs_factory(), n_shards=2)
        assert "n_shards=2" in repr(sharded)


class TestShardedBatchFeed:
    def _feed_both(self):
        trace = zipf_trace(6000, 12, skew=1.2, n_items=600, seed=21)
        scalar = ShardedSketch(hs_factory(n_windows=12), n_shards=4)
        batched = ShardedSketch(hs_factory(n_windows=12), n_shards=4)
        for _, items in trace.windows():
            for item in items:
                scalar.insert(item)
            scalar.end_window()
        for keys in trace.window_arrays():
            batched.insert_window(keys)
        return trace, scalar, batched

    def test_batched_feed_matches_scalar(self):
        trace, scalar, batched = self._feed_both()
        assert batched.window == scalar.window == trace.n_windows
        for key in sorted(set(trace.items)):
            assert scalar.query(key) == batched.query(key)
        assert scalar.report(6) == batched.report(6)

    def test_batched_feed_scalar_fallback_shards(self):
        # shards without insert_window take the per-key fallback
        trace = zipf_trace(2000, 8, skew=1.2, n_items=200, seed=22)
        sharded = ShardedSketch(lambda i: ExactTracker(), n_shards=3)
        truth = exact_persistence(trace)
        for keys in trace.window_arrays():
            sharded.insert_window(keys)
        assert sharded.window == trace.n_windows
        for key, p in truth.items():
            assert sharded.query(key) == p
