"""Property tests for the whole-window SoA kernel backend.

:mod:`repro.core.kernels` claims bit-for-bit equivalence with the
record-at-a-time scalar oracle while delivering each stage's window
update as a handful of array ops.  These tests pin the claim per stage
(Burst window kernel and open-window admission plans, Cold wave engine,
Hot rounds under both replacement policies) and for the composed sketch
behind the ``engine`` selector — including open-window ``insert_batch``
and the telemetry views — and the shapes the kernels special-case: empty
windows, single-key windows, and all-duplicate windows.

The same properties run as the ``kernel-equivalence`` entry of the
verify catalog (``repro verify`` / ``repro fuzz``); keeping them here
too gives hypothesis shrinking on failure.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigError
from repro.core import (
    ENGINES,
    HSConfig,
    HypersistentSketch,
    ShardedSketch,
    make_hypersistent_simd,
)
from repro.core.burst_filter import BurstFilter
from repro.core.cold_filter import ColdFilter
from repro.core.config import REPLACE_HASH, REPLACE_RANDOM
from repro.core.hot_part import HotPart
from repro.core.kernels import group_ranks, ingest_window, plan_burst_admission
from repro.core.simd import VectorizedBurstFilter
from repro.obs import (
    MetricsRegistry,
    bind_sketch,
    parse_prometheus,
    sketch_metrics,
    to_prometheus,
)
from repro.obs.catalog import LEGACY_SKETCH_KEYS
from repro.obs.events import STAGES
from repro.persist import encode_state

# Windowed streams biased toward the kernel's edge shapes: some windows
# empty, some a single key, some one key repeated, plus dup-heavy mixes.
window_strategy = st.one_of(
    st.just([]),                                            # empty window
    st.lists(st.integers(0, 40), min_size=1, max_size=1),   # single key
    st.integers(0, 40).flatmap(                             # all-duplicate
        lambda k: st.lists(st.just(k), min_size=2, max_size=30)
    ),
    st.lists(st.integers(0, 40), min_size=0, max_size=60),  # general mix
)

windows_strategy = st.lists(window_strategy, min_size=1, max_size=20)

batch_strategy = st.lists(
    st.integers(min_value=0, max_value=25), min_size=0, max_size=80
)


def scalar_feed(sketch, windows):
    for items in windows:
        for item in items:
            sketch.insert(item)
        sketch.end_window()
    return sketch


def kernel_feed(sketch, windows):
    for items in windows:
        sketch.insert_window(np.array(items, dtype=np.uint64))
    return sketch


def all_keys(windows):
    return sorted({item for items in windows for item in items})


class TestBurstWindowKernel:
    @given(windows=st.lists(batch_strategy, min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_window_kernel_matches_scalar_replay(self, windows):
        scalar = VectorizedBurstFilter(4, 3, seed=7)
        kernel = VectorizedBurstFilter(4, 3, seed=7)
        for items in windows:
            downstream = []
            for key in items:
                if not scalar.insert(key):
                    downstream.append(key)
            downstream.extend(int(k) for k in scalar.drain())
            keys = np.array(items, dtype=np.uint64)
            got = kernel.window_kernel(keys)
            # buckets are empty at every window boundary, so the
            # whole-window fast path must always engage
            assert got is not None
            assert sorted(got.tolist()) == sorted(downstream)
            kernel.drain_array()  # flush stored keys like scalar drain
        assert scalar.absorbed == kernel.absorbed
        assert scalar.overflowed == kernel.overflowed
        assert scalar.hash_ops == kernel.hash_ops
        assert scalar.compare_ops == kernel.compare_ops

    def test_window_kernel_declines_mid_window_state(self):
        burst = VectorizedBurstFilter(4, 3, seed=7)
        burst.insert(5)  # bucket now non-empty: fast path must bail
        assert burst.window_kernel(np.array([5], dtype=np.uint64)) is None


class TestColdKernel:
    @given(batches=st.lists(batch_strategy, min_size=1, max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_insert_batch_matches_scalar(self, batches):
        def build():
            return ColdFilter(l1_width=16, l2_width=8, delta1=3, delta2=6,
                              d1=2, d2=2, seed=11)

        scalar, batched = build(), build()
        for batch in batches:
            expected = np.array(
                [scalar.insert(k) for k in batch], dtype=bool
            )
            got = batched.insert_batch(np.array(batch, dtype=np.uint64))
            assert np.array_equal(expected, got)
            scalar.end_window()
            batched.end_window()
        assert encode_state(scalar.state_dict()) == \
            encode_state(batched.state_dict())
        assert scalar.hash_ops == batched.hash_ops
        assert (scalar.l1_hits, scalar.l2_hits, scalar.overflows) == \
            (batched.l1_hits, batched.l2_hits, batched.overflows)

    @given(key=st.integers(0, 25), reps=st.integers(1, 40))
    @settings(max_examples=30, deadline=None)
    def test_all_duplicate_window(self, key, reps):
        # one key repeated: first occurrence decides, the rest must
        # retire through the frozen-reject / stable-accept fast path
        def build():
            return ColdFilter(l1_width=4, l2_width=2, delta1=2, delta2=4,
                              d1=2, d2=2, seed=5)

        scalar, batched = build(), build()
        batch = [key] * reps
        expected = np.array([scalar.insert(k) for k in batch], dtype=bool)
        got = batched.insert_batch(np.array(batch, dtype=np.uint64))
        assert np.array_equal(expected, got)
        assert scalar.hash_ops == batched.hash_ops


class TestHotKernel:
    @pytest.mark.parametrize("policy", [REPLACE_HASH, REPLACE_RANDOM])
    def test_policies_covered(self, policy):
        hot = HotPart(2, 2, replacement=policy, seed=13)
        hot.insert_batch(np.arange(8, dtype=np.uint64))
        hot.end_window()
        assert sum(hot.items().values()) > 0

    @given(batches=st.lists(batch_strategy, min_size=1, max_size=5),
           policy=st.sampled_from([REPLACE_HASH, REPLACE_RANDOM]))
    @settings(max_examples=60, deadline=None)
    def test_insert_batch_matches_scalar(self, batches, policy):
        scalar = HotPart(2, 2, replacement=policy, seed=13)
        batched = HotPart(2, 2, replacement=policy, seed=13)
        for batch in batches:
            for key in batch:
                scalar.insert(key)
            batched.insert_batch(np.array(batch, dtype=np.uint64))
            scalar.end_window()
            batched.end_window()
        assert scalar.items() == batched.items()
        assert encode_state(scalar.state_dict()) == \
            encode_state(batched.state_dict())
        assert scalar.replacements == batched.replacements
        assert scalar.replacement_attempts == batched.replacement_attempts
        assert scalar.hash_ops == batched.hash_ops


class TestEngineSelector:
    def test_engine_validation(self):
        config = HSConfig.for_estimation(2 * 1024, 4, seed=1)
        with pytest.raises(ConfigError, match="unknown engine"):
            HypersistentSketch(config, engine="turbo")
        sketch = HypersistentSketch(config)
        with pytest.raises(ConfigError, match="unknown engine"):
            sketch.engine = "turbo"
        assert ENGINES == ("scalar", "kernel")
        assert sketch.engine == "kernel"  # the default fast path
        with pytest.raises(ConfigError, match="unknown engine"):
            HypersistentSketch(config, engine="batched")  # retired

    @given(windows=windows_strategy, engine=st.sampled_from(ENGINES))
    @settings(max_examples=40, deadline=None)
    def test_every_engine_matches_scalar_oracle(self, windows, engine):
        config = HSConfig.for_estimation(2 * 1024, len(windows), seed=9)
        oracle = scalar_feed(HypersistentSketch(config), windows)
        other = kernel_feed(
            HypersistentSketch(config, engine=engine), windows)
        assert oracle.stats() == other.stats()
        for key in all_keys(windows):
            assert oracle.query(key) == other.query(key)
        assert oracle.report(1) == other.report(1)

    @given(windows=windows_strategy)
    @settings(max_examples=30, deadline=None)
    def test_simd_build_kernel_engine_matches_oracle(self, windows):
        config = HSConfig.for_estimation(2 * 1024, len(windows), seed=9)
        oracle = scalar_feed(HypersistentSketch(config), windows)
        simd = kernel_feed(make_hypersistent_simd(config), windows)
        for key in all_keys(windows):
            assert oracle.query(key) == simd.query(key)
        assert oracle.report(1) == simd.report(1)

    @given(windows=windows_strategy)
    @settings(max_examples=25, deadline=None)
    def test_snapshot_bytes_identical_across_engines(self, windows):
        # persist acceptance: the engine never leaks into the snapshot
        config = HSConfig.for_estimation(2 * 1024, len(windows), seed=9)
        blobs = [encode_state(
            kernel_feed(HypersistentSketch(config, engine=e),
                        windows).state_dict())
            for e in ENGINES]
        assert blobs[0] == blobs[1]
        restored = HypersistentSketch.from_state(
            kernel_feed(HypersistentSketch(config, engine="scalar"),
                        windows).state_dict())
        assert restored.engine == "kernel"  # runtime-only: the default
        assert encode_state(restored.state_dict()) == blobs[0]

    @given(windows=windows_strategy)
    @settings(max_examples=20, deadline=None)
    def test_ingest_window_timings_cover_all_stages(self, windows):
        # the one stage clock: every kernel window, empty ones included,
        # adds time to all four stages
        config = HSConfig.for_estimation(2 * 1024, len(windows), seed=9)
        sketch = HypersistentSketch(config)
        for items in windows:
            before = dict(sketch.stage_seconds)
            ingest_window(sketch, np.array(items, dtype=np.uint64))
            assert tuple(sketch.stage_seconds) == STAGES
            for stage in STAGES:
                assert sketch.stage_seconds[stage] > before[stage], stage
        oracle = scalar_feed(HypersistentSketch(config), windows)
        assert oracle.stats() == sketch.stats()


class TestStageClock:
    """``stage_seconds``: kernel-path run timing, never state."""

    WINDOWS = [[1, 2, 3, 2, 1], [], [4] * 9, list(range(40))]

    def config(self):
        return HSConfig.for_estimation(2 * 1024, len(self.WINDOWS), seed=9)

    def test_scalar_engine_reads_no_stage_clock(self):
        sketch = HypersistentSketch(self.config(), engine="scalar")
        kernel_feed(sketch, self.WINDOWS)
        sketch.insert_batch([5, 6, 5])
        sketch.end_window()
        per_record = scalar_feed(HypersistentSketch(self.config()),
                                 self.WINDOWS)
        zeros = dict.fromkeys(STAGES, 0.0)
        assert sketch.stage_seconds == per_record.stage_seconds == zeros

    def test_stage_clock_stays_out_of_state_stats_and_metrics(self):
        sketch = kernel_feed(HypersistentSketch(self.config()),
                             self.WINDOWS)
        assert all(v > 0 for v in sketch.stage_seconds.values())
        views = (encode_state(sketch.state_dict()), sketch.stats(),
                 sketch_metrics(sketch))
        sketch.stage_seconds = {stage: 1e6 for stage in STAGES}
        assert (encode_state(sketch.state_dict()), sketch.stats(),
                sketch_metrics(sketch)) == views

    def test_restore_and_reset_start_the_clock_at_zero(self):
        sketch = kernel_feed(HypersistentSketch(self.config()),
                             self.WINDOWS)
        zeros = dict.fromkeys(STAGES, 0.0)
        restored = HypersistentSketch.from_state(sketch.state_dict())
        assert restored.stage_seconds == zeros
        assert sketch.stage_seconds != zeros
        sketch.reset_stats()
        assert sketch.stage_seconds == zeros


class TestSketchEquivalence:
    @given(windows=windows_strategy)
    @settings(max_examples=40, deadline=None)
    def test_registry_counters_identical_across_paths(self, windows):
        # the canonical telemetry view, not just the legacy stats() dict,
        # must agree between record-at-a-time and kernel ingestion
        config = HSConfig.for_estimation(2 * 1024, len(windows), seed=9)
        scalar = scalar_feed(HypersistentSketch(config), windows)
        kernel = kernel_feed(HypersistentSketch(config), windows)
        assert sketch_metrics(scalar) == sketch_metrics(kernel)

    @given(windows=windows_strategy)
    @settings(max_examples=20, deadline=None)
    def test_prometheus_snapshot_matches_stats_on_both_paths(self, windows):
        config = HSConfig.for_estimation(2 * 1024, len(windows), seed=9)
        for feed in (scalar_feed, kernel_feed):
            sketch = feed(HypersistentSketch(config), windows)
            registry = MetricsRegistry()
            bind_sketch(registry, sketch)
            parsed = parse_prometheus(to_prometheus(registry))
            stats = sketch.stats()
            for legacy_key, canonical in LEGACY_SKETCH_KEYS.items():
                if legacy_key in stats:
                    assert parsed[(canonical, ())] == stats[legacy_key]

    @given(windows=windows_strategy)
    @settings(max_examples=40, deadline=None)
    def test_insert_batch_open_window_equals_scalar(self, windows):
        # insert_batch keeps the window open; close it separately
        config = HSConfig.for_estimation(2 * 1024, len(windows), seed=3)
        scalar = scalar_feed(HypersistentSketch(config), windows)
        batched = HypersistentSketch(config)
        for items in windows:
            batched.insert_batch(items)
            batched.end_window()
        assert scalar.stats() == batched.stats()
        for key in all_keys(windows):
            assert scalar.query(key) == batched.query(key)


class TestBurstFilterEquivalence:
    """Open-window ``insert_batch`` (buckets may already hold keys)."""

    @given(batches=st.lists(batch_strategy, min_size=1, max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_plain_insert_batch_matches_scalar(self, batches):
        scalar = BurstFilter(4, 3, seed=7)
        batched = BurstFilter(4, 3, seed=7)
        for batch in batches:
            expected = np.array(
                [scalar.insert(k) for k in batch], dtype=bool
            )
            got = batched.insert_batch(np.array(batch, dtype=np.uint64))
            assert np.array_equal(expected, got)
        assert scalar.hash_ops == batched.hash_ops
        assert scalar.compare_ops == batched.compare_ops
        assert scalar.absorbed == batched.absorbed
        assert scalar.overflowed == batched.overflowed
        assert list(scalar.drain()) == batched.drain_array().tolist()

    @given(batches=st.lists(batch_strategy, min_size=1, max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_vectorized_insert_batch_matches_scalar(self, batches):
        scalar = VectorizedBurstFilter(4, 3, seed=7)
        batched = VectorizedBurstFilter(4, 3, seed=7)
        for batch in batches:
            expected = np.array(
                [scalar.insert(k) for k in batch], dtype=bool
            )
            got = batched.insert_batch(np.array(batch, dtype=np.uint64))
            assert np.array_equal(expected, got)
        assert scalar.absorbed == batched.absorbed
        assert scalar.overflowed == batched.overflowed
        # the vectorized scan costs a fixed lane-block count per insert,
        # batched or not
        assert scalar.compare_ops == batched.compare_ops
        assert list(scalar.drain()) == batched.drain_array().tolist()

    @given(batch=batch_strategy)
    @settings(max_examples=60, deadline=None)
    def test_vectorized_matches_plain_decisions(self, batch):
        plain = BurstFilter(4, 3, seed=7)
        vector = VectorizedBurstFilter(4, 3, seed=7)
        keys = np.array(batch, dtype=np.uint64)
        assert np.array_equal(
            plain.insert_batch(keys), vector.insert_batch(keys)
        )
        assert list(plain.drain()) == list(vector.drain())


class TestBurstPlanPrimitives:
    @given(groups=st.lists(st.integers(min_value=0, max_value=6),
                           max_size=50))
    @settings(max_examples=80, deadline=None)
    def test_group_ranks(self, groups):
        arr = np.array(groups, dtype=np.int64)
        ranks = group_ranks(arr)
        seen = {}
        for value, rank in zip(groups, ranks.tolist()):
            assert rank == seen.get(value, 0)
            seen[value] = rank + 1

    @given(batch=batch_strategy, capacity=st.integers(1, 4))
    @settings(max_examples=80, deadline=None)
    def test_plan_reproduces_reference_admission(self, batch, capacity):
        keys = np.array(batch, dtype=np.uint64)
        plan = plan_burst_admission(
            keys, lambda u: (u % np.uint64(3)).astype(np.int64), capacity
        )
        buckets = {}
        compares = 0
        for i, key in enumerate(batch):
            bucket = buckets.setdefault(key % 3, [])
            hit = False
            for stored in bucket:
                compares += 1
                if stored == key:
                    hit = True
                    break
            if hit:
                assert plan.absorbed[i]
            elif len(bucket) < capacity:
                bucket.append(key)
                assert plan.absorbed[i]
            else:
                assert not plan.absorbed[i]
        assert plan.scan_compares == compares
        stored_keys = [k for b in sorted(buckets) for k in buckets[b]]
        assert sorted(plan.unique_keys[plan.stored].tolist()) == \
            sorted(stored_keys)


class TestShardedEngine:
    def _build(self, engine=None):
        return ShardedSketch(
            lambda i: HypersistentSketch(HSConfig.for_estimation(
                2 * 1024, 8, seed=3 + 100 * i)),
            n_shards=2, seed=3, engine=engine,
        )

    @given(windows=st.lists(
        st.lists(st.integers(0, 60), max_size=40), min_size=1, max_size=8))
    @settings(max_examples=25, deadline=None)
    def test_kernel_engine_matches_default(self, windows):
        default = self._build()
        kernel = self._build(engine="kernel")
        for items in windows:
            keys = np.array(items, dtype=np.uint64)
            default.insert_window(keys)
            kernel.insert_window(keys)
        for key in all_keys(windows):
            assert default.query(key) == kernel.query(key)
        assert default.report(1) == kernel.report(1)

    def test_engine_rejects_shards_without_selector(self):
        class Plain:
            def insert(self, key):  # pragma: no cover - never called
                pass

        with pytest.raises(ConfigError, match="no engine selector"):
            ShardedSketch(lambda i: Plain(), n_shards=2, seed=3,
                          engine="kernel")
