"""Property-based tests (hypothesis) for core invariants.

Invariants checked:

* Cold Filter / On-Off v1: one-sided error (never underestimate), estimates
  bounded by the window count.
* Hypersistent Sketch: window semantics (duplicates within a window never
  change the estimate), determinism under a fixed seed.
* Burst Filter: drain returns exactly the set of absorbed distinct keys.
* Oracle: persistence <= min(frequency, windows); rewindowing to 1 window
  gives persistence 1 for every item.
* Bloom filter: no false negatives, ever.
* Sliding window: estimates bounded by coverage.
* Finders: On-Off v2 and Hypersistent reports agree with their queries
  and Hot Part contents; CM persistence never underestimates with an
  oversized Bloom filter.
* FlagArray: the epoch trick behaves like a plain bit set.
* Snapshots: a round-trip preserves estimates.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.bloom import BloomFilter
from repro.baselines.cm_sketch import CMPersistenceSketch
from repro.baselines.on_off import OnOffSketchV1, OnOffSketchV2
from repro.common.bitmem import KB, FlagArray
from repro.core import HSConfig, HypersistentSketch
from repro.core.burst_filter import BurstFilter
from repro.core.sliding import SlidingHypersistentSketch
from repro.streams.model import Trace
from repro.streams.oracle import exact_frequency, exact_persistence

# streams: lists of (item, window-advance) steps
stream_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=30),
              st.booleans()),
    min_size=1,
    max_size=200,
)

keys_strategy = st.lists(
    st.integers(min_value=0, max_value=10_000), min_size=1, max_size=300
)


def play(sketch, steps):
    """Apply a (item, advance-window) step sequence; returns window count."""
    windows = 0
    for item, advance in steps:
        sketch.insert(item)
        if advance:
            sketch.end_window()
            windows += 1
    sketch.end_window()
    return windows + 1


def exact_from_steps(steps):
    seen = {}
    persistence = Counter()
    window = 0
    for item, advance in steps:
        if seen.get(item) != window:
            seen[item] = window
            persistence[item] += 1
        if advance:
            window += 1
    return dict(persistence)


@settings(max_examples=60, deadline=None)
@given(stream_strategy)
def test_on_off_v1_never_underestimates(steps):
    oo = OnOffSketchV1(2 * KB, seed=1)
    windows = play(oo, steps)
    truth = exact_from_steps(steps)
    for item, p in truth.items():
        estimate = oo.query(item)
        assert p <= estimate <= windows


@settings(max_examples=60, deadline=None)
@given(stream_strategy)
def test_hypersistent_estimate_bounded_by_windows(steps):
    sketch = HypersistentSketch(HSConfig.for_estimation(8 * KB, 64))
    windows = play(sketch, steps)
    truth = exact_from_steps(steps)
    for item in truth:
        assert 0 <= sketch.query(item) <= windows


@settings(max_examples=60, deadline=None)
@given(stream_strategy)
def test_hypersistent_duplicates_within_window_are_noops(steps):
    """Inserting an item twice per window must equal inserting it once."""
    once = HypersistentSketch(HSConfig.for_estimation(8 * KB, 64, seed=5))
    twice = HypersistentSketch(HSConfig.for_estimation(8 * KB, 64, seed=5))
    for item, advance in steps:
        once.insert(item)
        twice.insert(item)
        twice.insert(item)
        if advance:
            once.end_window()
            twice.end_window()
    once.end_window()
    twice.end_window()
    for item in {item for item, _ in steps}:
        assert once.query(item) == twice.query(item)


@settings(max_examples=60, deadline=None)
@given(stream_strategy)
def test_hypersistent_deterministic(steps):
    def run():
        sketch = HypersistentSketch(HSConfig.for_estimation(4 * KB, 64,
                                                            seed=9))
        play(sketch, steps)
        return {item: sketch.query(item) for item, _ in steps}

    assert run() == run()


@settings(max_examples=60, deadline=None)
@given(keys_strategy)
def test_burst_filter_drains_exactly_absorbed_keys(keys):
    bf = BurstFilter(16, cells_per_bucket=2, seed=3)
    absorbed = {key for key in keys if bf.insert(key)}
    assert sorted(bf.drain()) == sorted(absorbed)
    assert len(bf) == 0


@settings(max_examples=60, deadline=None)
@given(keys_strategy)
def test_bloom_filter_no_false_negatives(keys):
    bloom = BloomFilter(128, n_hashes=3, seed=7)
    for key in keys:
        bloom.add(key)
    assert all(key in bloom for key in keys)


@settings(max_examples=60, deadline=None)
@given(stream_strategy)
def test_oracle_persistence_bounds(steps):
    items = [item for item, _ in steps]
    wids = []
    window = 0
    for _, advance in steps:
        wids.append(window)
        if advance:
            window += 1
    trace = Trace(items, wids, window + 1)
    persistence = exact_persistence(trace)
    frequency = exact_frequency(trace)
    for item, p in persistence.items():
        assert 1 <= p <= min(frequency[item], trace.n_windows)


@settings(max_examples=60, deadline=None)
@given(stream_strategy)
def test_oracle_single_window_collapse(steps):
    items = [item for item, _ in steps]
    trace = Trace(items, [0] * len(items), 1)
    persistence = exact_persistence(trace)
    assert all(p == 1 for p in persistence.values())


steps_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=20), st.booleans()),
    min_size=1,
    max_size=150,
)


@settings(max_examples=50, deadline=None)
@given(steps_strategy, st.integers(min_value=2, max_value=12))
def test_sliding_estimate_bounded_by_coverage(steps, horizon):
    sw = SlidingHypersistentSketch(memory_bytes=8 * KB, horizon=horizon)
    play(sw, steps)
    for item in {item for item, _ in steps}:
        estimate = sw.query(item)
        assert 0 <= estimate <= max(sw.coverage, horizon)


@settings(max_examples=50, deadline=None)
@given(steps_strategy)
def test_on_off_v2_report_consistent_with_query(steps):
    oo = OnOffSketchV2(2 * KB, seed=3)
    play(oo, steps)
    reported = oo.report(1)
    for key, value in reported.items():
        assert oo.query(key) == value
        assert value >= 1


@settings(max_examples=50, deadline=None)
@given(steps_strategy)
def test_hypersistent_report_subset_of_hot_items(steps):
    sketch = HypersistentSketch(
        HSConfig(memory_bytes=8 * KB, delta1=2, delta2=3, seed=5)
    )
    play(sketch, steps)
    base = sketch.cold.delta1 + sketch.cold.delta2
    reported = sketch.report(base)
    hot_keys = set(sketch.hot.items())
    assert set(reported) <= hot_keys
    assert all(v >= base for v in reported.values())


@settings(max_examples=50, deadline=None)
@given(steps_strategy)
def test_cm_persistence_never_underestimates_with_big_bloom(steps):
    """With an oversized Bloom filter (no false positives realistically),
    CM persistence keeps Count-Min's one-sided error."""
    sketch = CMPersistenceSketch(16 * KB, seed=7)
    windows = 0
    seen = {}
    truth = Counter()
    for item, advance in steps:
        sketch.insert(item)
        if seen.get(item) != windows:
            seen[item] = windows
            truth[item] += 1
        if advance:
            sketch.end_window()
            windows += 1
    sketch.end_window()
    for item, p in truth.items():
        assert sketch.query(item) >= p


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=31),
                  st.sampled_from(["off", "reset"])),
        max_size=100,
    )
)
def test_flag_array_matches_reference_model(ops):
    """FlagArray's epoch trick must behave exactly like a plain bit set."""
    flags = FlagArray(32)
    reference = [True] * 32
    for idx, op in ops:
        if op == "off":
            flags.turn_off(idx)
            reference[idx] = False
        else:
            flags.reset()
            reference = [True] * 32
    assert [flags.is_on(i) for i in range(32)] == reference


@settings(max_examples=30, deadline=None)
@given(steps_strategy)
def test_snapshot_roundtrip_preserves_estimates(steps):
    import pickle

    sketch = HypersistentSketch(HSConfig.for_estimation(8 * KB, 32, seed=9))
    play(sketch, steps)
    clone = pickle.loads(pickle.dumps(sketch))
    for item in {item for item, _ in steps}:
        assert clone.query(item) == sketch.query(item)
