"""repro — Hypersistent Sketch (ICDE 2025) reproduction.

A pure-Python library for persistence estimation in windowed data streams:
the three-stage Hypersistent Sketch (Burst Filter -> Cold Filter -> Hot
Part), every baseline the paper evaluates against, synthetic workload
substrates, and an experiment harness that regenerates the paper's figures.

Quickstart::

    from repro import HypersistentSketch, HSConfig, zipf_trace, run_stream
    from repro import exact_persistence

    trace = zipf_trace(n_records=100_000, n_windows=500, skew=1.5)
    sketch = HypersistentSketch(HSConfig.for_estimation(64 * 1024, 500))
    run_stream(sketch, trace)
    truth = exact_persistence(trace)
    some_item = next(iter(truth))
    print(truth[some_item], sketch.query(some_item))
"""

from .analysis import (
    aae,
    are,
    classify,
    estimate_all,
    persistence_cdf,
    reported_are,
)
from .baselines import (
    BloomFilter,
    CMPersistenceSketch,
    CountMinSketch,
    CUSketch,
    OnOffSketchV1,
    OnOffSketchV2,
    PIESketch,
    PSketch,
    SmallSpace,
    TightSketch,
    WavingPersistenceSketch,
    WavingSketch,
)
from .common import (
    HashFamily,
    PersistenceEstimator,
    PersistentItemFinder,
    canonical_key,
    canonical_keys,
)
from .core import (
    BurstFilter,
    ColdFilter,
    ColdFilteredSketch,
    HSConfig,
    HotPart,
    HypersistentSketch,
    ShardedSketch,
    SlidingHypersistentSketch,
    VectorizedBurstFilter,
    load_sketch,
    make_hypersistent_simd,
    save_sketch,
)
from .experiments import (
    make_estimator,
    make_finder,
    run_experiment,
    run_stream,
)
from .obs import MetricsRegistry, WindowProfiler
from .streams import (
    Trace,
    alpha_threshold,
    big_caida_like,
    caida_like,
    campus_like,
    exact_persistence,
    mawi_like,
    persistent_items,
    polygraph_like,
    zipf_trace,
)

__version__ = "1.0.0"

__all__ = [
    "BloomFilter",
    "BurstFilter",
    "CMPersistenceSketch",
    "CUSketch",
    "ColdFilter",
    "ColdFilteredSketch",
    "CountMinSketch",
    "HSConfig",
    "HashFamily",
    "HotPart",
    "HypersistentSketch",
    "MetricsRegistry",
    "OnOffSketchV1",
    "OnOffSketchV2",
    "PIESketch",
    "PSketch",
    "PersistenceEstimator",
    "PersistentItemFinder",
    "ShardedSketch",
    "SlidingHypersistentSketch",
    "SmallSpace",
    "TightSketch",
    "Trace",
    "VectorizedBurstFilter",
    "WavingPersistenceSketch",
    "WavingSketch",
    "WindowProfiler",
    "aae",
    "alpha_threshold",
    "are",
    "big_caida_like",
    "caida_like",
    "campus_like",
    "canonical_key",
    "canonical_keys",
    "classify",
    "estimate_all",
    "exact_persistence",
    "load_sketch",
    "make_estimator",
    "make_finder",
    "make_hypersistent_simd",
    "mawi_like",
    "persistence_cdf",
    "persistent_items",
    "polygraph_like",
    "reported_are",
    "run_experiment",
    "save_sketch",
    "run_stream",
    "zipf_trace",
]
