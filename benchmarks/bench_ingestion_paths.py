"""Ingestion-path microbenchmark (library-level, beyond the paper).

Times the ways to feed a window stream into a Hypersistent Sketch:

* record-at-a-time through the scalar Burst Filter (the paper's path);
* record-at-a-time through the numpy SIMD-emulating Burst Filter;
* whole-window batches through ``insert_window`` on the kernel engine
  (the exact fast path — bit-for-bit the scalar results).

Uses pytest-benchmark's statistical timing (multiple rounds) since these
are honest wall-clock comparisons of same-language implementations.
"""

import pytest

from repro.core import HSConfig, HypersistentSketch, make_hypersistent_simd
from repro.experiments.figures.common import bench_scale
from repro.streams.traces import caida_like


@pytest.fixture(scope="module")
def workload():
    trace = caida_like(scale=bench_scale(), n_windows=200, overlay=False)
    windows = [items for _, items in trace.windows()]
    config = HSConfig.for_estimation(
        32 * 1024, 200, window_distinct_hint=trace.mean_window_distinct()
    )
    return windows, config, trace


def _run_scalar(windows, config):
    sketch = HypersistentSketch(config)
    for items in windows:
        for item in items:
            sketch.insert(item)
        sketch.end_window()
    return sketch


def _run_simd(windows, config):
    sketch = make_hypersistent_simd(config)
    for items in windows:
        for item in items:
            sketch.insert(item)
        sketch.end_window()
    return sketch


def _run_windows(window_arrays, config, simd=True):
    sketch = (make_hypersistent_simd(config) if simd
              else HypersistentSketch(config))
    for keys in window_arrays:
        sketch.insert_window(keys)
    return sketch


def test_ingest_scalar(benchmark, workload):
    windows, config, _ = workload
    sketch = benchmark.pedantic(
        _run_scalar, args=(windows, config), rounds=3, iterations=1
    )
    assert sketch.window == len(windows)


def test_ingest_simd_filter(benchmark, workload):
    windows, config, _ = workload
    sketch = benchmark.pedantic(
        _run_simd, args=(windows, config), rounds=3, iterations=1
    )
    assert sketch.window == len(windows)


def test_ingest_columnar_windows(benchmark, workload):
    """The exact kernel fast path: ``insert_window`` on key arrays."""
    windows, config, trace = workload
    arrays = trace.window_arrays()
    sketch = benchmark.pedantic(
        _run_windows, args=(arrays, config), rounds=3, iterations=1
    )
    assert sketch.window == len(windows)


def _run_windows_with_registry(window_arrays, config):
    from repro.obs import MetricsRegistry, bind_sketch

    sketch = make_hypersistent_simd(config)
    bind_sketch(MetricsRegistry(), sketch)
    for keys in window_arrays:
        sketch.insert_window(keys)
    return sketch


def test_ingest_columnar_with_registry(benchmark, workload):
    """Kernel fast path with a bound (pull-only) metrics registry.

    The registry reads stage counters only at collection time, so this
    series must track ``test_ingest_columnar_windows`` within noise —
    the <5% disabled-instrumentation overhead budget, gated in CI by
    ``scripts/check_obs_overhead.py``.
    """
    windows, config, trace = workload
    arrays = trace.window_arrays()
    sketch = benchmark.pedantic(
        _run_windows_with_registry, args=(arrays, config),
        rounds=3, iterations=1,
    )
    assert sketch.window == len(windows)


def test_bound_registry_does_not_change_results(workload):
    """A bound registry leaves state, stats, and estimates untouched."""
    windows, config, trace = workload
    arrays = trace.window_arrays()
    bare = _run_windows(arrays, config, simd=True)
    bound = _run_windows_with_registry(arrays, config)
    assert bare.stats() == bound.stats()
    keys = {item for items in windows for item in items}
    assert all(bare.query(k) == bound.query(k) for k in keys)


def test_columnar_path_is_exact(workload):
    """``insert_window`` is bit-for-bit the scalar loop, not approximate."""
    windows, config, trace = workload
    scalar = _run_scalar(windows, config)
    columnar = _run_windows(trace.window_arrays(), config, simd=False)
    assert scalar.stats() == columnar.stats()
    keys = {item for items in windows for item in items}
    assert all(scalar.query(k) == columnar.query(k) for k in keys)


def _canonicalize_bytes(fn, blobs):
    total = 0
    for blob in blobs:
        total ^= fn(blob)
    return total


def test_bytes_canonicalization_v2(benchmark):
    """Chunked v2 bytes hashing vs the per-byte FNV-1a it replaced.

    Times the current ``canonical_key`` bytes path (8-byte chunks) and
    prints the measured delta against the v1 per-byte reference kept in
    ``repro.common.hashing``.
    """
    import time

    from repro.common.hashing import _fnv1a_bytes_v1, canonical_key

    blobs = [f"flow-{i}-{'x' * (i % 40)}".encode() for i in range(4096)]
    checksum = benchmark.pedantic(
        _canonicalize_bytes, args=(canonical_key, blobs),
        rounds=3, iterations=1,
    )
    assert isinstance(checksum, int)
    started = time.perf_counter()
    _canonicalize_bytes(_fnv1a_bytes_v1, blobs)
    v1_seconds = time.perf_counter() - started
    started = time.perf_counter()
    _canonicalize_bytes(canonical_key, blobs)
    v2_seconds = time.perf_counter() - started
    speedup = v1_seconds / max(v2_seconds, 1e-9)
    print(f"\nbytes canonicalization: v1(per-byte)={v1_seconds * 1e3:.2f}ms "
          f"v2(chunked)={v2_seconds * 1e3:.2f}ms ({speedup:.1f}x)")
    assert v2_seconds < v1_seconds  # chunking must beat the per-byte loop
