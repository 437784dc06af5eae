"""Profiler semantics: stage timing proxies, window records, parity."""

import pytest

from repro.core import (
    ENGINES,
    HSConfig,
    HypersistentSketch,
    make_hypersistent_simd,
)
from repro.experiments.harness import run_stream
from repro.obs import (
    MetricsRegistry,
    WindowProfiler,
    legacy_sketch_stats,
    read_jsonl,
    sketch_metrics,
)
from repro.obs.catalog import LEGACY_SKETCH_KEYS
from repro.streams import zipf_trace


def small_sketch(seed=5):
    return HypersistentSketch(
        HSConfig.for_estimation(4 * 1024, 10, seed=seed)
    )


def feed(sketch, n_windows=4, per_window=120):
    for w in range(n_windows):
        for i in range(per_window):
            sketch.insert(f"item-{(i * (w + 1)) % 37}")
        sketch.end_window()


class TestAttachDetach:
    def test_attach_swaps_and_detach_restores_stages(self):
        sketch = small_sketch()
        originals = (sketch.burst, sketch.cold, sketch.hot)
        profiler = WindowProfiler().attach(sketch)
        assert sketch.cold is not originals[1]
        assert sketch.cold.delta1 == originals[1].delta1  # delegation
        profiler.detach()
        assert (sketch.burst, sketch.cold, sketch.hot) == originals

    def test_double_attach_rejected(self):
        profiler = WindowProfiler().attach(small_sketch())
        with pytest.raises(RuntimeError):
            profiler.attach(small_sketch())

    def test_non_hypersistent_sketch_rejected(self):
        from repro.baselines import CMPersistenceSketch

        with pytest.raises(RuntimeError):
            WindowProfiler().attach(CMPersistenceSketch(4 * 1024))

    def test_profiling_does_not_change_results(self):
        plain, profiled = small_sketch(), small_sketch()
        feed(plain)
        profiler = WindowProfiler().attach(profiled)
        feed(profiled)
        profiler.detach()
        assert plain.stats() == profiled.stats()
        assert all(
            plain.query(f"item-{i}") == profiled.query(f"item-{i}")
            for i in range(37)
        )


class TestWindowRecords:
    def test_one_record_per_window_with_deltas(self):
        sketch = small_sketch()
        profiler = WindowProfiler().attach(sketch)
        for w in range(3):
            for i in range(50):
                sketch.insert(f"k{i % 11}")
            sketch.end_window()
            profiler.window_closed(0.01)
        assert len(profiler.records) == 3
        for w, record in enumerate(profiler.records):
            assert record["window"] == w + 1
            assert record["hs_inserts_total"] == 50  # per-window delta
            assert record["hs_windows_total"] == 1
            for stage in ("burst", "cold", "hot"):
                assert f"{stage}_seconds" in record

    def test_counter_deltas_sum_to_totals(self):
        sketch = small_sketch()
        profiler = WindowProfiler().attach(sketch)
        for w in range(4):
            for i in range(80):
                sketch.insert(f"k{(i + w) % 23}")
            sketch.end_window()
            profiler.window_closed(0.0)
        totals = sketch_metrics(sketch)
        for name in ("hs_inserts_total", "hs_hash_ops_total",
                     "hs_cold_l1_hits_total", "hs_burst_absorbed_total"):
            assert sum(r[name] for r in profiler.records) == totals[name]

    def test_requires_attachment(self):
        with pytest.raises(RuntimeError):
            WindowProfiler().window_closed(0.0)

    def test_none_seconds_falls_back_to_stage_time(self):
        sketch = small_sketch()
        profiler = WindowProfiler().attach(sketch)
        for i in range(30):
            sketch.insert(f"k{i}")
        sketch.end_window()
        record = profiler.window_closed(None)
        assert record["seconds"] == pytest.approx(
            sum(record[f"{s}_seconds"] for s in ("burst", "cold", "hot"))
        )

    def test_sink_streams_jsonl(self, tmp_path):
        sink = tmp_path / "run.jsonl"
        sketch = small_sketch()
        profiler = WindowProfiler(sink=sink).attach(sketch)
        for w in range(2):
            sketch.insert("x")
            sketch.end_window()
            profiler.window_closed(0.001)
        assert read_jsonl(sink) == profiler.records

    def test_registry_histograms_observe_latencies(self):
        registry = MetricsRegistry()
        sketch = small_sketch()
        profiler = WindowProfiler(registry=registry).attach(sketch)
        sketch.insert("x")
        sketch.end_window()
        profiler.window_closed(0.002)
        hist = registry.get("hs_window_seconds")
        assert hist.total == 1
        assert hist.sum == pytest.approx(0.002)
        stage_hist = registry.get("hs_stage_seconds", {"stage": "cold"})
        assert stage_hist.total == 1


class TestProfileSummary:
    def test_report_names_every_stage(self):
        sketch = small_sketch()
        profiler = WindowProfiler().attach(sketch)
        feed(sketch, n_windows=3)
        for _ in range(3):
            pass
        profiler.window_closed(0.01)
        report = profiler.report()
        for token in ("burst", "cold", "hot", "stage-latency", "share"):
            assert token in report

    def test_profile_shares_sum_to_one(self):
        sketch = small_sketch()
        profiler = WindowProfiler().attach(sketch)
        feed(sketch, n_windows=2)
        profiler.window_closed(1.0)
        summary = profiler.profile()
        assert sum(summary["stage_share"].values()) == pytest.approx(1.0)
        assert summary["windows"] == 1


class TestHarnessIntegration:
    def test_run_stream_profiles_scalar_and_batch_paths(self):
        trace = zipf_trace(3000, 12, seed=7, n_items=300)
        for batched in (False, True):
            sketch = make_hypersistent_simd(
                HSConfig.for_estimation(8 * 1024, 12, seed=3)
            )
            profiler = WindowProfiler()
            result = run_stream(sketch, trace, batched=batched,
                                profiler=profiler)
            assert result.profile is not None
            assert result.profile["windows"] == trace.n_windows
            assert len(profiler.records) == trace.n_windows
            assert not profiler.attached  # harness detaches afterwards
            # stage time must have been observed on both ingest paths
            assert result.profile["stage_seconds"]["cold"] > 0

    @pytest.mark.parametrize("build", [HypersistentSketch,
                                       make_hypersistent_simd],
                             ids=["plain", "simd"])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_profiled_run_matches_unprofiled(self, engine, build):
        # the timing proxies must let every stage counter update reach the
        # real stage, on both engines and both burst builds
        trace = zipf_trace(2000, 10, seed=11, n_items=200)
        config = HSConfig.for_estimation(8 * 1024, 10, seed=3)
        plain = run_stream(build(config), trace, engine=engine)
        profiled = run_stream(build(config), trace, engine=engine,
                              profiler=WindowProfiler())
        assert plain.stats == profiled.stats
        # every stage's time is observed, burst included on the kernel path
        for stage in ("burst", "cold", "hot"):
            assert profiled.profile["stage_seconds"][stage] > 0, stage


class TestLegacyParity:
    def test_stats_is_exact_catalog_view(self):
        sketch = small_sketch()
        feed(sketch)
        stats = sketch.stats()
        assert stats == legacy_sketch_stats(sketch)
        metrics = sketch_metrics(sketch)
        for legacy_key, canonical in LEGACY_SKETCH_KEYS.items():
            assert stats[legacy_key] == metrics[canonical]

    def test_burstless_sketch_omits_burst_keys(self):
        config = HSConfig(memory_bytes=4 * 1024, burst_bytes=0, seed=5)
        sketch = HypersistentSketch(config)
        assert sketch.burst is None
        feed(sketch, n_windows=2)
        stats = sketch.stats()
        assert "burst_absorbed" not in stats
        assert stats["inserts"] == 240
