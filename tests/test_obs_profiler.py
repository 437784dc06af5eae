"""Profiler semantics: stage-clock deltas, window records, parity."""

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
from repro.obs.events import STAGES
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


def feed_windows(sketch, n_windows=4, per_window=120):
    """``feed``'s stream, one kernel ``insert_window`` per window."""
    for w in range(n_windows):
        sketch.insert_window(
            [f"item-{(i * (w + 1)) % 37}" for i in range(per_window)])


class TestAttachDetach:
    def test_attach_keeps_stage_objects(self):
        # the profiler reads the sketch's stage clock; it wraps nothing
        sketch = small_sketch()
        originals = (sketch.burst, sketch.cold, sketch.hot)
        profiler = WindowProfiler().attach(sketch)
        stages = (sketch.burst, sketch.cold, sketch.hot)
        assert all(a is b for a, b in zip(stages, originals))
        profiler.detach()
        assert not profiler.attached
        stages = (sketch.burst, sketch.cold, sketch.hot)
        assert all(a is b for a, b in zip(stages, originals))

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
            for stage in STAGES:
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
        sketch.insert_window([f"k{i}" for i in range(30)])
        record = profiler.window_closed(None)
        assert record["seconds"] > 0
        assert record["seconds"] == pytest.approx(
            sum(record[f"{s}_seconds"] for s in STAGES)
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
        feed_windows(sketch, n_windows=3)
        profiler.window_closed(0.01)
        report = profiler.report()
        for token in STAGES + ("stage-latency", "share"):
            assert token in report
        assert "not clocked" not in report

    def test_report_says_per_record_stages_not_clocked(self):
        # the per-record oracle loop reads no stage clock: one line, no
        # rows of zeros
        sketch = small_sketch()
        profiler = WindowProfiler().attach(sketch)
        feed(sketch, n_windows=3)
        profiler.window_closed(0.01)
        report = profiler.report()
        assert "stages not clocked" in report
        assert "share" not in report
        assert all(not line.startswith(STAGES)
                   for line in report.splitlines())

    def test_profile_shares_sum_to_one(self):
        sketch = small_sketch()
        profiler = WindowProfiler().attach(sketch)
        feed_windows(sketch, n_windows=2)
        profiler.window_closed(1.0)
        summary = profiler.profile()
        assert set(summary["stage_seconds"]) == set(STAGES)
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
            assert result.profile["seconds"] > 0
            # only the kernel window path is stage-clocked; the
            # per-record loop is the oracle and reads no stage clock
            stage_seconds = result.profile["stage_seconds"]
            assert [stage_seconds[s] > 0 for s in STAGES] == \
                [batched] * len(STAGES)

    @pytest.mark.parametrize("build", [HypersistentSketch,
                                       make_hypersistent_simd],
                             ids=["plain", "simd"])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_profiled_run_matches_unprofiled(self, engine, build):
        # a profiled run counts exactly what an unprofiled one does, on
        # both engines and both burst builds
        trace = zipf_trace(2000, 10, seed=11, n_items=200)
        config = HSConfig.for_estimation(8 * 1024, 10, seed=3)
        plain = run_stream(build(config), trace, engine=engine)
        profiled = run_stream(build(config), trace, engine=engine,
                              profiler=WindowProfiler())
        assert plain.stats == profiled.stats
        stage_seconds = profiled.profile["stage_seconds"]
        if engine == "kernel":
            # every stage's time is observed, burst and end included
            for stage in STAGES:
                assert stage_seconds[stage] > 0, stage
        else:
            # the scalar engine is the oracle and reads no stage clock
            assert all(v == 0 for v in stage_seconds.values())
            assert profiled.profile["seconds"] > 0


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
