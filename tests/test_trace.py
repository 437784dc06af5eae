"""Flight recorder: ring semantics, cross-engine event parity, spans,
JSONL / Chrome exports, and the per-key ``explain()`` decision audit."""

import json

import numpy as np
import pytest

from repro.core import (
    ENGINES,
    HSConfig,
    HypersistentSketch,
    make_hypersistent_simd,
)
from repro.obs import (
    EVENT_KINDS,
    TraceRecorder,
    WindowProfiler,
    events_to_records,
    to_chrome_trace,
    validate_chrome_trace,
    write_events_jsonl,
)
from repro.obs.events import EXPORT_KEY_CAP, STAGES, WINDOW_ROTATE
from repro.persist import encode_state



def make_windows(n_windows=6, per_window=80, n_items=30, seed=3):
    rng = np.random.default_rng(seed)
    return [rng.integers(1, n_items + 1, size=per_window).astype(np.uint64)
            for _ in range(n_windows)]


def hot_windows(n_windows=140, per_window=60, n_items=500, seed=3):
    """A stream long/skewed enough to exercise every stage: eight keys
    persist in every window (saturating both cold layers and reaching the
    Hot Part), the rest is a uniform tail."""
    rng = np.random.default_rng(seed)
    persistent = np.arange(1, 9, dtype=np.uint64)
    return [np.concatenate([
        persistent,
        rng.integers(9, n_items, size=per_window).astype(np.uint64),
    ]) for _ in range(n_windows)]


def traced_sketch(engine="scalar", n_windows=8, memory_kb=4, seed=7,
                  capacity=1_000_000):
    sketch = make_hypersistent_simd(
        HSConfig.for_estimation(memory_kb * 1024, n_windows, seed=seed),
        engine=engine,
    )
    recorder = TraceRecorder(capacity=capacity).attach(sketch)
    return sketch, recorder


def feed(sketch, windows):
    for keys in windows:
        sketch.insert_window(keys)


def kind_counts(recorder):
    """Occurrences covered per event kind (rotations count as one)."""
    counts = {}
    for ev in recorder.events:
        n = 1 if ev.kind == WINDOW_ROTATE else ev.count
        counts[ev.kind] = counts.get(ev.kind, 0) + n
    return counts


class TestRing:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            TraceRecorder(capacity=0)

    def test_disabled_recorder_records_nothing(self):
        sketch, recorder = traced_sketch("kernel")
        recorder.enabled = False
        feed(sketch, make_windows())
        assert recorder.emitted == 0
        assert len(recorder) == 0
        assert len(recorder.spans) == 0
        assert recorder.dropped == 0

    def test_ring_evicts_oldest_and_counts_dropped(self):
        recorder = TraceRecorder(capacity=4)
        for key in range(10):
            recorder.emit("burst_admit", key)
        assert recorder.emitted == 10
        assert len(recorder) == 4
        assert recorder.dropped == 6
        assert [ev.seq for ev in recorder.events] == [6, 7, 8, 9]

    def test_emit_bulk_skips_empty_and_copies_keys(self):
        recorder = TraceRecorder()
        recorder.emit_bulk("burst_drain", np.array([], dtype=np.uint64))
        assert recorder.emitted == 0
        keys = np.array([1, 2, 3], dtype=np.uint64)
        recorder.emit_bulk("burst_drain", keys)
        keys[0] = 99  # later in-place kernel mutation
        assert recorder.events[0].keys[0] == 1

    def test_attach_requires_wire_trace_hook(self):
        with pytest.raises(TypeError):
            TraceRecorder().attach(object())

    def test_detach_restores_stage_trace_slots(self):
        sketch, recorder = traced_sketch("scalar")
        assert sketch.trace is recorder
        assert sketch.cold.trace is recorder
        recorder.detach(sketch)
        assert sketch.trace is None
        assert sketch.cold.trace is None
        assert sketch.hot.trace is None

    def test_clear_drops_events_but_keeps_counters(self):
        sketch, recorder = traced_sketch("scalar")
        feed(sketch, make_windows(n_windows=2))
        emitted = recorder.emitted
        assert emitted > 0
        recorder.clear()
        assert len(recorder) == 0 and len(recorder.spans) == 0
        assert recorder.emitted == emitted


class TestEngineEvents:
    def test_all_engines_emit_identical_decision_multisets(self):
        windows = hot_windows()
        counts = {}
        for engine in ENGINES:
            sketch, recorder = traced_sketch(
                engine, n_windows=len(windows), memory_kb=2)
            feed(sketch, windows)
            counts[engine] = kind_counts(recorder)
        assert counts["scalar"] == counts["kernel"]
        # the workload genuinely exercises every pipeline stage
        seen = set(counts["scalar"])
        for kind in ("burst_admit", "burst_drain", "cold_l1_accept",
                     "cold_escalate", "cold_overflow", "hot_hit",
                     "hot_insert", WINDOW_ROTATE):
            assert kind in seen
        assert seen <= set(EVENT_KINDS)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_rotation_per_window_and_window_counter(self, engine):
        windows = make_windows()
        sketch, recorder = traced_sketch(engine, n_windows=len(windows))
        feed(sketch, windows)
        rotations = [ev for ev in recorder.events
                     if ev.kind == WINDOW_ROTATE]
        assert len(rotations) == len(windows)
        assert recorder.window == len(windows) == sketch.window
        # the rotation event is tagged with the window that just closed
        assert [ev.window for ev in rotations] == list(range(len(windows)))

    def test_events_for_returns_key_events_plus_rotations(self):
        sketch, recorder = traced_sketch("kernel")
        feed(sketch, make_windows())
        key = int(make_windows()[0][0])
        selected = recorder.events_for(key)
        assert selected, "the first key of window 0 must have events"
        for ev in selected:
            assert ev.kind == WINDOW_ROTATE or ev.involves(key)
        # a key never streamed still sees the rotations, nothing else
        only_rotations = recorder.events_for(10**9)
        assert all(ev.kind == WINDOW_ROTATE for ev in only_rotations)


class TestSpans:
    def test_kernel_lays_per_stage_spans(self):
        windows = make_windows()
        sketch, recorder = traced_sketch("kernel", n_windows=len(windows))
        feed(sketch, windows)
        per_window = len(STAGES) + 1  # stages + window span
        assert len(recorder.spans) == per_window * len(windows)
        names = {span.name for span in recorder.spans}
        assert names == set(STAGES) | {"window"}
        # stage spans tile the window span back-to-back
        first = [s for s in recorder.spans if s.window == 0]
        window_span = next(s for s in first if s.name == "window")
        stage_total = sum(s.dur for s in first if s.name != "window")
        assert window_span.dur == pytest.approx(stage_total)

    def test_stage_spans_sum_to_stage_seconds(self):
        # spans and stage_seconds come from the same clock reads
        windows = make_windows()
        sketch, recorder = traced_sketch("kernel", n_windows=len(windows))
        feed(sketch, windows)
        for stage in STAGES:
            spent = sum(s.dur for s in recorder.spans if s.name == stage)
            assert spent == pytest.approx(sketch.stage_seconds[stage],
                                          rel=1e-12, abs=0.0)
            assert spent > 0

    def test_scalar_records_no_spans(self):
        sketch, recorder = traced_sketch("scalar")
        feed(sketch, make_windows())
        assert len(recorder.spans) == 0
        assert len(recorder) > 0  # but events still flow


class TestExports:
    def test_jsonl_round_trip(self, tmp_path):
        sketch, recorder = traced_sketch("kernel")
        feed(sketch, make_windows())
        path = tmp_path / "events.jsonl"
        written = write_events_jsonl(recorder, path)
        lines = path.read_text().splitlines()
        assert written == len(lines) == len(recorder)
        records = [json.loads(line) for line in lines]
        assert records == events_to_records(recorder)
        for record in records:
            assert {"seq", "window", "kind", "stage", "count",
                    "ts"} <= set(record)
            assert record["kind"] in EVENT_KINDS

    def test_bulk_key_listing_is_capped_but_count_exact(self):
        recorder = TraceRecorder()
        keys = np.arange(1, 100, dtype=np.uint64)
        recorder.emit_bulk("burst_drain", keys)
        record = recorder.events[0].to_record()
        assert len(record["keys"]) == EXPORT_KEY_CAP
        assert record["n_keys"] == record["count"] == 99

    @pytest.mark.parametrize("engine", ENGINES)
    def test_chrome_trace_validates_after_json_round_trip(self, engine):
        windows = make_windows()
        sketch, recorder = traced_sketch(engine, n_windows=len(windows))
        feed(sketch, windows)
        payload = json.loads(json.dumps(to_chrome_trace(recorder)))
        assert validate_chrome_trace(payload) == []
        assert payload["displayTimeUnit"] == "ms"
        assert len(payload["traceEvents"]) == (
            len(recorder) + len(recorder.spans))

    def test_validator_rejects_malformed_payloads(self):
        assert validate_chrome_trace([]) == [
            "top level must be a JSON object"]
        assert validate_chrome_trace({}) == ["traceEvents must be a list"]
        bad = {"traceEvents": [
            "not-a-dict",
            {"name": "burst_admit", "ph": "B", "ts": 0.0,
             "pid": 1, "tid": 1},
            {"name": "window", "ph": "X", "ts": -5.0, "pid": 1, "tid": 1},
            {"name": "made_up_kind", "ph": "i", "ts": 0.0, "pid": 1,
             "tid": 1, "cat": "event"},
        ]}
        problems = validate_chrome_trace(bad)
        assert any("not an object" in p for p in problems)
        assert any("unexpected phase" in p for p in problems)
        assert any("missing dur" in p for p in problems)
        assert any("negative ts" in p for p in problems)
        assert any("unknown event kind" in p for p in problems)


class TestExplain:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_explain_matches_query_and_stage(self, engine):
        windows = hot_windows(n_windows=130)
        sketch, recorder = traced_sketch(
            engine, n_windows=len(windows), memory_kb=2)
        feed(sketch, windows)
        for key in (1, 5, 20, 123, 10**9):
            explanation = sketch.explain(key)
            assert explanation.estimate == sketch.query(key)
            assert explanation.stage == sketch.resolving_stage(key)
            assert sum(explanation.decomposition().values()) == \
                explanation.estimate

    def test_explain_is_counter_neutral(self):
        sketch, recorder = traced_sketch("scalar")
        feed(sketch, make_windows())
        before = encode_state(sketch.state_dict())
        for key in (1, 7, 999):
            sketch.explain(key)
        assert encode_state(sketch.state_dict()) == before

    def test_mid_window_pending_burst_counts_once(self):
        sketch, recorder = traced_sketch("scalar")
        sketch.insert(42)  # window still open
        explanation = sketch.explain(42)
        assert explanation.pending_burst == 1
        assert explanation.estimate == sketch.query(42)
        assert "pending this window" in explanation.narrative()

    def test_narrative_renders_decomposition_and_events(self):
        sketch, recorder = traced_sketch("kernel")
        feed(sketch, make_windows())
        text = sketch.explain(1).narrative()
        assert "query :" in text
        assert "(burst) +" in text and "(cold) +" in text
        assert "recorded decision(s)" in text
        assert str(sketch.explain(1)) == text

    def test_explain_without_recorder_reports_no_events(self):
        sketch = HypersistentSketch(
            HSConfig.for_estimation(4 * 1024, 8, seed=7))
        sketch.insert_window(make_windows()[0])
        assert "none recorded" in sketch.explain(1).narrative()


class TestInterop:
    def test_profiler_and_recorder_read_one_clock(self):
        # both read the kernel's stage clock: each window record's stage
        # seconds are that window's span durations
        sketch = make_hypersistent_simd(
            HSConfig.for_estimation(4 * 1024, 8, seed=7), engine="kernel")
        profiler = WindowProfiler().attach(sketch)
        recorder = TraceRecorder().attach(sketch)
        for keys in make_windows(n_windows=3):
            sketch.insert_window(keys)
            profiler.window_closed()
        assert recorder.emitted > 0
        assert len(profiler.records) == 3
        for record in profiler.records:
            spans = {s.name: s.dur for s in recorder.spans
                     if s.window == record["window"] - 1}
            for stage in STAGES:
                assert record[f"{stage}_seconds"] > 0
                assert record[f"{stage}_seconds"] == pytest.approx(
                    spans[stage], rel=1e-9)
            assert record["seconds"] == pytest.approx(spans["window"],
                                                      rel=1e-9)

    def test_from_state_restores_with_trace_detached(self):
        sketch, recorder = traced_sketch("scalar")
        feed(sketch, make_windows(n_windows=2))
        clone = HypersistentSketch.from_state(sketch.state_dict())
        assert clone.trace is None
        assert clone.cold.trace is None and clone.hot.trace is None
        assert clone.query(1) == sketch.query(1)
