"""Tests for sketch checkpoint/restore."""

import pytest

from repro.baselines import OnOffSketchV1
from repro.core import (
    HSConfig,
    HypersistentSketch,
    SlidingHypersistentSketch,
    SnapshotError,
    load_sketch,
    save_sketch,
)
from repro.core.simd import make_hypersistent_simd
from repro.streams import zipf_trace
from repro.streams.oracle import exact_persistence


@pytest.fixture
def trace():
    return zipf_trace(6000, 40, seed=19, n_items=800, n_stealthy=2)


def _stream(sketch, trace, start=0, stop=None):
    windows = list(trace.windows())[start:stop]
    for _, items in windows:
        for item in items:
            sketch.insert(item)
        sketch.end_window()


class TestRoundTrip:
    def test_mid_stream_restore_matches_uninterrupted_run(
        self, trace, tmp_path
    ):
        config = HSConfig.for_estimation(16 * 1024, trace.n_windows)
        uninterrupted = HypersistentSketch(config)
        _stream(uninterrupted, trace)

        restarted = HypersistentSketch(config)
        _stream(restarted, trace, stop=20)
        save_sketch(restarted, tmp_path / "ckpt.pkl")
        restored = load_sketch(tmp_path / "ckpt.pkl")
        _stream(restored, trace, start=20)

        truth = exact_persistence(trace)
        for key in truth:
            assert restored.query(key) == uninterrupted.query(key)

    def test_simd_sketch_roundtrip(self, trace, tmp_path):
        config = HSConfig.for_estimation(16 * 1024, trace.n_windows)
        sketch = make_hypersistent_simd(config)
        _stream(sketch, trace, stop=10)
        save_sketch(sketch, tmp_path / "s.pkl")
        restored = load_sketch(tmp_path / "s.pkl")
        assert restored.query(trace.items[0]) == sketch.query(trace.items[0])


class TestPickleGate:
    def test_save_without_state_dict_is_refused(self, tmp_path):
        # baselines have no state contract: refused, nothing written
        with pytest.raises(SnapshotError):
            save_sketch(OnOffSketchV1(4096), tmp_path / "oo.bin")
        assert not (tmp_path / "oo.bin").exists()

    def test_codec_sketches_never_pickle(self, tmp_path):
        sketch = HypersistentSketch(HSConfig.for_estimation(8 * 1024, 10))
        save_sketch(sketch, tmp_path / "hs.bin")
        data = (tmp_path / "hs.bin").read_bytes()
        assert data.startswith(b"RPRCKPT1")
        load_sketch(tmp_path / "hs.bin")


class TestFailureModes:
    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError):
            load_sketch(tmp_path / "absent.pkl")

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "junk.pkl"
        path.write_bytes(b"not a pickle at all")
        with pytest.raises(SnapshotError):
            load_sketch(path)

    @pytest.mark.parametrize(
        "garbage",
        [
            b"not a pickle at all",
            b"\x80\x04\x95\x00",                     # truncated frame opcode
            b"\x80\x04cnonexistent_module\nX\n.",    # unknown module (ImportError)
            b"\x80\x04crepro.core\nNoSuchClass\n.",  # stale attribute path
            b"(lp0\nI1\n",                           # truncated protocol-0 list
            b"\x80\x04\x8c\x04\xff\xfe\xfd\xfc\x94.",  # mangled utf-8 short str
            bytes(range(256)),                       # arbitrary binary noise
        ],
    )
    def test_garbage_bytes_raise_snapshot_error(self, tmp_path, garbage):
        # regression: corrupt or foreign bytes — pickle streams
        # included — must surface as SnapshotError, never be executed
        path = tmp_path / "junk.pkl"
        path.write_bytes(garbage)
        with pytest.raises(SnapshotError):
            load_sketch(path)

    def test_wrong_payload(self, tmp_path):
        import pickle

        path = tmp_path / "other.pkl"
        path.write_bytes(pickle.dumps({"something": "else"}))
        with pytest.raises(SnapshotError):
            load_sketch(path)

    def test_class_guard(self, trace, tmp_path):
        sketch = HypersistentSketch(HSConfig.for_estimation(8 * 1024, 10))
        _stream(sketch, trace, stop=5)
        save_sketch(sketch, tmp_path / "hs.bin")
        with pytest.raises(SnapshotError):
            load_sketch(tmp_path / "hs.bin",
                        expected_class=SlidingHypersistentSketch)

    def test_failed_save_preserves_existing_snapshot(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        sketch = HypersistentSketch(HSConfig.for_estimation(8 * 1024, 10))
        for _ in range(3):
            sketch.insert("x")
            sketch.end_window()
        save_sketch(sketch, path)
        good = path.read_bytes()
        with pytest.raises(SnapshotError):
            save_sketch(object(), path)  # no state contract
        assert path.read_bytes() == good
