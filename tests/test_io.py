"""Unit tests for trace save/load round-trips."""

import numpy as np
import pytest

from repro.common.errors import StreamError
from repro.core import HSConfig, HypersistentSketch
from repro.streams.ingest import trace_from_events
from repro.streams.io import (
    load_trace_csv,
    load_trace_npz,
    save_trace_csv,
    save_trace_npz,
)
from repro.streams.model import Trace
from repro.streams.oracle import exact_persistence


@pytest.fixture
def trace():
    return Trace([3, 1, 4, 1], [0, 0, 1, 2], 3, name="pi",
                 meta={"skew": 1.5})


class TestCsvRoundTrip:
    def test_roundtrip(self, trace, tmp_path):
        path = tmp_path / "t.csv"
        save_trace_csv(trace, path)
        loaded = load_trace_csv(path)
        assert loaded.items == trace.items
        assert loaded.window_ids == trace.window_ids
        assert loaded.n_windows == trace.n_windows
        assert loaded.name == "pi"
        assert loaded.meta == {"skew": 1.5}

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("item,window\n1,0\n")
        with pytest.raises(StreamError):
            load_trace_csv(path)

    def test_wrong_columns_rejected(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text('#meta {"name": "x", "n_windows": 1}\nfoo,bar\n')
        with pytest.raises(StreamError):
            load_trace_csv(path)

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.csv"
        save_trace_csv(Trace([], [], 2, name="e"), path)
        loaded = load_trace_csv(path)
        assert loaded.n_records == 0 and loaded.n_windows == 2


class TestNpzRoundTrip:
    def test_roundtrip(self, trace, tmp_path):
        path = tmp_path / "t.npz"
        save_trace_npz(trace, path)
        loaded = load_trace_npz(path)
        assert loaded.items == trace.items
        assert loaded.window_ids == trace.window_ids
        assert loaded.n_windows == trace.n_windows
        assert loaded.name == "pi"
        assert loaded.meta == {"skew": 1.5}

    def test_large_keys_survive(self, tmp_path):
        t = Trace([(1 << 48) + 7], [0], 1)
        path = tmp_path / "big.npz"
        save_trace_npz(t, path)
        assert load_trace_npz(path).items == [(1 << 48) + 7]

    def test_small_keys_write_the_int64_columns(self, trace, tmp_path):
        path = tmp_path / "t.npz"
        save_trace_npz(trace, path)
        with np.load(path) as data:
            assert data["items"].dtype == np.int64
            assert data["items"].tolist() == [3, 1, 4, 1]
            assert data["window_ids"].dtype == np.int64
            assert data["window_ids"].tolist() == [0, 0, 1, 2]


class TestStringKeyedTraces:
    """Hashed string ids: about half of them are at or above ``2**63``."""

    @pytest.fixture
    def events_trace(self):
        return trace_from_events(
            [("a", 0.0), ("b", 1.0), ("c", 2.0), ("d", 3.0), ("a", 3.0)], 2
        )

    @staticmethod
    def _estimates(trace):
        sketch = HypersistentSketch(HSConfig.for_estimation(4096, 2))
        for keys in trace.window_arrays():
            sketch.insert_window(keys)
        return [sketch.query(item) for item in "abcd"]

    @pytest.mark.parametrize("fmt", ["npz", "csv"])
    def test_round_trip(self, events_trace, tmp_path, fmt):
        assert max(events_trace.items) >= 1 << 63
        path = tmp_path / f"s.{fmt}"
        save, load = {"npz": (save_trace_npz, load_trace_npz),
                      "csv": (save_trace_csv, load_trace_csv)}[fmt]
        save(events_trace, path)
        loaded = load(path)
        assert loaded.items == events_trace.items
        assert list(exact_persistence(loaded).items()) == \
            list(exact_persistence(events_trace).items())
        assert self._estimates(loaded) == self._estimates(events_trace)
        assert self._estimates(loaded)[0] == 2  # "a" is in both windows


class TestDerivedViewsStayOutOfFiles:
    def test_save_after_window_arrays_and_mean(self, trace, tmp_path):
        trace.window_arrays()
        trace.mean_window_distinct()
        save_trace_npz(trace, tmp_path / "t.npz")
        save_trace_csv(trace, tmp_path / "t.csv")
        assert load_trace_npz(tmp_path / "t.npz").meta == {"skew": 1.5}
        assert load_trace_csv(tmp_path / "t.csv").meta == {"skew": 1.5}
