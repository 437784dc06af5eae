"""Unit tests for repro.streams.model."""

import pickle

import numpy as np
import pytest

from repro.common.errors import StreamError
from repro.common.hashing import canonical_key
from repro.streams.model import Trace, merge_traces, trace_from_timestamps


class TestTraceValidation:
    def test_length_mismatch(self):
        with pytest.raises(StreamError):
            Trace([1, 2], [0], 1)

    def test_decreasing_window_ids(self):
        with pytest.raises(StreamError):
            Trace([1, 2], [1, 0], 2)

    def test_window_id_out_of_range(self):
        with pytest.raises(StreamError):
            Trace([1], [3], 3)

    def test_zero_windows_rejected(self):
        with pytest.raises(StreamError):
            Trace([], [], 0)

    def test_empty_trace_ok(self):
        t = Trace([], [], 5)
        assert t.n_records == 0 and t.n_windows == 5

    def test_negative_first_window_id_rejected(self):
        with pytest.raises(StreamError):
            Trace([1, 2], [-1, 0], 2)

    def test_negative_keys_wrap_like_canonical_key(self):
        t = Trace([-1, 5], [0, 0], 1)
        assert t.items == [canonical_key(-1), 5] == [(1 << 64) - 1, 5]

    def test_string_keys_are_canonicalized(self):
        t = Trace(["a", b"b", 7], [0, 0, 0], 1)
        assert t.items == [canonical_key("a"), canonical_key(b"b"), 7]
        # all-numeric strings are strings, not integers
        assert Trace(["7"], [0], 1).items == [canonical_key("7")]

    def test_keys_canonical_key_refuses_are_rejected(self):
        for bad in ([1.5], [None], np.array([2.0])):
            with pytest.raises(StreamError):
                Trace(bad, [0], 1)


class TestColumns:
    def test_columns_and_window_views_are_read_only(self):
        t = Trace([1, 2, 3], [0, 0, 1], 2)
        with pytest.raises(ValueError):
            t.window_arrays()[0][0] = 9
        with pytest.raises(ValueError):
            t.key_column[0] = 9
        with pytest.raises(ValueError):
            t.window_column[0] = 1

    def test_int64_arrays_are_adopted_without_a_copy(self):
        keys = np.array([5, 6, 7], dtype=np.int64)
        wids = np.array([0, 1, 1], dtype=np.int64)
        t = Trace(keys, wids, 2)
        assert t.key_column.dtype == np.uint64
        assert np.shares_memory(t.key_column, keys)
        assert np.shares_memory(t.window_column, wids)
        assert keys.flags.writeable  # the caller's array keeps its flags

    def test_list_views_hold_python_ints(self, tiny_trace):
        assert all(type(k) is int for k in tiny_trace.items)
        assert all(type(w) is int for w in tiny_trace.window_ids)
        assert all(type(k) is int and type(w) is int
                   for k, w in tiny_trace.records())

    def test_window_arrays_slice_one_column(self, tiny_trace):
        arrays = tiny_trace.window_arrays()
        assert [a.tolist() for a in arrays] == \
            [items for _, items in tiny_trace.windows()]
        assert all(a.base is not None for a in arrays)

    def test_pickle_round_trip_stays_read_only(self, tiny_trace):
        copy = pickle.loads(pickle.dumps(tiny_trace))
        assert copy.items == tiny_trace.items
        assert copy.window_ids == tiny_trace.window_ids
        assert (copy.name, copy.n_windows) == ("tiny", 4)
        assert not copy.key_column.flags.writeable


class TestTraceAccessors:
    def test_counts(self, tiny_trace):
        assert tiny_trace.n_records == 8
        assert tiny_trace.n_distinct == 3
        assert len(tiny_trace) == 8

    def test_records_order(self, tiny_trace):
        assert list(tiny_trace.records())[0] == (1, 0)

    def test_windows_includes_empty(self):
        t = Trace([7], [2], 4)
        windows = dict(t.windows())
        assert windows == {0: [], 1: [], 2: [7], 3: []}

    def test_windows_partition_covers_all_records(self, tiny_trace):
        total = sum(len(items) for _, items in tiny_trace.windows())
        assert total == tiny_trace.n_records

    def test_describe(self, tiny_trace):
        d = tiny_trace.describe()
        assert d["records"] == 8 and d["windows"] == 4


class TestSliceAndRewindow:
    def test_slice_windows(self, tiny_trace):
        sub = tiny_trace.slice_windows(1, 3)
        assert sub.n_windows == 2
        assert list(sub.records()) == [(1, 0), (2, 0), (3, 0), (1, 1)]

    def test_slice_invalid(self, tiny_trace):
        with pytest.raises(StreamError):
            tiny_trace.slice_windows(2, 2)

    def test_rewindow_count(self, tiny_trace):
        re = tiny_trace.rewindowed(2)
        assert re.n_windows == 2
        assert re.n_records == tiny_trace.n_records

    def test_rewindow_preserves_item_sequence(self, tiny_trace):
        re = tiny_trace.rewindowed(8)
        assert re.items == tiny_trace.items

    def test_rewindow_monotone(self, tiny_trace):
        re = tiny_trace.rewindowed(3)
        assert re.window_ids == sorted(re.window_ids)

    def test_rewindow_empty(self):
        t = Trace([], [], 4)
        assert t.rewindowed(2).n_windows == 2

    def test_rewindow_validation(self, tiny_trace):
        with pytest.raises(StreamError):
            tiny_trace.rewindowed(0)


class TestMergeTraces:
    def test_merge_same_axis(self):
        a = Trace([1, 1], [0, 2], 3, name="a")
        b = Trace([2], [1], 3, name="b")
        merged = merge_traces(a, b)
        assert merged.n_records == 3
        assert merged.window_ids == [0, 1, 2]
        assert merged.n_windows == 3

    def test_merge_rejects_mismatched_windows(self):
        a = Trace([1], [0], 2)
        b = Trace([2], [0], 3)
        with pytest.raises(StreamError):
            merge_traces(a, b)

    def test_merge_name(self):
        a = Trace([1], [0], 1, name="x")
        b = Trace([2], [0], 1, name="y")
        assert merge_traces(a, b).name == "x+y"
        assert merge_traces(a, b, name="z").name == "z"

    def test_merge_combines_meta(self):
        a = Trace([1], [0], 1, meta={"p": 1})
        b = Trace([2], [0], 1, meta={"q": 2})
        merged = merge_traces(a, b)
        assert merged.meta["p"] == 1 and merged.meta["q"] == 2

    def test_merge_after_derived_views_keeps_every_record(self):
        a = Trace([1, 1], [0, 1], 2)
        b = Trace([2], [1], 2)
        a.window_arrays()
        b.mean_window_distinct()
        merged = merge_traces(a, b)
        assert [w.tolist() for w in merged.window_arrays()] == [[1], [1, 2]]
        assert merged.mean_window_distinct() == 1.5
        assert merged.meta == {}

    def test_merge_order_within_window_follows_arguments(self):
        a = Trace([1, 2], [0, 1], 2)
        b = Trace([3, 4], [0, 1], 2)
        assert merge_traces(b, a).items == [3, 1, 4, 2]


class TestTraceFromTimestamps:
    def test_even_partition(self):
        t = trace_from_timestamps([1, 2, 3, 4], [0.0, 1.0, 2.0, 3.0], 2)
        assert t.window_ids == [0, 0, 1, 1]

    def test_last_record_in_last_window(self):
        t = trace_from_timestamps([1, 2], [0.0, 10.0], 5)
        assert t.window_ids[-1] == 4

    def test_constant_time_collapses_to_first_window(self):
        t = trace_from_timestamps([1, 2, 3], [5.0, 5.0, 5.0], 4)
        assert t.window_ids == [0, 0, 0]

    def test_non_monotone_rejected(self):
        with pytest.raises(StreamError):
            trace_from_timestamps([1, 2], [1.0, 0.5], 2)

    def test_length_mismatch(self):
        with pytest.raises(StreamError):
            trace_from_timestamps([1], [1.0, 2.0], 2)

    def test_empty(self):
        t = trace_from_timestamps([], [], 3)
        assert t.n_records == 0
