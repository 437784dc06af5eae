"""Data-stream model: timestamped traces divided into windows.

The paper's model (Section II-A): a stream ``S = {(e_i, t_i)}`` with
monotonically increasing times, evenly divided into ``w`` windows.  For the
library we precompute each record's window id once (``Trace``), because every
sketch and the oracle consume the same windowed view.  A trace is columnar:
one canonical ``uint64`` key column and one ``int64`` window-id column, both
read-only, so the batch path slices them without a Python-list round trip.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..common.errors import StreamError
from ..common.hashing import canonical_key


def _key_column(items) -> np.ndarray:
    """``items`` as canonical ``uint64`` keys (a view of an ``int64`` or
    ``uint64`` array).  Integers wrap to 64 bits as :func:`canonical_key`
    masks them; strings and bytes are hashed; other types are refused.
    The dtype numpy infers decides the path, so numeric strings and floats
    are never coerced to integers."""
    column = np.asarray(items)
    if column.dtype == np.int64:
        return column.view(np.uint64)
    if column.dtype.kind in "iu" or not column.size:
        return column.astype(np.uint64, copy=False)
    try:  # strings, bytes, mixed types or ints numpy cannot hold
        return np.array([canonical_key(item) for item in items],
                        dtype=np.uint64)
    except TypeError as exc:
        raise StreamError(str(exc)) from None


class Trace:
    """A windowed data stream stored as two read-only columns.

    ``key_column[i]`` is the canonical ``uint64`` item key of the i-th
    record and ``window_column[i]`` the zero-based window it falls into.
    Window ids must be non-decreasing (times are monotone in the stream
    model).  ``items`` and ``window_ids`` may be lists or arrays; an
    ``int64``/``uint64`` array is adopted without a copy.

    >>> trace = Trace([3, 1, 3, 2], [0, 0, 1, 1], 2, name="tiny")
    >>> [keys.dtype.name for keys in trace.window_arrays()]
    ['uint64', 'uint64']
    >>> trace.window_arrays()[1].tolist()
    [3, 2]
    >>> trace.items, type(trace.items[0])
    ([3, 1, 3, 2], <class 'int'>)
    """

    def __init__(self, items, window_ids, n_windows: int,
                 name: str = "trace", meta: Optional[dict] = None) -> None:
        keys = _key_column(items)
        wids = np.asarray(window_ids, dtype=np.int64)
        if keys.shape != wids.shape or keys.ndim != 1:
            raise StreamError("items and window_ids must have equal length")
        if n_windows < 1:
            raise StreamError("a trace needs at least one window")
        if len(wids):
            if wids[0] < 0 or (wids[1:] < wids[:-1]).any():
                raise StreamError("window ids must be non-decreasing")
            if wids[-1] >= n_windows:
                raise StreamError(
                    f"window id {wids[-1]} out of range for "
                    f"n_windows={n_windows}"
                )
        self.key_column, self.window_column = keys.view(), wids.view()
        self.key_column.flags.writeable = False
        self.window_column.flags.writeable = False
        self.n_windows = int(n_windows)
        self.name = name
        self.meta = {} if meta is None else meta

    def __reduce__(self):
        return (Trace, (self.key_column, self.window_column, self.n_windows,
                        self.name, self.meta))

    def __len__(self) -> int:
        return len(self.key_column)

    @property
    def items(self) -> List[int]:
        """The key column as a list of Python ints (one copy per access)."""
        return self.key_column.tolist()

    @property
    def window_ids(self) -> List[int]:
        """The window-id column as a list of Python ints."""
        return self.window_column.tolist()

    @property
    def n_records(self) -> int:
        """Number of records in the trace."""
        return len(self.key_column)

    @property
    def n_distinct(self) -> int:
        """Number of distinct items in the trace."""
        return len(np.unique(self.key_column))

    def records(self) -> Iterator[Tuple[int, int]]:
        """Iterate ``(item, window_id)`` pairs in stream order."""
        return zip(self.items, self.window_ids)

    def _bounds(self) -> List[int]:
        """Record offsets of windows ``0..n_windows``."""
        return np.searchsorted(
            self.window_column, np.arange(self.n_windows + 1), side="left"
        ).tolist()

    def windows(self) -> Iterator[Tuple[int, List[int]]]:
        """Iterate ``(window_id, items_in_window)`` including empty windows."""
        items = self.items
        bounds = self._bounds()
        for wid in range(self.n_windows):
            yield wid, items[bounds[wid]:bounds[wid + 1]]

    def window_arrays(self) -> List[np.ndarray]:
        """Columnar per-window views: one ``uint64`` key array per window.

        The batch-ingestion counterpart of :meth:`windows` — empty windows
        yield empty arrays, record order is preserved, and the arrays are
        read-only slices of the key column.  Feed them to
        ``insert_window`` / ``run_stream``.
        """
        keys = self.key_column
        bounds = self._bounds()
        return [keys[bounds[w]:bounds[w + 1]] for w in range(self.n_windows)]

    def distinct_keys(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each distinct key in first-appearance order, with its record
        count and its persistence.  A stable argsort groups each key's
        records in stream order, so each change of window id in a group
        starts one more window."""
        keys = self.key_column
        if not len(keys):
            empty = np.zeros(0, dtype=np.int64)
            return keys, empty, empty
        order = np.argsort(keys, kind="stable")
        grouped = keys[order]
        new_key = np.ones(len(keys), dtype=bool)
        np.not_equal(grouped[1:], grouped[:-1], out=new_key[1:])
        wids = self.window_column[order]
        new_window = new_key.copy()
        new_window[1:] |= wids[1:] != wids[:-1]
        starts = np.flatnonzero(new_key)
        records = np.diff(np.append(starts, len(keys)))
        windows = np.add.reduceat(new_window, starts, dtype=np.int64)
        first_seen = np.argsort(order[starts])
        return (grouped[starts][first_seen], records[first_seen],
                windows[first_seen])

    def slice_windows(self, first: int, last: int) -> "Trace":
        """Sub-trace covering windows ``[first, last)``, re-zeroed."""
        if not 0 <= first < last <= self.n_windows:
            raise StreamError("invalid window slice")
        lo, hi = np.searchsorted(self.window_column, [first, last])
        return Trace(self.key_column[lo:hi], self.window_column[lo:hi] - first,
                     last - first, name=f"{self.name}[{first}:{last}]",
                     meta=dict(self.meta))

    def filter_items(self, keep, name: str = "") -> "Trace":
        """Sub-trace holding only the records of the ``keep`` item keys.

        Window count and numbering are preserved (dropped records simply
        vanish from their windows), so per-item persistence of the kept
        items is unchanged — the property fuzz-case shrinking relies on
        when it minimizes a failing trace key by key.
        """
        mask = np.isin(self.key_column, _key_column(list(keep)))
        return Trace(self.key_column[mask], self.window_column[mask],
                     self.n_windows, name=name or f"{self.name}/filtered",
                     meta=dict(self.meta))

    def rewindowed(self, n_windows: int) -> "Trace":
        """The same record sequence re-divided into ``n_windows`` windows.

        Mirrors the paper's window-count sweep (figures 11/14): the stream is
        fixed and the time range is re-partitioned evenly.  We partition by
        record position, which is equivalent for traces whose arrivals are
        uniform in time (all generators in :mod:`repro.streams.synthetic`).
        """
        if n_windows < 1:
            raise StreamError("n_windows must be >= 1")
        return Trace(self.key_column, even_window_ids(len(self), n_windows),
                     n_windows, name=f"{self.name}/w{n_windows}",
                     meta=dict(self.meta))

    def mean_window_distinct(self) -> float:
        """Average number of distinct items per window.

        This is the Burst Filter's working-set size: the structure must
        hold roughly this many IDs to absorb within-window repeats.
        """
        return int(self.distinct_keys()[2].sum()) / self.n_windows

    def describe(self) -> dict:
        """Summary statistics (used by dataset docs and tests)."""
        return {
            "name": self.name,
            "records": self.n_records,
            "distinct": self.n_distinct,
            "windows": self.n_windows,
        }


def even_window_ids(n_records: int, n_windows: int) -> np.ndarray:
    """Window ids that divide ``n_records`` positions evenly into
    ``n_windows`` windows: record ``i`` falls in ``i * n_windows //
    n_records`` (the last window absorbs the rounding)."""
    wids = np.arange(n_records, dtype=np.int64) * n_windows
    return np.minimum(wids // max(n_records, 1), n_windows - 1)


def merge_traces(first: "Trace", *others: "Trace", name: str = "") -> "Trace":
    """Interleave traces over the same window axis into one stream.

    Used to overlay populations (e.g. a Zipf background plus a planted
    persistence-banded population).  All traces must agree on ``n_windows``;
    records are merged in window order (order within a window follows the
    argument order, which no sketch here is sensitive to).
    """
    traces = (first,) + others
    n_windows = first.n_windows
    for t in others:
        if t.n_windows != n_windows:
            raise StreamError("merged traces must share n_windows")
    wids = np.concatenate([t.window_column for t in traces])
    order = np.argsort(wids, kind="stable")
    merged_meta = {}
    for t in traces:
        merged_meta.update(t.meta)
    return Trace(
        np.concatenate([t.key_column for t in traces])[order],
        wids[order],
        n_windows,
        name=name or "+".join(t.name for t in traces),
        meta=merged_meta,
    )


def trace_from_timestamps(
    items: Sequence[int],
    times: Sequence[float],
    n_windows: int,
    name: str = "trace",
) -> Trace:
    """Build a :class:`Trace` from raw ``(item, time)`` tuples.

    Implements the paper's even time partition: window size
    ``R = (t_N - t_1) / w`` and window id ``floor((t - t_1) / R)`` (the last
    window is closed on the right).
    """
    if len(items) != len(times):
        raise StreamError("items and times must have equal length")
    times = np.asarray(times, dtype=np.float64)
    if (times[1:] < times[:-1]).any():
        raise StreamError("timestamps must be non-decreasing")
    span = times[-1] - times[0] if len(times) else 0.0
    if span <= 0:
        wids = np.zeros(len(times), dtype=np.int64)
    else:
        offsets = (times - times[0]) / span * n_windows
        wids = np.minimum(offsets.astype(np.int64), n_windows - 1)
    return Trace(items, wids, n_windows, name=name)
