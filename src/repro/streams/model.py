"""Data-stream model: timestamped traces divided into windows.

The paper's model (Section II-A): a stream ``S = {(e_i, t_i)}`` with
monotonically increasing times, evenly divided into ``w`` windows.  For the
library we precompute each record's window id once (``Trace``), because every
sketch and the oracle consume the same windowed view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from ..common.errors import StreamError
from ..common.hashing import canonical_keys


@dataclass
class Trace:
    """A windowed data stream.

    ``items[i]`` is the canonical (integer) item key of the i-th record and
    ``window_ids[i]`` the zero-based window it falls into.  Window ids must
    be non-decreasing (times are monotone in the stream model).
    """

    items: List[int]
    window_ids: List[int]
    n_windows: int
    name: str = "trace"
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.items) != len(self.window_ids):
            raise StreamError("items and window_ids must have equal length")
        if self.n_windows < 1:
            raise StreamError("a trace needs at least one window")
        last = -1
        for wid in self.window_ids:
            if wid < last:
                raise StreamError("window ids must be non-decreasing")
            last = wid
        if last >= self.n_windows:
            raise StreamError(
                f"window id {last} out of range for n_windows={self.n_windows}"
            )

    def __len__(self) -> int:
        return len(self.items)

    @property
    def n_records(self) -> int:
        """Number of records in the trace."""
        return len(self.items)

    @property
    def n_distinct(self) -> int:
        """Number of distinct items in the trace."""
        return len(set(self.items))

    def records(self) -> Iterator[Tuple[int, int]]:
        """Iterate ``(item, window_id)`` pairs in stream order."""
        return zip(self.items, self.window_ids)

    def _meta_copy(self) -> dict:
        """Copy of ``meta`` without underscore-prefixed cache entries.

        Derived traces (slices, rewindows, filters) must not inherit the
        parent's cached ``_window_arrays`` / ``_mean_window_distinct`` —
        those describe the parent's records, not the derivative's.
        """
        return {k: v for k, v in self.meta.items() if not k.startswith("_")}

    def windows(self) -> Iterator[Tuple[int, List[int]]]:
        """Iterate ``(window_id, items_in_window)`` including empty windows."""
        start = 0
        n = len(self.items)
        for wid in range(self.n_windows):
            end = start
            while end < n and self.window_ids[end] == wid:
                end += 1
            yield wid, self.items[start:end]
            start = end

    def window_arrays(self) -> List[np.ndarray]:
        """Columnar per-window views: one ``uint64`` key array per window.

        The batch-ingestion counterpart of :meth:`windows` — empty windows
        yield empty arrays, record order is preserved, and the arrays are
        slices of one contiguous canonicalized column, built once and
        cached in ``meta`` (the trace is immutable by convention).  Feed
        them to ``insert_window`` / ``run_stream``.
        """
        cached = self.meta.get("_window_arrays")
        if cached is not None:
            return cached
        column = canonical_keys(self.items)
        bounds = np.searchsorted(
            np.asarray(self.window_ids, dtype=np.int64),
            np.arange(self.n_windows + 1, dtype=np.int64),
            side="left",
        )
        arrays = [
            column[bounds[w]:bounds[w + 1]] for w in range(self.n_windows)
        ]
        self.meta["_window_arrays"] = arrays
        return arrays

    def slice_windows(self, first: int, last: int) -> "Trace":
        """Sub-trace covering windows ``[first, last)``, re-zeroed."""
        if not 0 <= first < last <= self.n_windows:
            raise StreamError("invalid window slice")
        items: List[int] = []
        wids: List[int] = []
        for item, wid in self.records():
            if first <= wid < last:
                items.append(item)
                wids.append(wid - first)
        return Trace(
            items,
            wids,
            last - first,
            name=f"{self.name}[{first}:{last}]",
            meta=self._meta_copy(),
        )

    def filter_items(self, keep, name: str = "") -> "Trace":
        """Sub-trace holding only the records of the ``keep`` item keys.

        Window count and numbering are preserved (dropped records simply
        vanish from their windows), so per-item persistence of the kept
        items is unchanged — the property fuzz-case shrinking relies on
        when it minimizes a failing trace key by key.
        """
        keep = set(keep)
        items: List[int] = []
        wids: List[int] = []
        for item, wid in self.records():
            if item in keep:
                items.append(item)
                wids.append(wid)
        return Trace(
            items,
            wids,
            self.n_windows,
            name=name or f"{self.name}/filtered",
            meta=self._meta_copy(),
        )

    def rewindowed(self, n_windows: int) -> "Trace":
        """The same record sequence re-divided into ``n_windows`` windows.

        Mirrors the paper's window-count sweep (figures 11/14): the stream is
        fixed and the time range is re-partitioned evenly.  We partition by
        record position, which is equivalent for traces whose arrivals are
        uniform in time (all generators in :mod:`repro.streams.synthetic`).
        """
        if n_windows < 1:
            raise StreamError("n_windows must be >= 1")
        n = len(self.items)
        if n == 0:
            return Trace([], [], n_windows, name=self.name,
                         meta=self._meta_copy())
        wids = [min(n_windows - 1, i * n_windows // n) for i in range(n)]
        return Trace(
            list(self.items),
            wids,
            n_windows,
            name=f"{self.name}/w{n_windows}",
            meta=self._meta_copy(),
        )

    def mean_window_distinct(self) -> float:
        """Average number of distinct items per window (cached).

        This is the Burst Filter's working-set size: the structure must
        hold roughly this many IDs to absorb within-window repeats.
        """
        cached = self.meta.get("_mean_window_distinct")
        if cached is not None:
            return cached
        last_window: dict = {}
        pairs = 0
        for item, wid in self.records():
            if last_window.get(item) != wid:
                last_window[item] = wid
                pairs += 1
        value = pairs / self.n_windows if self.n_windows else 0.0
        self.meta["_mean_window_distinct"] = value
        return value

    def describe(self) -> dict:
        """Summary statistics (used by dataset docs and tests)."""
        return {
            "name": self.name,
            "records": self.n_records,
            "distinct": self.n_distinct,
            "windows": self.n_windows,
        }


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
    pairs: List[Tuple[int, int]] = []
    for t in traces:
        pairs.extend(zip(t.window_ids, t.items))
    pairs.sort(key=lambda p: p[0])
    merged_meta = {}
    for t in traces:
        merged_meta.update(t.meta)
    return Trace(
        [item for _, item in pairs],
        [wid for wid, _ in pairs],
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
    if not items:
        return Trace([], [], n_windows, name=name)
    t0, tn = times[0], times[-1]
    prev = t0
    for t in times:
        if t < prev:
            raise StreamError("timestamps must be non-decreasing")
        prev = t
    span = tn - t0
    if span <= 0:
        wids = [0] * len(items)
    else:
        wids = [
            min(n_windows - 1, int((t - t0) / span * n_windows)) for t in times
        ]
    return Trace(list(items), wids, n_windows, name=name)
