"""Golden pins of every trace generator and derived-trace operation.

Each case hashes one trace at a fixed seed and a small scale: the
``uint64`` key bytes, the ``int64`` window-id bytes, ``n_windows``,
``name``, the JSON of ``meta``, the exact persistence dict in its
insertion order, and ``mean_window_distinct()``.  A change to the trace
storage or to a generator must leave every digest unchanged; a digest
that moves means the workloads (and every figure built on them) moved.

The ``.npz`` archive bytes are deliberately not pinned: compressed output
differs between zlib builds.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.common.hashing import canonical_keys
from repro.distributed.partition import partition_trace
from repro.streams import (
    big_caida_like,
    boundary_spikes,
    burst_trace,
    caida_like,
    campus_like,
    churn_trace,
    distinct_flood,
    exact_persistence,
    exponential_trace,
    mawi_like,
    merge_traces,
    persistence_trace,
    polygraph_like,
    single_item_flood,
    trace_from_timestamps,
    uniform_trace,
    zipf_trace,
)


def trace_digest(trace) -> str:
    h = hashlib.sha256()
    h.update(canonical_keys(trace.items).tobytes())
    h.update(np.asarray(trace.window_ids, dtype=np.int64).tobytes())
    # meta first: nothing below may leak into it
    h.update(json.dumps([trace.n_windows, trace.name, trace.meta]).encode())
    h.update(json.dumps(list(exact_persistence(trace).items())).encode())
    h.update(repr(trace.mean_window_distinct()).encode())
    return h.hexdigest()


def _zipf():
    return zipf_trace(4000, 30, skew=1.3, n_items=400, seed=3,
                      n_stealthy=3, stealthy_rate=2,
                      within_window_repeats=2.5)


def _timestamped():
    rng = np.random.default_rng(11)
    times = np.cumsum(rng.exponential(1.0, size=700)).tolist()
    items = rng.integers(1, 90, size=700).tolist()
    return trace_from_timestamps(items, times, 13, name="stamped")


CASES = {
    "caida_like": lambda: caida_like(scale=0.004, n_windows=60, seed=7),
    "big_caida_like": lambda: big_caida_like(scale=0.0005, n_windows=60,
                                             seed=8),
    "mawi_like": lambda: mawi_like(scale=0.005, n_windows=60, seed=9),
    "campus_like": lambda: campus_like(scale=0.001, n_windows=60, seed=10),
    "polygraph_like": lambda: polygraph_like(2.0, scale=0.001,
                                             n_windows=60, seed=12),
    "zipf_trace": _zipf,
    "persistence_trace": lambda: persistence_trace(
        [(20, 1, 5), (10, 10, 30), (3, 25, 40)], 30, seed=5,
        occurrences_per_window=2),
    "persistence_trace_early": lambda: persistence_trace(
        [(15, 2, 12)], 16, seed=6, late_start=False, name="early"),
    "uniform_trace": lambda: uniform_trace(3000, 20, 300, seed=2),
    "exponential_trace": lambda: exponential_trace(3000, 20, 300, seed=2),
    "burst_trace": lambda: burst_trace(3000, 20, 300, seed=2),
    "distinct_flood": lambda: distinct_flood(500, 10, seed=3),
    "single_item_flood": lambda: single_item_flood(500, 10, seed=3),
    "boundary_spikes": lambda: boundary_spikes(50, 9, seed=3),
    "churn_trace": lambda: churn_trace(20, 30, phase=7, seed=3),
    "merge_traces": lambda: merge_traces(
        uniform_trace(800, 20, 90, seed=4),
        burst_trace(600, 20, 70, seed=4),
        exponential_trace(500, 20, 60, seed=4)),
    "slice_windows": lambda: caida_like(
        scale=0.004, n_windows=60, seed=7).slice_windows(5, 41),
    "filter_items": lambda: _zipf().filter_items(
        list(range(1, 400, 3)) + [1 << 48], name="kept"),
    "rewindowed_fewer": lambda: _zipf().rewindowed(17),
    "rewindowed_more": lambda: _zipf().rewindowed(71),
    "trace_from_timestamps": _timestamped,
}

GOLDEN = {
    "big_caida_like":
        "d78c8018eed67b17f89a306cbcfb5b3c38874756166b54c315ab1a3d72cbfb93",
    "boundary_spikes":
        "8528491f3122e1e8e8da0c4ecf8344dd907affc6c7a4928bab3394b330c200c8",
    "burst_trace":
        "79bc63e5b0cb7dbf9db721c2aaca7e4b5903ceb8e84773fbc75d85e707110c83",
    "caida_like":
        "cb70260e678066522ee7b4c1fedff08ae306c6d19cf09dc2bc33d05ed48f43fb",
    "campus_like":
        "11156b4567b1be3ffd87f4da112219ddb44efc11176db97c7d4a26c1106ddd35",
    "churn_trace":
        "717e066a836876dc3469d0e8badff909c5ec6a61609b5d1bd2f3085225a31240",
    "distinct_flood":
        "4a2e6d33d23e41ba902a70b6918977a7c61ffbea9f33952b5b8092037da8b8e7",
    "exponential_trace":
        "82b282716747b3149c0e0367622f5633170f8132989ba2a8a62925634f9a4949",
    "filter_items":
        "6bc10c2a0dd0c42ae5f29ce05ab57c021cd5893769dd21de43ca5c7248153ce5",
    "mawi_like":
        "c9fb8f1b76096a44be59791d73b3f8f1704d53c3c6ce21d9563cc1680e74467d",
    "merge_traces":
        "05cfb1c47ed1c5d884da4449607e598443b3fed58303c9973900a43f4e5825b6",
    "persistence_trace":
        "9ed3caa3a5099399f52360623f713ac9cea42dd29b1db58005f586bdaeaa342f",
    "persistence_trace_early":
        "7504fdbab3c483ef14b7e52880782a29fc790db0234847662409879d405a77bc",
    "polygraph_like":
        "d14153e7e2e131780b4141cfa89ab1b07e9cc2f9b0a3c89344df2be2e9b8a1d0",
    "rewindowed_fewer":
        "eecebf4d8944f073360e2269e462f739a37c22b190e6a47447bfa5fe5175bb9b",
    "rewindowed_more":
        "fcc521f72ab51adc0779fa5bd3808323abaeab0f5ae1f991ad7ea5a8206df311",
    "single_item_flood":
        "0c16389f49b0c23d19a6d076cc9cfc6b642ae4bf1dfbbe9c5f9975b6b75128e7",
    "slice_windows":
        "b09f401d68b5841a449e1b01786536eabe9ae59fb2c932799c1c90d3150ecce1",
    "trace_from_timestamps":
        "68c137c2b4539b2bd49bc8d7c41c8dc63af27187a64f8100eaa719d648d1bc04",
    "uniform_trace":
        "cf23459b0d34b1c2bea6866e9dcb41001098bfc57a15961f5fd0181da87fa0dd",
    "zipf_trace":
        "3bd44ff8f7380f3ed9f22821cd6f9558cc27176a6400e7b45e453a6e5786c3a7",
}

GOLDEN_PARTITIONS = [
    "30e6bab64fdeddecf62d6a8f4d2c167c8b0ed8491384ede7156995139d247ba1",
    "6dba12440b8623cb5115cc9534732b317f8f4146cf3e7dc7b990b9a554f9006c",
    "842c2a2302c60d1cdbb89a56188504bde4341493d9b70785fce32e22f74c3166",
]


@pytest.mark.parametrize("case", sorted(CASES))
def test_generator_output_is_pinned(case):
    assert trace_digest(CASES[case]()) == GOLDEN[case]


def test_partition_trace_is_pinned():
    trace = caida_like(scale=0.004, n_windows=60, seed=7)
    digests = [trace_digest(part)
               for part in partition_trace(trace, 3, seed=42)]
    assert digests == GOLDEN_PARTITIONS
