"""Fault-injection and recovery tests for the ``repro.persist`` subsystem.

The contract under test: a checkpoint either restores a sketch
bit-identical to the one that was saved, or raises
:class:`~repro.common.errors.SnapshotError` — truncation, torn writes,
and bit flips must *never* load into a silently wrong estimator.
"""

import dataclasses
import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.common.errors import SnapshotError, StreamError
from repro.core import (
    HSConfig,
    HypersistentSketch,
    ShardedSketch,
    SlidingHypersistentSketch,
    make_hypersistent_simd,
)
from repro.core.burst_filter import BurstFilter
from repro.core.cold_filter import ColdFilter
from repro.core.config import REPLACE_RANDOM
from repro.core.hot_part import HotPart
from repro.core.simd import VectorizedBurstFilter
from repro.experiments.harness import make_estimator
from repro.persist import (
    FORMAT_VERSION,
    MAGIC,
    CheckpointPolicy,
    decode_state,
    encode_state,
    load_run_checkpoint,
    load_state,
    read_frame,
    restore_tagged,
    resume,
    save_run_checkpoint,
    save_state,
    tagged_state,
    write_frame,
)
from repro.streams.runtime import StreamDriver
from repro.streams.synthetic import zipf_trace


def small_config(seed=42, **overrides):
    config = HSConfig.for_estimation(8 * 1024, 64, seed=seed,
                                     window_distinct_hint=64)
    return dataclasses.replace(config, **overrides) if overrides else config


def feed(sketch, trace, start=0, stop=None):
    arrays = trace.window_arrays()
    stop = trace.n_windows if stop is None else stop
    for wid in range(start, stop):
        if hasattr(sketch, "insert_window"):
            sketch.insert_window(arrays[wid])
        else:
            for item in arrays[wid]:
                sketch.insert(int(item))
            sketch.end_window()
    return sketch


def assert_same_estimates(a, b, trace):
    keys = sorted(set(trace.items))
    for key in keys:
        assert a.query(key) == b.query(key), f"key {key} diverges"
    assert a.report(1) == b.report(1)


@pytest.fixture(scope="module")
def trace():
    return zipf_trace(n_records=4000, n_windows=40, seed=9)


# ----------------------------------------------------------------------
# codec: value round-trips and frame validation
# ----------------------------------------------------------------------
class TestCodec:
    @pytest.mark.parametrize("value", [
        None,
        True,
        False,
        0,
        -1,
        2**77,                      # arbitrary precision survives
        -(2**77),
        3.141592653589793,
        float("inf"),
        "",
        "snow❄flake",
        b"",
        b"\x00\xff" * 33,
        [],
        [1, "two", None, [True]],
        {},
        {"a": 1, "nested": {"b": [2.5, b"x"]}},
    ])
    def test_scalar_roundtrip(self, value):
        assert decode_state(encode_state(value)) == value

    @pytest.mark.parametrize("array", [
        np.arange(17, dtype=np.uint64),
        np.arange(12, dtype=np.int64).reshape(3, 4),
        np.zeros(0, dtype=np.float64),
        np.array([[True, False], [False, True]]),
    ])
    def test_ndarray_roundtrip(self, array):
        out = decode_state(encode_state({"a": array}))["a"]
        assert out.dtype == array.dtype
        assert out.shape == array.shape
        assert np.array_equal(out, array)

    def test_frame_starts_with_magic_and_version(self):
        frame = encode_state({"x": 1})
        assert frame.startswith(MAGIC)
        assert int.from_bytes(frame[8:12], "little") == FORMAT_VERSION

    def test_wrong_magic_rejected(self):
        frame = bytearray(encode_state(1))
        frame[:8] = b"NOTMAGIC"
        with pytest.raises(SnapshotError, match="magic"):
            decode_state(bytes(frame))

    def test_future_version_rejected(self):
        frame = bytearray(encode_state(1))
        frame[8:12] = (FORMAT_VERSION + 1).to_bytes(4, "little")
        with pytest.raises(SnapshotError, match="format"):
            decode_state(bytes(frame))

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SnapshotError):
            decode_state(encode_state([1, 2]) + b"extra")

    def test_unencodable_value_raises_snapshot_error(self):
        with pytest.raises(SnapshotError):
            encode_state({"bad": object()})
        with pytest.raises(SnapshotError):
            encode_state({1: "non-str key"})


# ----------------------------------------------------------------------
# fault injection: every corruption fails loudly
# ----------------------------------------------------------------------
class TestFaultInjection:
    @pytest.fixture()
    def frame(self, trace):
        sketch = feed(HypersistentSketch(small_config()), trace, stop=20)
        return encode_state(tagged_state(sketch))

    def test_truncation_at_every_region(self, frame):
        # header cuts, payload cuts, and the empty file
        cuts = {0, 1, 7, 8, 15, 23, len(frame) // 4,
                len(frame) // 2, len(frame) - 1}
        for cut in sorted(cuts):
            with pytest.raises(SnapshotError):
                decode_state(frame[:cut])

    def test_single_bit_flips_detected(self, frame):
        # CRC32 catches every single-bit payload error; header flips hit
        # the magic/version/length validation instead.  Sample offsets
        # across the whole frame, all 8 bit positions at each.
        offsets = list(range(0, len(frame), max(1, len(frame) // 64)))
        for offset in offsets:
            for bit in range(8):
                corrupt = bytearray(frame)
                corrupt[offset] ^= 1 << bit
                with pytest.raises(SnapshotError):
                    restore_tagged(decode_state(bytes(corrupt)))

    def test_torn_write_prefix_plus_garbage(self, frame):
        torn = frame[:len(frame) // 2] + os.urandom(len(frame) // 2)
        with pytest.raises(SnapshotError):
            decode_state(torn)

    def test_oversized_length_field_rejected_before_allocation(self):
        import struct
        import zlib
        payload = b"s" + (1 << 33).to_bytes(8, "little")
        header = struct.Struct("<8sIQI").pack(
            MAGIC, FORMAT_VERSION, len(payload),
            zlib.crc32(payload) & 0xFFFFFFFF,
        )
        with pytest.raises(SnapshotError):
            decode_state(header + payload)

    def test_corrupt_file_on_disk(self, frame, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(frame[:-3])
        with pytest.raises(SnapshotError):
            read_frame(path)
        with pytest.raises(SnapshotError):
            read_frame(tmp_path / "missing.ckpt")

    def test_valid_frame_wrong_shape_rejected(self, tmp_path):
        # structurally valid codec bytes that are not a class-tagged state
        path = tmp_path / "odd.ckpt"
        write_frame(path, {"class": "NoSuchSketch", "state": {}})
        with pytest.raises(SnapshotError, match="NoSuchSketch"):
            load_state(path)
        write_frame(path, [1, 2, 3])
        with pytest.raises(SnapshotError):
            load_state(path)

    @staticmethod
    def _burst_state(**layout):
        counters = BurstFilter(4, 4, seed=1).state_dict()
        for key in ("keys", "fills"):
            del counters[key]
        return {"class": "VectorizedBurstFilter",
                "state": {**counters, **layout}}

    def test_full_matrix_burst_fill_out_of_bounds_rejected(self):
        # the layout SIMD checkpoints were once written in: the whole
        # (w, gamma) key matrix plus ``fill``; these fills used to restore
        # with len() == 8 and keep accepting inserts
        tagged = self._burst_state(
            keys=np.zeros((4, 4), dtype=np.uint64),
            fill=np.array([9, -2, 0, 1], dtype=np.int32),
        )
        with pytest.raises(SnapshotError):
            restore_tagged(decode_state(encode_state(tagged)))

    def test_occupied_prefix_burst_fill_out_of_bounds_rejected(self):
        tagged = self._burst_state(
            keys=np.arange(8, dtype=np.uint64),
            fills=np.array([9, -2, 0, 1], dtype=np.int64),
        )
        with pytest.raises(SnapshotError):
            restore_tagged(decode_state(encode_state(tagged)))


# ----------------------------------------------------------------------
# atomic writes
# ----------------------------------------------------------------------
class TestAtomicity:
    def test_failed_save_preserves_previous_checkpoint(self, tmp_path):
        path = tmp_path / "sketch.ckpt"
        sketch = HypersistentSketch(small_config())
        sketch.insert("x")
        sketch.end_window()
        save_state(sketch, path)
        good = path.read_bytes()
        with pytest.raises(SnapshotError):
            save_state(object(), path)   # no state_dict -> must fail
        assert path.read_bytes() == good
        assert not [p for p in tmp_path.iterdir() if p != path], \
            "failed save leaked a temp file"

    def test_save_creates_no_stray_files(self, tmp_path):
        path = tmp_path / "sketch.ckpt"
        save_state(HypersistentSketch(small_config()), path)
        assert [p.name for p in tmp_path.iterdir()] == ["sketch.ckpt"]


# ----------------------------------------------------------------------
# per-class state round-trips
# ----------------------------------------------------------------------
class TestClassRoundtrips:
    def _roundtrip(self, obj):
        return restore_tagged(decode_state(encode_state(tagged_state(obj))))

    def test_burst_filter(self):
        bf = BurstFilter(n_buckets=32, seed=3)
        for i in range(200):
            bf.insert(i % 50)
        out = self._roundtrip(bf)
        assert sorted(out.drain()) == sorted(bf.drain())

    def test_cold_filter_and_hot_part(self, trace):
        sketch = feed(HypersistentSketch(small_config()), trace, stop=15)
        for part in (sketch.cold, sketch.hot):
            out = self._roundtrip(part)
            assert type(out) is type(part)
            before, after = list(_flat(part.state_dict())), \
                list(_flat(out.state_dict()))
            assert len(before) == len(after)
            for a, b in zip(before, after):
                if isinstance(a, np.ndarray):
                    assert np.array_equal(a, b)
                else:
                    assert a == b

    def test_hot_part_key_zero_distinct_from_empty(self):
        hot = HotPart(n_buckets=4, seed=1)
        for _ in range(5):
            hot.insert(0)
            hot.end_window()
        out = self._roundtrip(hot)
        assert out.query(0) == hot.query(0) != 0

    @pytest.mark.parametrize("build", [
        lambda: HypersistentSketch(small_config()),
        lambda: make_hypersistent_simd(small_config()),
        lambda: HypersistentSketch(small_config(replacement=REPLACE_RANDOM)),
    ])
    def test_full_sketch_resumes_bit_identical(self, build, trace):
        original = build()
        restored_source = build()
        mid = 20
        feed(original, trace, stop=mid)
        feed(restored_source, trace, stop=mid)
        restored = self._roundtrip(restored_source)
        feed(original, trace, start=mid)
        feed(restored, trace, start=mid)
        assert_same_estimates(original, restored, trace)
        assert original.stats() == restored.stats()


def _flat(tree):
    if isinstance(tree, dict):
        for key in sorted(tree):
            yield from _flat(tree[key])
    elif isinstance(tree, list):
        for item in tree:
            yield from _flat(item)
    else:
        yield tree


# ----------------------------------------------------------------------
# kill-and-resume: flat, sharded, sliding
# ----------------------------------------------------------------------
class TestKillAndResume:
    def test_flat_resume_matches_uninterrupted(self, trace, tmp_path):
        path = tmp_path / "run.ckpt"
        uninterrupted = feed(HypersistentSketch(small_config()), trace)
        killed = feed(HypersistentSketch(small_config()), trace, stop=23)
        save_run_checkpoint(killed, path, 23, trace=trace)
        del killed  # the process "dies" here
        resumed = resume(path, trace)
        assert_same_estimates(uninterrupted, resumed, trace)

    def test_sharded_resume_matches_uninterrupted(self, trace, tmp_path):
        def build():
            return ShardedSketch(
                lambda i: HypersistentSketch(small_config(seed=42 + i)),
                n_shards=3,
            )
        path = tmp_path / "sharded.ckpt"
        uninterrupted = feed(build(), trace)
        killed = feed(build(), trace, stop=17)
        save_run_checkpoint(killed, path, 17, trace=trace)
        resumed = resume(path, trace)
        assert_same_estimates(uninterrupted, resumed, trace)

    def test_sliding_resume_matches_uninterrupted(self, trace, tmp_path):
        def build():
            return SlidingHypersistentSketch(16 * 1024, horizon=7, seed=5)
        path = tmp_path / "sliding.ckpt"
        uninterrupted = feed(build(), trace)
        killed = feed(build(), trace, stop=19)
        save_run_checkpoint(killed, path, 19, trace=trace)
        resumed = resume(path, trace)
        assert_same_estimates(uninterrupted, resumed, trace)
        assert resumed.verify_state() == []

    def test_random_replacement_rng_resumes_bit_identical(
        self, trace, tmp_path
    ):
        # the Hot Part's RNG state rides in the checkpoint, so even the
        # randomized replacement policy replays to identical evictions
        config = small_config(replacement=REPLACE_RANDOM)
        path = tmp_path / "rng.ckpt"
        uninterrupted = feed(HypersistentSketch(config), trace)
        killed = feed(HypersistentSketch(config), trace, stop=11)
        save_run_checkpoint(killed, path, 11, trace=trace)
        resumed = resume(path, trace)
        assert_same_estimates(uninterrupted, resumed, trace)

    def test_resume_rejects_wrong_trace(self, trace, tmp_path):
        path = tmp_path / "run.ckpt"
        sketch = feed(HypersistentSketch(small_config()), trace, stop=10)
        save_run_checkpoint(sketch, path, 10, trace=trace)
        other = zipf_trace(n_records=4400, n_windows=44, seed=10)
        with pytest.raises(SnapshotError, match="strict=False"):
            resume(path, other)
        resume(path, other, strict=False)  # explicit override allowed

    def test_resume_rejects_impossible_window_count(self, trace, tmp_path):
        path = tmp_path / "run.ckpt"
        sketch = feed(HypersistentSketch(small_config()), trace)
        save_run_checkpoint(sketch, path, trace.n_windows, trace=None)
        short = zipf_trace(n_records=400, n_windows=5, seed=9)
        with pytest.raises(SnapshotError, match="only"):
            resume(path, short)

    def test_scalar_and_batched_replay_agree(self, trace, tmp_path):
        path = tmp_path / "run.ckpt"
        sketch = feed(HypersistentSketch(small_config()), trace, stop=20)
        save_run_checkpoint(sketch, path, 20, trace=trace)
        batched = resume(path, trace, batched=True)
        scalar = resume(path, trace, batched=False)
        assert_same_estimates(batched, scalar, trace)


# ----------------------------------------------------------------------
# checkpoint policy and harness wiring
# ----------------------------------------------------------------------
class TestCheckpointPolicy:
    def test_interval_counts_writes(self, trace, tmp_path):
        from repro.experiments.harness import run_stream
        path = tmp_path / "policy.ckpt"
        policy = CheckpointPolicy(path, every=7)
        run_stream(HypersistentSketch(small_config()), trace,
                   checkpoint=policy)
        assert policy.writes == trace.n_windows // 7
        _, windows_done, _ = load_run_checkpoint(path)
        assert windows_done == (trace.n_windows // 7) * 7

    def test_invalid_interval_rejected(self, tmp_path):
        with pytest.raises(SnapshotError):
            CheckpointPolicy(tmp_path / "x.ckpt", every=0)

    def test_checkpoint_meta_round_trips(self, trace, tmp_path):
        path = tmp_path / "meta.ckpt"
        policy = CheckpointPolicy(path, every=10,
                                  meta={"algorithm": "HS", "seed": 42})
        sketch = feed(HypersistentSketch(small_config()), trace, stop=10)
        policy.window_closed(sketch, 10, trace=trace)
        _, _, payload = load_run_checkpoint(path)
        assert payload["meta"] == {"algorithm": "HS", "seed": 42}
        assert payload["trace"]["n_windows"] == trace.n_windows


# ----------------------------------------------------------------------
# stream driver crash recovery
# ----------------------------------------------------------------------
class TestStreamDriverRecovery:
    @staticmethod
    def events(n, seed):
        rng = np.random.default_rng(seed)
        times = np.sort(rng.uniform(0, 25, size=n))
        items = rng.integers(0, 40, size=n)
        return list(zip(items.tolist(), times.tolist()))

    def test_driver_restore_continues_bit_identical(self, tmp_path):
        path = tmp_path / "driver.ckpt"
        events = self.events(600, seed=4)
        straight = StreamDriver(HypersistentSketch(small_config()),
                                window_duration=1.0)
        crashy = StreamDriver(HypersistentSketch(small_config()),
                              window_duration=1.0,
                              checkpoint_path=path, checkpoint_every=3)
        cut = len(events) // 2
        for item, t in events:
            straight.process(item, t)
        for item, t in events[:cut]:
            crashy.process(item, t)
        # crash: restart from the last checkpointed boundary and replay
        # only the events at or after that boundary's event-time start
        revived = StreamDriver.restore(path)
        resume_from = revived.current_window_start
        for item, t in events:
            if t >= resume_from:
                revived.process(item, t)
        straight.flush()
        revived.flush()
        for key in range(40):
            assert straight.query(key) == revived.query(key)

    def test_restore_rejects_trace_run_checkpoint(self, trace, tmp_path):
        path = tmp_path / "wrong-kind.ckpt"
        sketch = feed(HypersistentSketch(small_config()), trace, stop=5)
        save_run_checkpoint(sketch, path, 5, trace=trace)
        with pytest.raises(SnapshotError, match="stream-driver"):
            StreamDriver.restore(path)

    def test_restore_rejects_invalid_payload(self, tmp_path):
        path = tmp_path / "mangled.ckpt"
        driver = StreamDriver(HypersistentSketch(small_config()),
                              window_duration=1.0)
        driver.process("x", 0.0)
        driver.process("x", 1.5)
        driver.checkpoint(path)
        payload = read_frame(path)
        payload["current_window"] = -2
        write_frame(path, payload)
        with pytest.raises(SnapshotError):
            StreamDriver.restore(path)

    def test_driver_counters_survive(self, tmp_path):
        path = tmp_path / "driver.ckpt"
        driver = StreamDriver(HypersistentSketch(small_config()),
                              window_duration=1.0, late_policy="drop")
        for item, t in self.events(200, seed=6):
            driver.process(item, t)
        driver.process("late", 0.0)  # dropped
        driver.checkpoint(path)
        revived = StreamDriver.restore(path)
        assert revived.events == driver.events
        assert revived.dropped_events == driver.dropped_events
        assert revived.windows_closed == driver.windows_closed
        assert revived.current_window_start == driver.current_window_start

    def test_invalid_checkpoint_interval_rejected(self):
        with pytest.raises(StreamError):
            StreamDriver(HypersistentSketch(small_config()),
                         window_duration=1.0, checkpoint_every=0)


# ----------------------------------------------------------------------
# checkpoints written by an older build still restore and continue
# ----------------------------------------------------------------------
LEGACY_CHECKPOINTS = Path(__file__).parent / "fixtures" / "legacy_checkpoints"


@pytest.fixture(scope="module")
def legacy_expected():
    """What the writing build reached after the rest of each stream.

    Every file in ``tests/fixtures/legacy_checkpoints`` was written at
    commit ``b51dd21``, where :class:`VectorizedBurstFilter` saved its own
    layout (``keys`` as the full ``(w, gamma)`` matrix plus ``fill``)
    instead of the occupied prefix plus ``fills``.  ``expected.json``
    holds that build's estimates, report and cost counters after feeding
    each checkpointed object the rest of its stream, as
    :class:`TestLegacyCheckpoints` does.
    """
    return json.loads((LEGACY_CHECKPOINTS / "expected.json").read_text())


def _snapshot(obj):
    return encode_state(tagged_state(obj))


class TestLegacyCheckpoints:
    """Each fixture restores, re-encodes equal to the same object built
    here, and continues bit-identical to a run that was never saved."""

    #: ``make_hypersistent_simd`` sketch: windows 0-19 through
    #: ``insert_window``, then the first half of window 20 through
    #: ``insert``, so the burst is open mid-window.
    CONFIG = HSConfig(memory_bytes=1024, burst_bytes=192, delta1=3,
                      delta2=5, burst_cells_per_bucket=6, seed=5)
    STREAM = dict(n_records=4000, n_windows=40, seed=9, n_items=300)
    #: bare ``VectorizedBurstFilter(8, 6, seed=11)``: these inserts, then
    #: ``contains(42)`` and ``contains(12345)``
    BURST_KEYS = [3, 17, 3, 99, 42, 17, 5, 1000, 77, 31, 8, 64, 3]
    #: ``repro generate-trace zipf t.npz`` with these flags, then
    #: ``repro checkpoint t.npz --algorithm HS-KERNEL --memory-kb 1
    #: --every 5 --stop-after 13``
    RUN_TRACE = ["--records", "3000", "--windows", "24", "--seed", "4"]

    def _sketch_to_checkpoint(self, arrays):
        sketch = make_hypersistent_simd(self.CONFIG)
        for wid in range(20):
            sketch.insert_window(arrays[wid])
        for key in arrays[20][:arrays[20].size // 2].tolist():
            sketch.insert(key)
        return sketch

    def test_simd_sketch_open_mid_window(self, legacy_expected):
        trace = zipf_trace(**self.STREAM)
        arrays = trace.window_arrays()
        restored = load_state(LEGACY_CHECKPOINTS
                              / "simd_sketch_midwindow.ckpt")
        never_saved = self._sketch_to_checkpoint(arrays)
        assert len(restored.burst) > 0
        assert _snapshot(restored) == _snapshot(never_saved)
        for sketch in (restored, never_saved):
            for key in arrays[20][arrays[20].size // 2:].tolist():
                sketch.insert(key)
            sketch.end_window()
            for wid in range(21, 40):
                sketch.insert_window(arrays[wid])
        assert _snapshot(restored) == _snapshot(never_saved)
        assert restored.stats() == never_saved.stats()
        keys = sorted(set(trace.items))
        expected = legacy_expected["simd_sketch"]
        assert [restored.query(k) for k in keys] == expected["estimates"]
        assert sorted(map(list, restored.report(1).items())) \
            == expected["report"]
        assert restored.hash_ops == expected["hash_ops"]
        assert restored.burst.hash_ops == expected["burst_hash_ops"]
        assert restored.burst.compare_ops == expected["burst_compare_ops"]
        for part in ("cold", "hot"):
            digest = hashlib.sha256(
                _snapshot(getattr(restored, part))).hexdigest()
            assert digest == expected[f"{part}_state_sha256"]

    def test_bare_simd_burst_filter(self, legacy_expected):
        restored = load_state(LEGACY_CHECKPOINTS / "simd_burst_filter.ckpt")
        never_saved = VectorizedBurstFilter(8, 6, seed=11)
        for key in self.BURST_KEYS:
            never_saved.insert(key)
        never_saved.contains(42)
        never_saved.contains(12345)
        assert type(restored) is VectorizedBurstFilter
        assert _snapshot(restored) == _snapshot(never_saved)
        expected = legacy_expected["simd_burst"]
        for burst in (restored, never_saved):
            assert [burst.insert(k) for k in range(200, 260)] \
                == expected["absorbed"]
            burst.contains(205)
            assert [int(k) for k in burst.drain()] == expected["drain"]
            assert (burst.hash_ops, burst.compare_ops, burst.absorbed,
                    burst.overflowed) == (
                expected["hash_ops"], expected["compare_ops"],
                expected["absorbed_count"], expected["overflowed"])

    def test_hs_kernel_run_checkpoint(self, legacy_expected, tmp_path,
                                      capsys):
        from repro.cli import main
        from repro.streams.io import load_trace_npz

        ckpt = LEGACY_CHECKPOINTS / "hs_kernel_run.ckpt"
        path = tmp_path / "t.npz"
        assert main(["generate-trace", "zipf", str(path)]
                    + self.RUN_TRACE) == 0
        assert main(["resume", str(ckpt), str(path), "--check-full"]) == 0
        assert "bit-equal to an uninterrupted run" in capsys.readouterr().out
        trace = load_trace_npz(path)
        restored, windows_done, payload = load_run_checkpoint(ckpt)
        meta = payload["meta"]
        never_saved = make_estimator(
            "HS-KERNEL", meta["memory_bytes"], n_windows=trace.n_windows,
            seed=meta["seed"],
            window_distinct_hint=meta["window_distinct_hint"],
        )
        feed(never_saved, trace, stop=windows_done)
        assert _snapshot(restored) == _snapshot(never_saved)
        resumed = resume(ckpt, trace)
        feed(never_saved, trace, start=windows_done)
        assert _snapshot(resumed) == _snapshot(never_saved)
        expected = legacy_expected["hs_kernel_run"]
        keys = sorted(set(trace.items))
        assert [resumed.query(k) for k in keys] == expected["estimates"]
        assert sorted(map(list, resumed.report(1).items())) \
            == expected["report"]
        assert resumed.hash_ops == expected["hash_ops"]
        assert resumed.burst.compare_ops == expected["burst_compare_ops"]


class TestRegisterClassContract:
    """register_class must reject contract violations at registration
    time, not deep inside a later checkpoint load."""

    def _fresh_registry(self, monkeypatch):
        from repro.persist import state as state_mod
        registry = dict(state_mod._registry())
        monkeypatch.setattr(state_mod, "_REGISTRY", registry)
        return registry

    def test_valid_class_registers(self, monkeypatch):
        from repro.persist import register_class

        registry = self._fresh_registry(monkeypatch)

        class Good:
            def __init__(self, x=1):
                self.x = x

            def state_dict(self):
                return {"x": self.x}

            @classmethod
            def from_state(cls, state):
                return cls(state["x"])

        assert register_class(Good) is Good
        assert registry["Good"] is Good
        restored = restore_tagged(tagged_state(Good(7)))
        assert isinstance(restored, Good) and restored.x == 7

    def test_staticmethod_from_state_accepted(self, monkeypatch):
        from repro.persist import register_class

        self._fresh_registry(monkeypatch)

        class GoodStatic:
            def state_dict(self):
                return {}

            @staticmethod
            def from_state(state):
                return GoodStatic()

        assert register_class(GoodStatic) is GoodStatic

    def test_non_class_rejected(self):
        from repro.persist import register_class

        with pytest.raises(TypeError, match="expects a class"):
            register_class(lambda: None)

    def test_missing_state_dict_rejected(self):
        from repro.persist import register_class

        class NoStateDict:
            @classmethod
            def from_state(cls, state):
                return cls()

        with pytest.raises(TypeError, match="state_dict"):
            register_class(NoStateDict)

    def test_classmethod_state_dict_rejected(self):
        from repro.persist import register_class

        class ClassmethodStateDict:
            @classmethod
            def state_dict(cls):
                return {}

            @classmethod
            def from_state(cls, state):
                return cls()

        with pytest.raises(TypeError, match="plain method"):
            register_class(ClassmethodStateDict)

    def test_missing_from_state_rejected(self):
        from repro.persist import register_class

        class NoFromState:
            def state_dict(self):
                return {}

        with pytest.raises(TypeError, match="from_state"):
            register_class(NoFromState)

    def test_instance_method_from_state_rejected(self):
        from repro.persist import register_class

        class InstanceFromState:
            def state_dict(self):
                return {}

            def from_state(self, state):  # wrong kind: needs an instance
                return self

        with pytest.raises(TypeError, match="classmethod or"):
            register_class(InstanceFromState)
