"""Tests for the async multi-tenant sketch service.

The contract under test, per layer:

* tenants — spec validation rejects every malformed field loudly;
  admission control enforces the global memory budget and releases it on
  delete.
* service — concurrent tenants interleave on one loop with no
  cross-tenant leakage (each tenant's snapshot bytes equal an offline
  sketch fed only that tenant's stream); chunked ingest coalesces into
  one ``insert_window`` per barrier; a full queue raises backpressure
  instead of buffering unboundedly; kill-and-restart over a state
  directory finishes bit-identical to an uninterrupted offline run.
* http — every route round-trips through a real socket with the right
  status codes (404 unknown tenant, 429 budget/backpressure, 400
  malformed spec).
"""

import asyncio
import threading

import pytest

from repro.common.errors import (
    AdmissionError,
    ServiceError,
    UnknownTenantError,
)
from repro.core import HypersistentSketch, ShardedSketch
from repro.distributed import worker_config
from repro.persist import encode_state
from repro.service import (
    AdmissionController,
    ServiceClient,
    ServiceHTTPError,
    ServiceServer,
    SketchService,
    TenantSpec,
    build_sketch,
)
from repro.streams.synthetic import zipf_trace

MEM = 32 * 1024


@pytest.fixture(scope="module")
def trace():
    return zipf_trace(n_records=5000, n_windows=12, n_items=300, seed=7)


@pytest.fixture(scope="module")
def windows(trace):
    return [w.tolist() for w in trace.window_arrays()]


def flat_spec(name="flat", **overrides):
    base = dict(name=name, kind="flat", memory_bytes=MEM, n_windows=12,
                seed=7, engine="kernel")
    base.update(overrides)
    return base


def offline_flat(windows, spec=None):
    sketch = build_sketch(TenantSpec.from_dict(spec or flat_spec()))
    for window in windows:
        sketch.insert_window(window)
    return sketch


def run(coro):
    return asyncio.run(coro)


class TestTenantSpec:
    @pytest.mark.parametrize("bad", [
        dict(name="bad name"),            # space
        dict(name=""),                    # empty
        dict(name="../evil"),             # path traversal
        dict(kind="mystery"),
        dict(engine="turbo"),
        dict(memory_bytes=10),
        dict(n_windows=0),
        dict(checkpoint_every=-1),
        dict(horizon=5),                  # horizon on a flat tenant
        dict(n_shards=4),                 # shards on a flat tenant
        dict(kind="sliding", horizon=1),
        dict(kind="sharded", n_shards=1),
        dict(surprise=1),                 # unknown field
    ])
    def test_rejects_malformed_spec(self, bad):
        with pytest.raises(ServiceError):
            TenantSpec.from_dict(flat_spec(**bad))

    def test_roundtrips_through_dict(self):
        spec = TenantSpec.from_dict(flat_spec())
        assert TenantSpec.from_dict(spec.to_dict()) == spec

    def test_coerces_json_numbers(self):
        spec = TenantSpec.from_dict(flat_spec(memory_bytes=float(MEM)))
        assert spec.memory_bytes == MEM

    def test_build_sketch_kinds(self):
        assert isinstance(
            build_sketch(TenantSpec.from_dict(flat_spec())),
            HypersistentSketch,
        )
        sharded = build_sketch(TenantSpec.from_dict(
            flat_spec(kind="sharded", n_shards=3)))
        assert isinstance(sharded, ShardedSketch)
        assert sharded.n_shards == 3
        sliding = build_sketch(TenantSpec.from_dict(
            flat_spec(kind="sliding", horizon=6)))
        assert sliding.horizon == 6
        assert sliding.engine == "kernel"


class TestAdmission:
    def test_budget_enforced_and_released(self):
        control = AdmissionController(max_memory_bytes=3 * MEM)
        a = TenantSpec.from_dict(flat_spec("a"))
        b = TenantSpec.from_dict(flat_spec("b", memory_bytes=2 * MEM))
        control.admit(a)
        control.admit(b)
        with pytest.raises(AdmissionError):
            control.admit(TenantSpec.from_dict(flat_spec("c")))
        assert control.rejections == 1
        control.release(b)
        control.admit(TenantSpec.from_dict(flat_spec("c")))

    def test_uncapped_by_default(self):
        control = AdmissionController()
        for i in range(10):
            control.admit(TenantSpec.from_dict(
                flat_spec(f"t{i}", memory_bytes=2 ** 20)))

    def test_service_rejection_costs_nothing(self):
        async def main():
            service = SketchService(max_memory_bytes=MEM)
            await service.create_tenant(flat_spec("a"))
            with pytest.raises(AdmissionError):
                await service.create_tenant(flat_spec("b"))
            assert set(service.tenants) == {"a"}
            assert service.admission.reserved_bytes == MEM
            await service.delete_tenant("a")
            assert service.admission.reserved_bytes == 0
            await service.close()
        run(main())


class TestServiceCore:
    def test_concurrent_tenants_are_isolated(self, trace, windows):
        """Two tenants fed *different* streams concurrently (interleaved
        chunk-by-chunk on the loop) must each end bit-identical to an
        offline sketch fed only their own stream — any cross-tenant key
        leakage changes the snapshot bytes."""
        other = zipf_trace(n_records=5000, n_windows=12, n_items=300,
                           seed=99)
        other_windows = [w.tolist() for w in other.window_arrays()]

        async def feed(service, name, source):
            for window in source:
                third = max(1, len(window) // 3)
                for i in range(0, len(window), third):
                    await service.ingest(name, window[i:i + third])
                    await asyncio.sleep(0)  # force interleaving
                await service.end_window(name)

        async def main():
            service = SketchService()
            await service.create_tenant(flat_spec("left"))
            await service.create_tenant(flat_spec("right"))
            await asyncio.gather(
                feed(service, "left", windows),
                feed(service, "right", other_windows),
            )
            left = encode_state(
                service.tenants["left"].sketch.state_dict())
            right = encode_state(
                service.tenants["right"].sketch.state_dict())
            await service.close()
            return left, right

        left, right = run(main())
        assert left == encode_state(offline_flat(windows).state_dict())
        assert right == encode_state(
            offline_flat(other_windows).state_dict())
        assert left != right

    def test_chunked_ingest_coalesces_to_one_insert_window(self, windows):
        async def main():
            service = SketchService()
            await service.create_tenant(flat_spec("t"))
            for window in windows[:4]:
                for item in (window[: len(window) // 2],
                             window[len(window) // 2:]):
                    await service.ingest("t", item)
                await service.end_window("t")
            stats = service.tenants["t"].stats
            await service.close()
            return stats

        stats = run(main())
        assert stats.windows_total == 4
        assert stats.coalesced_batches_total == 8  # 2 chunks per window
        assert stats.items_total == sum(len(w) for w in windows[:4])

    def test_sharded_tenant_matches_single_process_reference(
        self, windows
    ):
        spec = flat_spec("sh", kind="sharded", n_shards=3)

        async def main():
            service = SketchService()
            await service.create_tenant(spec)
            for window in windows:
                await service.ingest("sh", window)
                await service.end_window("sh")
            state = encode_state(
                service.tenants["sh"].sketch.state_dict())
            await service.close()
            return state

        configs = [
            worker_config(MEM, 12, i, 3, seed=7)
            for i in range(3)
        ]
        reference = ShardedSketch(
            lambda i: HypersistentSketch(configs[i]),
            n_shards=3, seed=7, engine="kernel",
        )
        for window in windows:
            reference.insert_window(window)
        assert run(main()) == encode_state(reference.state_dict())

    def test_queue_backpressure(self):
        async def main():
            service = SketchService(queue_limit=4)
            await service.create_tenant(flat_spec("t"))
            # the worker drains concurrently, so stuff the queue without
            # yielding: put_nowait never gives the worker a turn
            with pytest.raises(AdmissionError):
                for _ in range(100):
                    await service.ingest("t", [1, 2, 3])
            assert service.tenants["t"].stats.rejected_total == 1
            await service.close()
        run(main())

    def test_unknown_tenant_and_bad_requests(self):
        async def main():
            service = SketchService()
            with pytest.raises(UnknownTenantError):
                service.estimate("ghost", [1])
            await service.create_tenant(flat_spec("t"))
            with pytest.raises(ServiceError):
                await service.ingest("t", "not-a-list")
            with pytest.raises(ServiceError):
                await service.end_window("t", count=0)
            with pytest.raises(ServiceError):
                service.report("t", 0)
            with pytest.raises(ServiceError):
                service.find_persistent("t", 1.5)
            with pytest.raises(ServiceError):
                await service.checkpoint_tenant("t")  # no checkpointing
            with pytest.raises(ServiceError):
                await service.create_tenant(flat_spec("t"))  # duplicate
            await service.close()
        run(main())

    def test_checkpointing_needs_state_dir(self):
        async def main():
            service = SketchService()
            with pytest.raises(ServiceError):
                await service.create_tenant(
                    flat_spec("t", checkpoint_every=2))
            assert service.admission.reserved_bytes == 0
            await service.close()
        run(main())

    def test_queries_match_sketch_directly(self, windows):
        async def main():
            service = SketchService()
            await service.create_tenant(flat_spec("t"))
            for window in windows[:6]:
                await service.ingest("t", window)
                await service.end_window("t")
            keys = windows[0][:8]
            estimates = service.estimate("t", keys)["estimates"]
            sketch = service.tenants["t"].sketch
            for key in keys:
                assert estimates[str(key)] == sketch.query(key)
            explain = service.explain("t", keys[0])
            assert explain["estimate"] == sketch.query(keys[0])
            assert explain["explanation"]["stage"] in ("l1", "l2", "hot")
            report = service.report("t", 3)
            assert report["items"] == {
                str(k): v for k, v in sketch.report(3).items()}
            await service.close()
        run(main())

    def test_sliding_tenant_explain_and_find_persistent(self, windows):
        async def main():
            service = SketchService()
            await service.create_tenant(
                flat_spec("sw", kind="sliding", horizon=6))
            for window in windows:
                await service.ingest("sw", window)
                await service.end_window("sw")
            explain = service.explain("sw", windows[0][0])
            assert set(explain["explanation"]) == {"young", "old"}
            found = service.find_persistent("sw", 0.5)
            sketch = service.tenants["sw"].sketch
            assert found["span_windows"] == sketch.coverage
            await service.close()
        run(main())


class TestRecovery:
    def test_kill_and_resume_bit_identical_to_offline(
        self, tmp_path, windows
    ):
        """Feed 7 windows with checkpoint_every=3, abandon the service
        without a graceful close (the crash), restart over the same
        state dir, and finish the stream: the recovered tenant must
        resume at the last *periodic* checkpoint (window 6) and end
        bit-identical to an offline run of all 12 windows."""
        spec = flat_spec("t", checkpoint_every=3)

        async def crash_run():
            service = SketchService(state_dir=tmp_path)
            await service.start()
            await service.create_tenant(spec)
            for window in windows[:7]:
                await service.ingest("t", window)
                await service.end_window("t")
            # no close(): the final-checkpoint path must not run
            for tenant in service.tenants.values():
                tenant.task.cancel()

        async def resume_run():
            service = SketchService(state_dir=tmp_path)
            recovered = await service.start()
            assert recovered == ["t"]
            status = service.tenant_status("t")
            assert status["windows_done"] == 6  # last periodic boundary
            assert status["spec"] == TenantSpec.from_dict(spec).to_dict()
            for window in windows[6:]:
                await service.ingest("t", window)
                await service.end_window("t")
            state = encode_state(
                service.tenants["t"].sketch.state_dict())
            await service.close()
            return state

        run(crash_run())
        assert run(resume_run()) == encode_state(
            offline_flat(windows, spec).state_dict())

    def test_graceful_close_checkpoints_every_tenant(
        self, tmp_path, windows
    ):
        spec = flat_spec("t", checkpoint_every=100)  # never periodic

        async def main():
            service = SketchService(state_dir=tmp_path)
            await service.start()
            await service.create_tenant(spec)
            for window in windows[:5]:
                await service.ingest("t", window)
                await service.end_window("t")
            await service.close()

        async def reopen():
            service = SketchService(state_dir=tmp_path)
            await service.start()
            done = service.tenant_status("t")["windows_done"]
            await service.close()
            return done

        run(main())
        assert run(reopen()) == 5  # the close-time checkpoint

    def test_recovered_sliding_tenant_resumes_batch_path(
        self, tmp_path, windows
    ):
        spec = flat_spec("sw", kind="sliding", horizon=6,
                         checkpoint_every=4)

        async def first():
            service = SketchService(state_dir=tmp_path)
            await service.start()
            await service.create_tenant(spec)
            for window in windows[:8]:
                await service.ingest("sw", window)
                await service.end_window("sw")
            await service.close()

        async def second():
            service = SketchService(state_dir=tmp_path)
            await service.start()
            sketch = service.tenants["sw"].sketch
            assert sketch.engine == "kernel"  # re-applied after restore
            for window in windows[8:]:
                await service.ingest("sw", window)
                await service.end_window("sw")
            state = encode_state(sketch.state_dict())
            await service.close()
            return state

        run(first())
        offline = build_sketch(TenantSpec.from_dict(spec))
        for window in windows:
            offline.insert_window(window)
        assert run(second()) == encode_state(offline.state_dict())


    def test_state_dir_naming_retired_batched_engine_recovers(
        self, tmp_path, windows
    ):
        """A tenant checkpoint written when ``"batched"`` was still an
        engine recovers byte-exact, now running on ``"kernel"``."""
        from repro.persist import save_run_checkpoint
        from repro.service.service import CKPT_SUFFIX, META_SERVICE_KEY

        spec = flat_spec("old", checkpoint_every=4)
        old_spec = dict(TenantSpec.from_dict(spec).to_dict(),
                        engine="batched")
        saved = offline_flat(windows[:4], spec)
        save_run_checkpoint(
            saved, tmp_path / f"old{CKPT_SUFFIX}", 4,
            meta={META_SERVICE_KEY: True, "spec": old_spec},
        )

        async def main():
            service = SketchService(state_dir=tmp_path)
            assert await service.start() == ["old"]
            status = service.tenant_status("old")
            assert status["windows_done"] == 4
            assert status["spec"]["engine"] == "kernel"
            sketch = service.tenants["old"].sketch
            assert sketch.engine == "kernel"
            recovered = encode_state(sketch.state_dict())
            for window in windows[4:]:
                await service.ingest("old", window)
                await service.end_window("old")
            finished = encode_state(sketch.state_dict())
            await service.close()
            return recovered, finished

        recovered, finished = run(main())
        assert recovered == encode_state(saved.state_dict())
        assert finished == encode_state(
            offline_flat(windows, spec).state_dict())


class _LiveServer:
    """A real ServiceServer on an ephemeral port, on a loop thread."""

    def __init__(self, **service_kwargs):
        self.loop = asyncio.new_event_loop()
        self.service = SketchService(**service_kwargs)
        self.server = ServiceServer(self.service, "127.0.0.1", 0)
        self._ready = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.service.start())
        self.loop.run_until_complete(self.server.start())
        self._ready.set()
        self.loop.run_forever()

    def __enter__(self) -> ServiceClient:
        self.thread.start()
        assert self._ready.wait(10)
        self.client = ServiceClient("127.0.0.1", self.server.port)
        self.client.wait_ready()
        return self.client

    def __exit__(self, *exc_info):
        self.client.close()
        future = asyncio.run_coroutine_threadsafe(
            self.server.close(), self.loop)
        future.result(10)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)


class TestHTTP:
    def test_full_round_trip_matches_offline(self, windows):
        with _LiveServer(max_memory_bytes=4 * MEM) as client:
            client.create_tenant(**flat_spec("t"))
            for window in windows[:6]:
                half = len(window) // 2
                client.ingest("t", window[:half])
                client.ingest("t", window[half:])
                client.end_window("t")
            status = client.tenant_status("t")
            assert status["windows_done"] == 6
            assert status["stats"]["coalesced_batches_total"] == 12
            offline = offline_flat(windows[:6])
            keys = windows[0][:16]
            served = client.estimate("t", keys)["estimates"]
            assert served == {str(k): offline.query(k) for k in keys}
            report = client.report("t", 3)["items"]
            assert report == {str(k): v
                              for k, v in offline.report(3).items()}
            assert client.explain("t", keys[0])["estimate"] == \
                offline.query(keys[0])

    def test_status_codes(self):
        with _LiveServer(max_memory_bytes=2 * MEM) as client:
            with pytest.raises(ServiceHTTPError) as e404:
                client.tenant_status("ghost")
            assert e404.value.status == 404
            client.create_tenant(**flat_spec("a", memory_bytes=2 * MEM))
            with pytest.raises(ServiceHTTPError) as e429:
                client.create_tenant(**flat_spec("b"))
            assert e429.value.status == 429
            with pytest.raises(ServiceHTTPError) as e400:
                client.create_tenant(name="bad name!")
            assert e400.value.status == 400
            with pytest.raises(ServiceHTTPError) as dup:
                client.create_tenant(**flat_spec("a", memory_bytes=2 * MEM))
            assert dup.value.status == 400
            assert client.delete_tenant("a") == {"deleted": "a"}
            with pytest.raises(ServiceHTTPError) as gone:
                client.ingest("a", [1])
            assert gone.value.status == 404

    def test_metrics_exposition(self, windows):
        with _LiveServer() as client:
            client.create_tenant(**flat_spec("m"))
            client.ingest("m", windows[0])
            client.end_window("m")
            text = client.metrics()
            assert "# TYPE service_tenants gauge" in text
            assert 'service_tenant_windows_total{tenant="m"} 1' in text
            assert 'hs_windows_total{tenant="m"}' in text
            listed = client.list_tenants()
            assert [t["name"] for t in listed["tenants"]] == ["m"]

    def test_malformed_requests(self):
        with _LiveServer() as client:
            with pytest.raises(ServiceHTTPError) as excinfo:
                client.request("POST", "/tenants/x/estimate",
                               {"keys": "nope"})
            assert excinfo.value.status == 400
            with pytest.raises(ServiceHTTPError) as excinfo:
                client.request("PATCH", "/tenants")
            assert excinfo.value.status == 405
            with pytest.raises(ServiceHTTPError) as excinfo:
                client.request("GET", "/nope")
            assert excinfo.value.status == 404
            assert client.healthz()["ok"] is True
