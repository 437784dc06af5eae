"""The ``service-mixed`` workload: ``repro serve`` under open-loop load.

One heavy tenant (flat, 32 KB, a checkpoint every window) receives
paper-density windows keyed by ``"a.b.c.d:port"`` strings, each window
in Pareto-sized chunks followed by a barrier.  Three light tenants
(flat, sliding, sharded; 8 KB; integer keys) receive sparse-density
windows as one ingest + barrier pair each, and one point ``estimate``
per window.  Every tenant closes windows on one shared clock.  Set-up
renders every request to bytes; the generator (this process) then sends
them on a fixed schedule over two keep-alive connections, pipelining so
that a slow server never delays a send.  Each request is timed from its
due time.

The session runs in blocks; after each block a closed-loop job feeds the
heavy tenant's first windows to a fresh tenant as fast as the server
answers, then queries every key they held: these jobs set the throughput
figures.  A last estimate sweep
over every session tenant is compared with offline sketches fed the same
windows.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import signal
import subprocess
import sys
import time
from collections import deque
from pathlib import Path
from typing import Dict, List

import numpy as np

from util import (
    ROOT, QUERY_BATCH, best_per_position, block_percentile, end_to_end,
    median, peak_rss_mb, percentile, run_setup_child,
)

HOST = "127.0.0.1"
WINDOW_RATE = 35.0     # windows per second, every tenant (README: rate)
PARETO_SHAPE = 1.16    # chunk sizes as in SNIPPETS.md Snippet 3:
CHUNK_BYTES = 1024     # Pareto(1.16) with a 1 KB minimum
LIGHT_SCALE = 0.02     # caida_like()'s default density (sparse-small)
BLOCK_S = 3.0          # the session runs in blocks of due time; one
BULK_WINDOWS = 100     # closed-loop job of this many windows follows each
SETUP_REPEATS = 3
LEAD_IN_S = 0.3        # gap between connecting and the first due time
BEHIND_MS = 10.0       # generator p99 lag that flags a run as behind

INGEST, BARRIER, ESTIMATE, REPORT = range(4)
SESSION, SWEEP, BULK = range(3)
HEAVY = "heavy"
LIGHT = ("light-flat", "light-sliding", "light-sharded")
TENANTS = (HEAVY,) + LIGHT
BULK_TEMPLATE = "bulk-0"


def windows_for(seconds: float) -> int:
    return max(2, int(round(WINDOW_RATE * seconds)))


def blocks_for(seconds: float) -> int:
    """Session blocks; every due time is below ``windows / WINDOW_RATE``."""
    return int(windows_for(seconds) / WINDOW_RATE // BLOCK_S) + 1


def heavy_spec(name: str):
    from repro.service import TenantSpec
    return TenantSpec(name=name, kind="flat", memory_bytes=32 * 1024,
                      n_windows=1500, checkpoint_every=1)


def tenant_specs(seconds: float):
    from repro.service import TenantSpec
    n = windows_for(seconds)
    return [
        heavy_spec(HEAVY),
        TenantSpec(name=LIGHT[0], kind="flat", memory_bytes=8 * 1024,
                   n_windows=n),
        # one second of windows on the shared clock
        TenantSpec(name=LIGHT[1], kind="sliding", memory_bytes=8 * 1024,
                   horizon=int(WINDOW_RATE)),
        # the fewest shards a sharded tenant takes
        TenantSpec(name=LIGHT[2], kind="sharded", memory_bytes=8 * 1024,
                   n_windows=n, n_shards=2),
    ]


def bulk_name(r: int) -> str:
    return f"bulk-{r}"


def render_key(key: int) -> str:
    """An ``"a.b.c.d:port"`` string, one-to-one for keys below 2**49."""
    port = ((key >> 32) & 0x7FFF) | (((key >> 48) & 1) << 15)
    return (f"{(key >> 24) & 255}.{(key >> 16) & 255}."
            f"{(key >> 8) & 255}.{key & 255}:{port}")


def _request(tenant: str, action: str, payload: dict) -> bytes:
    body = json.dumps(payload).encode()
    head = (f"POST /tenants/{tenant}/{action} HTTP/1.1\r\n"
            f"Host: {HOST}\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n")
    return head.encode() + body


def _seconds_of(work: Path) -> float:
    return float((work / "seconds").read_text())


# ----------------------------------------------------------------------
# schedules: rows of (phase, due, conn, kind, tenant, window, n, bytes)
# ----------------------------------------------------------------------
def chunked_window_rows(phase, due, tenant, name, window, items, rng):
    """One window as Pareto-sized ingest chunks, then its barrier.

    A chunk's size is drawn in bytes, as Snippet 3 draws request sizes,
    and converted to keys by the window's mean JSON bytes per key.
    """
    key_bytes = len(json.dumps(items)) / max(1, len(items))
    rows, start = [], 0
    while start < len(items):
        size = (rng.pareto(PARETO_SHAPE) + 1) * CHUNK_BYTES
        chunk = items[start:start + max(1, int(size / key_bytes))]
        rows.append((phase, due, 0, INGEST, tenant, window, len(chunk),
                     _request(name, "ingest", {"items": chunk})))
        start += len(chunk)
    rows.append((phase, due, 0, BARRIER, tenant, window, 0,
                 _request(name, "window", {"count": 1})))
    return rows


def sweep_rows(phase, tenant, name, keys):
    """Every key in ``QUERY_BATCH``-key estimates, then one report."""
    rows = [(phase, 0.0, 0, ESTIMATE, tenant, -1, len(batch),
             _request(name, "estimate", {"keys": batch}))
            for batch in (keys[s:s + QUERY_BATCH]
                          for s in range(0, len(keys), QUERY_BATCH))]
    rows.append((phase, 0.0, 0, REPORT, tenant, -1, 0,
                 _request(name, "report", {"threshold": 2})))
    return rows


def save_schedule(rows, work: Path) -> None:
    requests = [row[7] for row in rows]
    offsets = np.cumsum([0] + [len(r) for r in requests])
    columns = np.array([row[:7] for row in rows], dtype=np.float64)
    np.savez(work / "schedule.npz", columns=columns, offsets=offsets)
    (work / "requests.bin").write_bytes(b"".join(requests))


def load_schedule(work: Path):
    with np.load(work / "schedule.npz") as data:
        columns = data["columns"]
        offsets = data["offsets"].tolist()
    blob = (work / "requests.bin").read_bytes()
    requests = [blob[offsets[i]:offsets[i + 1]]
                for i in range(len(offsets) - 1)]
    names = ("phase", "due", "conn", "kind", "tenant", "window", "n_items")
    sched = {name: columns[:, c].tolist() for c, name in enumerate(names)}
    for name in names:
        if name != "due":
            sched[name] = [int(v) for v in sched[name]]
    sched["requests"] = requests
    return sched


def setup(workload: str, seed: int, work: Path) -> None:
    from repro.streams.io import save_trace_npz
    from repro.streams.traces import caida_like

    n = windows_for(_seconds_of(work))
    rng = np.random.default_rng(seed)
    heavy = caida_like(scale=min(1.0, n / 1500), n_windows=n, seed=seed)
    if max(heavy.items) >= 1 << 49:
        raise RuntimeError("heavy keys exceed the rendered key space")
    save_trace_npz(heavy, work / "heavy.npz")
    lights = []
    for j, name in enumerate(LIGHT):
        trace = caida_like(scale=LIGHT_SCALE * n / 1500, n_windows=n,
                           seed=seed * 10 + j + 1)
        save_trace_npz(trace, work / f"{name}.npz")
        lights.append(trace)

    rows = []
    heavy_windows = [[render_key(k) for k in keys.tolist()]
                     for keys in heavy.window_arrays()]
    for w, items in enumerate(heavy_windows):
        rows += chunked_window_rows(SESSION, w / WINDOW_RATE, 0, HEAVY, w,
                                    items, rng)
    for j, trace in enumerate(lights):
        tenant = 1 + j
        for w, keys in enumerate(trace.window_arrays()):
            # the shared window rate at a random phase: a light window
            # may close at any moment of the heavy tenant's period
            due = (w + rng.random()) / WINDOW_RATE
            items = keys.tolist()
            probe = [items[int(rng.integers(len(items)))]]
            rows += [
                (SESSION, due, 1, INGEST, tenant, w, len(items),
                 _request(LIGHT[j], "ingest", {"items": items})),
                (SESSION, due, 1, BARRIER, tenant, w, 0,
                 _request(LIGHT[j], "window", {"count": 1})),
                (SESSION, due, 1, ESTIMATE, tenant, w, 1,
                 _request(LIGHT[j], "estimate", {"keys": probe})),
            ]
    rows.sort(key=lambda row: (row[2], row[1]))  # stable: per-conn order
    universes = [sorted({render_key(k) for k in heavy.items})]
    universes += [sorted(set(trace.items)) for trace in lights]
    for tenant, keys in enumerate(universes):
        rows += sweep_rows(SWEEP, tenant, TENANTS[tenant], keys)
    bulk = heavy_windows[:BULK_WINDOWS]
    for w, items in enumerate(bulk):
        rows += chunked_window_rows(BULK, 0.0, 0, BULK_TEMPLATE, w, items,
                                    rng)
    rows += sweep_rows(BULK, 0, BULK_TEMPLATE,
                       sorted({key for items in bulk for key in items}))
    save_schedule(rows, work)


def body_of(request: bytes) -> dict:
    return json.loads(request[request.index(b"\r\n\r\n") + 4:])


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------
class Server:
    """``repro serve`` in its own process, booted with ``specs``."""

    def __init__(self, state_dir: Path, specs):
        from repro.service import ServiceClient

        started = time.perf_counter()
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--state-dir", str(state_dir)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=env, cwd=ROOT,
        )
        try:
            line = self.proc.stdout.readline()
            if "listening on" not in line:
                raise RuntimeError(f"server did not start: {line!r}")
            self.port = int(line.rsplit(":", 1)[1])
            with ServiceClient(HOST, self.port) as client:
                client.wait_ready()
                for spec in specs:
                    client.create_tenant(**spec.to_dict())
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - started

    def metrics_text(self) -> str:
        from repro.service import ServiceClient
        with ServiceClient(HOST, self.port) as client:
            return client.metrics()

    def stop(self) -> float:
        """Stop gracefully; return the process's peak RSS in MiB."""
        if self.proc.returncode is not None:
            return 0.0
        self.proc.send_signal(signal.SIGINT)
        deadline = time.monotonic() + 20
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.02)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        return peak_rss_mb(usage)


# ----------------------------------------------------------------------
# the open-loop generator and the closed-loop jobs
# ----------------------------------------------------------------------
async def _read_response(reader):
    head = await reader.readuntil(b"\r\n\r\n")
    status = int(head[9:12])
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    body = await reader.readexactly(length) if length else b""
    return status, body


async def _open_loop(streams, sched, rows, out, start=0.0):
    """Send ``rows`` on schedule over both connections, pipelined.

    Due time ``start`` falls ``LEAD_IN_S`` from now; returns when every
    row has its response.
    """
    loop = asyncio.get_running_loop()
    per_conn = [[i for i in rows if sched["conn"][i] == c] for c in (0, 1)]
    pending = [deque(), deque()]
    t0 = loop.time() + LEAD_IN_S - start
    for i in rows:
        out["t0"][i] = t0

    async def send(c):
        writer = streams[c][1]
        for i in per_conn[c]:
            delay = t0 + sched["due"][i] - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            writer.write(sched["requests"][i])
            out["sent"][i] = loop.time()
            pending[c].append(i)

    async def receive(c):
        reader = streams[c][0]
        for _ in per_conn[c]:
            code, body = await _read_response(reader)
            i = pending[c].popleft()
            out["done"][i] = loop.time()
            out["status"][i] = code
            out["bodies"][i] = body

    await asyncio.gather(*(task(c) for c in (0, 1)
                           for task in (send, receive)))


async def _closed_loop(stream, sched, rows, rename=None):
    """Send ``rows`` a window (or one request) at a time; time each step.

    Returns ``(seconds, statuses, bodies)`` per step, where a step is one
    window's chunks and barrier, or one estimate or report request.
    """
    loop = asyncio.get_running_loop()
    reader, writer = stream
    steps, current = [], None
    for i in rows:
        key = sched["window"][i]
        if key < 0 or key != current:
            steps.append([])
        current = key
        steps[-1].append(i)
    results = []
    for step in steps:
        started = loop.time()
        for i in step:
            request = sched["requests"][i]
            writer.write(rename(request) if rename else request)
        replies = [await _read_response(reader) for _ in step]
        results.append((loop.time() - started, step, replies))
    return results


def new_out(n: int) -> Dict[str, object]:
    return {"t0": [0.0] * n, "sent": [0.0] * n, "done": [0.0] * n,
            "status": [0] * n, "bodies": {}, "bulk": []}


async def _drive(port: int, sched: Dict[str, list],
                 seconds: float) -> Dict[str, object]:
    """The session block by block, each followed by a closed-loop job.

    The jobs are spread over the run so that each step's best pass is
    one the host's slow episodes missed.
    """
    n = len(sched["requests"])
    out = new_out(n)
    streams = [await asyncio.open_connection(HOST, port) for _ in range(2)]
    phase = sched["phase"]
    bulk = [i for i in range(n) if phase[i] == BULK]
    template = f"/tenants/{BULK_TEMPLATE}/".encode()
    for r in range(blocks_for(seconds)):
        await _open_loop(streams, sched, [
            i for i in range(n) if phase[i] == SESSION
            and int(sched["due"][i] // BLOCK_S) == r], out, r * BLOCK_S)
        target = f"/tenants/{bulk_name(r)}/".encode()
        out["bulk"].append(await _closed_loop(
            streams[0], sched, bulk,
            rename=lambda request: request.replace(template, target, 1)))
    for _, step, replies in await _closed_loop(
            streams[0], sched, [i for i in range(n) if phase[i] == SWEEP]):
        for i, (code, body) in zip(step, replies):
            out["status"][i] = code
            out["bodies"][i] = body
    for _, writer in streams:
        writer.close()
        await writer.wait_closed()
    return out


def drive(port: int, sched: Dict[str, list], seconds: float):
    return asyncio.run(asyncio.wait_for(_drive(port, sched, seconds),
                                        timeout=3 * seconds + 90))


# ----------------------------------------------------------------------
# output check: offline sketches fed the same windows
# ----------------------------------------------------------------------
def load_windows(work: Path) -> Dict[str, list]:
    from repro.streams import io as stream_io
    windows = {}
    heavy = stream_io.load_trace_npz(work / "heavy.npz")
    windows[HEAVY] = [[render_key(k) for k in keys.tolist()]
                      for keys in heavy.window_arrays()]
    for name in LIGHT:
        trace = stream_io.load_trace_npz(work / f"{name}.npz")
        windows[name] = trace.window_arrays()
    return windows


def _estimates(bodies) -> Dict[str, int]:
    answers: Dict[str, int] = {}
    for body in bodies:
        answers.update(json.loads(body).get("estimates", {}))
    return answers


def _offline(spec, windows):
    from repro.service import build_sketch

    offline = build_sketch(spec)
    for items in windows:
        offline.insert_window(items)
    return offline


def _compare(name, offline, answers, probe) -> List[str]:
    problems = [] if answers else [f"{name}: no estimates came back"]
    for key, value in answers.items():
        expected = int(offline.query(probe(key)))
        if int(value) != expected:
            problems.append(f"{name}: estimate for {key} is {value}, "
                            f"offline {expected}")
    return problems


def check(sched, out, windows, seconds) -> List[str]:
    problems = []
    codes = [code for i, code in enumerate(out["status"])
             if sched["phase"][i] != BULK]
    for result in out["bulk"]:
        codes += [code for _, _, replies in result for code, _ in replies]
    for i, code in enumerate(codes):
        if code != 200:
            label = "refused (429)" if code == 429 else f"status {code}"
            problems.append(f"request {i} {label}")
    for spec in tenant_specs(seconds):
        tenant = TENANTS.index(spec.name)
        bodies = [out["bodies"][i] for i in range(len(sched["requests"]))
                  if sched["phase"][i] == SWEEP
                  and sched["tenant"][i] == tenant
                  and sched["kind"][i] == ESTIMATE
                  and out["status"][i] == 200]
        probe = (lambda key: key) if spec.name == HEAVY else int
        problems += _compare(spec.name,
                             _offline(spec, windows[spec.name]),
                             _estimates(bodies), probe)
    # every closed-loop job fed the same windows to the same spec
    offline = _offline(heavy_spec(bulk_name(0)),
                       windows[HEAVY][:BULK_WINDOWS])
    for r, result in enumerate(out["bulk"]):
        bodies = [body for _, step, replies in result
                  for i, (code, body) in zip(step, replies)
                  if sched["kind"][i] == ESTIMATE and code == 200]
        problems += _compare(bulk_name(r), offline, _estimates(bodies),
                             lambda key: key)
    return problems


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
def all_specs(seconds: float):
    return tenant_specs(seconds) + [heavy_spec(bulk_name(r))
                                    for r in range(blocks_for(seconds))]


def _setups(workload: str, seed: int, work: Path, seconds: float):
    (work / "seconds").write_text(repr(seconds))
    render_s = [
        run_setup_child(["--workload", workload, "--seed", str(seed),
                         "--work", str(work)])
        for _ in range(SETUP_REPEATS)
    ]
    setup_s, server = [], None
    for i, rendered in enumerate(render_s):
        if server is not None:
            server.stop()
        server = Server(work / f"state-{i}", all_specs(seconds))
        setup_s.append(rendered + server.boot_s)
    return setup_s, server


def session_numbers(sched, out) -> Dict[str, object]:
    """Latency blocks, generator lag and round trips of the session.

    Tenant 0 is the chunked tenant whose windows are timed from the due
    time of their first chunk to the response to their barrier.
    """
    session = [i for i, p in enumerate(sched["phase"]) if p == SESSION]
    # the time each request waited from its due time to its response
    wait_ms = {i: (out["done"][i] - out["t0"][i] - sched["due"][i]) * 1e3
               for i in session}
    n_blocks = int(max(sched["due"][i] for i in session) // BLOCK_S) + 1
    window_ms = [[] for _ in range(n_blocks)]
    request_ms = [[] for _ in range(n_blocks)]
    for i in session:
        block = request_ms if sched["tenant"][i] else window_ms
        # a window's chunks share its barrier's due time
        if sched["tenant"][i] or sched["kind"][i] == BARRIER:
            block[int(sched["due"][i] // BLOCK_S)].append(wait_ms[i])
    depths = [json.loads(out["bodies"][i])["queue_depth"] for i in session
              if sched["tenant"][i] == 0 and sched["kind"][i] == INGEST]
    return {
        "window_ms": window_ms, "request_ms": request_ms,
        "lag_ms": [(out["sent"][i] - out["t0"][i] - sched["due"][i]) * 1e3
                   for i in session],
        "rtt_ms": {i: (out["done"][i] - out["sent"][i]) * 1e3
                   for i in session},
        "queue_depth": float(np.mean(depths)),
    }


def _bulk_numbers(sched, out) -> Dict[str, float]:
    """Throughput of the closed-loop jobs: each step's best pass."""
    passes = out["bulk"]
    best = best_per_position([[seconds for seconds, _, _ in result]
                              for result in passes])
    steps = [step for _, step, _ in passes[0]]
    kinds = [sched["kind"][step[-1]] for step in steps]
    ingest_s = sum(s for s, k in zip(best, kinds) if k == BARRIER)
    query_s = sum(s for s, k in zip(best, kinds) if k == ESTIMATE)
    records = sum(sched["n_items"][i] for step in steps for i in step
                  if sched["kind"][i] == INGEST)
    keys = sum(sched["n_items"][step[0]] for step, k in zip(steps, kinds)
               if k == ESTIMATE)
    return {"ingest_mrps": records / ingest_s / 1e6,
            "query_mqps": keys / query_s / 1e6,
            "job_s": sum(best), "windows": kinds.count(BARRIER),
            "batches": kinds.count(ESTIMATE)}


def measure(workload: str, seed: int, seconds: float, work: Path,
            trace_mode: bool) -> Dict[str, object]:
    setup_s, server = _setups(workload, seed, work, seconds)
    try:
        sched = load_schedule(work)
        gc.collect()
        out = drive(server.port, sched, seconds)
        metrics_text = server.metrics_text()
    finally:
        rss_mb = server.stop()
    numbers = session_numbers(sched, out)
    bulk = _bulk_numbers(sched, out)
    problems = check(sched, out, load_windows(work), seconds)
    n_bulk = sum(1 for p in sched["phase"] if p == BULK)
    passes = len(out["bulk"])
    attempted = len(sched["requests"]) - n_bulk + passes * n_bulk
    refused = sum(1 for p in problems if "(429)" in p)
    errors = sum(1 for p in problems if p.startswith("request ")) - refused
    lag_p99 = percentile(numbers["lag_ms"], 99)
    behind = lag_p99 > BEHIND_MS
    n_session = len(numbers["lag_ms"])
    lines = [
        f"{workload}: open loop for {seconds:g}s at {WINDOW_RATE:g} "
        f"windows/s per tenant ({n_session} requests) in {passes} blocks "
        f"of {BLOCK_S:g}s, each followed by a closed-loop job of "
        f"{bulk['windows']} heavy windows and {bulk['batches']} "
        f"estimates; {attempted} requests in all",
        f"  generator lag p50 {percentile(numbers['lag_ms'], 50):.3f} ms, "
        f"p99 {lag_p99:.3f} ms",
        f"  of {attempted} attempted: {errors} failed, {refused} refused "
        f"(429), {len(problems) - errors - refused} wrong answers",
    ]
    if behind:
        lines.append(f"WARNING: generator fell behind its schedule "
                     f"(lag p99 {lag_p99:.1f} ms > {BEHIND_MS:g} ms)")
    record = {"generator": {"lag_p99_ms": lag_p99, "behind": behind}}
    if trace_mode:
        result = _measure_traced(workload, work, seconds, sched, out,
                                 numbers, metrics_text, attempted, problems)
        result["lines"] = lines + result["lines"]
        result["record"] = record
        return result
    metrics, metric_lines = end_to_end(
        {
            "ingest_mrps": (bulk["ingest_mrps"], bulk["windows"]),
            "query_mqps": (bulk["query_mqps"], bulk["batches"]),
            "job_s": (bulk["job_s"], passes),
            "window_p50_ms": (block_percentile(numbers["window_ms"], 50),
                              sum(map(len, numbers["window_ms"]))),
            "window_p90_ms": (block_percentile(numbers["window_ms"], 90),
                              sum(map(len, numbers["window_ms"]))),
            "request_p90_ms": (block_percentile(numbers["request_ms"], 90),
                               sum(map(len, numbers["request_ms"]))),
            "peak_rss_mb": (rss_mb, 1),
            "setup_s": (median(setup_s), len(setup_s)),
        },
        notes=[f"throughput and job_s: best of {passes} closed-loop "
               f"jobs per window and per estimate request",
               f"latencies: median over {len(numbers['window_ms'])} "
               f"blocks of each block's percentile"],
    )
    return {"metrics": metrics, "attempted": attempted, "record": record,
            "problems": problems, "lines": lines + metric_lines}


# ----------------------------------------------------------------------
# the service layer: in-process replay of the session, with spans
# ----------------------------------------------------------------------
async def _replay(sched, order, payloads, state_dir: Path, specs):
    from repro.service import SketchService

    service = SketchService(state_dir=state_dir)
    await service.start()
    for spec in specs:
        await service.create_tenant(spec.to_dict())
    names = [spec.name for spec in specs]
    clock = time.perf_counter
    core = {}
    started = clock()
    for i in order:
        tenant = names[sched["tenant"][i]]
        kind = sched["kind"][i]
        t0 = clock()
        if kind == INGEST:
            await service.ingest(tenant, payloads[i]["items"])
        elif kind == BARRIER:
            await service.end_window(tenant, 1)
        elif kind == ESTIMATE:
            service.estimate(tenant, payloads[i]["keys"])
        else:
            service.report(tenant, payloads[i]["threshold"])
        core[i] = clock() - t0
    total = clock() - started
    counters = service.tenants[names[0]].sketch.metrics()
    await service.close()
    return core, total, counters


def replay(sched, work: Path, specs, tracer=None):
    """Replay the session, then the sweep, one request at a time.

    Returns ``(core, plain_s, traced_s, counters)``: each request's
    in-process seconds (from the traced replay when ``tracer`` is given)
    and the total times of the untraced and traced replays.
    """
    from spans import install_layer_spans

    order = sorted((i for i, p in enumerate(sched["phase"]) if p != BULK),
                   key=lambda i: (sched["phase"][i], sched["due"][i]))
    payloads = {i: body_of(sched["requests"][i]) for i in order}
    gc.collect()
    core, plain_s, counters = asyncio.run(
        _replay(sched, order, payloads, work / "replay-plain", specs))
    traced_s = None
    if tracer is not None:
        install_layer_spans(tracer)
        try:
            load_windows(work)  # the streams layer: traces back from .npz
            gc.collect()
            core, traced_s, counters = asyncio.run(_replay(
                sched, order, payloads, work / "replay-traced", specs))
        finally:
            tracer.unpatch()
    return core, plain_s, traced_s, counters


def service_layer(sched, numbers, core, metrics_text, tenant: str):
    """The ``service.*`` metrics of a session, for its tenant 0."""
    barriers = [core[i] * 1e3 for i in core
                if sched["tenant"][i] == 0 and sched["kind"][i] == BARRIER]
    return {
        "service.core_ms": median(barriers),
        "service.transport_ms": median(
            rtt - core[i] * 1e3 for i, rtt in numbers["rtt_ms"].items()),
        "service.chunks_per_barrier": _chunks_per_barrier(metrics_text,
                                                          tenant),
        "service.queue_depth": numbers["queue_depth"],
        "service.gen_lag_ms": percentile(numbers["lag_ms"], 99),
    }


def _measure_traced(workload, work, seconds, sched, out, numbers,
                    metrics_text, attempted, problems):
    from layers import finish_layer_metrics, span_metrics
    from spans import Tracer

    tracer = Tracer()
    core, plain_s, traced_s, counters = replay(
        sched, work, tenant_specs(seconds), tracer)
    layer = span_metrics(tracer, _heavy_ingest_path)
    layer.update(service_layer(sched, numbers, core, metrics_text, HEAVY))
    return finish_layer_metrics(workload, [layer], counters, tracer,
                                [plain_s], [traced_s], attempted,
                                problems, work)


def _heavy_ingest_path(span, ancestors) -> bool:
    for parent in ancestors:
        if parent.name == "service.end_window":
            return parent.args.get("tenant") == HEAVY
    return False


def _chunks_per_barrier(metrics_text: str, tenant: str) -> float:
    values = {}
    for line in metrics_text.splitlines():
        for name in ("service_tenant_coalesced_batches_total",
                     "service_tenant_windows_total"):
            if line.startswith(f'{name}{{tenant="{tenant}"}}'):
                values[name] = float(line.rsplit(" ", 1)[1])
    return (values["service_tenant_coalesced_batches_total"]
            / values["service_tenant_windows_total"])


# ----------------------------------------------------------------------
# a short service session over an offline workload's windows
# ----------------------------------------------------------------------
def probe_service(window_arrays, memory_bytes: int, work: Path,
                  seconds: float = 2.0) -> Dict[str, float]:
    """The ``service.*`` metrics of the offline workloads' traced run.

    Serves the first ``seconds`` of the trace's windows (integer keys) to
    one flat tenant of the workload's memory, on the service-mixed
    schedule for the heavy tenant, then replays the requests in-process.
    """
    from repro.service import TenantSpec

    windows = [keys.tolist() for keys in window_arrays[:windows_for(seconds)]]
    spec = TenantSpec(name="probe", kind="flat", memory_bytes=memory_bytes,
                      n_windows=len(window_arrays), checkpoint_every=1)
    rng = np.random.default_rng(0)
    rows = []
    for w, items in enumerate(windows):
        rows += chunked_window_rows(SESSION, w / WINDOW_RATE, 0, spec.name,
                                    w, items, rng)
    save_schedule(rows, work)
    sched = load_schedule(work)
    server = Server(work / "probe-state", [spec])
    try:
        async def session():
            n = len(sched["requests"])
            out = new_out(n)
            streams = [await asyncio.open_connection(HOST, server.port)
                       for _ in range(2)]
            await _open_loop(streams, sched, list(range(n)), out)
            for _, writer in streams:
                writer.close()
                await writer.wait_closed()
            return out

        out = asyncio.run(asyncio.wait_for(session(), 3 * seconds + 60))
        metrics_text = server.metrics_text()
    finally:
        server.stop()
    if any(code != 200 for code in out["status"]):
        raise RuntimeError("service probe: a request failed")
    numbers = session_numbers(sched, out)
    core, _, _, _ = replay(sched, work, [spec])
    return service_layer(sched, numbers, core, metrics_text, spec.name)
