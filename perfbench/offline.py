"""The offline workloads: a trace file on disk to final estimates and report.

``paper-dense`` runs the paper's density and horizon; ``sparse-small``
runs the same pipeline on sparse windows, where a fixed per-window cost
dominates.  Each timed job loads the trace (``load_trace_npz`` then
``window_arrays``), feeds every window to ``insert_window`` on the kernel
engine, queries every distinct item the exact oracle knows and takes the
report.
"""

from __future__ import annotations

import gc
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

from util import (
    QUERY_BATCH, best_per_position, end_to_end, median, percentile,
    run_setup_child, self_peak_rss_mb,
)

#: trace: ``caida_like`` arguments; prefix: windows replayed through the
#: scalar oracle by the output check
WORKLOADS = {
    "paper-dense": dict(trace=dict(scale=1.0, n_windows=1500),
                        memory=32 * 1024, prefix=20),
    "sparse-small": dict(trace=dict(), memory=8 * 1024, prefix=200),
}
SETUP_REPEATS = 3


def paths(work: Path) -> Dict[str, Path]:
    return {"trace": work / "trace.npz", "truth": work / "truth.npz"}


def setup(workload: str, seed: int, work: Path) -> None:
    """Generate the trace, write it as ``.npz``, store the exact oracle."""
    from repro.streams.io import save_trace_npz
    from repro.streams.oracle import exact_persistence
    from repro.streams.traces import caida_like

    trace = caida_like(seed=seed, **WORKLOADS[workload]["trace"])
    files = paths(work)
    save_trace_npz(trace, files["trace"])
    truth = exact_persistence(trace)
    keys = np.fromiter(truth.keys(), dtype=np.uint64, count=len(truth))
    values = np.fromiter(truth.values(), dtype=np.int64, count=len(truth))
    np.savez(files["truth"], keys=keys, values=values)


def _config(workload: str, n_windows: int):
    from repro.core import HSConfig
    return HSConfig.for_estimation(WORKLOADS[workload]["memory"], n_windows)


def run_job(workload: str, trace_path: Path, query_keys: List[int],
            tracer=None) -> Dict[str, object]:
    """One timed job: trace file -> sketch -> estimates -> report.

    Each step is timed on its own: loading, every window, every batch of
    ``QUERY_BATCH`` point queries, and the report.
    """
    from repro.core import HypersistentSketch
    from repro.streams import io as stream_io
    from repro.streams.oracle import alpha_threshold

    job_span = tracer.open("job") if tracer is not None else None
    clock = time.perf_counter
    started = clock()
    trace = stream_io.load_trace_npz(trace_path)
    arrays = trace.window_arrays()
    sketch = HypersistentSketch(_config(workload, trace.n_windows),
                                engine="kernel")
    load_s = clock() - started
    window_s = []
    for keys in arrays:
        t0 = clock()
        sketch.insert_window(keys)
        window_s.append(clock() - t0)
    estimates = []
    batch_s = []
    query = sketch.query
    for start in range(0, len(query_keys), QUERY_BATCH):
        batch = query_keys[start:start + QUERY_BATCH]
        t0 = clock()
        estimates += [query(key) for key in batch]
        batch_s.append(clock() - t0)
    t0 = clock()
    report = sketch.report(alpha_threshold(trace.n_windows, 0.5))
    report_s = clock() - t0
    job_s = clock() - started
    if tracer is not None:
        tracer.close(job_span)
    return {
        "trace": trace, "sketch": sketch, "estimates": estimates,
        "report": report, "records": trace.n_records, "job_s": job_s,
        "load_s": load_s, "window_s": window_s, "batch_s": batch_s,
        "report_s": report_s,
    }


def check(workload: str, job: Dict[str, object],
          truth: Dict[int, int]) -> List[str]:
    """Output checks; returns one problem string per failed operation."""
    from repro.core import HypersistentSketch
    from repro.persist import encode_state
    from repro.verify import CATALOG
    from repro.verify.invariants import RunContext

    trace, sketch = job["trace"], job["sketch"]
    problems: List[str] = []
    # 1. a prefix of windows through the scalar insert() oracle
    prefix = WORKLOADS[workload]["prefix"]
    config = _config(workload, trace.n_windows)
    oracle = HypersistentSketch(config, engine="scalar")
    kernel = HypersistentSketch(config, engine="kernel")
    for keys in trace.window_arrays()[:prefix]:
        for key in keys.tolist():
            oracle.insert(key)
        oracle.end_window()
        kernel.insert_window(keys)
    if encode_state(oracle.state_dict()) != encode_state(kernel.state_dict()):
        problems += ["prefix state differs from the scalar oracle"] * prefix
    if oracle.hash_ops != kernel.hash_ops:
        problems.append(f"prefix hash_ops {kernel.hash_ops} != scalar "
                        f"{oracle.hash_ops}")
    # 2. the catalog's final-scope bounds against exact persistence
    ctx = RunContext(sketch, trace, [])
    ctx.truth = truth
    ctx.windows_closed = trace.n_windows
    for invariant in CATALOG.values():
        if invariant.scope == "final" and invariant.applies(sketch):
            problems += [str(v) for v in invariant.check(ctx)]
    return problems


def _load_truth(work: Path):
    with np.load(paths(work)["truth"]) as data:
        keys = data["keys"].tolist()
        values = data["values"].tolist()
    return dict(zip(keys, values)), sorted(keys)


def measure(workload: str, seed: int, seconds: float, work: Path,
            trace_mode: bool) -> Dict[str, object]:
    setup_times = [
        run_setup_child(["--workload", workload, "--seed", str(seed),
                         "--work", str(work)])
        for _ in range(SETUP_REPEATS)
    ]
    truth, query_keys = _load_truth(work)
    trace_path = paths(work)["trace"]
    if trace_mode:
        return _measure_traced(workload, seconds, work, trace_path, truth,
                               query_keys, setup_times)

    jobs = []
    problems: List[str] = []
    reference = None
    attempted = 0
    deadline = time.perf_counter() + seconds
    while not jobs or time.perf_counter() < deadline:
        gc.collect()
        job = run_job(workload, trace_path, query_keys)
        attempted += len(job["window_s"]) + len(query_keys) + 1
        if reference is None:
            reference = job["estimates"]
            checked = time.perf_counter()
            problems += check(workload, job, truth)
            deadline += time.perf_counter() - checked
        problems += check_repeat(job, reference)
        jobs.append({k: job[k] for k in ("records", "job_s", "load_s",
                                         "window_s", "batch_s",
                                         "report_s")})
        del job
    return _offline_result(workload, jobs, len(query_keys), setup_times,
                           attempted, problems)


def check_repeat(job, reference) -> List[str]:
    """Every job must return the first job's estimates."""
    differ = sum(1 for a, b in zip(job["estimates"], reference) if a != b)
    return ["estimates differ between jobs"] * differ


def _offline_result(workload, jobs, n_queries, setup_times, attempted,
                    problems):
    """Metrics of the composite job: each step at its best repetition."""
    windows = best_per_position([j["window_s"] for j in jobs])
    batches = best_per_position([j["batch_s"] for j in jobs])
    sizes = [min(QUERY_BATCH, n_queries - start)
             for start in range(0, n_queries, QUERY_BATCH)]
    per_query_ms = [s / n * 1e3 for s, n in zip(batches, sizes)]
    job_s = (min(j["load_s"] for j in jobs) + sum(windows) + sum(batches)
             + min(j["report_s"] for j in jobs))
    window_ms = [s * 1e3 for s in windows]
    metrics, lines = end_to_end(
        {
            "ingest_mrps": (jobs[0]["records"] / sum(windows) / 1e6,
                            len(windows)),
            "query_mqps": (n_queries / sum(batches) / 1e6, len(batches)),
            "job_s": (job_s, len(jobs)),
            "window_p50_ms": (percentile(window_ms, 50), len(windows)),
            "window_p90_ms": (percentile(window_ms, 90), len(windows)),
            "request_p90_ms": (percentile(per_query_ms, 90), len(batches)),
            "peak_rss_mb": (self_peak_rss_mb(), 1),
            "setup_s": (median(setup_times), len(setup_times)),
        },
        notes=[f"every step at its best of {len(jobs)} jobs; the median "
               f"whole job took {median(j['job_s'] for j in jobs):.4g} s"],
    )
    head = (f"{workload}: {len(jobs)} jobs of {jobs[0]['records']} records "
            f"in {len(windows)} windows and {n_queries} point queries in "
            f"batches of {QUERY_BATCH}")
    return {"metrics": metrics, "attempted": attempted,
            "problems": problems, "lines": [head] + lines}


def _measure_traced(workload, seconds, work, trace_path, truth, query_keys,
                    setup_times):
    """Alternate untraced and traced jobs; per-layer metrics from spans."""
    from repro.obs.catalog import sketch_metrics
    from repro.persist import save_run_checkpoint
    from layers import finish_layer_metrics, span_metrics
    from spans import Tracer, install_layer_spans
    from svc import probe_service

    plain_s, traced_s, layer_runs = [], [], []
    problems: List[str] = []
    reference = None
    attempted = 0
    tracer = Tracer()
    deadline = time.perf_counter() + seconds
    while not traced_s or time.perf_counter() < deadline:
        gc.collect()
        job = run_job(workload, trace_path, query_keys)
        plain_s.append(job["job_s"])
        attempted += len(job["window_s"]) + len(query_keys) + 1
        if reference is None:
            reference = job["estimates"]
            problems += check(workload, job, truth)
        problems += check_repeat(job, reference)
        del job
        gc.collect()
        tracer.clear()
        install_layer_spans(tracer)
        try:
            job = run_job(workload, trace_path, query_keys, tracer=tracer)
            # the offline job writes no checkpoint; write the final state
            # once, after the job, to time the persist layer
            save_run_checkpoint(job["sketch"], work / "final.ckpt",
                                len(job["window_s"]))
        finally:
            tracer.unpatch()
        traced_s.append(job["job_s"])
        attempted += len(job["window_s"]) + len(query_keys) + 1
        problems += check_repeat(job, reference)
        layer_runs.append(span_metrics(tracer, _on_ingest_path))
        counters = sketch_metrics(job["sketch"])
        arrays = job["trace"].window_arrays()
        del job
    # the offline job has no service layer; serve its first windows
    service = probe_service(arrays, WORKLOADS[workload]["memory"], work)
    return finish_layer_metrics(
        workload, [dict(run, **service) for run in layer_runs], counters,
        tracer, plain_s, traced_s, attempted, problems, work,
    )


def _on_ingest_path(span, ancestors) -> bool:
    return span.name == "core.insert_window" or any(
        parent.name == "core.insert_window" for parent in ancestors)

