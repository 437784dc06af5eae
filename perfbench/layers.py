"""Per-layer metrics of the traced run, common to every workload."""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, List

from util import median, metric

#: per-layer metric -> unit, in BENCHMARK.json order
UNITS = {
    "streams.load_s": "s",
    "hashing.canonical_ns_per_key": "ns",
    "kernels.burst_s": "s",
    "kernels.cold_s": "s",
    "kernels.hot_s": "s",
    "kernels.end_s": "s",
    "kernels.window_us": "us",
    "burst.absorbed_ratio": "ratio",
    "cold.l1_ratio": "ratio",
    "cold.promote_ratio": "ratio",
    "hot.replace_ratio": "ratio",
    "hot.occupancy": "ratio",
    "hash_ops_per_insert": "count",
    "core.query_us": "us",
    "core.report_ms": "ms",
    "persist.encode_ms": "ms",
    "persist.bytes": "bytes",
    "persist.write_ms": "ms",
    "service.core_ms": "ms",
    "service.transport_ms": "ms",
    "service.chunks_per_barrier": "count",
    "service.queue_depth": "count",
    "service.gen_lag_ms": "ms",
    "trace.overhead_pct": "%",
}


def span_metrics(tracer, on_path: Callable) -> Dict[str, float]:
    """Layer numbers read off the spans of one traced repetition.

    ``on_path(span, ancestors)`` picks the ``canonical_keys`` and
    ``insert_window`` spans of the window stream the workload is about
    (the offline job's windows, the service's heavy tenant); the other
    layers count every span.
    """
    by_id = {span.sid: span for span in tracer.spans}

    def ancestors(span):
        while span.parent is not None:
            span = by_id[span.parent]
            yield span

    def total(name):
        return sum(s.dur for s in tracer.named(name))

    hashing = [s for s in tracer.named("hashing.canonical_keys")
               if on_path(s, ancestors(s))]
    windows = [s for s in tracer.named("core.insert_window")
               if on_path(s, ancestors(s))]
    encodes = tracer.named("persist.encode_state")
    return {
        "streams.load_s": total("streams.load_trace_npz")
        + total("streams.window_arrays"),
        "hashing.canonical_ns_per_key": sum(s.dur for s in hashing)
        / max(1, sum(s.args["keys"] for s in hashing)) * 1e9,
        "kernels.burst_s": total("kernels.burst"),
        "kernels.cold_s": total("kernels.cold"),
        "kernels.hot_s": total("kernels.hot"),
        "kernels.end_s": total("kernels.end"),
        "kernels.window_us": sum(s.dur for s in windows) / len(windows)
        * 1e6,
        "core.query_us": median(s.dur for s in tracer.named("core.query"))
        * 1e6,
        "core.report_ms": median(s.dur for s in tracer.named("core.report"))
        * 1e3,
        "persist.encode_ms": median(s.dur for s in encodes) * 1e3,
        "persist.bytes": median(s.args["bytes"] for s in encodes),
        "persist.write_ms": median(
            s.dur for s in tracer.named("persist.atomic_write_bytes")) * 1e3,
    }


def stage_counters(counters: Dict[str, float]) -> Dict[str, float]:
    """Stage ratios from a ``sketch_metrics`` snapshot (exact counts)."""
    arrivals = (counters["hs_cold_l1_hits_total"]
                + counters["hs_cold_l2_hits_total"]
                + counters["hs_cold_overflows_total"])
    attempts = counters["hs_hot_replacement_attempts_total"]
    inserts = counters["hs_inserts_total"]
    return {
        "burst.absorbed_ratio":
            counters.get("hs_burst_absorbed_total", 0) / inserts,
        "cold.l1_ratio": counters["hs_cold_l1_hits_total"] / arrivals,
        "cold.promote_ratio": counters["hs_cold_overflows_total"] / arrivals,
        "hot.replace_ratio":
            counters["hs_hot_replacements_total"] / attempts
            if attempts else 0.0,
        "hot.occupancy": counters["hs_hot_occupancy"],
        "hash_ops_per_insert": counters["hs_hash_ops_total"] / inserts,
    }


def finish_layer_metrics(workload: str, layer_runs: List[Dict[str, float]],
                         counters: Dict[str, float], tracer,
                         plain_s: List[float], traced_s: List[float],
                         attempted: int, problems: List[str],
                         work: Path) -> Dict[str, object]:
    """Fold traced repetitions into the per-layer metric set.

    Writes the last traced repetition's spans as Chrome trace JSON,
    validates it, and prints self time per layer next to it.
    """
    from repro.obs.trace import validate_chrome_trace
    from spans import self_time_table

    values = {name: median(run[name] for run in layer_runs)
              for name in layer_runs[0]}
    values.update(stage_counters(counters))
    values["trace.overhead_pct"] = \
        (median(traced_s) / median(plain_s) - 1.0) * 100.0
    missing = sorted(set(UNITS) - set(values))
    if missing:
        raise RuntimeError(f"traced run lacks {missing}")
    metrics = {name: metric(values[name], UNITS[name]) for name in UNITS}

    trace_path = work.parent / f"trace-{workload}.json"
    payload = tracer.write_chrome(trace_path)
    schema = validate_chrome_trace(payload)
    problems = problems + [f"chrome trace: {p}" for p in schema]
    roots = [s for s in tracer.spans if s.parent is None]
    total = sum(s.dur for s in roots)
    ingest = sum(s.dur for s in tracer.named("core.insert_window"))
    stages = sum(sum(s.dur for s in tracer.named(f"kernels.{stage}"))
                 for stage in ("burst", "cold", "hot", "end"))
    lines = [
        f"{workload} traced: {len(traced_s)} traced / {len(plain_s)} "
        f"untraced repetitions, tracing overhead "
        f"{values['trace.overhead_pct']:+.1f}%",
        f"  {len(tracer.spans)} spans -> {trace_path.name} "
        f"({'valid' if not schema else f'{len(schema)} schema problems'})",
        f"  kernel stages (burst+cold+hot+end) are {stages / ingest:.1%} "
        f"of the {ingest:.3f}s spent in insert_window",
        f"  self time per layer over {total:.3f}s of root spans:",
        self_time_table(tracer, total),
    ]
    lines += [f"  {name:<36} {m['value']:>14.6g} {m['unit']}"
              for name, m in metrics.items()]
    return {"metrics": metrics, "attempted": attempted,
            "problems": problems, "lines": lines}
