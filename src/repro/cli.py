"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list-experiments`` — show every registered paper artifact.
* ``run-experiment ID`` — regenerate one figure and print its tables
  (optionally as ASCII charts with ``--plot``).
* ``generate-trace`` — write a synthetic workload to CSV/NPZ.
* ``estimate`` — stream a saved trace through an algorithm and report
  accuracy against the exact oracle (``--profile`` adds a stage-latency
  breakdown, clocked on the kernel engine's window path only — use
  ``HS-KERNEL`` or ``--engine kernel``; ``--telemetry``/``--prom``
  export run telemetry).
* ``find`` — report persistent items from a saved trace.
* ``obs`` — tail a run's JSON-lines telemetry as a live ASCII panel
  (with a sketch-health footer when health gauges are present).
* ``trace`` — stream a trace with the flight recorder attached and
  export the recorded stage events as JSONL or Chrome trace-event JSON
  (viewable in Perfetto / ``chrome://tracing``).
* ``explain`` — per-key decision audit: replay a trace with the
  recorder attached and print where the key lives, every routing
  decision it hit, and how its estimate decomposes.
* ``verify`` — run the invariant catalog and an oracle-differential
  audit against a saved trace (or the default campaign suite).
* ``fuzz`` — deterministic fuzz campaign: generated workloads, the full
  invariant battery, failing cases shrunk and saved for replay.
* ``replay`` — re-run one saved fuzz case spec and report violations.
* ``checkpoint`` — stream a trace with a checkpoint-every-K-windows
  policy (optionally stopping early to simulate a crash).
* ``resume`` — restore a checkpoint, replay the remaining windows, and
  optionally prove the result bit-equal to an uninterrupted run.
* ``pipeline`` — distributed run: partition a trace by key across
  worker processes, checkpoint every K windows, recover killed workers
  from their checkpoints, and merge the partial sketches into one
  queryable result (optionally proven bit-equal to a single-process
  sharded run with ``--check``).
* ``serve`` — run the async multi-tenant sketch service: per-tenant
  flat/sharded/sliding sketches behind a JSON HTTP API with coalesced
  batch ingest, admission control, ``/metrics``, and per-tenant
  checkpoint recovery (see ``docs/SERVICE.md``).
* ``lint`` — run the sketch-specific static analyzer
  (:mod:`repro.staticcheck`) over the tree and report findings.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional

from .analysis.ascii_plot import plot_figure, telemetry_panel
from .analysis.metrics import aae, are, classify, estimate_all
from .core import ENGINES
from .experiments.harness import (
    BATCHED_ALGORITHMS,
    ESTIMATION_ALGORITHMS,
    FINDING_ALGORITHMS,
    run_algorithm,
)
from .obs import (
    HEALTH_PANEL_METRICS,
    HealthThresholds,
    MetricsRegistry,
    TraceRecorder,
    WindowProfiler,
    bind_sketch,
    read_jsonl,
    render_health,
    to_chrome_trace,
    to_prometheus,
    validate_chrome_trace,
    write_events_jsonl,
    write_spans_jsonl,
)

#: Labels accepted by ``estimate``/``compare``: the estimation suite plus
#: the whole-window ingestion variant (same estimates, kernel insert path).
_ESTIMATE_CHOICES = tuple(ESTIMATION_ALGORITHMS) + tuple(BATCHED_ALGORITHMS)

#: Labels ``trace``/``explain`` accept: only the Hypersistent builds carry
#: the flight-recorder wiring and the staged ``explain`` audit.
_TRACEABLE_CHOICES = ("HS", "HS-SIMD") + tuple(BATCHED_ALGORITHMS)
from .experiments.registry import (
    EXPERIMENTS,
    run_experiment,
    run_experiment_suite,
)
from .streams.io import (
    load_trace_csv,
    load_trace_npz,
    save_trace_csv,
    save_trace_npz,
)
from .streams.oracle import exact_persistence, persistent_items
from .streams.synthetic import zipf_trace
from .streams.traces import (
    big_caida_like,
    caida_like,
    campus_like,
    mawi_like,
    polygraph_like,
)

_TRACE_BUILDERS = {
    "zipf": None,  # handled specially (takes skew/records)
    "caida": caida_like,
    "big-caida": big_caida_like,
    "mawi": mawi_like,
    "campus": campus_like,
}


def _load_trace(path: str):
    if path.endswith(".npz"):
        return load_trace_npz(path)
    return load_trace_csv(path)


def _save_trace(trace, path: str) -> None:
    if path.endswith(".npz"):
        save_trace_npz(trace, path)
    else:
        save_trace_csv(trace, path)


def _cmd_list_experiments(_args) -> int:
    width = max(len(e) for e in EXPERIMENTS)
    for exp_id in sorted(EXPERIMENTS):
        exp = EXPERIMENTS[exp_id]
        print(f"{exp_id:<{width}}  {exp.paper_artifact:<24} "
              f"{exp.description}")
    return 0


def _cmd_run_experiment(args) -> int:
    try:
        suite = run_experiment_suite(
            args.experiment_ids, scale=args.scale, jobs=args.jobs
        )
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    for figures in suite.values():
        for figure in figures:
            print(figure.to_table())
            if args.plot:
                print(plot_figure(figure))
            print()
    return 0


def _cmd_generate_trace(args) -> int:
    if args.kind == "zipf":
        trace = zipf_trace(
            n_records=args.records,
            n_windows=args.windows,
            skew=args.skew,
            seed=args.seed,
            n_stealthy=args.stealthy,
        )
    elif args.kind in _TRACE_BUILDERS:
        builder = _TRACE_BUILDERS[args.kind]
        trace = builder(scale=args.scale, n_windows=args.windows,
                        seed=args.seed)
    else:  # one of the polygraph presets like "polygraph-1.5"
        skew = float(args.kind.split("-", 1)[1])
        trace = polygraph_like(skew, scale=args.scale,
                               n_windows=args.windows, seed=args.seed)
    _save_trace(trace, args.output)
    print(f"wrote {trace.n_records} records "
          f"({trace.n_distinct} distinct, {trace.n_windows} windows) "
          f"to {args.output}")
    return 0


def _estimate_sliding(args, trace) -> int:
    """``estimate --sliding``: recent-range accuracy of the two-panel
    sliding sketch, scored against the oracle over the covered windows."""
    from .core.sliding import SlidingHypersistentSketch
    from .experiments.harness import run_stream

    if args.algorithm != "HS":
        print(f"--sliding only supports --algorithm HS (the sliding "
              f"wrapper has no {args.algorithm} build)", file=sys.stderr)
        return 2
    if args.profile or args.telemetry or args.prom:
        print("--sliding does not support --profile/--telemetry/--prom "
              "(the window profiler binds to the flat staged sketch)",
              file=sys.stderr)
        return 2
    if args.horizon < 2:
        print("--sliding needs --horizon >= 2 windows", file=sys.stderr)
        return 2
    sketch = SlidingHypersistentSketch(
        int(args.memory_kb * 1024), horizon=args.horizon, seed=args.seed
    )
    result = run_stream(sketch, trace, engine=args.engine)
    coverage = sketch.coverage
    recent = trace.slice_windows(trace.n_windows - coverage,
                                 trace.n_windows)
    truth = exact_persistence(recent)
    estimates = estimate_all(sketch.query, truth)
    print(f"sliding HS @ {args.memory_kb}KB, horizon {args.horizon} on "
          f"{trace.name}:")
    print(f"  covering the last {coverage} of {trace.n_windows} windows")
    print(f"  AAE {aae(truth, estimates):.4f}   "
          f"ARE {are(truth, estimates):.4f}")
    print(f"  insert {result.insert.mops:.2f} Mops, "
          f"{result.insert.hash_ops_per_operation:.2f} hash ops/insert")
    return 0


def _cmd_estimate(args) -> int:
    trace = _load_trace(args.trace)
    if args.horizon and not args.sliding:
        print("--horizon requires --sliding", file=sys.stderr)
        return 2
    if args.sliding:
        return _estimate_sliding(args, trace)
    wants_obs = args.profile or args.telemetry or args.prom
    registry = MetricsRegistry() if wants_obs else None
    profiler = (
        WindowProfiler(registry=registry, sink=args.telemetry)
        if wants_obs else None
    )
    result = run_algorithm(
        args.algorithm, trace, int(args.memory_kb * 1024),
        task="estimation", seed=args.seed, profiler=profiler,
        engine=args.engine,
        # an explicit engine must actually run: route through the window
        # path, where the engine dispatch lives (record-at-a-time
        # streaming would silently ignore it for the classic labels)
        batched=True if args.engine is not None else None,
    )
    truth = exact_persistence(trace)
    estimates = estimate_all(result.sketch.query, truth)
    print(f"algorithm {args.algorithm} @ {args.memory_kb}KB on "
          f"{trace.name}:")
    print(f"  AAE {aae(truth, estimates):.4f}   "
          f"ARE {are(truth, estimates):.4f}")
    print(f"  insert {result.insert.mops:.2f} Mops, "
          f"{result.insert.hash_ops_per_operation:.2f} hash ops/insert")
    if args.profile:
        print()
        print(profiler.report())
    if args.prom:
        bind_sketch(registry, result.sketch)
        with open(args.prom, "w") as handle:
            handle.write(to_prometheus(registry))
        print(f"wrote Prometheus snapshot to {args.prom}")
    if args.telemetry:
        print(f"wrote {len(profiler.records)} telemetry records "
              f"to {args.telemetry}")
    return 0


#: Default metrics the ``obs`` panel tracks (when present in the records).
_OBS_DEFAULT_METRICS = (
    "seconds",
    "hs_inserts_total",
    "hs_burst_absorbed_total",
    "hs_burst_overflowed_total",
    "hs_cold_l1_hits_total",
    "hs_cold_l2_hits_total",
    "hs_cold_overflows_total",
    "hs_hot_replacements_total",
    "hs_hot_occupancy",
)


def _health_thresholds(args) -> HealthThresholds:
    """Build health thresholds from repeated ``--threshold NAME=VALUE``."""
    overrides = {}
    for pair in getattr(args, "threshold", None) or ():
        name, sep, value = pair.partition("=")
        if not sep:
            raise ValueError(
                f"--threshold expects NAME=VALUE, got {pair!r}"
            )
        overrides[name] = float(value)
    return HealthThresholds().with_overrides(overrides)


def _cmd_obs(args) -> int:
    metrics = (args.metrics.split(",") if args.metrics
               else list(_OBS_DEFAULT_METRICS))
    try:
        thresholds = _health_thresholds(args)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    refreshes = 0
    while True:
        records = read_jsonl(args.telemetry)
        if args.last and len(records) > args.last:
            records = records[-args.last:]
        if not records:
            print(f"no telemetry records in {args.telemetry} (yet)")
        else:
            if args.follow and sys.stdout.isatty():  # pragma: no cover
                print("\x1b[2J\x1b[H", end="")
            print(telemetry_panel(
                records, metrics, width=args.width,
                title=f"telemetry: {args.telemetry}",
            ))
            last = records[-1]
            sample = {name: float(last[name])
                      for name in HEALTH_PANEL_METRICS if name in last}
            if sample:
                print(render_health(sample, thresholds))
        refreshes += 1
        if not args.follow:
            return 0
        if args.refreshes and refreshes >= args.refreshes:
            return 0
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:  # pragma: no cover
            return 0


def _parse_item(raw: str):
    """CLI key argument: integers pass through, anything else is a label."""
    try:
        return int(raw)
    except ValueError:
        return raw


def _traced_run(args):
    """Stream ``args.trace`` with a flight recorder attached; return
    ``(trace, recorder, sketch)``."""
    trace = _load_trace(args.trace)
    recorder = TraceRecorder(capacity=args.capacity)
    result = run_algorithm(
        args.algorithm, trace, int(args.memory_kb * 1024),
        task="estimation", seed=args.seed, engine=args.engine,
        # an explicit engine must actually run: route through the window
        # path, where the engine dispatch lives (record-at-a-time
        # streaming would silently ignore it for the classic labels)
        batched=True if args.engine is not None else None,
        trace_recorder=recorder,
    )
    return trace, recorder, result.sketch


def _cmd_trace(args) -> int:
    import json
    from pathlib import Path

    trace, recorder, sketch = _traced_run(args)
    print(f"recorded {recorder.emitted} event(s) over {trace.n_windows} "
          f"window(s): {len(recorder)} retained, {recorder.dropped} "
          f"dropped, {len(recorder.spans)} span(s)")
    out = Path(args.out) if args.out else None
    if args.export == "chrome":
        payload = to_chrome_trace(recorder)
        problems = validate_chrome_trace(payload)
        if problems:  # pragma: no cover - guards exporter regressions
            for problem in problems:
                print(f"  schema: {problem}", file=sys.stderr)
            return 1
        out = out or Path("trace_chrome.json")
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload))
        print(f"wrote Chrome trace ({len(payload['traceEvents'])} "
              f"trace events) to {out}; open in Perfetto or "
              f"chrome://tracing")
    else:
        out = out or Path("trace_events.jsonl")
        written = write_events_jsonl(recorder, out)
        print(f"wrote {written} event record(s) to {out}")
    for raw in args.explain or ():
        print()
        print(sketch.explain(_parse_item(raw)))
    return 0


def _cmd_explain(args) -> int:
    _, _, sketch = _traced_run(args)
    for i, raw in enumerate(args.keys):
        if i:
            print()
        print(sketch.explain(_parse_item(raw)))
    return 0


def _cmd_find(args) -> int:
    trace = _load_trace(args.trace)
    result = run_algorithm(
        args.algorithm, trace, int(args.memory_kb * 1024),
        task="finding", seed=args.seed,
    )
    threshold = max(1, int(args.alpha * trace.n_windows))
    reported = result.sketch.report(threshold)
    truth = exact_persistence(trace)
    actual = persistent_items(truth, threshold)
    score = classify(set(reported), actual, len(truth))
    print(f"{args.algorithm} @ {args.memory_kb}KB, "
          f"alpha={args.alpha} (threshold {threshold}):")
    print(f"  reported {len(reported)} items; truly persistent "
          f"{len(actual)}")
    print(f"  F1 {score.f1:.3f}  FNR {score.fnr:.4f}  "
          f"FPR {score.fpr:.5f}")
    if args.show:
        for key, per in sorted(reported.items(), key=lambda kv: -kv[1]):
            marker = "*" if key in actual else " "
            print(f"  {marker} {key:>20}  estimate {per}")
    return 0


def _verify_config(args):
    from .verify import VerifyConfig
    return VerifyConfig(
        memory_bytes=int(args.memory_kb * 1024), seed=args.seed
    )


def _print_violations(violations) -> None:
    for violation in violations:
        print(f"  {violation}")


def _cmd_verify(args) -> int:
    from .verify import (
        check_trace,
        list_invariants,
        require_known,
        run_campaign,
    )
    if args.list:
        for row in list_invariants():
            print(f"{row['name']:<28} {row['scope']:<7} "
                  f"{row['description']}")
        return 0
    names = args.invariants.split(",") if args.invariants else None
    require_known(names)
    config = _verify_config(args)
    if args.trace:
        trace = _load_trace(args.trace)
        violations = check_trace(trace, config, names)
        print(f"verify {trace.name}: {len(violations)} violation(s)")
        _print_violations(violations)
        failed = bool(violations)
    else:
        report = run_campaign(seed=args.seed,
                              memory_grid=(config.memory_bytes,))
        print(report.summary())
        if args.report:
            report.save(args.report)
            print(f"wrote campaign report to {args.report}")
        failed = not report.ok
    return 1 if failed else 0


def _cmd_fuzz(args) -> int:
    from .verify import require_known, run_fuzz
    names = args.invariants.split(",") if args.invariants else None
    require_known(names)

    def progress(done: int, total: int) -> None:
        if done % 100 == 0 or done == total:
            print(f"  {done}/{total} cases", file=sys.stderr)

    report = run_fuzz(
        args.seed, args.cases,
        config=_verify_config(args),
        names=names,
        out_dir=args.out,
        max_failures=args.max_failures,
        progress=progress if not args.quiet else None,
        jobs=args.jobs,
    )
    print(report.summary())
    return 1 if report.failures else 0


def _cmd_replay(args) -> int:
    from .verify import replay_case, require_known
    names = args.invariants.split(",") if args.invariants else None
    require_known(names)
    violations = replay_case(args.case, _verify_config(args), names)
    print(f"replay {args.case}: {len(violations)} violation(s)")
    _print_violations(violations)
    return 1 if violations else 0


#: Checkpoint-meta algorithm label for the sliding wrapper (it is not a
#: harness label: resume rebuilds it from ``memory_bytes`` + ``horizon``).
_SLIDING_META_ALGORITHM = "HS-SLIDING"


def _cmd_checkpoint(args) -> int:
    from .core.sliding import SlidingHypersistentSketch
    from .experiments.harness import make_estimator
    from .persist import CheckpointPolicy

    trace = _load_trace(args.trace)
    stop_after = args.stop_after or trace.n_windows
    if not 1 <= stop_after <= trace.n_windows:
        print(f"--stop-after must be in [1, {trace.n_windows}]",
              file=sys.stderr)
        return 2
    if args.horizon and not args.sliding:
        print("--horizon requires --sliding", file=sys.stderr)
        return 2
    hint = trace.mean_window_distinct()
    meta = {
        "algorithm": args.algorithm,
        "memory_bytes": int(args.memory_kb * 1024),
        "seed": args.seed,
        "window_distinct_hint": hint,
    }
    if args.sliding:
        if args.algorithm != "HS":
            print(f"--sliding only supports --algorithm HS (the sliding "
                  f"wrapper has no {args.algorithm} build)",
                  file=sys.stderr)
            return 2
        if args.horizon < 2:
            print("--sliding needs --horizon >= 2 windows",
                  file=sys.stderr)
            return 2
        sketch = SlidingHypersistentSketch(
            int(args.memory_kb * 1024), horizon=args.horizon,
            seed=args.seed,
        )
        meta["algorithm"] = _SLIDING_META_ALGORITHM
        meta["horizon"] = args.horizon
        del meta["window_distinct_hint"]  # sliding panels self-size
    else:
        sketch = make_estimator(
            args.algorithm, int(args.memory_kb * 1024),
            n_windows=trace.n_windows, seed=args.seed,
            window_distinct_hint=hint,
        )
    if args.engine is not None:
        if not hasattr(sketch, "engine"):
            print(f"algorithm {args.algorithm} has no engine selector; "
                  f"cannot apply --engine {args.engine}", file=sys.stderr)
            return 2
        sketch.engine = args.engine
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    policy = CheckpointPolicy(args.out, every=args.every, meta=meta)
    window_arrays = trace.window_arrays()
    batched = hasattr(sketch, "insert_window")
    for wid in range(stop_after):
        if batched:
            sketch.insert_window(window_arrays[wid])
        else:
            for key in window_arrays[wid].tolist():
                sketch.insert(key)
            sketch.end_window()
        policy.window_closed(sketch, wid + 1, trace=trace)
    if stop_after % args.every:
        # the run stopped between interval marks: checkpoint the final
        # boundary directly so resume loses no completed window
        from .persist import save_run_checkpoint

        save_run_checkpoint(sketch, args.out, stop_after, trace=trace,
                            meta=policy.meta)
        policy.writes += 1
    print(f"streamed {stop_after}/{trace.n_windows} windows of "
          f"{trace.name}; {policy.writes} checkpoint(s) to {args.out}")
    return 0


def _cmd_resume(args) -> int:
    from .common.errors import ConfigError, SnapshotError
    from .core.sliding import SlidingHypersistentSketch
    from .experiments.harness import make_estimator, run_stream
    from .persist import read_run_checkpoint
    from .persist import resume as resume_run

    trace = _load_trace(args.trace)
    try:
        payload = read_run_checkpoint(args.checkpoint)
        sketch = resume_run(args.checkpoint, trace, strict=not args.force,
                            engine=args.engine)
    except (SnapshotError, ConfigError) as exc:
        print(f"cannot resume: {exc}", file=sys.stderr)
        return 2
    windows_done = int(payload["windows_done"])
    meta = payload.get("meta") or {}
    sliding = meta.get("algorithm") == _SLIDING_META_ALGORITHM
    print(f"resumed {type(sketch).__name__} at window {windows_done}, "
          f"replayed {trace.n_windows - windows_done} remaining window(s)")
    if sliding:
        # a sliding sketch only covers its recent range: score it
        # against the oracle over exactly the windows it still sees
        coverage = sketch.coverage
        truth = exact_persistence(
            trace.slice_windows(trace.n_windows - coverage,
                                trace.n_windows)
        )
        print(f"  covering the last {coverage} of {trace.n_windows} "
              f"window(s)")
    else:
        truth = exact_persistence(trace)
    estimates = estimate_all(sketch.query, truth)
    print(f"  AAE {aae(truth, estimates):.4f}   "
          f"ARE {are(truth, estimates):.4f}")
    if args.check_full:
        try:
            if sliding:
                reference = SlidingHypersistentSketch(
                    int(meta["memory_bytes"]),
                    horizon=int(meta["horizon"]), seed=int(meta["seed"]),
                )
            else:
                reference = make_estimator(
                    meta["algorithm"], int(meta["memory_bytes"]),
                    n_windows=trace.n_windows, seed=int(meta["seed"]),
                    window_distinct_hint=meta.get("window_distinct_hint"),
                )
        except KeyError as exc:
            print(f"checkpoint meta lacks {exc}; cannot rebuild the "
                  f"reference run", file=sys.stderr)
            return 2
        run_stream(reference, trace)
        mismatches = [
            key for key in truth
            if reference.query(key) != sketch.query(key)
        ]
        if hasattr(sketch, "report") and hasattr(reference, "report"):
            if sketch.report(1) != reference.report(1):
                mismatches.append("report(1)")
        if mismatches:
            print(f"  NOT bit-equal to the uninterrupted run: "
                  f"{len(mismatches)} mismatch(es), first: {mismatches[0]}")
            return 1
        print("  bit-equal to an uninterrupted run "
              f"({len(truth)} keys + report)")
    return 0


def _cmd_pipeline(args) -> int:
    from .core import HypersistentSketch, ShardedSketch
    from .distributed import run_pipeline, worker_config
    from .persist import encode_state

    trace = _load_trace(args.trace)
    kill_at = None
    if args.kill:
        try:
            worker, window = (int(x) for x in args.kill.split(":"))
        except ValueError:
            print("--kill wants WORKER:WINDOW (e.g. --kill 1:10)",
                  file=sys.stderr)
            return 2
        if not 0 <= worker < args.workers:
            print(f"--kill worker must be in [0, {args.workers})",
                  file=sys.stderr)
            return 2
        kill_at = (worker, window)
    memory_bytes = int(args.memory_kb * 1024)
    recorder = TraceRecorder() if args.trace_events else None
    result = run_pipeline(
        trace, memory_bytes,
        n_workers=args.workers,
        out_dir=args.out,
        seed=args.seed,
        engine=args.engine,
        every=args.every,
        kill_at=kill_at,
        recorder=recorder,
    )
    print(result.report.summary())
    report_path = Path(args.out) / "pipeline_report.json"
    report_path.write_text(
        json.dumps(result.report.to_dict(), indent=2) + "\n"
    )
    print(f"wrote run report to {report_path}")
    if recorder is not None:
        written = write_spans_jsonl(recorder, args.trace_events)
        print(f"wrote {written} merge/worker span(s) to {args.trace_events}")
    if args.check:
        # rebuild the single-process sharded reference with the same
        # partitioning derivation and demand byte equality
        hint = trace.mean_window_distinct()
        configs = [
            worker_config(memory_bytes, trace.n_windows, i, args.workers,
                          seed=args.seed, window_distinct_hint=hint)
            for i in range(args.workers)
        ]
        reference = ShardedSketch(
            lambda i: HypersistentSketch(configs[i]),
            n_shards=args.workers, seed=args.seed, engine=args.engine,
        )
        for window_keys in trace.window_arrays():
            reference.insert_window(window_keys)
        if encode_state(result.sketch.state_dict()) != encode_state(
                reference.state_dict()):
            print("  NOT bit-equal to the single-process sharded run")
            return 1
        print("  bit-equal to a single-process sharded run "
              "(snapshot bytes)")
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from .service import SketchService
    from .service.http import run_server

    max_bytes = (int(args.max_memory_kb * 1024)
                 if args.max_memory_kb else None)
    service = SketchService(
        max_memory_bytes=max_bytes,
        state_dir=args.state_dir,
        queue_limit=args.queue_limit,
    )

    async def serve() -> None:
        recovered = await service.start()
        if recovered:
            print(f"recovered {len(recovered)} tenant(s) from "
                  f"{args.state_dir}: {', '.join(recovered)}", flush=True)

        def announce(server) -> None:
            # parseable by smoke scripts driving an ephemeral --port 0
            print(f"repro serve listening on "
                  f"http://{server.host}:{server.port}", flush=True)

        await run_server(service, args.host, args.port, announce=announce)

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        pass
    return 0


def _cmd_lint(args) -> int:
    from .staticcheck import (
        apply_baseline,
        default_registry,
        load_baseline,
        render_human,
        render_json,
        run_lint,
    )
    if args.list:
        for rule in default_registry():
            print(f"{rule.rule_id:<12} {rule.severity:<8} "
                  f"{rule.description}")
        return 0
    select = args.select.split(",") if args.select else None
    ignore = args.ignore.split(",") if args.ignore else None
    if args.explain:
        select = [args.explain]
    try:
        findings = run_lint(
            args.root, paths=args.paths or None,
            select=select, ignore=ignore,
        )
    except ValueError as exc:  # unknown rule id in --select/--ignore
        print(exc, file=sys.stderr)
        return 2
    stale = []
    if args.baseline:
        findings, stale = apply_baseline(
            findings, load_baseline(args.baseline)
        )
    if args.explain:
        for finding in findings:
            print(f"{finding.path}:{finding.line}: "
                  f"{finding.rule_id} {finding.message}")
            print(f"    {finding.detail or '(no detail recorded)'}")
        if not findings:
            print(f"no {args.explain} findings")
        return 1 if findings else 0
    if args.format == "json":
        print(render_json(findings))
    else:
        print(render_human(findings))
        for entry in stale:
            print(f"note: stale baseline entry {entry.rule} "
                  f"{entry.path} (matched nothing)", file=sys.stderr)
    return 1 if findings else 0


def _cmd_compare(args) -> int:
    trace = _load_trace(args.trace)
    truth = exact_persistence(trace)
    keys = list(truth)
    from .analysis.comparison import compare as compare_figures
    from .experiments.report import FigureResult

    series = {}
    for name in args.algorithms:
        result = run_algorithm(
            name, trace, int(args.memory_kb * 1024),
            task="estimation", seed=args.seed,
        )
        estimates = estimate_all(result.sketch.query, keys)
        series[name] = [aae(truth, estimates), are(truth, estimates)]
    figure = FigureResult(
        figure_id="compare",
        title=f"Estimation accuracy on {trace.name} "
              f"@ {args.memory_kb:g}KB",
        x_label="metric",
        x_values=["AAE", "ARE"],
        series=series,
    )
    print(figure.to_table())
    if len(series) > 1 and args.algorithms[0] in series:
        verdict = compare_figures(figure, subject=args.algorithms[0])
        print()
        print(verdict.summary())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hypersistent Sketch reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "list-experiments", help="list reproducible paper artifacts"
    ).set_defaults(func=_cmd_list_experiments)

    p = sub.add_parser(
        "run-experiment",
        help="regenerate one or more paper figures",
    )
    p.add_argument("experiment_ids", nargs="+", metavar="experiment_id")
    p.add_argument("--scale", type=float, default=None,
                   help="trace scale (default: REPRO_BENCH_SCALE or 0.01)")
    p.add_argument("--plot", action="store_true",
                   help="also render ASCII charts")
    p.add_argument("--jobs", type=int, default=1,
                   help="run experiments on this many worker processes "
                        "(results identical to sequential)")
    p.set_defaults(func=_cmd_run_experiment)

    p = sub.add_parser("generate-trace", help="write a synthetic workload")
    p.add_argument("kind", help="zipf | caida | big-caida | mawi | campus "
                   "| polygraph-<skew>")
    p.add_argument("output", help=".csv or .npz path")
    p.add_argument("--records", type=int, default=100_000)
    p.add_argument("--windows", type=int, default=1500)
    p.add_argument("--skew", type=float, default=1.5)
    p.add_argument("--scale", type=float, default=0.01)
    p.add_argument("--stealthy", type=int, default=0)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=_cmd_generate_trace)

    p = sub.add_parser("estimate", help="persistence estimation accuracy")
    p.add_argument("trace", help="trace file (.csv or .npz)")
    p.add_argument("--algorithm", choices=_ESTIMATE_CHOICES,
                   default="HS")
    p.add_argument("--memory-kb", type=float, default=64)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--engine", choices=ENGINES,
                   default=None,
                   help="force a batch ingestion backend on sketches that "
                        "support one (bit-identical results; speed only)")
    p.add_argument("--profile", action="store_true",
                   help="print a per-stage latency breakdown of the run")
    p.add_argument("--telemetry", metavar="PATH",
                   help="write per-window telemetry records (JSON lines)")
    p.add_argument("--prom", metavar="PATH",
                   help="write a Prometheus text-format metrics snapshot")
    p.add_argument("--sliding", action="store_true",
                   help="estimate over a sliding recent range with the "
                        "two-panel wrapper (HS only; scored against the "
                        "oracle over the covered windows)")
    p.add_argument("--horizon", type=int, default=0,
                   help="sliding-window horizon in windows "
                        "(requires --sliding; >= 2)")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser(
        "obs", help="tail run telemetry as a live ASCII panel"
    )
    p.add_argument("telemetry", help="JSON-lines telemetry file to tail")
    p.add_argument("--metrics",
                   help="comma-separated record fields to chart "
                        "(default: stage routing + latency)")
    p.add_argument("--last", type=int, default=0,
                   help="only show the most recent N windows")
    p.add_argument("--width", type=int, default=40,
                   help="sparkline width in columns")
    p.add_argument("--follow", action="store_true",
                   help="keep re-reading the file and refreshing")
    p.add_argument("--interval", type=float, default=1.0,
                   help="refresh period in seconds (with --follow)")
    p.add_argument("--refreshes", type=int, default=0,
                   help="stop after N refreshes (0 = until interrupted)")
    p.add_argument("--threshold", action="append", metavar="NAME=VALUE",
                   help="override a health alert threshold (repeatable; "
                        "names are the hs_health_* gauge names plus "
                        "hs_hot_occupancy)")
    p.set_defaults(func=_cmd_obs)

    p = sub.add_parser(
        "trace",
        help="record stage events for a run and export them "
             "(JSONL or Chrome trace-event JSON)",
    )
    p.add_argument("trace", help="trace file (.csv or .npz)")
    p.add_argument("--algorithm", choices=_TRACEABLE_CHOICES, default="HS")
    p.add_argument("--memory-kb", type=float, default=64)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--engine", choices=ENGINES,
                   default=None,
                   help="force a batch ingestion backend (bit-identical "
                        "results; changes which bulk events are emitted)")
    p.add_argument("--capacity", type=int, default=65536,
                   help="flight-recorder ring size (oldest events drop "
                        "beyond this)")
    p.add_argument("--export", choices=("jsonl", "chrome"),
                   default="jsonl",
                   help="output format: JSON-lines event records or "
                        "Chrome trace-event JSON (Perfetto-compatible)")
    p.add_argument("--out", metavar="PATH",
                   help="output path (default: trace_events.jsonl / "
                        "trace_chrome.json)")
    p.add_argument("--explain", action="append", metavar="KEY",
                   help="also print the decision audit for KEY "
                        "(repeatable)")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "explain",
        help="per-key decision audit: replay a trace and narrate one "
             "key's routing and estimate decomposition",
    )
    p.add_argument("trace", help="trace file (.csv or .npz)")
    p.add_argument("keys", nargs="+", metavar="KEY",
                   help="item key(s) to audit (integers or labels)")
    p.add_argument("--algorithm", choices=_TRACEABLE_CHOICES, default="HS")
    p.add_argument("--memory-kb", type=float, default=64)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--engine", choices=ENGINES,
                   default=None,
                   help="force a batch ingestion backend (bit-identical "
                        "results; changes which bulk events are emitted)")
    p.add_argument("--capacity", type=int, default=65536,
                   help="flight-recorder ring size")
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser(
        "compare", help="compare algorithms' estimation accuracy"
    )
    p.add_argument("trace", help="trace file (.csv or .npz)")
    p.add_argument("--algorithms", nargs="+",
                   choices=_ESTIMATE_CHOICES,
                   default=["HS", "OO", "CM"])
    p.add_argument("--memory-kb", type=float, default=16)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser(
        "verify",
        help="check invariants / differential accuracy on a trace",
    )
    p.add_argument("trace", nargs="?", default=None,
                   help="trace file (.csv or .npz); omit to run the "
                        "default differential campaign suite")
    p.add_argument("--list", action="store_true",
                   help="list the invariant catalog and exit")
    p.add_argument("--invariants",
                   help="comma-separated invariant names to check "
                        "(default: all)")
    p.add_argument("--memory-kb", type=float, default=8)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--report", metavar="PATH",
                   help="write the campaign report as JSON")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "fuzz",
        help="deterministic fuzz campaign over generated workloads",
    )
    p.add_argument("--seed", type=int, default=0,
                   help="master seed; (seed, cases) fully determines "
                        "the campaign")
    p.add_argument("--cases", type=int, default=100,
                   help="number of generated cases to check")
    p.add_argument("--invariants",
                   help="comma-separated invariant names to check "
                        "(default: all)")
    p.add_argument("--memory-kb", type=float, default=8)
    p.add_argument("--out", default="results/fuzz",
                   help="artifact directory for failing cases")
    p.add_argument("--max-failures", type=int, default=10,
                   help="stop the campaign after this many failures")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-100-case progress lines")
    p.add_argument("--jobs", type=int, default=1,
                   help="check cases on this many worker processes "
                        "(campaign results are bit-identical to "
                        "sequential)")
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser(
        "replay", help="re-run a saved fuzz case spec"
    )
    p.add_argument("case", help="case spec JSON "
                   "(results/fuzz/case-*/shrunk.json)")
    p.add_argument("--invariants",
                   help="comma-separated invariant names to check "
                        "(default: all)")
    p.add_argument("--memory-kb", type=float, default=8)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser(
        "checkpoint",
        help="stream a trace with checkpoint-every-K-windows persistence",
    )
    p.add_argument("trace", help="trace file (.csv or .npz)")
    p.add_argument("--algorithm", choices=_ESTIMATE_CHOICES, default="HS")
    p.add_argument("--memory-kb", type=float, default=64)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--every", type=int, default=10,
                   help="checkpoint every K closed windows")
    p.add_argument("--out", default="results/checkpoint.bin",
                   help="checkpoint file path (atomically overwritten)")
    p.add_argument("--stop-after", type=int, default=0, metavar="W",
                   help="stop after W windows (simulate a crash; "
                        "0 = stream the whole trace)")
    p.add_argument("--engine", choices=ENGINES,
                   default=None,
                   help="force a batch ingestion backend (bit-identical "
                        "results; errors on sketches without a selector)")
    p.add_argument("--sliding", action="store_true",
                   help="checkpoint the two-panel sliding wrapper "
                        "instead of the whole-stream sketch (HS only)")
    p.add_argument("--horizon", type=int, default=0,
                   help="sliding-window horizon in windows "
                        "(requires --sliding; >= 2)")
    p.set_defaults(func=_cmd_checkpoint)

    p = sub.add_parser(
        "resume",
        help="restore a checkpoint and replay the remaining windows",
    )
    p.add_argument("checkpoint", help="checkpoint file written by "
                   "'repro checkpoint' (or run_stream's policy)")
    p.add_argument("trace", help="the same trace the checkpoint was "
                   "taken against (.csv or .npz)")
    p.add_argument("--force", action="store_true",
                   help="skip the trace-identity check")
    p.add_argument("--check-full", action="store_true",
                   help="also rebuild the sketch from the checkpoint's "
                        "meta, run it uninterrupted, and verify the "
                        "resumed estimates are bit-equal")
    p.add_argument("--engine", choices=ENGINES,
                   default=None,
                   help="replay the remaining windows on this batch "
                        "backend (bit-identical results; errors on "
                        "sketches without a selector)")
    p.set_defaults(func=_cmd_resume)

    p = sub.add_parser(
        "pipeline",
        help="distributed run: partition a trace across worker "
             "processes, checkpoint, recover crashes, merge",
    )
    p.add_argument("trace", help="trace file (.csv or .npz)")
    p.add_argument("--workers", type=int, default=4,
                   help="worker process count (= shard count)")
    p.add_argument("--memory-kb", type=float, default=64,
                   help="total memory budget, split across workers")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--engine", choices=ENGINES,
                   default="kernel",
                   help="ingest backend per worker (bit-equivalent)")
    p.add_argument("--every", type=int, default=8,
                   help="checkpoint every K closed windows")
    p.add_argument("--out", default="results/pipeline",
                   help="checkpoint + report directory")
    p.add_argument("--kill", metavar="WORKER:WINDOW",
                   help="fault injection: SIGKILL this worker mid-window "
                        "once (it must recover from its checkpoint)")
    p.add_argument("--check", action="store_true",
                   help="also run the single-process sharded reference "
                        "and verify the merged result is bit-equal")
    p.add_argument("--trace-events", metavar="PATH",
                   help="write per-worker and merge spans as JSONL")
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser(
        "serve",
        help="run the async multi-tenant sketch service "
             "(JSON HTTP API + /metrics + checkpoint recovery)",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default: loopback only)")
    p.add_argument("--port", type=int, default=8787,
                   help="TCP port (0 = OS-assigned; the bound port is "
                        "printed on startup)")
    p.add_argument("--state-dir", default=None, metavar="DIR",
                   help="tenant checkpoint directory; enables crash "
                        "recovery and recovers existing tenants on start")
    p.add_argument("--max-memory-kb", type=float, default=0,
                   help="global admission budget summed across tenant "
                        "memory budgets (0 = uncapped)")
    p.add_argument("--queue-limit", type=int, default=1024,
                   help="per-tenant pending ingest-command cap "
                        "(beyond it, ingest returns 429 backpressure)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "lint",
        help="run the sketch-specific static analyzer (repro.staticcheck)",
    )
    p.add_argument("paths", nargs="*",
                   help="directories or .py files to lint, relative to "
                        "--root (default: src/repro, scripts, examples, "
                        "benchmarks)")
    p.add_argument("--root", default=".",
                   help="repository root paths are resolved against")
    p.add_argument("--format", choices=("human", "json"), default="human")
    p.add_argument("--select",
                   help="comma-separated rule IDs to run; a trailing * "
                        "globs a family (SC-ASYNC* selects SC-ASYNC-RACE)")
    p.add_argument("--ignore",
                   help="comma-separated rule IDs to skip (globs allowed)")
    p.add_argument("--explain", metavar="ID",
                   help="run only rule ID and print each finding's "
                        "detail — for tier-2 rules, the CFG path that "
                        "triggered it")
    p.add_argument("--baseline", metavar="PATH",
                   help="suppress findings matched by this baseline JSON "
                        "(LINT_baseline.json format or a prior JSON "
                        "report)")
    p.add_argument("--list", action="store_true",
                   help="list the rule catalog and exit")
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser("find", help="report persistent items")
    p.add_argument("trace", help="trace file (.csv or .npz)")
    p.add_argument("--algorithm", choices=FINDING_ALGORITHMS, default="HS")
    p.add_argument("--memory-kb", type=float, default=16)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--show", action="store_true",
                   help="list reported items (* = truly persistent)")
    p.set_defaults(func=_cmd_find)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
