"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.streams import zipf_trace
from repro.streams.io import save_trace_npz


@pytest.fixture
def trace_file(tmp_path):
    trace = zipf_trace(4000, 30, seed=23, n_items=600, n_stealthy=2)
    path = tmp_path / "t.npz"
    save_trace_npz(trace, path)
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    @pytest.mark.parametrize("argv", [
        ["estimate", "t.npz"],
        ["trace", "t.npz"],
        ["explain", "t.npz", "7"],
        ["checkpoint", "t.npz"],
        ["resume", "c.bin", "t.npz"],
        ["pipeline", "t.npz"],
    ], ids=lambda argv: argv[0])
    def test_retired_batched_engine_exits_two(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv + ["--engine", "batched"])
        assert exc.value.code == 2
        assert "invalid choice: 'batched'" in capsys.readouterr().err


class TestListExperiments:
    def test_lists_all_figures(self, capsys):
        assert main(["list-experiments"]) == 0
        out = capsys.readouterr().out
        for fid in ("fig04", "fig11", "fig20", "ablation-burst"):
            assert fid in out


class TestRunExperiment:
    def test_unknown_id_fails_cleanly(self, capsys):
        assert main(["run-experiment", "fig99"]) == 2
        assert "fig99" in capsys.readouterr().err

    def test_fig04_with_plot(self, capsys):
        assert main(["run-experiment", "fig04", "--scale", "0.002",
                     "--plot"]) == 0
        out = capsys.readouterr().out
        assert "[fig04]" in out
        assert "y[" in out  # the ASCII chart was rendered


class TestGenerateTrace:
    def test_zipf_to_npz(self, tmp_path, capsys):
        out_path = tmp_path / "z.npz"
        code = main([
            "generate-trace", "zipf", str(out_path),
            "--records", "2000", "--windows", "20", "--seed", "3",
        ])
        assert code == 0
        assert out_path.exists()
        assert "2000 records" in capsys.readouterr().out

    def test_named_trace_to_csv(self, tmp_path):
        out_path = tmp_path / "c.csv"
        code = main([
            "generate-trace", "caida", str(out_path),
            "--scale", "0.002", "--windows", "30",
        ])
        assert code == 0
        assert out_path.exists()

    def test_polygraph_preset(self, tmp_path):
        out_path = tmp_path / "p.npz"
        code = main([
            "generate-trace", "polygraph-2.0", str(out_path),
            "--scale", "0.002", "--windows", "30",
        ])
        assert code == 0


class TestCompare:
    def test_compare_default_algorithms(self, trace_file, capsys):
        assert main(["compare", trace_file, "--memory-kb", "8"]) == 0
        out = capsys.readouterr().out
        assert "AAE" in out and "HS" in out and "best at" in out

    def test_compare_custom_set(self, trace_file, capsys):
        assert main([
            "compare", trace_file, "--algorithms", "OO", "CM",
            "--memory-kb", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "OO" in out and "CM" in out

    def test_compare_rejects_unknown_algorithm(self, trace_file):
        with pytest.raises(SystemExit):
            main(["compare", trace_file, "--algorithms", "nope"])


class TestEstimateAndFind:
    def test_estimate(self, trace_file, capsys):
        code = main([
            "estimate", trace_file, "--algorithm", "HS",
            "--memory-kb", "16",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "AAE" in out and "ARE" in out

    def test_estimate_all_algorithms(self, trace_file):
        for name in ("OO", "CM"):
            assert main(["estimate", trace_file, "--algorithm", name,
                         "--memory-kb", "8"]) == 0

    def test_checkpoint_creates_missing_out_directory(self, trace_file,
                                                      tmp_path, capsys):
        ckpt = tmp_path / "a" / "b" / "x.ckpt"
        assert main(["checkpoint", trace_file, "--algorithm", "HS",
                     "--memory-kb", "16", "--every", "7",
                     "--stop-after", "10", "--out", str(ckpt)]) == 0
        assert ckpt.is_file()
        capsys.readouterr()
        assert main(["resume", str(ckpt), trace_file,
                     "--check-full"]) == 0
        assert "bit-equal to an uninterrupted run" in \
            capsys.readouterr().out

    def test_find(self, trace_file, capsys):
        code = main([
            "find", trace_file, "--algorithm", "HS",
            "--memory-kb", "8", "--alpha", "0.5", "--show",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "F1" in out and "FNR" in out


class TestPipeline:
    def test_pipeline_with_kill_and_check(self, trace_file, tmp_path,
                                          capsys):
        spans = tmp_path / "spans.jsonl"
        code = main([
            "pipeline", trace_file, "--workers", "2", "--memory-kb", "32",
            "--every", "4", "--kill", "1:9", "--check",
            "--out", str(tmp_path / "run"),
            "--trace-events", str(spans),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 workers" in out
        assert "1 restart(s)" in out
        assert "bit-equal to a single-process sharded run" in out
        assert (tmp_path / "run" / "pipeline_report.json").exists()
        names = [json.loads(line)["name"]
                 for line in spans.read_text().splitlines()]
        assert "merge" in names
        assert "worker-0" in names and "worker-1" in names

    def test_pipeline_rejects_malformed_kill(self, trace_file, tmp_path,
                                             capsys):
        assert main(["pipeline", trace_file, "--kill", "nope",
                     "--out", str(tmp_path)]) == 2
        assert "WORKER:WINDOW" in capsys.readouterr().err
        assert main(["pipeline", trace_file, "--kill", "9:1",
                     "--out", str(tmp_path)]) == 2


class TestRunExperimentSuite:
    def test_multiple_ids_parallel(self, capsys):
        assert main(["run-experiment", "fig04", "fig04", "--scale",
                     "0.002", "--jobs", "2"]) == 0
        assert "[fig04]" in capsys.readouterr().out


class TestFuzzJobs:
    def test_parallel_campaign_matches_sequential(self, tmp_path,
                                                  capsys):
        args = ["fuzz", "--seed", "3", "--cases", "4", "--quiet",
                "--invariants", "kernel-equivalence",
                "--out", str(tmp_path / "f")]
        assert main(args) == 0
        seq = capsys.readouterr().out
        assert main(args + ["--jobs", "2"]) == 0
        par = capsys.readouterr().out
        assert "4 cases, 0 failed" in seq
        assert "4 cases, 0 failed" in par


class TestSlidingCli:
    """The sliding bugfix sweep: estimate/checkpoint/resume can target
    the sliding wrapper, route --engine through its panels, and error
    loudly on unsupported combinations instead of silently ignoring."""

    def test_estimate_sliding(self, trace_file, capsys):
        assert main(["estimate", trace_file, "--sliding", "--horizon",
                     "8", "--memory-kb", "16",
                     "--engine", "kernel"]) == 0
        out = capsys.readouterr().out
        assert "sliding HS" in out and "covering the last" in out

    def test_horizon_requires_sliding(self, trace_file, capsys):
        assert main(["estimate", trace_file, "--horizon", "8"]) == 2
        assert "--horizon requires --sliding" in capsys.readouterr().err

    def test_sliding_needs_valid_horizon(self, trace_file, capsys):
        assert main(["estimate", trace_file, "--sliding"]) == 2
        assert "--horizon >= 2" in capsys.readouterr().err

    def test_sliding_rejects_other_algorithms(self, trace_file, capsys):
        assert main(["estimate", trace_file, "--sliding", "--horizon",
                     "8", "--algorithm", "OO"]) == 2
        assert "only supports --algorithm HS" in capsys.readouterr().err

    def test_sliding_rejects_profiling(self, trace_file, capsys):
        assert main(["estimate", trace_file, "--sliding", "--horizon",
                     "8", "--profile"]) == 2
        assert "--profile" in capsys.readouterr().err

    def test_estimate_engine_reaches_window_path(self, trace_file,
                                                 capsys):
        """--engine on the classic labels must route through the batch
        window path (it used to be silently ignored)."""
        assert main(["estimate", trace_file, "--algorithm", "HS",
                     "--memory-kb", "16", "--engine", "kernel"]) == 0
        assert "AAE" in capsys.readouterr().out

    def test_checkpoint_resume_sliding_round_trip(self, trace_file,
                                                  tmp_path, capsys):
        ckpt = str(tmp_path / "sw.bin")
        assert main(["checkpoint", trace_file, "--sliding", "--horizon",
                     "8", "--memory-kb", "16", "--engine", "kernel",
                     "--every", "7", "--out", ckpt,
                     "--stop-after", "17"]) == 0
        capsys.readouterr()
        assert main(["resume", ckpt, trace_file, "--check-full",
                     "--engine", "kernel"]) == 0
        out = capsys.readouterr().out
        assert "resumed SlidingHypersistentSketch at window 17" in out
        assert "covering the last" in out
        assert "bit-equal to an uninterrupted run" in out

    def test_checkpoint_engine_rejected_without_selector(
        self, trace_file, tmp_path, capsys
    ):
        assert main(["checkpoint", trace_file, "--algorithm", "OO",
                     "--engine", "kernel",
                     "--out", str(tmp_path / "oo.bin")]) == 2
        assert "no engine selector" in capsys.readouterr().err

    def test_resume_flat_with_engine(self, trace_file, tmp_path,
                                     capsys):
        """--engine on resume replays the tail through the chosen
        backend and still proves bit-equality (engines are runtime-only,
        so the backend cannot change the result)."""
        ckpt = str(tmp_path / "hs.bin")
        assert main(["checkpoint", trace_file, "--memory-kb", "16",
                     "--every", "9", "--out", ckpt,
                     "--stop-after", "20"]) == 0
        capsys.readouterr()
        assert main(["resume", ckpt, trace_file, "--check-full",
                     "--engine", "kernel"]) == 0
        assert "bit-equal to an uninterrupted run" in \
            capsys.readouterr().out

    def test_resume_engine_rejected_without_selector(self, tmp_path,
                                                     trace_file):
        """persist.resume refuses an engine it cannot route (no silent
        ignore) — unreachable from the CLI today because every
        persistable sketch has a selector, so pin it at the API level
        with a selector-less stand-in."""
        from repro.common.errors import ConfigError
        from repro.persist import resume, save_run_checkpoint
        from repro.persist.state import _registry
        from repro.streams.io import load_trace_npz

        class EngineFree:
            window = 0

            def state_dict(self):
                return {"window": 0}

            @classmethod
            def from_state(cls, state):
                return cls()

        _registry()["EngineFree"] = EngineFree
        try:
            ckpt = tmp_path / "plain.bin"
            save_run_checkpoint(EngineFree(), ckpt, 0)
            with pytest.raises(ConfigError, match="no engine selector"):
                resume(ckpt, load_trace_npz(trace_file),
                       engine="kernel")
        finally:
            _registry().pop("EngineFree", None)

    def test_checkpoint_sliding_rejects_other_algorithms(
        self, trace_file, tmp_path, capsys
    ):
        assert main(["checkpoint", trace_file, "--sliding", "--horizon",
                     "8", "--algorithm", "OO",
                     "--out", str(tmp_path / "x.bin")]) == 2
        assert "only supports --algorithm HS" in capsys.readouterr().err


class TestServeCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8787
        assert args.state_dir is None
        assert args.max_memory_kb == 0
        assert args.queue_limit == 1024

    def test_serve_round_trip_subprocess(self, tmp_path):
        """Boot `repro serve` as a real process on an ephemeral port,
        drive it over HTTP, and shut it down."""
        import os
        import re
        import signal
        import subprocess
        import sys

        from repro.service import ServiceClient

        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--state-dir", str(tmp_path / "state")],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        try:
            line = proc.stdout.readline()
            match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
            assert match, f"no listen line: {line!r}"
            client = ServiceClient(port=int(match.group(1)))
            client.wait_ready()
            client.create_tenant(name="t", kind="flat",
                                 memory_bytes=32 * 1024, n_windows=5)
            client.ingest("t", ["a", "b", "a"])
            client.end_window("t")
            assert client.estimate("t", ["a"])["estimates"]["a"] == 1
            assert "service_tenants 1" in client.metrics()
            client.close()
        finally:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
