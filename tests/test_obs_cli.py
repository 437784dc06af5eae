"""CLI observability: ``estimate --profile/--telemetry/--prom``, ``obs``
(with its health footer), ``trace`` and ``explain``."""

import json

import pytest

from repro.cli import main
from repro.obs import (
    parse_prometheus,
    read_jsonl,
    validate_chrome_trace,
    write_jsonl,
)
from repro.obs.events import STAGES
from repro.streams import zipf_trace
from repro.streams.io import save_trace_npz


@pytest.fixture
def trace_file(tmp_path):
    trace = zipf_trace(3000, 20, seed=17, n_items=400)
    path = tmp_path / "t.npz"
    save_trace_npz(trace, path)
    return str(path)


class TestEstimateProfile:
    def test_profile_prints_stage_breakdown(self, trace_file, capsys):
        assert main(["estimate", trace_file, "--algorithm", "HS-KERNEL",
                     "--memory-kb", "16", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "stage-latency profile: 20 windows" in out
        rows = {fields[0]: float(fields[1])
                for fields in map(str.split, out.splitlines())
                if fields and fields[0] in STAGES}
        assert list(rows) == list(STAGES)
        assert all(seconds > 0 for seconds in rows.values()), rows

    def test_per_record_profile_says_stages_not_clocked(self, trace_file,
                                                        capsys):
        # HS streams record-at-a-time: the oracle loop reads no stage
        # clock, so the report says so instead of printing zero rows
        assert main(["estimate", trace_file, "--algorithm", "HS",
                     "--memory-kb", "16", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "stage-latency profile: 20 windows" in out
        assert "stages not clocked" in out
        first_words = {line.split()[0] for line in out.splitlines()
                       if line.strip()}
        assert not first_words & set(STAGES)

    def test_batch_algorithm_profiles_too(self, trace_file, capsys):
        assert main(["estimate", trace_file, "--algorithm", "HS-KERNEL",
                     "--memory-kb", "16", "--profile"]) == 0
        assert "stage-latency profile" in capsys.readouterr().out

    def test_telemetry_and_prom_exports(self, trace_file, tmp_path,
                                        capsys):
        telemetry = tmp_path / "run.jsonl"
        prom = tmp_path / "run.prom"
        assert main(["estimate", trace_file, "--memory-kb", "16",
                     "--telemetry", str(telemetry),
                     "--prom", str(prom)]) == 0
        records = read_jsonl(telemetry)
        assert len(records) == 20
        assert all("hs_inserts_total" in r for r in records)
        # per-window records and the Prometheus export carry the health
        # gauges alongside the operational counters
        assert all("hs_health_l1_saturation" in r for r in records)
        parsed = parse_prometheus(prom.read_text())
        assert parsed[("hs_windows_total", ())] == 20
        assert ("hs_health_l1_saturation", ()) in parsed
        # exported counters equal the per-window deltas summed back up
        assert parsed[("hs_inserts_total", ())] == sum(
            r["hs_inserts_total"] for r in records
        )


class TestObsPanel:
    RECORDS = [
        {"window": w, "seconds": 0.01 * (w + 1),
         "hs_inserts_total": 100 + w, "hs_hot_occupancy": 0.1 * w}
        for w in range(6)
    ]

    def test_panel_renders_selected_metrics(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        write_jsonl(path, self.RECORDS)
        assert main(["obs", str(path),
                     "--metrics", "seconds,hs_inserts_total"]) == 0
        out = capsys.readouterr().out
        assert "6 windows" in out
        assert "seconds" in out and "hs_inserts_total" in out
        assert "last 105" in out  # newest hs_inserts_total value

    def test_default_metrics_skip_absent_fields(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        write_jsonl(path, self.RECORDS)
        assert main(["obs", str(path)]) == 0
        out = capsys.readouterr().out
        assert "hs_hot_occupancy" in out
        assert "hs_cold_l1_hits_total" not in out  # not in the records

    def test_last_limits_window_count(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        write_jsonl(path, self.RECORDS)
        assert main(["obs", str(path), "--last", "3"]) == 0
        assert "3 windows" in capsys.readouterr().out

    def test_empty_file_reports_no_records(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["obs", str(path)]) == 0
        assert "no telemetry records" in capsys.readouterr().out

    def test_follow_stops_after_refresh_budget(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        write_jsonl(path, self.RECORDS)
        assert main(["obs", str(path), "--follow", "--interval", "0.01",
                     "--refreshes", "2"]) == 0
        assert capsys.readouterr().out.count("6 windows") == 2

    def test_live_tail_sees_appended_records(self, tmp_path, capsys):
        # the sink appends; a later render must include the new windows
        path = tmp_path / "run.jsonl"
        write_jsonl(path, self.RECORDS[:3])
        assert main(["obs", str(path)]) == 0
        write_jsonl(path, self.RECORDS[3:], append=True)
        assert main(["obs", str(path)]) == 0
        out = capsys.readouterr().out
        assert "3 windows" in out and "6 windows" in out


class TestObsHealthFooter:
    RECORDS = [
        {"window": w, "seconds": 0.01, "hs_inserts_total": 100,
         "hs_health_l1_saturation": 0.2, "hs_hot_occupancy": 0.4}
        for w in range(3)
    ]

    def write(self, tmp_path):
        path = tmp_path / "run.jsonl"
        write_jsonl(path, self.RECORDS)
        return str(path)

    def test_footer_renders_from_latest_record(self, tmp_path, capsys):
        assert main(["obs", self.write(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "health:" in out
        assert "ok    hs_health_l1_saturation" in out
        assert "ok    hs_hot_occupancy" in out

    def test_threshold_override_flips_row_to_alert(self, tmp_path,
                                                   capsys):
        assert main(["obs", self.write(tmp_path), "--threshold",
                     "hs_health_l1_saturation=0.1"]) == 0
        out = capsys.readouterr().out
        assert "ALERT hs_health_l1_saturation" in out
        assert "(threshold 0.1)" in out

    def test_malformed_threshold_is_a_usage_error(self, tmp_path,
                                                  capsys):
        assert main(["obs", self.write(tmp_path), "--threshold",
                     "no-equals-sign"]) == 2
        assert "NAME=VALUE" in capsys.readouterr().err

    def test_unknown_threshold_name_is_a_usage_error(self, tmp_path,
                                                     capsys):
        assert main(["obs", self.write(tmp_path), "--threshold",
                     "hs_health_bogus=1"]) == 2
        assert "unknown health metric" in capsys.readouterr().err

    def test_no_footer_without_health_gauges(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        write_jsonl(path, [{"window": 0, "seconds": 0.01,
                            "hs_inserts_total": 10}])
        assert main(["obs", str(path)]) == 0
        assert "health:" not in capsys.readouterr().out


class TestTraceCommand:
    def test_jsonl_export_round_trips(self, trace_file, tmp_path,
                                      capsys):
        out_path = tmp_path / "events.jsonl"
        assert main(["trace", trace_file, "--memory-kb", "16",
                     "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "recorded" in out and "span(s)" in out
        records = [json.loads(line)
                   for line in out_path.read_text().splitlines()]
        assert records
        for record in records:
            assert {"seq", "window", "kind", "stage"} <= set(record)

    def test_chrome_export_passes_schema_check(self, trace_file,
                                               tmp_path, capsys):
        out_path = tmp_path / "trace.json"
        assert main(["trace", trace_file, "--memory-kb", "16",
                     "--export", "chrome", "--out", str(out_path)]) == 0
        assert "Perfetto" in capsys.readouterr().out
        payload = json.loads(out_path.read_text())
        assert validate_chrome_trace(payload) == []
        assert payload["traceEvents"]

    def test_kernel_engine_records_stage_spans(self, trace_file,
                                               tmp_path, capsys):
        assert main(["trace", trace_file, "--memory-kb", "16",
                     "--engine", "kernel", "--export", "chrome",
                     "--out", str(tmp_path / "trace.json")]) == 0
        payload = json.loads((tmp_path / "trace.json").read_text())
        names = {ev["name"] for ev in payload["traceEvents"]
                 if ev["ph"] == "X"}
        assert {"burst", "cold", "hot", "end", "window"} <= names

    def test_explain_flag_appends_narratives(self, trace_file, tmp_path,
                                             capsys):
        assert main(["trace", trace_file, "--memory-kb", "16",
                     "--out", str(tmp_path / "e.jsonl"),
                     "--explain", "1", "--explain", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("query :") == 2
        assert "-> resolves at" in out


class TestExplainCommand:
    def test_prints_one_narrative_per_key(self, trace_file, capsys):
        assert main(["explain", trace_file, "1", "2", "3",
                     "--memory-kb", "16"]) == 0
        out = capsys.readouterr().out
        assert out.count("query :") == 3
        assert out.count("-> resolves at") == 3
        assert "burst :" in out and "hot   :" in out

    def test_kernel_engine_explains_with_bulk_events(self, trace_file,
                                                     capsys):
        assert main(["explain", trace_file, "1", "--memory-kb", "16",
                     "--engine", "kernel"]) == 0
        out = capsys.readouterr().out
        assert "[kernel engine]" in out
        assert "recorded decision(s)" in out
