"""Verification subsystem tests: catalog, runner, differential, fuzz.

The centrepiece is the mutation smoke check: a bug deliberately injected
into the Burst Filter's drain path must be (a) detected by the invariant
battery, (b) shrunk to a case no larger than the original, and (c) saved
as a replayable artifact bundle that keeps failing on replay — and passes
again once the bug is removed.
"""

import json
from pathlib import Path

import pytest

from repro.common.errors import ConfigError
from repro.core import burst_filter
from repro.streams import CaseSpec, sample_case, zipf_trace
from repro.verify import (
    CATALOG,
    GUARANTEED_ONE_SIDED,
    VerifyConfig,
    Violation,
    catalog_names,
    check_trace,
    default_campaign_traces,
    replay_case,
    require_known,
    run_campaign,
    run_differential,
    run_fuzz,
    sample_keys,
    windowed_invariant_run,
)

CONFIG = VerifyConfig(memory_bytes=8 * 1024, seed=7)


def small_trace():
    return zipf_trace(n_records=600, n_windows=10, skew=1.3, seed=5,
                      n_items=60, n_stealthy=2)


class TestCatalog:
    def test_scopes_partition_the_catalog(self):
        names = set(catalog_names())
        by_scope = (set(catalog_names("window"))
                    | set(catalog_names("final"))
                    | set(catalog_names("trace")))
        assert names == by_scope
        assert len(names) >= 10

    def test_require_known_rejects_typos(self):
        require_known(None)
        require_known(["kernel-equivalence"])
        with pytest.raises(ConfigError):
            require_known(["kernel-equivalense"])

    def test_violation_serialization(self):
        v = Violation("x", "boom", window=3, key=9, details={"a": 1})
        d = v.to_dict()
        assert d == {"invariant": "x", "message": "boom", "window": 3,
                     "key": 9, "details": {"a": 1}}
        assert "x" in str(v) and "boom" in str(v)

    def test_sample_keys_deterministic_and_capped(self):
        trace = small_trace()
        a = sample_keys(trace, 16)
        assert a == sample_keys(trace, 16)
        assert len(a) == 16
        assert len(sample_keys(trace, 10_000)) == trace.n_distinct


class TestRunner:
    def test_clean_sketches_pass_everything(self):
        assert check_trace(small_trace(), CONFIG) == []

    def test_windowed_run_covers_oo_too(self):
        assert windowed_invariant_run("OO", small_trace(), CONFIG) == []

    def test_invariant_selection_is_honoured(self):
        # a window-only selection must not build trace-scope sketches
        violations = check_trace(
            small_trace(), CONFIG, names=["window-clock"]
        )
        assert violations == []

    def test_single_window_trace(self):
        trace = zipf_trace(n_records=50, n_windows=1, seed=8, n_items=10)
        assert check_trace(trace, CONFIG) == []


class TestDifferential:
    def test_oo_is_one_sided_and_cm_is_not_claimed(self):
        assert "OO" in GUARANTEED_ONE_SIDED
        assert "CM" not in GUARANTEED_ONE_SIDED  # Bloom FPs can undercount

    def test_differential_run_audits_every_item(self):
        trace = small_trace()
        result = run_differential("HS", trace, 8 * 1024, seed=7)
        assert result.n_distinct == trace.n_distinct
        assert result.n_over + result.n_under + result.n_exact \
            == result.n_distinct
        assert result.violations == []
        assert len(result.worst) <= 10
        payload = result.to_dict()
        assert payload["algorithm"] == "HS"
        assert payload["n_windows"] == trace.n_windows

    def test_campaign_roll_up_and_save(self, tmp_path):
        traces = default_campaign_traces(seed=3)[:2]
        report = run_campaign(traces, algorithms=("HS", "OO"),
                              memory_grid=(8 * 1024,), seed=3)
        assert len(report.runs) == 4
        assert report.ok
        out = tmp_path / "campaign.json"
        report.save(out)
        data = json.loads(out.read_text())
        assert data["n_runs"] == 4
        assert data["n_violations"] == 0
        assert "runs" in data and len(data["runs"]) == 4
        assert report.summary().count("[ok ]") == 4


class TestFuzz:
    def test_clean_campaign_finds_nothing(self, tmp_path):
        report = run_fuzz(11, 6, config=CONFIG,
                          out_dir=tmp_path / "fuzz")
        assert report.ok
        assert report.n_failed == 0
        summary = json.loads(
            (tmp_path / "fuzz" / "fuzz-s11.json").read_text()
        )
        assert summary["ok"] is True
        assert summary["n_cases"] == 6

    def test_campaign_is_deterministic(self, tmp_path):
        a = run_fuzz(13, 4, config=CONFIG, out_dir=None)
        b = run_fuzz(13, 4, config=CONFIG, out_dir=None)
        da, db = a.to_dict(), b.to_dict()
        da.pop("elapsed_s"), db.pop("elapsed_s")
        assert da == db


def _install_drain_bug(monkeypatch):
    """Make the Burst Filter silently lose one stored ID per drain."""
    def buggy_drain(self):
        keys = [
            int(key)
            for b in range(self.n_buckets)
            for key in self._keys[b, : self._fill[b]]
        ]
        self._fill.fill(0)
        return iter(keys[:-1])  # drop the last stored ID

    monkeypatch.setattr(burst_filter.BurstFilter, "drain", buggy_drain)


class TestMutationSmoke:
    """The injected-bug acceptance check for the whole pipeline."""

    def test_injected_bug_is_caught_shrunk_and_replayable(self, tmp_path):
        out_dir = tmp_path / "fuzz"
        with pytest.MonkeyPatch.context() as mp:
            _install_drain_bug(mp)
            report = run_fuzz(0, 10, config=CONFIG, out_dir=out_dir,
                              max_failures=1)
            assert report.n_failed == 1
            failure = report.failures[0]
            # the scalar path lost a key, so scalar vs kernel must diverge
            tripped = {v.invariant for v in failure.violations}
            assert "kernel-equivalence" in tripped
            # shrinking only ever simplifies, and keeps the same bug
            assert failure.shrunk_spec.size() <= failure.spec.size()
            assert failure.shrink_rounds >= 1
            shrunk_tripped = {
                v.invariant for v in failure.shrunk_violations
            }
            assert tripped & shrunk_tripped
            # the replay bundle is on disk and self-contained
            artifact = Path(failure.artifact_dir)
            assert (artifact / "case.json").exists()
            assert (artifact / "shrunk.json").exists()
            assert (artifact / "trace.csv").exists()
            saved = json.loads(
                (artifact / "violations.json").read_text()
            )
            assert saved["shrunk"]
            # replaying the minimal case still trips while the bug lives
            replayed = replay_case(artifact / "shrunk.json", CONFIG)
            assert {v.invariant for v in replayed} & tripped
        # bug removed: the very same minimal case is clean again
        assert replay_case(artifact / "shrunk.json", CONFIG) == []

    def test_shrunk_case_is_minimal_enough(self, tmp_path):
        with pytest.MonkeyPatch.context() as mp:
            _install_drain_bug(mp)
            report = run_fuzz(0, 3, config=CONFIG, out_dir=None,
                              max_failures=1)
            assert report.failures
            shrunk = report.failures[0].shrunk_spec
            # every further simplification must pass: local minimum
            from repro.streams import shrink_candidates
            from repro.verify import run_case
            target = {
                v.invariant
                for v in report.failures[0].shrunk_violations
            }
            for candidate in shrink_candidates(shrunk):
                got = {
                    v.invariant
                    for v in run_case(candidate, CONFIG)
                }
                assert not (target & got)


@pytest.mark.fuzz
class TestFuzzCampaign:
    """The full campaign, selected with ``pytest -m fuzz`` (nightly CI)."""

    def test_thousand_case_campaign_is_clean(self, tmp_path):
        report = run_fuzz(0, 1000, config=VerifyConfig(),
                          out_dir=tmp_path / "fuzz")
        assert report.ok, report.summary()


@pytest.mark.slow
class TestFullDifferentialGrid:
    """Every algorithm x workload x memory cell of the default campaign."""

    def test_full_grid_has_no_violations(self):
        report = run_campaign(seed=42)
        assert report.ok, report.summary()


class TestCli:
    def test_verify_list_and_trace(self, tmp_path, capsys):
        from repro.cli import main
        from repro.streams.io import save_trace_csv
        assert main(["verify", "--list"]) == 0
        out = capsys.readouterr().out
        assert "kernel-equivalence" in out
        path = tmp_path / "t.csv"
        save_trace_csv(small_trace(), path)
        assert main(["verify", str(path), "--memory-kb", "8",
                     "--seed", "7"]) == 0
        assert "0 violation(s)" in capsys.readouterr().out

    def test_verify_rejects_unknown_invariant(self, tmp_path):
        from repro.cli import main
        with pytest.raises(ConfigError):
            main(["verify", "--invariants", "nope"])

    def test_fuzz_and_replay_round_trip(self, tmp_path, capsys):
        from repro.cli import main
        out_dir = tmp_path / "fuzz"
        assert main(["fuzz", "--seed", "11", "--cases", "3",
                     "--out", str(out_dir), "--quiet",
                     "--memory-kb", "8"]) == 0
        assert "0 failed" in capsys.readouterr().out
        # replay an arbitrary saved spec (write one: clean case)
        from repro.streams import save_case
        spec = sample_case(11, 0)
        case_path = tmp_path / "case.json"
        save_case(spec, case_path)
        assert main(["replay", str(case_path), "--memory-kb", "8"]) == 0
        assert "0 violation(s)" in capsys.readouterr().out
