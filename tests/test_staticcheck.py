"""Tests for the dependency-free AST lint engine (:mod:`repro.staticcheck`).

Three layers:

* rule-level — each rule over its good/bad fixture pair in
  ``tests/fixtures/staticcheck/`` (bad must flag, good must be silent);
* engine-level — suppression comments, select/ignore, JSON report and
  baseline round-trips, the SC-PARSE pseudo-rule;
* gate-level — ``scripts/check_lint.py`` run as a subprocess over a
  mutated copy of ``src/repro`` must exit non-zero for each of the
  twelve seeded bug patterns, and zero for the untouched copy.

The tier-2 (CFG/dataflow) concurrency rules have their own fixture and
unit coverage in ``test_staticcheck_cfg.py`` and
``test_staticcheck_concurrency.py``; their gate-level mutations live
here so one parametrized smoke covers the whole registry.
"""

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.staticcheck import (
    apply_baseline,
    default_registry,
    entries_from_findings,
    load_baseline,
    parse_report,
    render_human,
    render_json,
    run_lint,
)
from repro.staticcheck.engine import PARSE_RULE_ID
from repro.staticcheck.rules_ast import (
    BroadExceptRule,
    DeterminismRule,
    MutableDefaultRule,
    ObsGuardRule,
    PickleRule,
    ScalarLoopRule,
)

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "tests" / "fixtures" / "staticcheck"
CHECK_LINT = REPO / "scripts" / "check_lint.py"


def run_rule(rule, fixture, relpath):
    source = (FIXTURES / fixture).read_text()
    return list(rule.check_file(relpath, ast.parse(source), source))


class TestRuleFixtures:
    """Each rule flags its bad fixture and stays silent on the good one."""

    CASES = [
        # (rule factory, fixture stem, pretend in-tree path, bad findings)
        (DeterminismRule, "det", "src/repro/core/{stem}.py", 7),
        (PickleRule, "pickle", "src/repro/persist/{stem}.py", 3),
        (BroadExceptRule, "exc", "src/repro/persist/{stem}.py", 3),
        (MutableDefaultRule, "mutdef", "src/repro/core/{stem}.py", 5),
        (ScalarLoopRule, "loop", "src/repro/core/{stem}.py", 3),
        (ObsGuardRule, "obs", "src/repro/core/{stem}.py", 3),
    ]

    @pytest.mark.parametrize(
        "factory,stem,template,expected",
        CASES, ids=[c[1] for c in CASES],
    )
    def test_bad_fixture_flags(self, factory, stem, template, expected):
        name = f"{stem}_bad"
        findings = run_rule(factory(), f"{name}.py",
                            template.format(stem=name))
        assert len(findings) == expected
        assert all(f.rule_id == factory.rule_id for f in findings)

    @pytest.mark.parametrize(
        "factory,stem,template,expected",
        CASES, ids=[c[1] for c in CASES],
    )
    def test_good_fixture_clean(self, factory, stem, template, expected):
        name = f"{stem}_good"
        findings = run_rule(factory(), f"{name}.py",
                            template.format(stem=name))
        assert findings == []

    def test_det_rule_scopes_wall_clock_to_core(self):
        # time.time() is only a finding in measured paths; the same code
        # under scripts/ is fine (profiling code needs wall clocks).
        source = "import time\n\ndef now():\n    return time.time()\n"
        tree = ast.parse(source)
        rule = DeterminismRule()
        core = rule.check_file("src/repro/core/x.py", tree, source)
        assert any("time.time" in f.message for f in core)
        assert rule.check_file("scripts/x.py", tree, source) == []


class TestPersistContract:
    """SC-PERSIST over the fixture mini-trees."""

    def test_bad_tree_flags_all_three_properties(self):
        findings = run_lint(FIXTURES / "persist_tree_bad",
                            select=["SC-PERSIST"])
        messages = "\n".join(f.message for f in findings)
        assert len(findings) == 5
        assert "consumes key 'seed'" in messages
        assert "emits key 'extra'" in messages
        assert "Widget.salt is never captured" in messages
        assert "Widget._scale is never captured" in messages
        # a subclass inheriting Widget's contract may add no state
        assert "TaggedWidget.tag is never captured" in messages

    def test_good_tree_clean(self):
        assert run_lint(FIXTURES / "persist_tree_good",
                        select=["SC-PERSIST"]) == []

    def test_inheriting_subclass_without_slots_flagged(self, tmp_path):
        # no __slots__ opens a __dict__ the inherited state never sees
        shutil.copytree(FIXTURES / "persist_tree_good", tmp_path / "tree")
        widget = tmp_path / "tree" / "src" / "repro" / "core" / "widget.py"
        widget.write_text(widget.read_text().replace(
            "    __slots__ = ()\n", ""))
        findings = run_lint(tmp_path / "tree", select=["SC-PERSIST"])
        assert len(findings) == 1
        assert "TinyWidget inherits Widget" in findings[0].message
        assert "declares no __slots__" in findings[0].message


class TestSuppression:
    def lint_snippet(self, tmp_path, source, select=("SC-MUTDEF",)):
        target = tmp_path / "src" / "repro" / "core"
        target.mkdir(parents=True)
        (target / "snippet.py").write_text(source)
        return run_lint(tmp_path, select=list(select))

    def test_inline_comment_suppresses_its_line(self, tmp_path):
        findings = self.lint_snippet(
            tmp_path,
            "def f(x=[]):  # staticcheck: ignore[SC-MUTDEF]\n"
            "    return x\n",
        )
        assert findings == []

    def test_comment_only_line_covers_next_line(self, tmp_path):
        findings = self.lint_snippet(
            tmp_path,
            "# staticcheck: ignore[SC-MUTDEF] fixture, on purpose\n"
            "def f(x=[]):\n"
            "    return x\n",
        )
        assert findings == []

    def test_bare_ignore_silences_every_rule(self, tmp_path):
        findings = self.lint_snippet(
            tmp_path,
            "def f(x=[]):  # staticcheck: ignore\n    return x\n",
        )
        assert findings == []

    def test_other_rule_id_does_not_suppress(self, tmp_path):
        findings = self.lint_snippet(
            tmp_path,
            "def f(x=[]):  # staticcheck: ignore[SC-DET]\n    return x\n",
        )
        assert len(findings) == 1

    def test_marker_inert_inside_string_literals(self, tmp_path):
        findings = self.lint_snippet(
            tmp_path,
            'DOC = "# staticcheck: ignore[SC-MUTDEF]"\n'
            "def f(x=[]):\n"
            "    return x\n",
        )
        assert len(findings) == 1

    def test_parse_errors_fail_and_cannot_be_suppressed(self, tmp_path):
        findings = self.lint_snippet(
            tmp_path,
            "def broken(:  # staticcheck: ignore\n",
        )
        assert [f.rule_id for f in findings] == [PARSE_RULE_ID]

    # -- edge cases: the comment and the finding live on different
    # physical lines of the same syntactic element ----------------------

    def test_comment_on_first_line_of_file_covers_first_statement(
            self, tmp_path):
        findings = self.lint_snippet(
            tmp_path,
            "# staticcheck: ignore[SC-MUTDEF] first line of the file\n"
            "def f(x=[]):\n"
            "    return x\n",
        )
        assert findings == []

    def test_comment_on_decorator_covers_the_def_line(self, tmp_path):
        findings = self.lint_snippet(
            tmp_path,
            "def deco(fn):\n"
            "    return fn\n"
            "\n\n"
            "@deco  # staticcheck: ignore[SC-MUTDEF]\n"
            "def f(x=[]):\n"
            "    return x\n",
        )
        assert findings == []

    def test_comment_above_decorator_covers_the_def_line(self, tmp_path):
        findings = self.lint_snippet(
            tmp_path,
            "def deco(fn):\n"
            "    return fn\n"
            "\n\n"
            "# staticcheck: ignore[SC-MUTDEF] fixture\n"
            "@deco\n"
            "def f(x=[]):\n"
            "    return x\n",
        )
        assert findings == []

    def test_comment_on_last_line_of_multiline_statement(self, tmp_path):
        # the finding anchors at the statement's first line; the only
        # room for a trailing comment is after the closing paren
        findings = self.lint_snippet(
            tmp_path,
            "def f(x=[1,\n"
            "      2]):  # staticcheck: ignore[SC-MUTDEF]\n"
            "    return x\n",
        )
        assert findings == []

    def test_suppression_does_not_leak_past_its_statement(self, tmp_path):
        findings = self.lint_snippet(
            tmp_path,
            "def f(x=[]):  # staticcheck: ignore[SC-MUTDEF]\n"
            "    return x\n"
            "\n\n"
            "def g(y=[]):\n"
            "    return y\n",
        )
        assert len(findings) == 1
        assert findings[0].line == 5


class TestEngine:
    def test_select_and_ignore(self):
        registry = default_registry()
        ids = [rule.rule_id for rule in registry.select(None, None)]
        assert ids == ["SC-DET", "SC-PERSIST", "SC-PICKLE",
                       "SC-EXC", "SC-MUTDEF", "SC-LOOP",
                       "SC-OBS", "SC-ASYNC-RACE", "SC-BLOCK",
                       "SC-AWAIT", "SC-FORK", "SC-BARRIER"]
        only = registry.select(["SC-DET"], None)
        assert [r.rule_id for r in only] == ["SC-DET"]
        rest = registry.select(None, ["SC-DET", "SC-MUTDEF"])
        assert "SC-DET" not in [r.rule_id for r in rest]

    def test_select_glob_expands_prefix(self):
        registry = default_registry()
        ids = [r.rule_id for r in registry.select(["SC-ASYNC*"], None)]
        assert ids == ["SC-ASYNC-RACE"]
        rest = registry.select(None, ["SC-A*"])
        kept = [r.rule_id for r in rest]
        assert "SC-ASYNC-RACE" not in kept and "SC-AWAIT" not in kept
        assert "SC-BLOCK" in kept

    def test_unknown_rule_id_rejected(self):
        registry = default_registry()
        with pytest.raises(ValueError, match="SC-BOGUS"):
            registry.select(["SC-BOGUS"], None)
        with pytest.raises(ValueError, match="SC-BOGUS"):
            registry.select(None, ["SC-BOGUS"])
        with pytest.raises(ValueError, match="matches nothing"):
            registry.select(["SC-ZZZ*"], None)

    def test_repo_tree_lints_clean(self):
        findings = run_lint(REPO)
        assert findings == [], render_human(findings)

    def test_findings_sorted_and_deduped(self, tmp_path):
        target = tmp_path / "src" / "repro" / "core"
        target.mkdir(parents=True)
        (target / "b.py").write_text("def f(x=[]):\n    return x\n")
        (target / "a.py").write_text("def g(y={}):\n    return y\n")
        findings = run_lint(tmp_path, select=["SC-MUTDEF"])
        assert [f.path for f in findings] == [
            "src/repro/core/a.py", "src/repro/core/b.py",
        ]


class TestReportAndBaseline:
    def fixture_findings(self):
        return run_lint(FIXTURES / "persist_tree_bad",
                        select=["SC-PERSIST"])

    def test_json_report_round_trip(self):
        findings = self.fixture_findings()
        assert parse_report(render_json(findings)) == findings

    def test_lint_json_output_feeds_baseline_loader(self, tmp_path):
        # Acceptance criterion: `repro lint --format json` output
        # round-trips through the baseline loader and, applied as a
        # baseline, grandfathers every finding it was built from.
        findings = self.fixture_findings()
        report_path = tmp_path / "report.json"
        report_path.write_text(render_json(findings))
        entries = load_baseline(report_path)
        assert len(entries) == len(findings)
        new, stale = apply_baseline(findings, entries)
        assert new == [] and stale == []

    def test_stale_entries_reported(self):
        findings = self.fixture_findings()
        entries = entries_from_findings(findings)
        new, stale = apply_baseline([], entries)
        assert new == [] and len(stale) == len(entries)

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == []

    def test_human_report_mentions_rule_and_location(self):
        findings = self.fixture_findings()
        text = render_human(findings)
        assert "SC-PERSIST" in text
        assert "src/repro/core/widget.py:" in text
        assert f"{len(findings)} finding(s)" in text
        assert render_human([]) == "staticcheck: no findings"


def run_cli(args, cwd=REPO):
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *args],
        cwd=cwd, capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )


class TestLintCLI:
    def test_list_prints_catalog(self):
        proc = run_cli(["--list"])
        assert proc.returncode == 0
        for rule_id in ("SC-DET", "SC-PERSIST", "SC-PICKLE",
                        "SC-EXC", "SC-MUTDEF", "SC-LOOP",
                        "SC-OBS", "SC-ASYNC-RACE", "SC-BLOCK",
                        "SC-AWAIT", "SC-FORK", "SC-BARRIER"):
            assert rule_id in proc.stdout

    def test_clean_tree_exits_zero(self):
        proc = run_cli(["--root", str(REPO)])
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "no findings" in proc.stdout

    def test_findings_exit_one_and_json_round_trips(self):
        root = FIXTURES / "persist_tree_bad"
        proc = run_cli(["--root", str(root), "--select", "SC-PERSIST",
                        "--format", "json"])
        assert proc.returncode == 1
        findings = parse_report(proc.stdout)
        assert len(findings) == 5

    def test_unknown_rule_id_exits_two(self):
        proc = run_cli(["--select", "SC-BOGUS"])
        assert proc.returncode == 2
        assert "SC-BOGUS" in proc.stderr


MUTATIONS = {
    "SC-DET": (
        "src/repro/core/_mut_det.py",
        None,
        "def drain(pending):\n"
        "    out = []\n"
        "    bucket = set(pending)\n"
        "    for key in bucket:\n"
        "        out.append(key)\n"
        "    return out\n",
    ),
    "SC-PERSIST": (
        "src/repro/core/hot_part.py",
        '            "window_salt": self._window_salt,\n',
        "",
    ),
    # planted in the snapshot module: no file is exempt
    "SC-PICKLE": (
        "src/repro/core/snapshot.py",
        "    return load_state(path, expected_class=expected_class)\n",
        "    import pickle\n"
        "    return pickle.loads(Path(path).read_bytes())\n",
    ),
    "SC-EXC": (
        "src/repro/persist/_mut_exc.py",
        None,
        "def load(path, decode):\n"
        "    try:\n"
        "        return decode(path)\n"
        "    except Exception:\n"
        "        return None\n",
    ),
    "SC-MUTDEF": (
        "src/repro/core/_mut_mutdef.py",
        None,
        "def collect(item, seen=[]):\n"
        "    seen.append(item)\n"
        "    return seen\n",
    ),
    "SC-LOOP": (
        "src/repro/core/_mut_loop.py",
        None,
        "def feed(sketch, keys):\n"
        "    for key in keys.tolist():\n"
        "        sketch.insert(key)\n",
    ),
    "SC-OBS": (
        "src/repro/core/_mut_obs.py",
        None,
        "def feed(sketch, keys):\n"
        "    tr = sketch.trace\n"
        "    tr.emit_bulk('burst_admit', keys)\n",
    ),
    # tier-2 concurrency family: re-seed the historical delete_tenant
    # race (stop the worker across an await *before* unregistering), and
    # plant one minimal instance of each remaining bug shape
    "SC-ASYNC-RACE": (
        "src/repro/service/service.py",
        "        del self.tenants[name]\n"
        "        await self._stop_worker(tenant)\n",
        "        await self._stop_worker(tenant)\n"
        "        del self.tenants[name]\n",
    ),
    "SC-BLOCK": (
        "src/repro/service/_mut_block.py",
        None,
        "import time\n\n\n"
        "class Poller:\n"
        "    async def wait(self, interval):\n"
        "        time.sleep(interval)\n",
    ),
    "SC-AWAIT": (
        "src/repro/service/_mut_await.py",
        None,
        "async def _flush(queue):\n"
        "    while not queue.empty():\n"
        "        queue.get_nowait()\n\n\n"
        "async def shutdown(queue):\n"
        "    _flush(queue)\n",
    ),
    "SC-FORK": (
        "src/repro/distributed/_mut_fork.py",
        None,
        "import asyncio\n"
        "import multiprocessing\n\n\n"
        "def launch(target):\n"
        "    loop = asyncio.new_event_loop()\n"
        "    proc = multiprocessing.Process(target=target)\n"
        "    proc.start()\n"
        "    return loop, proc\n",
    ),
    "SC-BARRIER": (
        "src/repro/service/_mut_barrier.py",
        None,
        "class Handler:\n"
        "    def flush(self, tenant, items):\n"
        "        tenant.sketch.insert_window(items)\n",
    ),
}


class TestMutationSmoke:
    """The gate must catch each seeded bug pattern in a copied tree.

    Mutations either drop a known-good line (SC-PERSIST deletes the
    ``window_salt`` entry from ``HotPart.state_dict()``) or add a small
    file containing the bad pattern; ``scripts/check_lint.py --root``
    then lints the copy and must exit non-zero.
    """

    @pytest.fixture()
    def tree(self, tmp_path):
        shutil.copytree(REPO / "src" / "repro",
                        tmp_path / "src" / "repro")
        return tmp_path

    def gate(self, root):
        return subprocess.run(
            [sys.executable, str(CHECK_LINT), "--root", str(root),
             "--no-mypy"],
            capture_output=True, text=True,
        )

    def test_unmutated_copy_passes(self, tree):
        proc = self.gate(tree)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    @pytest.mark.parametrize("rule_id", sorted(MUTATIONS))
    def test_mutation_is_caught(self, tree, rule_id):
        relpath, needle, replacement = MUTATIONS[rule_id]
        path = tree / relpath
        if needle is None:
            path.write_text(replacement)
        else:
            original = path.read_text()
            assert needle in original, f"mutation target gone: {needle!r}"
            path.write_text(original.replace(needle, replacement))
        proc = self.gate(tree)
        assert proc.returncode != 0, proc.stdout + proc.stderr
        assert rule_id in proc.stdout
