"""Dependency-free AST lint engine with sketch-specific correctness rules.

Every rule encodes a bug class this repository has shipped and fixed:
nondeterministic iteration breaking replay (SC-DET), ``state_dict()``
omissions breaking bit-identical resume (SC-PERSIST), unpickling
(SC-PICKLE), broad handlers swallowing decode errors
(SC-EXC), and shared mutable defaults (SC-MUTDEF).  ``repro lint`` runs the engine from the
CLI; ``scripts/check_lint.py`` is the CI gate with the
``LINT_baseline.json`` grandfathering workflow.

Analysis runs in two tiers.  Tier 1 is purely syntactic — pattern
matching over single AST nodes.  Tier 2 builds a per-function control
flow graph (:mod:`repro.staticcheck.cfg`) and solves forward dataflow
problems over it (:mod:`repro.staticcheck.dataflow`); the concurrency
rule family (:mod:`repro.staticcheck.rules_concurrency`: SC-ASYNC-RACE,
SC-BLOCK, SC-AWAIT, SC-FORK, SC-BARRIER) lives there, guarding the
orderings the async service and the multiprocess pipeline rely on.
Tier-2 findings carry a ``detail`` string — ``repro lint --explain ID``
prints it as the CFG path that triggered the finding.

The engine is stdlib-only (``ast`` + ``tokenize``) and never imports the
code under analysis, so it can lint a tree too broken to import.
"""

from .baseline import (
    BaselineEntry,
    apply_baseline,
    entries_from_findings,
    load_baseline,
    parse_baseline,
    save_baseline,
)
from .engine import (
    DEFAULT_TARGETS,
    Project,
    default_registry,
    run_lint,
)
from .cfg import CFG, build_cfg, functions_in
from .dataflow import ReachingDefinitions, run_forward
from .model import ERROR, SEVERITIES, WARNING, Finding, Rule, RuleRegistry
from .report import parse_report, render_human, render_json, report_dict

__all__ = [
    "CFG",
    "DEFAULT_TARGETS",
    "ERROR",
    "SEVERITIES",
    "WARNING",
    "BaselineEntry",
    "Finding",
    "Project",
    "ReachingDefinitions",
    "Rule",
    "RuleRegistry",
    "build_cfg",
    "functions_in",
    "run_forward",
    "apply_baseline",
    "default_registry",
    "entries_from_findings",
    "load_baseline",
    "parse_baseline",
    "parse_report",
    "render_human",
    "render_json",
    "report_dict",
    "run_lint",
    "save_baseline",
]
