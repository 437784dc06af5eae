"""File discovery, suppression comments, and the lint driver.

The engine is dependency-free: parsing is stdlib ``ast``, suppression
comments are read with ``tokenize``, and nothing is ever imported from the
code under analysis — linting a broken tree cannot execute it.

Suppression syntax — on the finding's line, or alone on the line
directly above it::

    risky_call()  # staticcheck: ignore[SC-DET]
    other_call()  # staticcheck: ignore[SC-DET,SC-LOOP] on purpose
    # staticcheck: ignore[SC-PERSIST] derived; from_state recomputes
    self._scan_cost = simd_scan_cost(cells)

A bare ``ignore`` silences every rule on the covered line; the bracketed
form silences only the listed rule IDs.  Trailing prose after the
bracket is encouraged — it is the place to justify the suppression.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .model import ERROR, Finding, Rule, RuleRegistry

#: Directories scanned by default, in gate order.  Only those that exist
#: under the root are used, so the engine also runs on partial tree copies
#: (the mutation smoke tests lint a copied ``src/repro`` alone).
DEFAULT_TARGETS = ("src/repro", "scripts", "examples", "benchmarks")

#: Pseudo-rule ID for files the parser rejects; it cannot be suppressed.
PARSE_RULE_ID = "SC-PARSE"

_SUPPRESS_RE = re.compile(
    r"#\s*staticcheck:\s*ignore(?:\[([A-Za-z0-9\-,\s]+)\])?"
)

#: Sentinel meaning "every rule is ignored on this line".
ALL_RULES = "*"


def _comment_ids(comment: str) -> Optional[Set[str]]:
    """Rule IDs named by one suppression comment (``None`` = not one)."""
    match = _SUPPRESS_RE.search(comment)
    if not match:
        return None
    listed = match.group(1)
    if listed is None:
        return {ALL_RULES}
    return {part.strip() for part in listed.split(",") if part.strip()}


def _scan_suppressions(source: str) -> Dict[int, Set[str]]:
    """Map line number -> rule IDs suppressed there (``*`` = all).

    Tokenizing (rather than regex over raw lines) keeps the marker inert
    inside string literals, so fixture files and docs can *mention* the
    syntax without triggering it.  Coverage is per *logical* line: a
    suppression anywhere on a (possibly multiline) statement covers
    every physical line of that statement, so a comment on the closing
    paren of a call still silences a finding anchored at the call's
    first line.  A comment alone on its line covers the next logical
    statement, even across blank lines — the natural place to annotate
    a statement too long for a trailing comment.
    """
    table: Dict[int, Set[str]] = {}
    pending: Set[str] = set()       # from comment-only lines above
    inline: Set[str] = set()        # inside the current logical line
    logical_start: Optional[int] = None
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type == tokenize.COMMENT:
                ids = _comment_ids(token.string)
                if ids is None:
                    continue
                before = token.line[:token.start[1]].strip()
                if logical_start is None and not before:
                    pending |= ids  # annotates the statement below
                else:
                    inline |= ids
                continue
            if token.type in (tokenize.NL, tokenize.INDENT,
                              tokenize.DEDENT, tokenize.ENCODING):
                continue
            if token.type == tokenize.NEWLINE:
                ids = inline | pending
                if ids and logical_start is not None:
                    for line in range(logical_start, token.start[0] + 1):
                        table.setdefault(line, set()).update(ids)
                pending = set()
                inline = set()
                logical_start = None
                continue
            if logical_start is None and token.type != tokenize.ENDMARKER:
                logical_start = token.start[0]
    except tokenize.TokenError:
        pass  # the ast parse error is reported separately
    return table


def _extend_to_decorated(
    tree: ast.AST, table: Dict[int, Set[str]]
) -> None:
    """Let a suppression on a decorator line cover its ``def`` line.

    Findings about a function anchor at the ``def`` keyword, but the
    natural place for the comment is above the decorator stack — where
    tokenize attaches it to the first decorator's logical line.  Copy
    any IDs found on decorator lines down to the definition line.
    """
    for node in ast.walk(tree):
        decorators = getattr(node, "decorator_list", None)
        if not decorators:
            continue
        ids: Set[str] = set()
        for decorator in decorators:
            end = getattr(decorator, "end_lineno", decorator.lineno)
            for line in range(decorator.lineno, (end or 0) + 1):
                ids |= table.get(line, set())
        if ids:
            table.setdefault(node.lineno, set()).update(ids)


class Project:
    """A lintable tree: file discovery plus a parse/suppression cache.

    ``root`` is the repository root; every path the engine hands to rules
    or stores in findings is relative to it, POSIX-style.
    """

    def __init__(
        self, root: Path, targets: Sequence[str] = DEFAULT_TARGETS
    ):
        self.root = Path(root)
        self.targets = tuple(targets)
        self._cache: Dict[str, Tuple[Optional[ast.AST], str]] = {}
        self._suppressions: Dict[str, Dict[int, Set[str]]] = {}
        self._parse_failures: Dict[str, str] = {}

    def files(self) -> List[str]:
        """Every ``.py`` file under the target directories, sorted."""
        out: List[str] = []
        for target in self.targets:
            base = self.root / target
            if base.is_file() and base.suffix == ".py":
                out.append(base.relative_to(self.root).as_posix())
            elif base.is_dir():
                out.extend(
                    path.relative_to(self.root).as_posix()
                    for path in base.rglob("*.py")
                )
        return sorted(set(out))

    def source(self, relpath: str) -> str:
        """Raw text of one file (cached via :meth:`parse`)."""
        self.parse(relpath)
        return self._cache[relpath][1]

    def parse(self, relpath: str) -> Optional[ast.AST]:
        """Parsed AST of one file, or ``None`` on a syntax error.

        Parse failures are remembered and surfaced by :func:`run_lint` as
        unsuppressable :data:`PARSE_RULE_ID` findings — a file the linter
        cannot read must fail the gate, not silently pass it.
        """
        if relpath not in self._cache:
            text = (self.root / relpath).read_text(encoding="utf-8")
            try:
                tree: Optional[ast.AST] = ast.parse(text, filename=relpath)
            except SyntaxError as exc:
                tree = None
                self._parse_failures[relpath] = (
                    f"cannot parse: {exc.msg} (line {exc.lineno})"
                )
            self._cache[relpath] = (tree, text)
            table = _scan_suppressions(text)
            if tree is not None:
                _extend_to_decorated(tree, table)
            self._suppressions[relpath] = table
        return self._cache[relpath][0]

    def parse_failures(self) -> Dict[str, str]:
        return dict(self._parse_failures)

    def is_suppressed(self, finding: Finding) -> bool:
        """Whether an inline comment silences ``finding`` on its line."""
        table = self._suppressions.get(finding.path, {})
        ids = table.get(finding.line, set())
        return ALL_RULES in ids or finding.rule_id in ids


def default_registry() -> RuleRegistry:
    """The curated rule set, in catalog order."""
    from .rules_ast import (
        BroadExceptRule,
        DeterminismRule,
        MutableDefaultRule,
        ObsGuardRule,
        PickleRule,
        ScalarLoopRule,
    )
    from .rules_concurrency import (
        AsyncRaceRule,
        BarrierDisciplineRule,
        BlockingCallRule,
        ForkAfterLoopRule,
        UnawaitedCoroutineRule,
    )
    from .rules_persist import PersistContractRule

    registry = RuleRegistry()
    registry.add(DeterminismRule())
    registry.add(PersistContractRule())
    registry.add(PickleRule())
    registry.add(BroadExceptRule())
    registry.add(MutableDefaultRule())
    registry.add(ScalarLoopRule())
    registry.add(ObsGuardRule())
    # tier-2 (CFG/dataflow) concurrency family
    registry.add(AsyncRaceRule())
    registry.add(BlockingCallRule())
    registry.add(UnawaitedCoroutineRule())
    registry.add(ForkAfterLoopRule())
    registry.add(BarrierDisciplineRule())
    return registry


def run_lint(
    root: Path,
    paths: Optional[Iterable[str]] = None,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    registry: Optional[RuleRegistry] = None,
) -> List[Finding]:
    """Lint a tree and return suppression-filtered, sorted findings.

    ``paths`` (when given) replaces the default target directories — each
    entry may be a directory or a single ``.py`` file, relative to
    ``root``.  ``select``/``ignore`` are iterables of rule IDs.
    """
    registry = registry or default_registry()
    rules = registry.select(select, ignore)
    project = Project(
        Path(root),
        targets=tuple(paths) if paths else DEFAULT_TARGETS,
    )
    findings: List[Finding] = []
    file_rules = [
        rule for rule in rules
        if type(rule).check_file is not Rule.check_file
    ]
    project_rules = [
        rule for rule in rules
        if type(rule).check_project is not Rule.check_project
    ]
    for relpath in project.files():
        # parse unconditionally: an unparseable file anywhere in the tree
        # must surface as an SC-PARSE finding, whatever rules are selected
        tree = project.parse(relpath)
        if tree is None:
            continue  # reported once, below, from parse_failures()
        for rule in file_rules:
            if rule.applies_to(relpath):
                findings.extend(
                    rule.check_file(relpath, tree, project.source(relpath))
                )
    for rule in project_rules:
        findings.extend(rule.check_project(project))
    for relpath, message in sorted(project.parse_failures().items()):
        findings.append(Finding(
            path=relpath, line=1, col=0, rule_id=PARSE_RULE_ID,
            severity=ERROR, message=message,
        ))
    kept = [
        f for f in findings
        # SC-PARSE cannot be suppressed: a comment on a broken line must
        # not hide the fact that the linter could not read the file
        if f.rule_id == PARSE_RULE_ID or not project.is_suppressed(f)
    ]
    return sorted(set(kept))
