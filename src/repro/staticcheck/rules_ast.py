"""Single-file rules: determinism, pickle, exceptions, defaults, loops.

Each rule here encodes a bug class this repository has actually shipped
and fixed (see ``docs/STATIC_ANALYSIS.md`` for the history); the linter
exists so those fixes stay fixed as the codebase grows.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Set, Tuple

from .model import ERROR, WARNING, Finding, Rule

#: Module-level draws from the process-global ``random`` generator.  The
#: seeded-instance style (``random.Random(seed)``) is what the codebase
#: uses instead; ``random.seed`` is excluded because calling it *is* the
#: act of seeding.
_GLOBAL_RANDOM_FUNCS = frozenset({
    "random", "randint", "randrange", "getrandbits", "choice", "choices",
    "shuffle", "sample", "uniform", "triangular", "gauss", "normalvariate",
    "expovariate", "betavariate", "vonmisesvariate", "paretovariate",
    "weibullvariate", "lognormvariate", "randbytes",
})

#: Draws from numpy's process-global RNG; ``default_rng(seed)`` is the
#: sanctioned replacement (and is itself flagged when called seedless).
_GLOBAL_NP_RANDOM_FUNCS = frozenset({
    "random", "rand", "randn", "randint", "random_sample", "choice",
    "shuffle", "permutation", "uniform", "normal", "zipf", "poisson",
    "exponential", "bytes",
})

_SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
_SET_METHODS = frozenset({
    "union", "intersection", "difference", "symmetric_difference", "copy",
})


def _dotted(node: ast.AST) -> str:
    """Best-effort dotted name of an attribute chain (``np.random.rand``)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _iteration_sites(tree: ast.AST) -> Iterator[ast.expr]:
    """Every expression whose iteration order escapes into behaviour."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for generator in node.generators:
                yield generator.iter


def _function_scopes(tree: ast.AST) -> Iterator[ast.AST]:
    """The module plus every (async) function body, as separate scopes."""
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


class _SetTracker:
    """Conservative, order-free inference of set-typed local names.

    A name counts as a set only when *every* assignment to it in the scope
    is set-producing — names that are sometimes lists are never flagged.
    """

    def __init__(self, scope: ast.AST):
        # every value ever bound to a name; None marks an opaque binding
        # (a function parameter), which permanently vetoes the name
        assigned: Dict[str, List[object]] = {}
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        assigned.setdefault(target.id, []).append(
                            node.value
                        )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda)):
                for arg in ast.walk(node.args):
                    if isinstance(arg, ast.arg):
                        assigned.setdefault(arg.arg, []).append(None)
        # fixed point so aliases (``b = a`` with set-typed ``a``) and
        # unions of aliases are tracked; terminates because names only
        # ever get added
        names: Set[str] = set()
        changed = True
        while changed:
            changed = False
            frozen = frozenset(names)
            for name, values in assigned.items():
                if name in names:
                    continue
                if values and all(
                    isinstance(value, ast.AST)
                    and self._is_set_expr(value, frozen)
                    for value in values
                ):
                    names.add(name)
                    changed = True
        self.set_names = frozenset(names)

    @classmethod
    def _is_set_expr(cls, node: ast.AST, set_names: frozenset) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in set_names
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            if isinstance(func, ast.Attribute) and func.attr in _SET_METHODS:
                return cls._is_set_expr(func.value, set_names)
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
            return (cls._is_set_expr(node.left, set_names)
                    or cls._is_set_expr(node.right, set_names))
        return False

    def is_set_expr(self, node: ast.AST) -> bool:
        return self._is_set_expr(node, self.set_names)


class DeterminismRule(Rule):
    """SC-DET: nondeterminism in measured/replayed paths.

    Flags (a) draws from the process-global ``random`` / ``np.random``
    generators anywhere in the tree, (b) ``time.time()`` inside the
    deterministic core (wall clock in a measured path — use
    ``time.perf_counter`` in profiling code, outside ``core``), and
    (c) iteration over sets (or ``dict.keys()`` calls) without
    ``sorted()`` in ``core``/``streams``/``verify``, where iteration
    order reaches estimates, reports, and replay logs.
    """

    rule_id = "SC-DET"
    severity = ERROR
    description = ("unseeded RNG, wall-clock reads, or unsorted set "
                   "iteration in deterministic paths")

    #: Paths where (b) and (c) apply; (a) applies everywhere.  The
    #: service and distributed runner joined the list with the tier-2
    #: concurrency sweep: worker teardown order and partition manifests
    #: both reach replayable logs, so set-iteration order matters there
    #: too.
    core_prefixes = (
        "src/repro/core/", "src/repro/streams/", "src/repro/verify/",
        "src/repro/service/", "src/repro/distributed/",
    )

    def check_file(
        self, relpath: str, tree: ast.AST, source: str
    ) -> Iterable[Finding]:
        findings: List[Finding] = []
        in_core = relpath.startswith(self.core_prefixes)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                findings.extend(self._check_call(relpath, node, in_core))
        if in_core:
            for scope in _function_scopes(tree):
                tracker = _SetTracker(scope)
                for site in self._own_iteration_sites(scope):
                    findings.extend(
                        self._check_iteration(relpath, site, tracker)
                    )
        return findings

    @staticmethod
    def _own_iteration_sites(scope: ast.AST) -> Iterator[ast.expr]:
        """Iteration sites of ``scope`` excluding nested function bodies."""
        nested: Set[int] = set()
        for node in ast.walk(scope):
            if node is scope:
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested.update(id(sub) for sub in ast.walk(node))
        for site in _iteration_sites(scope):
            if id(site) not in nested:
                yield site

    def _check_call(
        self, relpath: str, node: ast.Call, in_core: bool
    ) -> Iterator[Finding]:
        name = _dotted(node.func)
        base, _, leaf = name.rpartition(".")
        if base == "random" and leaf in _GLOBAL_RANDOM_FUNCS:
            yield self.finding(
                relpath, node,
                f"draw from the process-global RNG ({name}()); use a "
                f"seeded random.Random(derive_seed(...)) instance",
            )
        elif name == "random.Random" and not node.args and not node.keywords:
            yield self.finding(
                relpath, node,
                "random.Random() without a seed is nondeterministic; "
                "pass a derived seed",
            )
        elif base in ("np.random", "numpy.random"):
            if leaf in _GLOBAL_NP_RANDOM_FUNCS:
                yield self.finding(
                    relpath, node,
                    f"draw from numpy's global RNG ({name}()); use "
                    f"np.random.default_rng(derive_seed(...))",
                )
            elif leaf == "default_rng" and not node.args \
                    and not node.keywords:
                yield self.finding(
                    relpath, node,
                    "np.random.default_rng() without a seed is "
                    "nondeterministic; pass a derived seed",
                )
        elif in_core and name == "time.time":
            yield self.finding(
                relpath, node,
                "time.time() in a measured path; wall clock belongs in "
                "profiling code (time.perf_counter) outside core",
            )

    def _check_iteration(
        self, relpath: str, site: ast.expr, tracker: _SetTracker
    ) -> Iterator[Finding]:
        if isinstance(site, ast.Call):
            func = site.func
            if isinstance(func, ast.Name) and func.id in (
                    "sorted", "range", "enumerate", "len"):
                return
            if isinstance(func, ast.Attribute) and func.attr == "keys":
                yield self.finding(
                    relpath, site,
                    "iteration over dict.keys(); iterate "
                    "sorted(d) when order can reach output, or the dict "
                    "itself",
                )
                return
        if tracker.is_set_expr(site):
            yield self.finding(
                relpath, site,
                "iteration over an unsorted set; wrap the iterable in "
                "sorted(...) so replay order is deterministic",
            )


class PickleRule(Rule):
    """SC-PICKLE: unpickling anywhere in the tree.

    Unpickling executes code from the file being read.  Persistence goes
    through the pickle-free codec (:mod:`repro.persist`), so no module is
    allowed to load a pickle.
    """

    rule_id = "SC-PICKLE"
    severity = ERROR
    description = "pickle.load/loads (unpickling executes code)"

    _banned_attrs = frozenset({"load", "loads", "Unpickler"})

    def check_file(
        self, relpath: str, tree: ast.AST, source: str
    ) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) \
                    and node.attr in self._banned_attrs \
                    and _dotted(node) == f"pickle.{node.attr}":
                findings.append(self.finding(
                    relpath, node,
                    f"pickle.{node.attr}: unpickling executes code from "
                    f"the file — use repro.persist (codec) instead",
                ))
            elif isinstance(node, ast.ImportFrom) \
                    and node.module == "pickle":
                bad = sorted(
                    alias.name for alias in node.names
                    if alias.name in self._banned_attrs
                )
                if bad:
                    findings.append(self.finding(
                        relpath, node,
                        f"importing {', '.join(bad)} from pickle; use "
                        f"repro.persist (codec) instead",
                    ))
        return findings


class BroadExceptRule(Rule):
    """SC-EXC: broad except that swallows decode errors in persist paths.

    Every failure of the persistence layer must surface as
    ``SnapshotError`` (see ``repro/common/errors.py``); a bare or
    ``except Exception`` handler with no ``raise`` in its body converts a
    corrupt checkpoint into a silently wrong sketch.
    """

    rule_id = "SC-EXC"
    severity = ERROR
    description = ("broad except without re-raise in persist/snapshot "
                   "paths")
    scope_prefixes = (
        "src/repro/persist/", "src/repro/core/snapshot.py",
        "src/repro/service/", "src/repro/distributed/",
    )

    _broad = frozenset({"Exception", "BaseException"})

    def _is_broad(self, annotation: ast.expr) -> bool:
        if annotation is None:
            return True
        if isinstance(annotation, ast.Name):
            return annotation.id in self._broad
        if isinstance(annotation, ast.Tuple):
            return any(self._is_broad(element)
                       for element in annotation.elts)
        return False

    def check_file(
        self, relpath: str, tree: ast.AST, source: str
    ) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node.type):
                continue
            if any(isinstance(sub, ast.Raise) for sub in ast.walk(node)):
                continue
            label = "bare except" if node.type is None else \
                f"except {ast.unparse(node.type)}"
            findings.append(self.finding(
                relpath, node,
                f"{label} swallows the error; re-raise as SnapshotError "
                f"so corruption can never load silently",
            ))
        return findings


class ScalarLoopRule(Rule):
    """SC-LOOP: per-record Python loops hiding in the columnar batch paths.

    ``for x in arr.tolist():`` is the telltale of a scalar tail inside
    ``repro/core`` — the whole-window kernel backend (PR 6) exists because
    those loops dominated ingest time.  Every such loop must either be
    vectorized (see :mod:`repro.core.kernels`) or carry an inline
    ``# staticcheck: ignore[SC-LOOP]`` naming why order matters (e.g. the
    ``REPLACE_RANDOM`` Hot Part policy draws Mersenne randomness in
    arrival order, and scalar-oracle replay is *defined* as a loop).
    Comprehensions are not flagged: a list/dict build over ``tolist()``
    is a conversion, not a per-record sketch update.
    """

    rule_id = "SC-LOOP"
    severity = WARNING
    description = ("for-loop over .tolist() in a core batch path; "
                   "vectorize or justify with a suppression")
    scope_prefixes = ("src/repro/core/",)

    @staticmethod
    def _calls_tolist(site: ast.expr) -> bool:
        return any(
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr == "tolist"
            for sub in ast.walk(site)
        )

    def check_file(
        self, relpath: str, tree: ast.AST, source: str
    ) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if isinstance(node, (ast.For, ast.AsyncFor)) \
                    and self._calls_tolist(node.iter):
                findings.append(self.finding(
                    relpath, node,
                    "per-record loop over .tolist() in a batch path; "
                    "vectorize via repro.core.kernels or justify with "
                    "# staticcheck: ignore[SC-LOOP]",
                ))
        return findings


class ObsGuardRule(Rule):
    """SC-OBS: unguarded flight-recorder emission in core hot paths.

    Trace events (:meth:`repro.obs.trace.TraceRecorder.emit` /
    ``emit_bulk``) are recorded from per-item and per-wave code in
    ``repro/core``; the <5% disabled-observability CI bound only holds
    because every such call sits behind an enabled-check, so a disabled
    recorder costs one branch instead of an event append.  The guard the
    rule recognizes is an ``if`` whose test reads an ``.enabled``
    attribute or compares the recorder against ``None`` with ``is`` /
    ``is not`` (the canonical site is ``if tr is not None and
    tr.enabled:``).  Plain truthiness (``if tr:``) is not accepted: it
    reads as presence, not as the documented on/off switch, and the
    codebase standardizes on the explicit form.
    """

    rule_id = "SC-OBS"
    severity = WARNING
    description = ("trace emit/emit_bulk without an enabled-guard in a "
                   "core hot path")
    scope_prefixes = ("src/repro/core/",)

    _emit_methods = frozenset({"emit", "emit_bulk"})

    @staticmethod
    def _is_guard(test: ast.expr) -> bool:
        for sub in ast.walk(test):
            if isinstance(sub, ast.Attribute) and sub.attr == "enabled":
                return True
            if isinstance(sub, ast.Compare) and any(
                isinstance(op, (ast.Is, ast.IsNot)) for op in sub.ops
            ):
                operands = [sub.left] + list(sub.comparators)
                if any(isinstance(operand, ast.Constant)
                       and operand.value is None for operand in operands):
                    return True
        return False

    def check_file(
        self, relpath: str, tree: ast.AST, source: str
    ) -> Iterable[Finding]:
        findings: List[Finding] = []
        self._walk(relpath, tree, False, findings)
        return findings

    def _walk(
        self, relpath: str, node: ast.AST, guarded: bool,
        findings: List[Finding],
    ) -> None:
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in self._emit_methods \
                and not guarded:
            findings.append(self.finding(
                relpath, node,
                f"{node.func.attr}() outside an enabled-guard; wrap in "
                f"'if tr is not None and tr.enabled:' so a disabled "
                f"recorder costs one branch on the hot path",
            ))
        if isinstance(node, (ast.If, ast.IfExp)):
            body_guarded = guarded or self._is_guard(node.test)
            self._walk(relpath, node.test, guarded, findings)
            body = node.body if isinstance(node.body, list) else [node.body]
            orelse = (node.orelse if isinstance(node.orelse, list)
                      else [node.orelse])
            for sub in body:
                self._walk(relpath, sub, body_guarded, findings)
            for sub in orelse:
                self._walk(relpath, sub, guarded, findings)
            return
        for child in ast.iter_child_nodes(node):
            self._walk(relpath, child, guarded, findings)


class MutableDefaultRule(Rule):
    """SC-MUTDEF: mutable default argument values.

    A ``def f(x=[])`` default is created once and shared across calls;
    state leaks between invocations.  Default to ``None`` and build the
    container inside the function.
    """

    rule_id = "SC-MUTDEF"
    severity = WARNING
    description = "mutable default argument (list/dict/set literal)"

    _mutable_ctors = frozenset({"list", "dict", "set", "bytearray"})

    def _is_mutable(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in self._mutable_ctors
            and not node.args and not node.keywords
        )

    def check_file(
        self, relpath: str, tree: ast.AST, source: str
    ) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    name = getattr(node, "name", "<lambda>")
                    findings.append(self.finding(
                        relpath, default,
                        f"mutable default in {name}(); the object is "
                        f"shared across calls — default to None",
                    ))
        return findings
