"""SC-PERSIST: the state_dict()/from_state() persistence contract.

For every class on the restore allowlist in ``repro/persist/state.py``
(parsed statically — the linter never imports the code it checks), three
properties must hold or bit-identical resume silently breaks:

1. every key ``from_state()`` consumes is emitted by ``state_dict()``
   (a key read but never written crashes — or worse, ``.get()`` defaults
   — on restore);
2. every key ``state_dict()`` emits is consumed by ``from_state()``
   (an ignored key means saved state is dropped on restore);
3. every instance attribute (``__slots__`` if declared, else ``self.*``
   assignments in ``__init__``) is *covered*: either a state key named
   after it (modulo leading underscores) exists, or ``state_dict()``
   reads the attribute while building a derived representation (e.g.
   ``HotPart`` serializing its four parallel SoA arrays — ``_keys``,
   ``_per``, ``_occ``, ``_off`` — back into per-bucket entry dicts).

Property 3 is what catches the historical bug class: a field added to
``__init__`` during a refactor but forgotten in ``state_dict()``, which
PR 4 hit with silently incomplete snapshots.

An allowlisted class may also *inherit* its contract: when it subclasses
another allowlisted class and defines no ``__init__``, ``state_dict()`` or
``from_state()``, the base's check covers it — provided it declares
``__slots__ = ()``.  A slot of its own (or no ``__slots__`` at all, which
opens a ``__dict__``) is state the inherited methods never see, and is
flagged.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .model import ERROR, Finding, Rule

#: Where the allowlist lives, relative to the project root.
STATE_MODULE = "src/repro/persist/state.py"


def _class_def(tree: ast.AST, name: str) -> Optional[ast.ClassDef]:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def _method(cls: ast.ClassDef, name: str) -> Optional[ast.FunctionDef]:
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


def registered_classes(
    state_tree: ast.AST,
) -> Dict[str, str]:
    """Map registered class name -> module path, from ``_registry()``.

    Reads the lazily-populated allowlist: the ``from ..core.x import C``
    statements give each class's module, and the ``for klass in (...)``
    tuple gives the registered set.  Returns repo-relative file paths.
    """
    registry_fn = None
    for node in ast.walk(state_tree):
        if isinstance(node, ast.FunctionDef) and node.name == "_registry":
            registry_fn = node
            break
    if registry_fn is None:
        return {}
    imported: Dict[str, str] = {}
    for node in ast.walk(registry_fn):
        if isinstance(node, ast.ImportFrom) and node.module:
            # state.py sits in repro/persist/, so level-2 relative
            # imports resolve against src/repro/
            if node.level == 2:
                base = "src/repro"
            elif node.level == 1:
                base = "src/repro/persist"
            else:
                continue
            path = f"{base}/{node.module.replace('.', '/')}.py"
            for alias in node.names:
                imported[alias.asname or alias.name] = path
    names: List[str] = []
    for node in ast.walk(registry_fn):
        if isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple):
            for element in node.iter.elts:
                if isinstance(element, ast.Name):
                    names.append(element.id)
    return {
        name: imported[name] for name in names if name in imported
    }


class _ClassContract:
    """Statically extracted persistence surface of one class."""

    def __init__(self, cls: ast.ClassDef):
        self.cls = cls
        self.slots, self.slots_line = self._slots(cls)
        self.defines_init = _method(cls, "__init__") is not None
        self.init_attrs = self._init_attrs(cls)
        self.state_dict = _method(cls, "state_dict")
        self.from_state = _method(cls, "from_state")
        self.emitted = self._emitted_keys(self.state_dict)
        self.read_attrs = self._self_reads(self.state_dict)
        self.consumed = self._consumed_keys(self.from_state)

    @staticmethod
    def _slots(cls: ast.ClassDef) -> Tuple[Optional[List[str]], int]:
        """Declared ``__slots__`` names (``None`` when not declared)."""
        for node in cls.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) \
                            and target.id == "__slots__":
                        try:
                            values = list(ast.literal_eval(node.value))
                        except (ValueError, TypeError):
                            return [], node.lineno
                        return [str(v) for v in values], node.lineno
        return None, cls.lineno

    @staticmethod
    def _init_attrs(cls: ast.ClassDef) -> Dict[str, int]:
        """``self.X = ...`` targets in ``__init__`` -> first line seen."""
        init = _method(cls, "__init__")
        attrs: Dict[str, int] = {}
        if init is None:
            return attrs
        for node in ast.walk(init):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if isinstance(target, ast.Attribute) \
                        and isinstance(target.value, ast.Name) \
                        and target.value.id == "self":
                    attrs.setdefault(target.attr, target.lineno)
        return attrs

    @staticmethod
    def _emitted_keys(fn: Optional[ast.FunctionDef]) -> Set[str]:
        """String keys of every dict literal returned by ``state_dict``."""
        keys: Set[str] = set()
        if fn is None:
            return keys
        for node in ast.walk(fn):
            if isinstance(node, ast.Return) \
                    and isinstance(node.value, ast.Dict):
                for key in node.value.keys:
                    if isinstance(key, ast.Constant) \
                            and isinstance(key.value, str):
                        keys.add(key.value)
        return keys

    @staticmethod
    def _self_reads(fn: Optional[ast.FunctionDef]) -> Set[str]:
        reads: Set[str] = set()
        if fn is None:
            return reads
        for node in ast.walk(fn):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == "self":
                reads.add(node.attr)
        return reads

    @staticmethod
    def _consumed_keys(fn: Optional[ast.FunctionDef]) -> Set[str]:
        """Keys ``from_state`` reads off its state argument.

        Covers ``state["k"]`` subscripts and ``state.get("k", ...)``
        calls, where ``state`` is the method's first non-cls parameter.
        """
        keys: Set[str] = set()
        if fn is None:
            return keys
        params = [arg.arg for arg in fn.args.args]
        state_name = None
        for param in params:
            if param not in ("cls", "self"):
                state_name = param
                break
        if state_name is None:
            return keys
        for node in ast.walk(fn):
            if isinstance(node, ast.Subscript) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == state_name \
                    and isinstance(node.slice, ast.Constant) \
                    and isinstance(node.slice.value, str):
                keys.add(node.slice.value)
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "get" \
                    and isinstance(node.func.value, ast.Name) \
                    and node.func.value.id == state_name \
                    and node.args \
                    and isinstance(node.args[0], ast.Constant) \
                    and isinstance(node.args[0].value, str):
                keys.add(node.args[0].value)
        return keys


class PersistContractRule(Rule):
    """SC-PERSIST: allowlisted classes must round-trip every field."""

    rule_id = "SC-PERSIST"
    severity = ERROR
    description = ("state_dict()/from_state() must cover every instance "
                   "attribute of allowlisted classes")

    def check_project(self, project) -> Iterable[Finding]:
        findings: List[Finding] = []
        if not (Path(project.root) / STATE_MODULE).is_file():
            return findings  # partial tree without the persist layer
        state_tree = project.parse(STATE_MODULE)
        if state_tree is None:
            return findings  # surfaced as SC-PARSE by the engine
        classes = registered_classes(state_tree)
        if not classes:
            findings.append(self.finding(
                STATE_MODULE, 1,
                "could not extract the restore allowlist from "
                "_registry(); SC-PERSIST has nothing to check",
            ))
            return findings
        for name in sorted(classes):
            relpath = classes[name]
            if not (Path(project.root) / relpath).is_file():
                findings.append(self.finding(
                    STATE_MODULE, 1,
                    f"allowlisted class {name} points at missing module "
                    f"{relpath}",
                ))
                continue
            tree = project.parse(relpath)
            if tree is None:
                continue
            cls = _class_def(tree, name)
            if cls is None:
                findings.append(self.finding(
                    relpath, 1,
                    f"allowlisted class {name} not found in {relpath}",
                ))
                continue
            findings.extend(self._check_class(relpath, name, cls, classes))
        return findings

    def _check_class(
        self, relpath: str, name: str, cls: ast.ClassDef,
        allowlisted: Dict[str, str],
    ) -> Iterable[Finding]:
        contract = _ClassContract(cls)
        base = _allowlisted_base(cls, allowlisted)
        if base is not None and not (contract.defines_init
                                     or contract.state_dict
                                     or contract.from_state):
            yield from self._check_inherited(relpath, name, base, contract)
            return
        if contract.state_dict is None or contract.from_state is None:
            missing = [
                label for label, fn in (
                    ("state_dict()", contract.state_dict),
                    ("from_state()", contract.from_state),
                ) if fn is None
            ]
            yield self.finding(
                relpath, cls,
                f"{name} is on the persist allowlist but lacks "
                f"{' and '.join(missing)}",
            )
            return
        for key in sorted(contract.consumed - contract.emitted):
            yield self.finding(
                relpath, contract.from_state,
                f"{name}.from_state() consumes key {key!r} that "
                f"state_dict() never emits — restore will fail or "
                f"default silently",
            )
        for key in sorted(contract.emitted - contract.consumed):
            yield self.finding(
                relpath, contract.state_dict,
                f"{name}.state_dict() emits key {key!r} that "
                f"from_state() ignores — that field is dropped on "
                f"restore",
            )
        attrs: Dict[str, int] = dict(contract.init_attrs)
        for slot in contract.slots or ():
            attrs.setdefault(slot, contract.slots_line)
        for attr in sorted(attrs):
            if attr.lstrip("_") in contract.emitted:
                continue
            if attr in contract.read_attrs:
                continue  # flattened/derived inside state_dict()
            yield self.finding(
                relpath, attrs[attr],
                f"{name}.{attr} is never captured by state_dict() — a "
                f"restored sketch will not be bit-identical (emit the "
                f"field, or read it while deriving one)",
            )

    def _check_inherited(
        self, relpath: str, name: str, base: str,
        contract: _ClassContract,
    ) -> Iterable[Finding]:
        """A subclass running its allowlisted base's contract adds no
        state: its own ``__slots__`` must be declared and empty."""
        if contract.slots is None:
            yield self.finding(
                relpath, contract.cls,
                f"{name} inherits {base}'s state_dict()/from_state() but "
                f"declares no __slots__, so its instances can carry "
                f"attributes the inherited state never captures (declare "
                f"__slots__ = ())",
            )
            return
        for slot in contract.slots:
            yield self.finding(
                relpath, contract.slots_line,
                f"{name}.{slot} is never captured by state_dict() — "
                f"{name} inherits {base}'s state_dict()/from_state(), "
                f"which do not know the slot (move it to {base}, or "
                f"override both methods)",
            )


def _allowlisted_base(
    cls: ast.ClassDef, allowlisted: Dict[str, str]
) -> Optional[str]:
    """Name of the first direct base of ``cls`` on the allowlist."""
    for node in cls.bases:
        if isinstance(node, ast.Name) and node.id in allowlisted:
            return node.id
    return None
