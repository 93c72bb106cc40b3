"""The determinism lint rules: the repo's hard invariants, as AST checks.

Every rule here encodes an invariant that was once violated in a shipped
PR or is one careless edit away from being violated again:

=======  ==============================================================
REP001   No builtin ``hash()`` in seed/key derivation.  ``hash`` is
         salted per process (``PYTHONHASHSEED``), so any seed or cache
         key derived from it differs between the parent and a worker —
         the exact cross-process nondeterminism bug PR 1 fixed by
         switching to ``blake2b``.
REP002   No ``random.Random`` / module-level ``random.*`` outside
         ``repro.core.rng``.  Every draw must flow through
         :class:`RandomSource` so streams are labelled, spawnable, and
         replayable; a stray ``random.random()`` silently desynchronises
         serial and parallel runs.
REP003   No module-scope numpy import in ``repro.core`` /
         ``repro.topology``.  The package runs on the standard library
         alone (no engine uses numpy), so the engines and populations
         must import cleanly where numpy is absent; an optional
         accelerator would import it inside the function that needs it.
REP004   No wall clock (``time.time`` / ``datetime.now`` / ...) in
         result-identity paths — the executor, the core engines, and the
         store's content addressing.  A timestamp in a digest or a seed
         makes "same request, same record" false.  (``time.perf_counter``
         and friends are fine: durations are reporting, not identity.
         The service layer is outside the rule's scope: job bookkeeping
         legitimately reads the clock.)
REP005   No unsorted dict/set iteration feeding a digest.  Inside any
         function that computes a digest, ``json.dumps`` must pass
         ``sort_keys=True`` and ``.keys()/.values()/.items()`` (or set
         displays) used in the digest's arguments must go through
         ``sorted(...)`` — iteration order is insertion order, which is
         history, not content.
REP006   Snapshot completeness.  In any class that defines both
         ``snapshot()`` and ``restore()`` (the PR-8 engine contract),
         every ``self.x = ...`` attribute assigned in ``__init__`` must
         be referenced by *both* methods — captured by ``snapshot()``
         and reassigned (or mutated, e.g. ``self._scheduler.setstate``)
         by ``restore()``.  An engine that grows a mutable field without
         extending its snapshot silently corrupts every phased-scenario
         resume; this rule turns that drift into a lint failure.
         Immutable shared fields (the protocol, the population, compiled
         transition tables) are legitimately outside the snapshot and
         carry an ``allow`` on their ``__init__`` assignment.
=======  ==============================================================

A finding is silenced by an inline ``# repro: allow[REP001]`` comment on
the flagged line (comma-separate to allow several rules).  Suppressions
are deliberate: each one marks an audited exception.  The audited allow
inventory:

* REP001 — ``Configuration.__hash__`` (in-process membership only).
* REP004 — the store GC's record-age arithmetic (ages are policy, not
  identity).  ``repro.fabric`` is in REP004 scope since PR 10: its
  lease and retry timing deliberately uses ``time.monotonic()`` /
  ``time.sleep()``, which the rule permits by design (durations, not
  identity), so the fabric needs no allows at all.
* REP006 — the engines' immutable shared fields, audited per class:
  ``Simulation`` (protocol, population, observers — rebound, never
  mutated mid-run) and ``BatchedSimulation`` (protocol, population, arc
  list and layout constants — invariant for the simulation's lifetime;
  the mutable run state they parameterize — stream position, counters —
  is exactly what ``snapshot()`` captures).  Its coded table needs no
  allow: ``snapshot()`` captures the table's view of the agents and
  ``restore()`` re-codes it; the table's lookup entries are caches of a
  pure function.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([A-Z0-9,\s]+)\]")

#: Wall-clock call chains REP004 rejects (monotonic/perf counters pass).
_WALL_CLOCK_CHAINS = frozenset({
    "time.time", "time.time_ns",
    "datetime.now", "datetime.utcnow",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.date.today", "date.today",
})
#: ``from <module> import <name>`` forms that alias a wall clock.
_WALL_CLOCK_IMPORTS = frozenset({
    ("time", "time"), ("time", "time_ns"),
})

_DIGEST_NAMES = frozenset({
    "blake2b", "blake2s", "sha1", "sha256", "sha384", "sha512",
    "sha3_256", "sha3_512", "md5", "shake_128", "shake_256",
})


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule} {self.message}"


@dataclass(frozen=True)
class Rule:
    """One named invariant: a scope predicate plus an AST visitor."""

    code: str
    summary: str
    #: Receives the dotted module name; False exempts the whole module.
    applies_to: Callable[[str], bool]
    #: Yields ``(node, message)`` pairs for one parsed module.
    visit: Callable[[ast.Module], Iterator[Tuple[ast.AST, str]]]


def _dotted(node: ast.expr) -> Optional[str]:
    """``a.b.c`` as a string for Name/Attribute chains, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _module_scope_nodes(tree: ast.Module) -> Iterator[ast.AST]:
    """Every node evaluated at import time (skips function bodies)."""
    stack: List[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            stack.append(child)
            yield child


def _functions(tree: ast.Module) -> Iterator[ast.AST]:
    """All function scopes, plus the module itself (for top-level code)."""
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _scope_walk(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk one scope without descending into *nested* function scopes —
    each function's body belongs to that function, not its enclosure."""
    stack = [scope]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stack.append(child)


def _visit_rep001(tree: ast.Module) -> Iterator[Tuple[ast.AST, str]]:
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "hash"):
            yield node, ("builtin hash() is process-salted; derive seeds "
                         "and keys with hashlib.blake2b")


def _visit_rep002(tree: ast.Module) -> Iterator[Tuple[ast.AST, str]]:
    message = ("draws must flow through repro.core.rng.RandomSource, "
               "not the random module")
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name == "random" or alias.name.startswith("random.")
                   for alias in node.names):
                yield node, f"import random: {message}"
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                yield node, f"from random import ...: {message}"
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id == "random"):
            yield node, f"random.{node.attr}: {message}"


def _visit_rep003(tree: ast.Module) -> Iterator[Tuple[ast.AST, str]]:
    message = ("the package runs without numpy; import it inside the "
               "function that needs it so the module imports cleanly "
               "without it")
    for node in _module_scope_nodes(tree):
        if isinstance(node, ast.Import):
            if any(alias.name == "numpy" or alias.name.startswith("numpy.")
                   for alias in node.names):
                yield node, f"module-scope numpy import: {message}"
        elif isinstance(node, ast.ImportFrom):
            if node.module and (node.module == "numpy"
                                or node.module.startswith("numpy.")):
                yield node, f"module-scope import from numpy: {message}"


def _visit_rep004(tree: ast.Module) -> Iterator[Tuple[ast.AST, str]]:
    message = ("wall clock in a result-identity path; results must be a "
               "pure function of the request (use time.perf_counter for "
               "durations)")
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if (node.module, alias.name) in _WALL_CLOCK_IMPORTS:
                    aliases[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain = _dotted(node.func)
        if chain in _WALL_CLOCK_CHAINS:
            yield node, f"{chain}(): {message}"
        elif (isinstance(node.func, ast.Name)
              and node.func.id in aliases):
            yield node, f"{aliases[node.func.id]}(): {message}"


def _is_digest_call(node: ast.Call) -> bool:
    if isinstance(node.func, ast.Name):
        return node.func.id in _DIGEST_NAMES
    if isinstance(node.func, ast.Attribute):
        return node.func.attr in _DIGEST_NAMES
    return False


def _unsorted_views(root: ast.expr) -> Iterator[ast.AST]:
    """``.keys()/.values()/.items()`` calls and set displays under ``root``
    that are not wrapped in a ``sorted(...)`` call."""
    exempt: set = set()
    for node in ast.walk(root):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "sorted"):
            for inner in ast.walk(node):
                exempt.add(id(inner))
    for node in ast.walk(root):
        if id(node) in exempt:
            continue
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("keys", "values", "items")
                and not node.args and not node.keywords):
            yield node
        elif isinstance(node, (ast.Set, ast.SetComp)):
            yield node


def _visit_rep005(tree: ast.Module) -> Iterator[Tuple[ast.AST, str]]:
    for scope in _functions(tree):
        body_walk = list(_scope_walk(scope))
        digest_calls = [node for node in body_walk
                        if isinstance(node, ast.Call)
                        and _is_digest_call(node)]
        if not digest_calls:
            continue
        for node in body_walk:
            if (isinstance(node, ast.Call)
                    and _dotted(node.func) in ("json.dumps", "dumps")):
                sort_keys = next(
                    (keyword.value for keyword in node.keywords
                     if keyword.arg == "sort_keys"), None)
                if sort_keys is None or (
                        isinstance(sort_keys, ast.Constant)
                        and sort_keys.value is not True):
                    yield node, ("json.dumps feeding a digest scope "
                                 "must pass sort_keys=True (dict order "
                                 "is history, not content)")
        for call in digest_calls:
            for argument in list(call.args) + [kw.value
                                               for kw in call.keywords]:
                for view in _unsorted_views(argument):
                    label = (f".{view.func.attr}()"
                             if isinstance(view, ast.Call)
                             else "set display")
                    yield view, (f"unsorted {label} feeding a digest; "
                                 "wrap it in sorted(...)")


def _self_attribute_stores(function: ast.AST) -> Iterator[ast.Attribute]:
    """``self.x`` assignment targets in one function scope."""
    for node in _scope_walk(function):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for target in targets:
            stack = [target]
            while stack:
                item = stack.pop()
                if isinstance(item, (ast.Tuple, ast.List)):
                    stack.extend(item.elts)
                elif (isinstance(item, ast.Attribute)
                      and isinstance(item.value, ast.Name)
                      and item.value.id == "self"):
                    yield item


def _self_attribute_references(function: ast.AST) -> frozenset:
    """Every ``self.x`` attribute name *touched* in one function scope —
    loads, stores, and method receivers (``self.x.setstate(...)``) alike."""
    names = set()
    for node in _scope_walk(function):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            names.add(node.attr)
    return frozenset(names)


def _visit_rep006(tree: ast.Module) -> Iterator[Tuple[ast.AST, str]]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        methods = {item.name: item for item in node.body
                   if isinstance(item, (ast.FunctionDef,
                                        ast.AsyncFunctionDef))}
        if not ("snapshot" in methods and "restore" in methods):
            continue
        init = methods.get("__init__")
        if init is None:
            continue
        captured = _self_attribute_references(methods["snapshot"])
        restored = _self_attribute_references(methods["restore"])
        reported = set()
        for store in _self_attribute_stores(init):
            name = store.attr
            if name in reported:
                continue
            missing = []
            if name not in captured:
                missing.append("snapshot()")
            if name not in restored:
                missing.append("restore()")
            if missing:
                reported.add(name)
                yield store, (
                    f"self.{name} is assigned in {node.name}.__init__ but "
                    f"not referenced by {' or '.join(missing)}; mutable "
                    "run state must round-trip through snapshot/restore "
                    "(immutable shared fields take an explicit allow)")


def _in_packages(*prefixes: str) -> Callable[[str], bool]:
    def applies(module: str) -> bool:
        return any(module == prefix or module.startswith(prefix + ".")
                   for prefix in prefixes)
    return applies


RULES: Tuple[Rule, ...] = (
    Rule(
        code="REP001",
        summary="no builtin hash() in seed/key derivation (blake2b only)",
        applies_to=lambda module: True,
        visit=_visit_rep001,
    ),
    Rule(
        code="REP002",
        summary="no random.Random / module-level random.* outside "
                "repro.core.rng",
        applies_to=lambda module: module != "repro.core.rng",
        visit=_visit_rep002,
    ),
    Rule(
        code="REP003",
        summary="no module-scope numpy import in repro.core / "
                "repro.topology (the package runs without numpy)",
        applies_to=_in_packages("repro.core", "repro.topology"),
        visit=_visit_rep003,
    ),
    Rule(
        code="REP004",
        summary="no wall clock in result-identity paths "
                "(executor / engines / scenario runtime / store / fabric)",
        applies_to=_in_packages("repro.api.executor", "repro.core",
                                "repro.scenario", "repro.store",
                                "repro.fabric"),
        visit=_visit_rep004,
    ),
    Rule(
        code="REP005",
        summary="no unsorted dict/set iteration feeding a digest",
        applies_to=lambda module: True,
        visit=_visit_rep005,
    ),
    Rule(
        code="REP006",
        summary="snapshot/restore classes must round-trip every "
                "__init__-assigned attribute",
        applies_to=lambda module: True,
        visit=_visit_rep006,
    ),
)

RULES_BY_CODE: Dict[str, Rule] = {rule.code: rule for rule in RULES}


def allowed_rules(line: str) -> frozenset:
    """Rule codes suppressed by an inline allow comment on ``line``."""
    match = ALLOW_RE.search(line)
    if not match:
        return frozenset()
    return frozenset(part.strip() for part in match.group(1).split(",")
                     if part.strip())


def check_module(tree: ast.Module, source_lines: Sequence[str],
                 path: str, module: str,
                 rules: Optional[Sequence[Rule]] = None) -> List[Finding]:
    """All findings for one parsed module, suppressions applied."""
    findings: List[Finding] = []
    for rule in (rules if rules is not None else RULES):
        if not rule.applies_to(module):
            continue
        for node, message in rule.visit(tree):
            line = getattr(node, "lineno", 1)
            source = (source_lines[line - 1]
                      if 0 < line <= len(source_lines) else "")
            if rule.code in allowed_rules(source):
                continue
            findings.append(Finding(
                rule=rule.code, path=path, line=line,
                col=getattr(node, "col_offset", 0), message=message))
    findings.sort(key=lambda finding: (finding.path, finding.line,
                                       finding.col, finding.rule))
    return findings
