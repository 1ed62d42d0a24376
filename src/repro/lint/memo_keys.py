"""Check ``memo-keys``: every memo key captures every knob reaching it.

The invariant (violated by an early coverage-memo bug, where two
evaluation flags were missing from the coverage key): a function that
receives evaluation knobs (bool/str flags threaded through the
``evaluate_query -> design_for -> build_design -> count_cycles`` chain)
and reads/writes a memo mapping must thread **every** knob into the
lookup — either into the key expression itself, into the expression
that selects the mapping (a memo that keys its *bundle* by the knobs
instead of the tuple), or into a second-level mapping keyed by the
knob.

The shipped evaluation chain carries no flag knobs — one evaluation
path — so on this tree the check finds nothing to police; it stays as
the guard that a newly threaded flag reaches every memo key.  Fixture
corpora without the chain are checked against
:data:`~repro.lint.framework.FALLBACK_KNOBS`.

Detection
---------
A *memo mapping* is a dotted container path (``self._bundles``,
``bundle.coverages``, a module-level dict) that is both **read**
(``m.get(k)`` / ``m[k]`` / ``m.setdefault``) and **written**
(``m[k] = v`` / ``m.setdefault``) — the check-compute-store idiom —
within one function, one class, or one module's top-level functions
(cross-function pairing requires the container to hang off ``self`` or
module state, so unrelated local dicts that merely share a name never
pair).  For each function containing such accesses, the check computes
the transitive name-closure of every key and mapping expression through
simple local assignments; a knob parameter of the function that appears
in no closure is reported as a missing key member.

The analysis is deliberately conservative the *other* way too: memo
accesses whose keys are opaque (a bare ``key`` parameter) still count
their mapping-selection closure, so ``get_cycle_report``-style designs
— knobs captured by the bundle lookup, key built by the caller — pass
without suppression.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable

from repro.lint.framework import (
    Finding,
    LintContext,
    ModuleUnit,
    dotted_path,
    local_assignments,
    name_closure,
    names_in,
    register_check,
)

__all__ = ["check_memo_keys"]

_READ_METHODS = frozenset({"get", "setdefault", "pop"})
_WRITE_METHODS = frozenset({"setdefault"})


@dataclass(frozen=True)
class _Access:
    path: str
    kind: str  # "read" | "write"
    key: "ast.AST | None"
    line: int


def _function_accesses(fn: ast.AST) -> "list[_Access]":
    """Every mapping read/write access in ``fn`` (nested defs excluded)."""
    accesses: list[_Access] = []
    write_targets: set[int] = set()
    for node in _walk_function(fn):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Subscript):
                        write_targets.add(id(sub))
        elif isinstance(node, ast.AugAssign) and isinstance(
            node.target, ast.Subscript
        ):
            write_targets.add(id(node.target))
    for node in _walk_function(fn):
        if isinstance(node, ast.Subscript):
            path = dotted_path(node.value)
            if path is None:
                continue
            kind = "write" if id(node) in write_targets else "read"
            accesses.append(_Access(path, kind, node.slice, node.lineno))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            if attr not in _READ_METHODS or not node.args:
                continue
            path = dotted_path(node.func.value)
            if path is None:
                continue
            accesses.append(_Access(path, "read", node.args[0], node.lineno))
            if attr in _WRITE_METHODS:
                accesses.append(_Access(path, "write", node.args[0], node.lineno))
    return accesses


def _walk_function(fn: ast.AST):
    """``ast.walk`` limited to ``fn``'s own scope (no nested defs)."""
    todo = list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                             ast.ClassDef)):
            continue
        yield node
        todo.extend(ast.iter_child_nodes(node))


def _functions(unit: ModuleUnit):
    """``(class name or None, FunctionDef)`` for every function/method."""
    for node in unit.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield None, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node.name, sub


def _module_globals(unit: ModuleUnit) -> set[str]:
    out: set[str] = set()
    for node in unit.tree.body:
        if isinstance(node, ast.Assign):
            out |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)) and isinstance(
            node.target, ast.Name
        ):
            out.add(node.target.id)
    return out


def _alias_base(expr: ast.AST) -> "str | None":
    """Root name of ``expr`` if it may *alias* existing state: a pure
    access chain (``self.x``, ``bundle.coverages[k]``) or a method call
    on one (``self._by_object.get(k)``, ``self._bundle_for(...)`` — the
    retrieved value lives inside the owner).  ``None`` for anything that
    constructs a value locally (literals, comprehensions, free-function
    calls) — a fresh object that merely mentions ``self`` in its
    construction is not shared state."""
    while True:
        if isinstance(expr, (ast.Attribute, ast.Subscript)):
            expr = expr.value
        elif isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
            expr = expr.func.value
        else:
            break
    return expr.id if isinstance(expr, ast.Name) else None


def _shareable(path: str, assignments, module_globals: set[str]) -> bool:
    """Whether ``path`` may pair with accesses in *other* functions:
    it must *alias* ``self``/``cls`` state (possibly through a chain of
    pure access-path assignments) or module-level state — locals that
    merely share a name across functions, or fresh containers whose
    construction happens to mention ``self``, are not one memo."""
    seen: set[str] = set()
    frontier = {path.split(".", 1)[0]}
    for _ in range(8):
        if frontier & ({"self", "cls"} | module_globals):
            return True
        seen |= frontier
        grown: set[str] = set()
        for name in frontier:
            for value in assignments.get(name, ()):
                base = _alias_base(value)
                if base is not None:
                    grown.add(base)
        frontier = grown - seen
        if not frontier:
            return False
    return False


def check_memo_keys(context: LintContext) -> Iterable[Finding]:
    knobs = context.knobs()
    cone = context.cone()
    prefix = f"{context.package}.explore"
    for name, unit in context.units().items():
        # Scope: the evaluation cone plus the whole explore package (the
        # cache/executor/scheduler layer sits above the cone root but
        # owns the on-disk entry keys and the cost-model memos).
        if name not in cone and not name.startswith(prefix):
            continue
        yield from _check_unit(context, unit, knobs)


def _check_unit(
    context: LintContext, unit: ModuleUnit, knobs: frozenset[str]
) -> Iterable[Finding]:
    module_globals = _module_globals(unit)
    per_function: list[tuple["str | None", ast.AST, list[_Access], dict]] = []
    # (scope key, path) -> kinds seen, where scope key is the class name
    # for shareable containers and the function object for local ones.
    kinds: dict[tuple, set[str]] = {}
    for cls, fn in _functions(unit):
        accesses = _function_accesses(fn)
        if not accesses:
            continue
        assignments = local_assignments(fn)
        per_function.append((cls, fn, accesses, assignments))
        for access in accesses:
            scopes: list[tuple] = [(id(fn), access.path)]
            if _shareable(access.path, assignments, module_globals):
                scopes.append((cls, access.path))
            for scope in scopes:
                kinds.setdefault(scope, set()).add(access.kind)

    def is_memo(cls, fn, access: _Access, assignments) -> bool:
        if kinds.get((id(fn), access.path)) == {"read", "write"}:
            return True
        if _shareable(access.path, assignments, module_globals):
            return kinds.get((cls, access.path)) == {"read", "write"}
        return False

    for cls, fn, accesses, assignments in per_function:
        params = {
            a.arg
            for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        }
        knob_params = params & knobs
        if not knob_params:
            continue
        memo_accesses = [
            a for a in accesses if is_memo(cls, fn, a, assignments)
        ]
        if not memo_accesses:
            continue
        covered: set[str] = set()
        for access in memo_accesses:
            seeds = set(access.path.split(".", 1)[:1])
            if access.key is not None:
                seeds |= names_in(access.key)
            covered |= name_closure(seeds, assignments)
        missing = sorted(knob_params - covered)
        if not missing:
            continue
        where = f"{cls}.{fn.name}" if cls else fn.name
        paths = sorted({a.path for a in memo_accesses})
        first = min(a.line for a in memo_accesses)
        for knob in missing:
            yield Finding(
                check="memo-keys",
                code="missing-knob",
                message=(
                    f"memo key for {', '.join(paths)} in {where}() never "
                    f"sees the evaluation knob {knob!r}: two calls "
                    f"differing only in {knob!r} would share one entry"
                ),
                path=context.relpath(unit),
                line=first,
                hint=(
                    f"add {knob!r} to the key tuple (or thread it into "
                    f"the mapping-selection expression)"
                ),
            )


register_check(
    "memo-keys",
    "every memo/cache key captures every evaluation knob reaching it",
)(check_memo_keys)
