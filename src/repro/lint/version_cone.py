"""Check ``version-cone``: the AST import graph sees every dependency.

The result cache's staleness guarantee (:mod:`repro.explore.versions`)
rests on the statically extracted import graph being the *whole* truth
about what an evaluation can reach, and on the dispatcher-pruning
assumption that plugin registries are only ever consulted per key.
This check flags the constructs that break either:

``dynamic-import``
    ``importlib.import_module`` / ``__import__`` in a cone module: the
    AST extractor cannot see the edge, so edits to the imported module
    would never stale dependent cache entries.  (The extractor itself
    also warns at cone-construction time — see
    :class:`~repro.explore.versions.DynamicImportWarning`.)
``mutable-global``
    A function rebinding a module-level name (``global X; X = ...``):
    cross-call module state is invisible to both the version vectors
    (which hash source, not state) and the process-pool workers (which
    each have their own copy).
``wholesale-plugin-use``
    Iterating a dispatch mapping's *values* (``MAP.values()`` /
    ``MAP.items()``) from a cone module outside the defining dispatcher:
    cone pruning assumes evaluation touches exactly one plugin per
    query, so wholesale access would make pruned cones unsound.  Keyed
    lookups (``MAP[name]``), membership tests and key listings are fine.
``wholesale-plugin-use`` (accessor form)
    Calling, from a cone module, a dispatcher-defined function that
    itself iterates the mapping (``paper_kernels()``-style "build them
    all" accessors).
``late-registration``
    Subscript-assignment into a dispatch mapping from inside a function
    (anywhere in the tree): cone roots come from the static plugin ->
    module tables of :mod:`repro.plugins`, so a post-import
    registration silently desynchronizes cone roots from the registry.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.explore.versions import find_dynamic_imports
from repro.lint.framework import (
    DispatchMap,
    Finding,
    LintContext,
    ModuleUnit,
    dotted_path,
    register_check,
)

__all__ = ["check_version_cone"]


def _map_aliases(
    context: LintContext, unit: ModuleUnit
) -> "dict[str, DispatchMap]":
    """Local names in ``unit`` that refer to a known dispatch mapping."""
    aliases: dict[str, DispatchMap] = {}
    maps = {
        (m.module, m.name): m for m in context.dispatch_maps()
    }
    if not maps:
        return aliases
    for local, qualified in context.bindings(unit).items():
        module, _, original = qualified.rpartition(".")
        found = maps.get((module, original))
        if found is not None:
            aliases[local] = found
    for m in context.dispatch_maps():
        if m.module == unit.name:
            aliases.setdefault(m.name, m)
    return aliases


def _wholesale_accessors(context: LintContext) -> "dict[str, DispatchMap]":
    """Dispatcher functions that iterate their mapping's values."""
    accessors: dict[str, DispatchMap] = {}
    units = context.units()
    for dmap in context.dispatch_maps():
        unit = units.get(dmap.module)
        if unit is None:
            continue
        for node in unit.tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for sub in ast.walk(node):
                if (
                    isinstance(sub, ast.Attribute)
                    and sub.attr in ("values", "items")
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == dmap.name
                ):
                    accessors[f"{dmap.module}.{node.name}"] = dmap
                    break
    return accessors


def check_version_cone(context: LintContext) -> Iterable[Finding]:
    accessors = _wholesale_accessors(context)
    cone = context.cone()
    for name, unit in context.units().items():
        in_cone = name in cone
        yield from _check_unit(context, unit, accessors, in_cone)


def _check_unit(
    context: LintContext,
    unit: ModuleUnit,
    accessors: "dict[str, DispatchMap]",
    in_cone: bool,
) -> Iterable[Finding]:
    path = context.relpath(unit)
    bindings = context.bindings(unit)
    aliases = _map_aliases(context, unit)

    def finding(code: str, node: ast.AST, message: str, hint: str,
                severity: str = "error") -> Finding:
        return Finding(
            check="version-cone", code=code, message=message,
            path=path, line=node.lineno, hint=hint, severity=severity,
        )

    if in_cone:
        for lineno, description in find_dynamic_imports(unit.tree):
            yield Finding(
                check="version-cone", code="dynamic-import",
                message=(
                    f"dynamic import ({description}) in evaluation-cone "
                    f"module {unit.name}: the AST import graph cannot "
                    f"track this edge, so edits to the imported module "
                    f"never stale dependent cache entries"
                ),
                path=path, line=lineno,
                hint="use a static import (module- or function-level both "
                "count), or move the dynamic load out of the cone",
            )

    for node in ast.walk(unit.tree):
        if in_cone and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            declared: set[str] = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Global):
                    declared |= set(sub.names)
            if declared:
                rebound = set()
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Assign):
                        rebound |= {
                            t.id for t in sub.targets
                            if isinstance(t, ast.Name) and t.id in declared
                        }
                    elif isinstance(sub, (ast.AugAssign, ast.AnnAssign)):
                        if isinstance(sub.target, ast.Name) and (
                            sub.target.id in declared
                        ):
                            rebound.add(sub.target.id)
                for global_name in sorted(rebound):
                    yield finding(
                        "mutable-global", node,
                        f"{node.name}() rebinds module global "
                        f"{global_name!r}: cross-call module state is "
                        f"invisible to the version vectors and diverges "
                        f"per worker process",
                        "thread the state through parameters/returns, or "
                        "suppress with why it can never change results",
                    )

        # Wholesale value iteration over a dispatch mapping.
        if in_cone and isinstance(node, ast.Attribute) and (
            node.attr in ("values", "items")
        ):
            base = node.value
            if isinstance(base, ast.Name) and base.id in aliases:
                dmap = aliases[base.id]
                if dmap.module != unit.name:
                    yield finding(
                        "wholesale-plugin-use", node,
                        f"{unit.name} iterates dispatch mapping "
                        f"{dmap.name}.{node.attr}() from outside its "
                        f"dispatcher {dmap.module}: cone pruning assumes "
                        f"plugins are consulted one key at a time",
                        "look plugins up per query key, or suppress with "
                        "why the wholesale use cannot affect results",
                    )

        # Calls to "build them all" dispatcher accessors from cone code.
        if in_cone and isinstance(node, ast.Call):
            qualified = None
            target = dotted_path(node.func)
            if target is not None:
                head, _, rest = target.partition(".")
                head = bindings.get(head, head)
                qualified = f"{head}.{rest}" if rest else head
            if qualified in accessors:
                dmap = accessors[qualified]
                if dmap.module != unit.name:
                    yield finding(
                        "wholesale-plugin-use", node,
                        f"{unit.name} calls {qualified}(), which "
                        f"instantiates every plugin of {dmap.name}: cone "
                        f"pruning assumes evaluation reaches one plugin "
                        f"per query",
                        "evaluate per-key through the dispatch mapping, "
                        "or suppress with why this cannot affect results",
                    )

        # Post-import registration into a dispatch mapping.
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for sub in ast.walk(node):
                target = None
                if isinstance(sub, ast.Assign):
                    for t in sub.targets:
                        if isinstance(t, ast.Subscript):
                            target = t
                elif isinstance(sub, ast.AugAssign) and isinstance(
                    sub.target, ast.Subscript
                ):
                    target = sub.target
                if target is None:
                    continue
                base = target.value
                if isinstance(base, ast.Name) and base.id in aliases:
                    dmap = aliases[base.id]
                    yield finding(
                        "late-registration", target,
                        f"{node.name}() registers into dispatch mapping "
                        f"{dmap.name} after import: the static plugin->module "
                        f"tables behind cone pruning (repro.plugins) will "
                        f"not list it",
                        "register plugins at module import time and list "
                        "them in repro.plugins",
                    )


register_check(
    "version-cone",
    "no dynamic imports, hidden module state or wholesale plugin use "
    "that the import-graph cone cannot see",
)(check_version_cone)
