"""Check ``version-cone``: the AST import graph sees every dependency.

The result cache's staleness guarantee (:mod:`repro.explore.versions`)
rests on its code stamp covering every module an evaluation can reach:
the stamp hashes the constant cone that a tier-1 test pins to the
statically extracted import graph, so that graph must be the *whole*
truth.  This check flags the constructs that break it:

``dynamic-import``
    ``importlib.import_module`` / ``__import__`` in a cone module: the
    AST extractor cannot see the edge, so edits to the imported module
    would never stale cache entries.  (The extractor itself also warns
    when it parses such a module — see
    :class:`~repro.explore.versions.DynamicImportWarning`.)
``mutable-global``
    A function rebinding a module-level name (``global X; X = ...``):
    cross-call module state is invisible to both the code stamp (which
    hashes source, not state) and the process-pool workers (which each
    have their own copy).
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.explore.versions import find_dynamic_imports
from repro.lint.framework import (
    Finding,
    LintContext,
    ModuleUnit,
    register_check,
)

__all__ = ["check_version_cone"]


def check_version_cone(context: LintContext) -> Iterable[Finding]:
    for unit in context.cone_units():
        yield from _check_unit(context, unit)


def _check_unit(context: LintContext, unit: ModuleUnit) -> Iterable[Finding]:
    path = context.relpath(unit)
    for lineno, description in find_dynamic_imports(unit.tree):
        yield Finding(
            check="version-cone", code="dynamic-import",
            message=(
                f"dynamic import ({description}) in evaluation-cone "
                f"module {unit.name}: the AST import graph cannot "
                f"track this edge, so edits to the imported module "
                f"never stale cache entries"
            ),
            path=path, line=lineno,
            hint="use a static import (module- or function-level both "
            "count), or move the dynamic load out of the cone",
        )

    for node in ast.walk(unit.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        declared: set[str] = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Global):
                declared |= set(sub.names)
        if not declared:
            continue
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
            yield Finding(
                check="version-cone", code="mutable-global",
                message=(
                    f"{node.name}() rebinds module global "
                    f"{global_name!r}: cross-call module state is "
                    f"invisible to the code stamp and diverges per "
                    f"worker process"
                ),
                path=path, line=node.lineno,
                hint="thread the state through parameters/returns, or "
                "suppress with why it can never change results",
            )


register_check(
    "version-cone",
    "no dynamic imports or hidden module state that the import-graph "
    "cone cannot see",
)(check_version_cone)
