"""Check ``determinism``: no silent nondeterminism in the evaluation cone.

Cache entries and cross-process memos are only sound if re-running a
point reproduces its record bit-identically.  Over the dependency cone
of the evaluation root this check flags the constructs that would
silently poison cached results:

``wall-clock``
    ``time.time()`` / ``datetime.now()``-family calls.  Monotonic
    duration clocks (``perf_counter``, ``monotonic``, ``process_time``)
    are allowed: they only ever feed *envelope* timing (``seconds``,
    ``--profile`` stages), never record identity.
``unseeded-random``
    Stdlib ``random.*`` module-level calls and legacy
    ``numpy.random.*`` global-state draws; ``default_rng()`` without an
    explicit seed argument.
``env-read``
    ``os.environ`` reads / ``os.getenv``: configuration that varies
    between the process that wrote a cache entry and the one reading it.
``id-key``
    ``id(x)`` used as (part of) a mapping key: ids are recycled after
    garbage collection, so an id-keyed memo can answer for the wrong
    object unless every lookup re-validates identity — suppress with a
    justification naming that guard.
``set-iteration``
    Direct iteration over a set expression (set literal, ``set(...)``
    call, set comprehension): the order feeds whatever the loop
    accumulates and varies with hash seeding across processes.
``unordered-reduction``
    ``sum()`` over a set expression — float addition is not
    associative, so an unordered reduction is not reproducible.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.framework import (
    Finding,
    LintContext,
    ModuleUnit,
    register_check,
    resolve_call_name,
)

__all__ = ["check_determinism"]

_WALL_CLOCKS = frozenset({
    "time.time",
    "time.time_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
})

_ALLOWED_CLOCKS = frozenset({
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.thread_time",
})

_KEYED_METHODS = frozenset({"get", "setdefault", "pop"})


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def check_determinism(context: LintContext) -> Iterable[Finding]:
    for unit in context.cone_units():
        yield from _check_unit(context, unit)


def _check_unit(context: LintContext, unit: ModuleUnit) -> Iterable[Finding]:
    path = context.relpath(unit)
    bindings = context.bindings(unit)

    def finding(code: str, node: ast.AST, message: str, hint: str) -> Finding:
        return Finding(
            check="determinism", code=code, message=message,
            path=path, line=node.lineno, hint=hint,
        )

    for node in ast.walk(unit.tree):
        if isinstance(node, ast.Call):
            name = resolve_call_name(node.func, bindings)
            if name in _WALL_CLOCKS:
                yield finding(
                    "wall-clock", node,
                    f"wall-clock read {name}() in the evaluation cone: "
                    f"absolute time can leak into memoized values",
                    "use a monotonic duration clock (time.perf_counter) "
                    "for envelope timing, or move the read out of the cone",
                )
            elif name is not None and (
                name.startswith("random.")
                or name.startswith("numpy.random.")
            ):
                if name.endswith(".default_rng") and node.args:
                    pass  # explicitly seeded generator
                else:
                    yield finding(
                        "unseeded-random", node,
                        f"global-state random draw {name}() in the "
                        f"evaluation cone is not reproducible across "
                        f"processes",
                        "thread an explicitly seeded Generator "
                        "(numpy.random.default_rng(seed)) through instead",
                    )
            elif name == "os.getenv":
                yield finding(
                    "env-read", node,
                    "os.getenv() in the evaluation cone: results would "
                    "depend on per-process environment, invisibly to the "
                    "cache's code stamp",
                    "read configuration once at a documented boundary and "
                    "suppress with the reason it cannot change results",
                )
        if isinstance(node, (ast.Attribute, ast.Subscript)):
            owner = node.value
            if (
                isinstance(owner, ast.Attribute)
                and owner.attr == "environ"
                and resolve_call_name(owner, bindings) == "os.environ"
            ):
                yield finding(
                    "env-read", node,
                    "os.environ read in the evaluation cone: results would "
                    "depend on per-process environment, invisibly to the "
                    "cache's code stamp",
                    "read configuration once at a documented boundary and "
                    "suppress with the reason it cannot change results",
                )
        # id() inside a mapping key (subscript index or keyed-method arg).
        key_exprs: list[ast.AST] = []
        if isinstance(node, ast.Subscript):
            key_exprs.append(node.slice)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _KEYED_METHODS
            and node.args
        ):
            key_exprs.append(node.args[0])
        for key in key_exprs:
            for sub in ast.walk(key):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Name)
                    and sub.func.id == "id"
                ):
                    yield finding(
                        "id-key", sub,
                        "id() used as a mapping key: object ids are "
                        "recycled, so an id-keyed memo can answer for a "
                        "different object",
                        "key on content (a fingerprint) or guard every "
                        "lookup with an `is` identity check and suppress "
                        "with that justification",
                    )
        # Order-dependent iteration / reduction over sets.
        iters: list[ast.AST] = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iters.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            iters.extend(gen.iter for gen in node.generators)
        for it in iters:
            if _is_set_expr(it):
                yield finding(
                    "set-iteration", it,
                    "iteration over a set expression: element order varies "
                    "with hash seeding, so anything accumulated from it is "
                    "not reproducible",
                    "iterate sorted(...) (or a list/tuple) instead",
                )
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "sum"
            and node.args
            and _is_set_expr(node.args[0])
        ):
            yield finding(
                "unordered-reduction", node,
                "sum() over a set expression: float addition is not "
                "associative, so the unordered reduction is not "
                "bit-reproducible",
                "sum a sorted sequence (sum(sorted(...)))",
            )


register_check(
    "determinism",
    "no wall clocks, unseeded RNGs, env reads, id-keys or unordered "
    "iteration in the evaluation cone",
)(check_determinism)
