"""The ``repro lint`` check framework.

The evaluation plane's correctness rests on invariants no test exercises
directly: every memo/cache key must capture every knob that can change
the memoized value, the result cache's code stamp must see every real
dependency, and worker-evaluated code must be deterministic.  This
package makes those invariants machine-checked: each *check* is an
AST-based analysis registered here, run over the package source tree by
:func:`run_lint`, and reported as :class:`Finding` records with
``file:line``, severity and a fix hint.

Architecture
------------
* :class:`ModuleUnit` — one parsed source module (AST cached per content
  hash, so repeated runs and multi-check runs parse each file once);
* :class:`LintContext` — the shared analysis state: the module set, the
  static import graph and the evaluation dependency cone over it, and
  the discovered knob set;
* :func:`register_check` — the check registry; a check is a callable
  ``(context) -> Iterable[Finding]`` with a ``name``/``description``;
* suppression comments — ``# repro-lint: ok <check>[:<code>] -- why``
  silences a finding on the same or the following line (``ok-file``
  silences the whole module); a suppression **must** carry a
  justification after ``--`` or it is itself reported
  (``framework:bare-suppression``).

Checks must be *self-clean*: ``repro lint --strict`` runs over
``src/repro`` in CI, so every finding in the shipped tree is either
fixed or suppressed with a recorded justification.
"""

from __future__ import annotations

import ast
import hashlib
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.errors import ReproError

__all__ = [
    "Finding",
    "Suppression",
    "ModuleUnit",
    "LintContext",
    "LintReport",
    "LintCheck",
    "CHECKS",
    "register_check",
    "run_lint",
    "dotted_path",
    "names_in",
    "local_assignments",
    "name_closure",
    "import_bindings",
    "FALLBACK_KNOBS",
    "KNOB_CHAIN",
]


# -- findings -------------------------------------------------------------------


@dataclass(frozen=True)
class Finding:
    """One lint result, anchored to a source location.

    ``check``/``code`` identify the rule (e.g. ``memo-keys`` /
    ``missing-knob``); ``hint`` is the suggested fix.  ``suppressed``
    findings are kept in the report (with the suppression's
    justification) but never fail ``--strict``.
    """

    check: str
    code: str
    message: str
    path: str
    line: int
    severity: str = "error"
    hint: str = ""
    suppressed: bool = False
    justification: str = ""

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}"

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "code": self.code,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "severity": self.severity,
            "hint": self.hint,
            "suppressed": self.suppressed,
            "justification": self.justification,
        }


# -- suppressions ---------------------------------------------------------------

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*(?P<kind>ok-file|ok)\s+(?P<specs>[\w:,\- ]+?)"
    r"\s*(?:--\s*(?P<why>.+?)\s*)?$"
)


@dataclass(frozen=True)
class Suppression:
    """One parsed ``# repro-lint: ok ...`` comment."""

    line: int
    file_level: bool
    specs: tuple[tuple[str, "str | None"], ...]  # (check, code-or-None)
    justification: str

    def matches(self, finding: Finding) -> bool:
        if not self.file_level and finding.line not in (
            self.line, self.line + 1
        ):
            return False
        for check, code in self.specs:
            if check == finding.check and code in (None, finding.code):
                return True
        return False


def _parse_suppressions(source: str) -> "tuple[Suppression, ...]":
    found = []
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        specs = []
        for raw in match.group("specs").split(","):
            raw = raw.strip()
            if not raw:
                continue
            check, _, code = raw.partition(":")
            specs.append((check, code or None))
        found.append(Suppression(
            line=lineno,
            file_level=match.group("kind") == "ok-file",
            specs=tuple(specs),
            justification=match.group("why") or "",
        ))
    return tuple(found)


# -- parsed modules -------------------------------------------------------------


@dataclass
class ModuleUnit:
    """One source module: name, path, source text, AST, suppressions."""

    name: str
    path: Path
    source: str
    tree: ast.Module
    suppressions: "tuple[Suppression, ...]"


#: Content-hash keyed AST cache: parsing is the dominant framework cost
#: and every check walks the same trees, so units are shared across
#: checks and across repeated :func:`run_lint` calls in one process.
_UNIT_CACHE: "dict[Path, tuple[str, ModuleUnit]]" = {}


def _module_files(root: Path, package: str) -> "dict[str, Path]":
    """Dotted module name -> source file, for every ``*.py`` under ``root``."""
    found: dict[str, Path] = {}
    for path in sorted(root.rglob("*.py")):
        parts = list(path.relative_to(root).parts)
        if parts[-1] == "__init__.py":
            parts.pop()
        else:
            parts[-1] = parts[-1][: -len(".py")]
        found[".".join([package, *parts])] = path
    return found


def _load_unit(name: str, path: Path) -> ModuleUnit:
    source = path.read_text()
    digest = hashlib.sha256(source.encode()).hexdigest()
    cached = _UNIT_CACHE.get(path)
    if cached is not None and cached[0] == digest:
        return cached[1]
    unit = ModuleUnit(
        name=name,
        path=path,
        source=source,
        tree=ast.parse(source),
        suppressions=_parse_suppressions(source),
    )
    _UNIT_CACHE[path] = (digest, unit)
    return unit


# -- shared AST utilities -------------------------------------------------------


def dotted_path(node: ast.AST) -> "str | None":
    """Render ``a.b.c`` attribute chains (``Name`` base) to a string."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def names_in(node: ast.AST) -> set[str]:
    """Every ``Name`` identifier appearing anywhere inside ``node``."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def local_assignments(fn: ast.AST) -> "dict[str, list[ast.AST]]":
    """``name -> [RHS expressions]`` for simple assignments inside ``fn``."""
    out: dict[str, list[ast.AST]] = {}

    def note(target: ast.AST, value: "ast.AST | None") -> None:
        if value is not None and isinstance(target, ast.Name):
            out.setdefault(target.id, []).append(value)

    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                note(target, node.value)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            note(node.target, node.value)
        elif isinstance(node, ast.NamedExpr):
            note(node.target, node.value)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            note(node.target, node.iter)
        elif isinstance(node, ast.withitem):
            note(node.optional_vars, node.context_expr)
    return out


def name_closure(
    seeds: "Iterable[str]",
    assignments: "dict[str, list[ast.AST]]",
    depth: int = 8,
) -> set[str]:
    """Transitive closure of names reachable from ``seeds`` through
    simple local assignments (``x = f(a, b)`` contributes ``a``/``b`` to
    ``x``'s closure) — how a knob "reaches" a memo key indirectly."""
    closed = set(seeds)
    frontier = set(seeds)
    for _ in range(depth):
        grown: set[str] = set()
        for name in frontier:
            for value in assignments.get(name, ()):
                grown |= names_in(value)
        grown -= closed
        if not grown:
            break
        closed |= grown
        frontier = grown
    return closed


def _alias_targets(
    unit: ModuleUnit, node: "ast.Import | ast.ImportFrom"
) -> "list[tuple[ast.alias, str]]":
    """``(alias, fully qualified name)`` for each name one import
    statement imports.

    ``import a.b`` names ``a.b``; ``from a.b import x`` names ``a.b.x``;
    a relative ``from`` is resolved against ``unit.name``.  Both
    :func:`import_bindings` and the import graph
    (:meth:`LintContext.imports`) read imports through here.
    """
    if isinstance(node, ast.Import):
        return [(alias, alias.name) for alias in node.names]
    base = node.module or ""
    if node.level:
        anchor = unit.name if unit.path.name == "__init__.py" \
            else unit.name.rpartition(".")[0]
        for _ in range(node.level - 1):
            anchor = anchor.rpartition(".")[0]
        base = f"{anchor}.{base}" if base else anchor
    return [(alias, f"{base}.{alias.name}") for alias in node.names]


def _import_nodes(tree: ast.Module) -> "Iterator[ast.Import | ast.ImportFrom]":
    """Every ``import``/``from`` statement in ``tree``, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node


def import_bindings(unit: ModuleUnit, package: str) -> dict[str, str]:
    """``local name -> fully qualified name`` for the unit's imports.

    ``import a.b as c`` binds ``c -> a.b``; ``from a.b import x as y``
    binds ``y -> a.b.x``.  Top-level and function-level imports are
    both seen (the import graph counts lazy imports too).
    """
    bound: dict[str, str] = {}
    for node in _import_nodes(unit.tree):
        for alias, target in _alias_targets(unit, node):
            if alias.asname or isinstance(node, ast.ImportFrom):
                bound[alias.asname or alias.name] = target
            else:  # ``import a.b`` binds the top-level package ``a``
                head = target.partition(".")[0]
                bound[head] = head
    return bound


def resolve_call_name(
    node: ast.AST, bindings: "dict[str, str]"
) -> "str | None":
    """The fully qualified dotted name a call target refers to, best
    effort: ``t.time()`` with ``import time as t`` resolves to
    ``time.time``; unresolvable shapes return the raw dotted path."""
    path = dotted_path(node)
    if path is None:
        return None
    head, _, rest = path.partition(".")
    head = bindings.get(head, head)
    return f"{head}.{rest}" if rest else head


# -- knob discovery -------------------------------------------------------------

#: The evaluation-pipeline functions whose threaded flag parameters
#: define the knob set (see :func:`LintContext.knobs`).
KNOB_CHAIN = ("evaluate_query", "design_for", "build_design", "count_cycles")

#: Knob names assumed when the analyzed tree has none of the chain's
#: functions (fixture corpora, foreign packages).
FALLBACK_KNOBS = frozenset({"batch", "context", "trace_engine", "engine", "ladder"})


def _discover_knobs(units: "dict[str, ModuleUnit]") -> frozenset[str]:
    """Evaluation knobs = bool/str-defaulted parameters threaded through
    at least two functions of the ``evaluate_query -> design_for ->
    build_design -> count_cycles`` chain.

    The two-function floor keeps one-off parameters (``label`` strings,
    local toggles) out; bool/str keeps data parameters (budgets, ports,
    overhead ints, ``None``-defaulted artifacts) out.  ``engine`` is
    aliased in whenever ``trace_engine`` is discovered — the coverage
    layer would thread the same knob under the shorter name.  A tree
    whose chain carries no such flags has no knobs (the empty set); only
    a tree without the chain falls back to :data:`FALLBACK_KNOBS`.
    """
    counts: dict[str, int] = {}
    chain_found = False
    for unit in units.values():
        for node in ast.walk(unit.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name not in KNOB_CHAIN:
                continue
            chain_found = True
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            pairs = list(zip(defaulted, args.defaults))
            pairs += [
                (a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                if d is not None
            ]
            for arg, default in pairs:
                if isinstance(default, ast.Constant) and type(
                    default.value
                ) in (bool, str):
                    counts[arg.arg] = counts.get(arg.arg, 0) + 1
    if not chain_found:
        return FALLBACK_KNOBS
    knobs = {name for name, count in counts.items() if count >= 2}
    if "trace_engine" in knobs:
        knobs.add("engine")
    return frozenset(knobs)


# -- the lint context -----------------------------------------------------------


class LintContext:
    """Shared analysis state one lint run's checks read from.

    ``root``/``package`` select the analyzed tree (defaults: the
    installed ``repro`` package); ``entry`` is the evaluation-plane root
    module whose dependency cone scopes the determinism and version-cone
    checks (checks fall back to the whole tree when the entry module
    does not exist in the analyzed tree, which is what fixture corpora
    want).  The context owns the tree's static import graph
    (:meth:`imports`, :meth:`cone`), built from the parsed units.
    """

    def __init__(
        self,
        root: "Path | str | None" = None,
        package: str = "repro",
        entry: "str | None" = None,
    ) -> None:
        self.root = (
            Path(root) if root is not None
            else Path(__file__).resolve().parents[1]
        )
        self.package = package
        self.entry = entry if entry is not None else f"{package}.explore.evaluate"
        self._units: "dict[str, ModuleUnit] | None" = None
        self._imports: "dict[str, frozenset[str]]" = {}
        self._cone: "frozenset[str] | None" = None
        self._knobs: "frozenset[str] | None" = None

    def units(self) -> "dict[str, ModuleUnit]":
        """Every module of the tree, parsed (cached per content hash)."""
        if self._units is None:
            self._units = {
                name: _load_unit(name, path)
                for name, path in sorted(
                    _module_files(self.root, self.package).items()
                )
            }
        return self._units

    def imports(self, module: str) -> frozenset[str]:
        """The tree's modules ``module`` imports (its direct edges).

        Module- and function-level imports count alike.  Each imported
        name resolves to the deepest module of the tree on its dotted
        path, so ``import repro.sim.cycles`` and ``from repro.sim import
        cycles`` both depend on the module, not just the packages above
        it.  Package ``__init__`` re-exports are not implied edges: a
        result cannot change through a re-export unless some module
        imports through it, and then that edge is present anyway.
        """
        if module not in self._imports:
            units = self.units()
            unit = units[module]
            deps: set[str] = set()
            for node in _import_nodes(unit.tree):
                for _, name in _alias_targets(unit, node):
                    while name and name not in units:
                        name = name.rpartition(".")[0]
                    if name and name != module:
                        deps.add(name)
            self._imports[module] = frozenset(deps)
        return self._imports[module]

    def cone(self) -> frozenset[str]:
        """The evaluation dependency cone (whole tree if no entry):
        ``entry`` and everything it imports, directly or indirectly.

        For the real package this is the cone the result cache's code
        stamp covers (:data:`repro.explore.versions.EVALUATION_CONE`).
        """
        if self._cone is None:
            units = self.units()
            if self.entry not in units:
                self._cone = frozenset(units)
            else:
                cone: set[str] = set()
                frontier = [self.entry]
                while frontier:
                    module = frontier.pop()
                    if module not in cone:
                        cone.add(module)
                        frontier.extend(self.imports(module) - cone)
                self._cone = frozenset(cone)
        return self._cone

    def cone_units(self) -> "Iterator[ModuleUnit]":
        cone = self.cone()
        for name, unit in self.units().items():
            if name in cone:
                yield unit

    def knobs(self) -> frozenset[str]:
        """The discovered evaluation-knob parameter names."""
        if self._knobs is None:
            self._knobs = _discover_knobs(self.units())
        return self._knobs

    def bindings(self, unit: ModuleUnit) -> dict[str, str]:
        return import_bindings(unit, self.package)

    def relpath(self, unit: ModuleUnit) -> str:
        """A stable display path for findings (relative to the tree root)."""
        try:
            return str(unit.path.relative_to(self.root.parent))
        except ValueError:
            return str(unit.path)


# -- check registry -------------------------------------------------------------


@dataclass(frozen=True)
class LintCheck:
    name: str
    description: str
    run: "Callable[[LintContext], Iterable[Finding]]"


#: Registered checks by name, in registration order.
CHECKS: "dict[str, LintCheck]" = {}


def register_check(
    name: str, description: str
) -> "Callable[[Callable[[LintContext], Iterable[Finding]]], Callable]":
    """Register ``fn`` as the analysis behind check ``name``."""

    def deco(fn: "Callable[[LintContext], Iterable[Finding]]") -> Callable:
        if name in CHECKS:
            raise ReproError(f"lint check {name!r} registered twice")
        CHECKS[name] = LintCheck(name=name, description=description, run=fn)
        return fn

    return deco


# -- running --------------------------------------------------------------------


@dataclass
class LintReport:
    """The outcome of one lint run."""

    root: str
    checks: tuple[str, ...]
    modules: int
    findings: "tuple[Finding, ...]" = field(default_factory=tuple)

    @property
    def unsuppressed(self) -> "tuple[Finding, ...]":
        return tuple(f for f in self.findings if not f.suppressed)

    def to_dict(self) -> dict:
        return {
            "root": self.root,
            "checks": list(self.checks),
            "modules": self.modules,
            "findings": [f.to_dict() for f in self.findings],
            "unsuppressed": len(self.unsuppressed),
        }


def _apply_suppressions(
    findings: "list[Finding]", context: LintContext
) -> "list[Finding]":
    by_path: dict[str, ModuleUnit] = {
        context.relpath(unit): unit for unit in context.units().values()
    }
    out: list[Finding] = []
    for finding in findings:
        unit = by_path.get(finding.path)
        if unit is not None:
            for supp in unit.suppressions:
                if supp.matches(finding):
                    out.append(Finding(
                        **{**finding.to_dict(), "suppressed": True,
                           "justification": supp.justification},
                    ))
                    break
            else:
                out.append(finding)
        else:
            out.append(finding)
    return out


def _suppression_hygiene(context: LintContext) -> "list[Finding]":
    """Suppressions without a justification are findings themselves."""
    findings = []
    for unit in context.units().values():
        for supp in unit.suppressions:
            if not supp.justification:
                findings.append(Finding(
                    check="framework",
                    code="bare-suppression",
                    message=(
                        "suppression comment has no justification; write "
                        "'# repro-lint: ok <check> -- <why this is sound>'"
                    ),
                    path=context.relpath(unit),
                    line=supp.line,
                    hint="append ' -- <justification>' to the comment",
                ))
    return findings


def run_lint(
    root: "Path | str | None" = None,
    package: str = "repro",
    checks: "Iterable[str] | None" = None,
    entry: "str | None" = None,
) -> LintReport:
    """Run the selected checks (default: all) over one source tree."""
    # Import the concrete analyses so their registrations have run even
    # when the caller imported only the framework.
    from repro.lint import determinism, memo_keys, version_cone, worker_safety  # noqa: F401

    context = LintContext(root=root, package=package, entry=entry)
    selected = tuple(checks) if checks is not None else tuple(CHECKS)
    unknown = [name for name in selected if name not in CHECKS]
    if unknown:
        raise ReproError(
            f"unknown lint check(s) {unknown}; available: {sorted(CHECKS)}"
        )
    findings: list[Finding] = []
    for name in selected:
        findings.extend(CHECKS[name].run(context))
    findings.extend(_suppression_hygiene(context))
    findings = _apply_suppressions(findings, context)
    findings.sort(key=lambda f: (f.path, f.line, f.check, f.code, f.message))
    return LintReport(
        root=str(context.root),
        checks=selected,
        modules=len(context.units()),
        findings=tuple(findings),
    )
