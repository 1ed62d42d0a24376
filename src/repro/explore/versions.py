"""Per-module source versioning and import-graph dependency cones.

The result cache used to be keyed on one global fingerprint of every
``repro/**/*.py`` file, so touching *any* module invalidated *every*
cached design point.  This module provides the finer currency: a
:class:`VersionRegistry` hashes each module's source individually and
statically extracts the package-internal import graph (AST, so lazy
function-level imports count too).  A cache entry then records the
*version vector* of only the modules its evaluation can actually reach —
the dependency cone — and ``repro explore --resume`` re-runs only the
points whose cone changed.  Editing :mod:`repro.codegen` or
:mod:`repro.bench` no longer invalidates cycle-count sweeps.

Two dispatch modules fan out to per-query plugins and would otherwise
drag every plugin into every cone:

* :mod:`repro.kernels.registry` imports all six kernel builders, but one
  query evaluates exactly one of them;
* :mod:`repro.core.pipeline` imports all five allocators, but one query
  runs exactly one.

Cone traversal therefore *prunes* the edges **from those dispatchers**
into the plugin families, and :func:`query_roots` adds back the one
kernel module and one allocator module a query names, looked up in the
numpy-free name tables of :mod:`repro.plugins` (all of them,
conservatively, when the name is unknown).  Pruning is scoped to the
dispatchers' own edges: a plugin that genuinely imports another plugin
(PR-RA delegates to FR-RA's pass) keeps that edge, so editing the
delegate still invalidates the delegator's points.  The dispatchers
themselves stay in every cone — editing the registry logic still
invalidates everything, as it should.

The graph follows explicit source-level imports only.  Package
``__init__`` re-exports are not implied dependencies: evaluation results
cannot change through a re-export unless some module in the cone
actually imports through it, in which case the edge is present anyway.
"""

from __future__ import annotations

import ast
import hashlib
import warnings
from functools import lru_cache
from pathlib import Path
from typing import Iterable

from repro.plugins import ALLOCATOR_MODULES, KERNEL_MODULES

__all__ = [
    "VersionRegistry",
    "DynamicImportWarning",
    "default_registry",
    "EVALUATION_ROOT",
    "find_dynamic_imports",
    "PLUGIN_MODULES",
    "query_roots",
    "query_vector",
]

#: The work-unit module every design-point evaluation enters through.
EVALUATION_ROOT = "repro.explore.evaluate"

#: Dispatch modules whose imports fan out to per-query plugins; only
#: *their* edges into the plugin families are pruned during cone
#: traversal (plugin-to-plugin imports are real dependencies).
DISPATCH_MODULES = frozenset({"repro.kernels.registry", "repro.core.pipeline"})


class DynamicImportWarning(UserWarning):
    """A cone module imports dynamically; its dependency edge is untracked.

    The version vectors only guard what the AST import graph can see.
    A module using ``importlib.import_module`` / ``__import__`` has a
    real dependency the graph omits, so cache entries whose cone
    contains it may stay "valid" after the dynamically imported code
    changes.  The extractor *warns loudly* instead of silently dropping
    the edge; ``repro lint``'s ``version-cone`` check reports the same
    sites statically.
    """


def find_dynamic_imports(tree: ast.AST) -> "list[tuple[int, str]]":
    """``(line, description)`` for every dynamic-import call in ``tree``.

    Shared by :meth:`VersionRegistry._parse_imports` (runtime warning)
    and the ``version-cone`` lint check (static finding), so the two
    can never disagree about what counts as untrackable.
    """
    found: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "__import__":
            found.append((node.lineno, "__import__(...)"))
        elif isinstance(func, ast.Name) and func.id == "import_module":
            found.append((node.lineno, "import_module(...)"))
        elif isinstance(func, ast.Attribute) and func.attr == "import_module":
            found.append((node.lineno, f"{func.attr}(...)"))
        elif isinstance(func, ast.Attribute) and func.attr == "reload" and (
            isinstance(func.value, ast.Name) and func.value.id == "importlib"
        ):
            found.append((node.lineno, "importlib.reload(...)"))
    return sorted(found)


#: Names without which no call :func:`find_dynamic_imports` reports
#: can be spelled.
_DYNAMIC_IMPORT_NAMES = ("__import__", "import_module", "reload")

#: Fields holding statement lists (``handlers``/``cases`` hold except
#: handlers and match cases, whose own ``body`` is one).
_BLOCK_FIELDS = ("body", "orelse", "finalbody", "handlers", "cases")


def _import_statements(tree: ast.Module):
    """Every ``import``/``from`` statement in ``tree``, at any depth.

    Imports are statements, so walking statement bodies finds them all
    without visiting a single expression node.
    """
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
            continue
        for name in _BLOCK_FIELDS:
            block = getattr(node, name, None)
            if isinstance(block, list):
                stack.extend(block)


class VersionRegistry:
    """Hashes and import graph of one Python package's source tree.

    Parameters
    ----------
    root:
        Directory of the package (the one holding ``__init__.py``).
        Defaults to the installed ``repro`` package this file lives in.
    package:
        The package's dotted name prefix (default ``"repro"``).

    Instances cache hashes and graph edges; create a fresh registry to
    observe on-disk edits (:meth:`ResultCache.refresh` does this at the
    start of every executor run, which is the natural consistency unit).
    """

    def __init__(self, root: "Path | str | None" = None, package: str = "repro"):
        if root is None:
            root = Path(__file__).resolve().parents[1]
        self.root = Path(root)
        self.package = package
        self._hashes: dict[str, str] = {}
        self._vectors: dict[tuple, dict[str, str]] = {}
        self._modules: "dict[str, Path] | None" = None
        self._imports: "dict[str, frozenset[str]] | None" = None

    # -- module discovery -----------------------------------------------------

    def modules(self) -> dict[str, Path]:
        """Dotted module name -> source file, for every ``*.py`` in the tree."""
        if self._modules is None:
            found: dict[str, Path] = {}
            for path in sorted(self.root.rglob("*.py")):
                relative = path.relative_to(self.root)
                parts = list(relative.parts)
                if parts[-1] == "__init__.py":
                    parts = parts[:-1]
                else:
                    parts[-1] = parts[-1][: -len(".py")]
                found[".".join([self.package, *parts]) if parts else self.package] = path
            self._modules = found
        return self._modules

    def module_hash(self, module: str) -> str:
        """Content hash (12 hex chars) of one module's source."""
        if module not in self._hashes:
            path = self.modules()[module]
            self._hashes[module] = hashlib.sha256(path.read_bytes()).hexdigest()[:12]
        return self._hashes[module]

    # -- import graph ----------------------------------------------------------

    def imports(self, module: str) -> frozenset[str]:
        """Package-internal modules ``module`` imports (direct edges)."""
        if self._imports is None:
            self._imports = {}
        if module not in self._imports:
            self._imports[module] = self._parse_imports(module)
        return self._imports[module]

    def _parse_imports(self, module: str) -> frozenset[str]:
        known = self.modules()
        source = known[module].read_text()
        tree = ast.parse(source)
        # Every call find_dynamic_imports reports names one of these in
        # the source text, so other files need no second full walk.
        dynamic = (
            find_dynamic_imports(tree)
            if any(name in source for name in _DYNAMIC_IMPORT_NAMES) else []
        )
        for lineno, description in dynamic:
            warnings.warn(
                f"version cone: {module} (line {lineno}) uses a dynamic "
                f"import ({description}) the AST import graph cannot "
                f"track; cache entries depending on this module may miss "
                f"a real dependency edge and stay stale-blind to edits "
                f"of the dynamically imported code",
                DynamicImportWarning,
                stacklevel=3,
            )
        deps: set[str] = set()

        def note(name: str) -> None:
            # Resolve to the deepest known module on the dotted path, so
            # `import repro.sim.cycles` depends on the module, not just
            # the packages above it.
            while name:
                if name in known:
                    if name != module:
                        deps.add(name)
                    return
                name = name.rpartition(".")[0]

        for node in _import_statements(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    note(alias.name)
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:  # relative: resolve against this module
                    anchor = module if known[module].name == "__init__.py" \
                        else module.rpartition(".")[0]
                    for _ in range(node.level - 1):
                        anchor = anchor.rpartition(".")[0]
                    base = f"{anchor}.{base}" if base else anchor
                if not base.startswith(self.package):
                    continue
                # Resolve per alias: `from pkg.sub import mod` and
                # `from . import mod` both mean the sibling module when
                # one exists, falling back up the dotted path otherwise.
                for alias in node.names:
                    note(f"{base}.{alias.name}")
        return frozenset(deps)

    # -- cones and vectors -----------------------------------------------------

    def cone(
        self,
        roots: "Iterable[str]",
        prune: "frozenset[str]" = frozenset(),
        prune_from: "frozenset[str] | None" = None,
    ) -> frozenset[str]:
        """Transitive import closure of ``roots`` (roots included).

        Edges into modules in ``prune`` are skipped (unless the target
        is itself a root) — the plugin-family pruning described in the
        module docstring.  With ``prune_from`` given, only edges whose
        *source* is in that set are pruned; edges between plugins stay
        real dependencies.  Unknown root names raise ``KeyError``.
        """
        roots = tuple(roots)
        for root in roots:
            self.modules()[root]  # raise KeyError early on typos
        cone: set[str] = set()
        frontier = list(roots)
        while frontier:
            module = frontier.pop()
            if module in cone:
                continue
            cone.add(module)
            prunes_here = prune_from is None or module in prune_from
            for dep in self.imports(module):
                if prunes_here and dep in prune and dep not in roots:
                    continue
                if dep not in cone:
                    frontier.append(dep)
        return frozenset(cone)

    def vector(
        self,
        roots: "tuple[str, ...]",
        prune: "frozenset[str]" = frozenset(),
        prune_from: "frozenset[str] | None" = None,
    ) -> dict[str, str]:
        """``{module: hash}`` over the dependency cone of ``roots``."""
        key = (roots, prune, prune_from)
        if key not in self._vectors:
            self._vectors[key] = {
                module: self.module_hash(module)
                for module in sorted(self.cone(roots, prune, prune_from))
            }
        return dict(self._vectors[key])


@lru_cache(maxsize=1)
def default_registry() -> VersionRegistry:
    """A process-wide registry over the installed ``repro`` source tree.

    Memoized, with every module hash snapshotted eagerly when this
    module is first imported (see the bottom of the file) — so it
    fingerprints the sources as close to *load time* as possible, which
    is what cache writes must record.  Anything that must notice
    on-disk edits made later (notably
    :class:`~repro.explore.cache.ResultCache` lookups) builds a fresh
    :class:`VersionRegistry` instead.
    """
    return VersionRegistry()


# -- plugin families ------------------------------------------------------------


#: Modules selected per query rather than imported-and-used wholesale.
PLUGIN_MODULES = frozenset(KERNEL_MODULES.values()) | frozenset(
    ALLOCATOR_MODULES.values()
)


def query_roots(query) -> tuple[str, ...]:
    """Cone roots for one :class:`~repro.explore.query.DesignQuery`.

    Always the evaluation entry module; plus the one kernel module the
    query names (none when the kernel travels embedded as JSON — its
    definition is already part of the query digest) and the one
    allocator module.  Unknown names fall back to the whole family,
    conservatively.
    """
    roots = [EVALUATION_ROOT]
    if query.kernel_json is None:
        module = KERNEL_MODULES.get(query.kernel)
        roots.extend([module] if module else sorted(KERNEL_MODULES.values()))
    module = ALLOCATOR_MODULES.get(query.allocator)
    roots.extend([module] if module else sorted(ALLOCATOR_MODULES.values()))
    return tuple(roots)


def query_vector(
    query, registry: "VersionRegistry | None" = None
) -> dict[str, str]:
    """The version vector a cache entry for ``query`` must record."""
    registry = registry or default_registry()
    return registry.vector(
        query_roots(query),
        prune=PLUGIN_MODULES,
        prune_from=DISPATCH_MODULES,
    )


def _snapshot_default_hashes() -> None:
    """Hash the whole installed tree into the default registry *now*.

    Cache entries written by this process must fingerprint the code that
    is loaded, not whatever is on disk when the first ``put`` happens —
    hashing eagerly at import closes (to a sliver) the window in which
    an on-disk edit could be stamped onto results computed by the old,
    still-imported modules.
    """
    registry = default_registry()
    for module in registry.modules():
        registry.module_hash(module)


_snapshot_default_hashes()
