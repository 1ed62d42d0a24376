"""The code stamp that guards the result cache.

Every cache entry records one *stamp*: a sha256 over the sources of the
evaluation cone, the Python ``major.minor`` and the installed numpy
version.  An entry whose stamp differs from the current one is stale,
so an edit to any module an evaluation can reach, or a different
interpreter or numpy, re-evaluates every point, while an edit outside
the cone (:mod:`repro.codegen`, :mod:`repro.bench`, the CLI, the lint
package) leaves every entry valid.

The cone is :data:`EVALUATION_CONE`, a constant: the modules that
:data:`EVALUATION_ROOT` imports, directly or indirectly, including
function-level imports.  Shipping it as a constant keeps the cache path
free of AST parsing; :meth:`VersionRegistry.cone` recomputes it from a
static AST import graph, and a tier-1 test pins the two equal, so an
edit that adds an import to a cone module fails that test until the
constant is updated.

The graph follows explicit source-level imports only.  Package
``__init__`` re-exports are not implied dependencies: evaluation results
cannot change through a re-export unless some module in the cone
actually imports through it, in which case the edge is present anyway.
"""

from __future__ import annotations

import ast
import hashlib
import importlib.util
import re
import sys
import warnings
from functools import lru_cache
from pathlib import Path
from typing import Iterable

__all__ = [
    "VersionRegistry",
    "DynamicImportWarning",
    "EVALUATION_CONE",
    "EVALUATION_ROOT",
    "find_dynamic_imports",
    "query_vector",
]

#: The work-unit module every design-point evaluation enters through.
EVALUATION_ROOT = "repro.explore.evaluate"

#: Every module :data:`EVALUATION_ROOT` imports, directly or indirectly:
#: the sources the code stamp covers, sorted.
EVALUATION_CONE = (
    "repro.analysis.footprint",
    "repro.analysis.groups",
    "repro.analysis.metrics",
    "repro.analysis.profile",
    "repro.analysis.reuse",
    "repro.core.allocation",
    "repro.core.base",
    "repro.core.cpara",
    "repro.core.dp",
    "repro.core.frra",
    "repro.core.knapsack",
    "repro.core.naive",
    "repro.core.optra",
    "repro.core.pipeline",
    "repro.core.prra",
    "repro.dfg.build",
    "repro.dfg.critical",
    "repro.dfg.cuts",
    "repro.dfg.graph",
    "repro.dfg.latency",
    "repro.dfg.nodes",
    "repro.errors",
    "repro.explore.context",
    "repro.explore.evaluate",
    "repro.explore.query",
    "repro.hw.binding",
    "repro.hw.device",
    "repro.hw.ops",
    "repro.hw.ram",
    "repro.ir",
    "repro.ir.builder",
    "repro.ir.expr",
    "repro.ir.kernel",
    "repro.ir.loop",
    "repro.ir.pretty",
    "repro.ir.serialize",
    "repro.ir.stmt",
    "repro.ir.types",
    "repro.ir.validate",
    "repro.kernels.bic",
    "repro.kernels.decfir",
    "repro.kernels.fir",
    "repro.kernels.imi",
    "repro.kernels.mat",
    "repro.kernels.pat",
    "repro.kernels.registry",
    "repro.plugins",
    "repro.scalar.coverage",
    "repro.sim.cycles",
    "repro.sim.residency",
    "repro.sim.scheduler",
    "repro.spans",
    "repro.synth.area",
    "repro.synth.design",
    "repro.synth.estimate",
    "repro.synth.timing",
)


class DynamicImportWarning(UserWarning):
    """A cone module imports dynamically; its dependency edge is untracked.

    The code stamp only covers what the AST import graph can see.  A
    module using ``importlib.import_module`` / ``__import__`` has a real
    dependency the graph omits, so cache entries may stay "valid" after
    the dynamically imported code changes.  The extractor *warns loudly* instead of silently dropping
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

    Instances cache hashes, graph edges and the stamp; create a fresh
    registry to observe on-disk edits (:meth:`ResultCache.refresh` does
    this at the start of every executor run, which is the natural
    consistency unit).
    """

    def __init__(self, root: "Path | str | None" = None, package: str = "repro"):
        if root is None:
            root = Path(__file__).resolve().parents[1]
        self.root = Path(root)
        self.package = package
        self._hashes: dict[str, str] = {}
        self._stamp: "str | None" = None
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

    # -- cone and stamp ---------------------------------------------------------

    def cone(self, roots: "Iterable[str]") -> frozenset[str]:
        """Transitive import closure of ``roots`` (roots included).

        Unknown root names raise ``KeyError``.
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
            frontier.extend(self.imports(module) - cone)
        return frozenset(cone)

    def stamp(self) -> str:
        """The code stamp of this tree (64 hex chars).

        sha256 over each :data:`EVALUATION_CONE` module's name and
        :meth:`module_hash`, the Python ``major.minor`` and the numpy
        version.  No import graph is walked: the cone is the constant.
        """
        if self._stamp is None:
            digest = hashlib.sha256()
            for module in EVALUATION_CONE:
                digest.update(f"{module} {self.module_hash(module)}\n".encode())
            python = "{}.{}".format(*sys.version_info[:2])
            digest.update(f"python {python}\nnumpy {_numpy_version()}\n".encode())
            self._stamp = digest.hexdigest()
        return self._stamp


#: ``version = "X"`` (optionally annotated) in numpy's ``version.py``.
_NUMPY_VERSION = re.compile(
    r"""^version(?:\s*:\s*str)?\s*=\s*["']([^"']+)["']""", re.M
)


def _numpy_version() -> str:
    """The installed numpy's version, read without importing numpy.

    Parses the ``version.py`` next to numpy's ``__init__`` (about 1 ms);
    ``importlib.metadata`` (about 25 ms) is only the fallback for a
    layout without a literal version there.  ``"none"`` when numpy is
    not installed.
    """
    spec = importlib.util.find_spec("numpy")
    if spec is None or not spec.submodule_search_locations:
        return "none"
    path = Path(spec.submodule_search_locations[0]) / "version.py"
    try:
        found = _NUMPY_VERSION.search(path.read_text())
    except OSError:
        found = None
    if found is not None:
        return found.group(1)
    from importlib.metadata import version

    return version("numpy")


@lru_cache(maxsize=1)
def query_vector() -> str:
    """The stamp every cache entry this process writes records.

    Taken once per process, from the installed tree, on first call:
    :class:`~repro.explore.executor.Executor` calls it before it imports
    the evaluation stack, so the stamp fingerprints the code as loaded.
    A result computed by already-imported modules after an on-disk edit
    is therefore never stamped as current.  ``perfbench/tracer.py``
    wraps this function by name.
    """
    return VersionRegistry().stamp()
