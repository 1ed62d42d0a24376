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
free of AST parsing.  The static import graph lives with its one
consumer, ``repro lint`` (:meth:`repro.lint.framework.LintContext.cone`),
and a tier-1 test pins the constant to that graph's cone, so an edit
that adds an import to a cone module fails that test until the constant
is updated.
"""

from __future__ import annotations

import hashlib
import importlib.util
import re
import sys
from functools import lru_cache
from pathlib import Path

__all__ = [
    "VersionRegistry",
    "EVALUATION_CONE",
    "EVALUATION_ROOT",
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


class VersionRegistry:
    """Source hashes and code stamp of one Python package's tree.

    Parameters
    ----------
    root:
        Directory of the package (the one holding ``__init__.py``).
        Defaults to the installed ``repro`` package this file lives in.
    package:
        The package's dotted name prefix (default ``"repro"``).

    Instances cache hashes and the stamp; create a fresh registry to
    observe on-disk edits (:meth:`ResultCache.refresh` does this at the
    start of every executor run, which is the natural consistency unit).
    """

    def __init__(self, root: "Path | str | None" = None, package: str = "repro"):
        if root is None:
            root = Path(__file__).resolve().parents[1]
        self.root = Path(root)
        self.package = package
        self._hashes: dict[str, str] = {}
        self._stamp: "str | None" = None

    def module_hash(self, module: str) -> str:
        """Content hash (12 hex chars) of one module's source.

        The dotted name maps straight to its file: ``pkg/__init__.py``
        for a package, ``mod.py`` otherwise.
        """
        if module not in self._hashes:
            head, *parts = module.split(".")
            if head != self.package:
                raise KeyError(module)
            path = self.root.joinpath(*parts)
            init = path / "__init__.py"
            path = init if init.is_file() else path.with_suffix(".py")
            self._hashes[module] = hashlib.sha256(path.read_bytes()).hexdigest()[:12]
        return self._hashes[module]

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
