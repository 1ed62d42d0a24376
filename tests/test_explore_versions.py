"""Per-module hashing, the evaluation cone and the cache's code stamp.

Three layers:

* :class:`VersionRegistry` hashing and the import graph of
  ``repro lint``'s :class:`LintContext` on a synthetic package tree (AST
  import edges including relative and function-level imports, cone
  traversal);
* the shipped cone constant and the stamp over it (pinned to lint's
  import graph; which subsystems stay out; Python and numpy versions
  count);
* end-to-end resume against a *copied* ``repro`` tree: editing a cone
  module re-evaluates every point, editing ``codegen`` re-evaluates
  nothing, and another numpy version re-evaluates every point.
"""

import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.explore import (
    DesignQuery,
    Executor,
    ResultCache,
    VersionRegistry,
    query_vector,
)
from repro.explore import cache as cache_module, versions
from repro.explore.versions import EVALUATION_CONE, EVALUATION_ROOT
from repro.lint.framework import LintContext
from repro.plugins import ALLOCATOR_MODULES, KERNEL_MODULES

SRC = Path(__file__).resolve().parent.parent / "src"


def make_tree(root: Path) -> Path:
    """A little package with a diamond, a relative import and plugins."""
    pkg = root / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "base.py").write_text("X = 1\n")
    (pkg / "left.py").write_text("from pkg.base import X\n")
    (pkg / "right.py").write_text(
        textwrap.dedent(
            """
            from . import base

            def late():
                from pkg.lazy import Y  # function-level imports count
                return Y
            """
        )
    )
    (pkg / "lazy.py").write_text("Y = 2\n")
    (pkg / "top.py").write_text("import pkg.left\nimport pkg.right\n")
    (pkg / "plug_a.py").write_text("import pkg.plug_b\n")
    (pkg / "plug_b.py").write_text("from pkg.base import X\n")
    (pkg / "dispatch.py").write_text("import pkg.plug_a\nimport pkg.plug_b\n")
    sub = pkg / "sub"
    sub.mkdir()
    (sub / "__init__.py").write_text("")
    (sub / "leaf.py").write_text("from pkg.top import *\n")
    return pkg


class TestVersionRegistry:
    def test_module_discovery_and_hashing(self, tmp_path):
        registry = VersionRegistry(make_tree(tmp_path), package="pkg")
        # A dotted name maps straight to its file: packages hash their
        # __init__.py, so they match an empty module's hash.
        assert registry.module_hash("pkg") == registry.module_hash("pkg.sub")
        assert registry.module_hash("pkg.sub.leaf") != registry.module_hash("pkg")
        with pytest.raises(KeyError):
            registry.module_hash("other.base")
        before = registry.module_hash("pkg.base")
        assert len(before) == 12
        (tmp_path / "pkg" / "base.py").write_text("X = 2\n")
        # hashes are cached per instance; a fresh registry sees the edit
        assert registry.module_hash("pkg.base") == before
        fresh = VersionRegistry(tmp_path / "pkg", package="pkg")
        assert fresh.module_hash("pkg.base") != before
        assert fresh.module_hash("pkg.left") == registry.module_hash("pkg.left")


class TestLintImportGraph:
    def test_import_edges(self, tmp_path):
        context = LintContext(make_tree(tmp_path), package="pkg")
        assert context.imports("pkg.left") == {"pkg.base"}
        # relative import resolves, and the lazy function import counts
        assert context.imports("pkg.right") == {"pkg.base", "pkg.lazy"}
        assert context.imports("pkg.top") == {"pkg.left", "pkg.right"}
        assert context.imports("pkg.sub.leaf") == {"pkg.top"}
        assert context.imports("pkg.base") == frozenset()

    def test_cone_is_transitive_closure(self, tmp_path):
        root = make_tree(tmp_path)

        def cone(entry):
            return LintContext(root, package="pkg", entry=entry).cone()

        assert cone("pkg.top") == {
            "pkg.top", "pkg.left", "pkg.right", "pkg.base", "pkg.lazy",
        }
        # Plugin-to-plugin edges and a dispatcher's fan-out all count.
        assert cone("pkg.dispatch") == {
            "pkg.dispatch", "pkg.plug_a", "pkg.plug_b", "pkg.base",
        }
        assert cone("pkg.base") == {"pkg.base"}
        # An entry the tree lacks scopes the checks to the whole tree.
        assert cone("pkg.nope") == frozenset(
            LintContext(root, package="pkg").units()
        )


class TestEvaluationCone:
    def test_cone_constant_matches_the_import_graph(self):
        """The shipped constant is the import graph's cone of the
        evaluation root.  Moving an import into a function keeps its
        edge; adding or dropping one fails here until the constant is
        updated for an import edge changed on purpose."""
        cone = LintContext(entry=EVALUATION_ROOT).cone()
        assert EVALUATION_CONE == tuple(sorted(cone)), (
            f"extra: {sorted(cone - set(EVALUATION_CONE))}, "
            f"missing: {sorted(set(EVALUATION_CONE) - cone)}"
        )
        # Every kernel builder and allocator any query can name is in it.
        assert {*KERNEL_MODULES.values(), *ALLOCATOR_MODULES.values()} <= cone

    def test_pin_fails_when_a_cone_module_gains_an_import(self, copied_tree):
        cycles_py = copied_tree / "sim" / "cycles.py"
        cycles_py.write_text(
            cycles_py.read_text() + "\n\ndef _late():\n"
            "    import repro.codegen.vhdl\n"
        )
        cone = LintContext(copied_tree, entry=EVALUATION_ROOT).cone()
        assert "repro.codegen.vhdl" in cone - set(EVALUATION_CONE)

    def test_cone_excludes_unrelated_subsystems(self):
        assert "repro.sim.cycles" in EVALUATION_CONE
        assert "repro.scalar.coverage" in EVALUATION_CONE
        assert "repro.sim.residency" in EVALUATION_CONE
        for module in EVALUATION_CONE:
            for outside in ("repro.codegen", "repro.bench", "repro.cli",
                            "repro.lint", "repro.explore.versions",
                            "repro.explore.cache"):
                assert not module.startswith(outside), module

    def test_stamp_is_one_digest_stable_across_registries(self):
        stamp = VersionRegistry().stamp()
        assert len(stamp) == 64 and int(stamp, 16) >= 0
        assert VersionRegistry().stamp() == stamp
        assert query_vector() == stamp  # the installed tree is unedited

    def test_stamp_covers_python_and_numpy(self, monkeypatch):
        stamp = VersionRegistry().stamp()
        monkeypatch.setattr(versions, "_numpy_version", lambda: "0.0.0")
        assert VersionRegistry().stamp() != stamp
        monkeypatch.undo()
        monkeypatch.setattr(
            versions, "sys", SimpleNamespace(version_info=(2, 7, 18))
        )
        assert VersionRegistry().stamp() != stamp

    def test_numpy_version_is_read_without_importing_numpy(self):
        import numpy

        assert versions._numpy_version() == numpy.__version__


def test_name_tables_match_the_live_dispatch_maps():
    # The numpy-free tables name the same plugins, in the same order
    # (the default axes), as the maps evaluation dispatches on.
    from repro.core.pipeline import _ALLOCATORS
    from repro.kernels.registry import KERNEL_FACTORIES

    assert list(KERNEL_MODULES.items()) == [
        (name, factory.__module__)
        for name, factory in KERNEL_FACTORIES.items()
    ]
    assert list(ALLOCATOR_MODULES.items()) == [
        (name, cls.__module__) for name, cls in _ALLOCATORS.items()
    ]


class TestIncrementalResume:
    QUERIES = [
        DesignQuery(kernel=kernel, allocator=allocator, budget=8)
        for kernel in ("fir", "mat")
        for allocator in ("FR-RA", "CPA-RA")
    ]

    def run(self, cache_dir, tree, queries=QUERIES):
        cache = ResultCache(cache_dir, registry=VersionRegistry(tree))
        return Executor(cache=cache).run(queries)

    def test_shared_dependency_edit_strands_everything(
        self, tmp_path, copied_tree
    ):
        cache_dir = tmp_path / "cache"
        first = self.run(cache_dir, copied_tree)
        assert first.stats.evaluated == 4 and first.stats.cache_hits == 0
        resumed = self.run(cache_dir, copied_tree)
        assert resumed.stats.cache_hits == 4 and resumed.stats.stale == 0
        cycles_py = copied_tree / "sim" / "cycles.py"
        cycles_py.write_text(cycles_py.read_text() + "\n# edited\n")
        after_edit = self.run(cache_dir, copied_tree)
        assert after_edit.stats.stale == 4 and after_edit.stats.cache_hits == 0
        assert list(after_edit) == list(first)

    def test_codegen_edit_keeps_every_point(self, tmp_path, copied_tree):
        cache_dir = tmp_path / "cache"
        self.run(cache_dir, copied_tree)
        vhdl_py = copied_tree / "codegen" / "vhdl.py"
        vhdl_py.write_text(vhdl_py.read_text() + "\n# edited\n")
        resumed = self.run(cache_dir, copied_tree)
        assert resumed.stats.cache_hits == 4
        assert resumed.stats.stale == 0 and resumed.stats.evaluated == 0

    def test_numpy_version_change_strands_everything(
        self, tmp_path, copied_tree, monkeypatch
    ):
        # The first run takes this process's write stamp (if no earlier
        # sweep did) before the version is patched.
        cache_dir = tmp_path / "cache"
        assert self.run(cache_dir, copied_tree).stats.evaluated == 4
        monkeypatch.setattr(versions, "_numpy_version", lambda: "0.0.0")
        resumed = self.run(cache_dir, copied_tree)
        assert resumed.stats.stale == 4 and resumed.stats.cache_hits == 0

    def test_reused_executor_notices_edits(self, tmp_path, copied_tree):
        """One process, one Executor instance, an edit between runs."""
        cache = ResultCache(
            tmp_path / "cache", registry=VersionRegistry(copied_tree)
        )
        executor = Executor(cache=cache)
        executor.run(self.QUERIES)
        assert executor.run(self.QUERIES).stats.cache_hits == 4

        mat_py = copied_tree / "kernels" / "mat.py"
        source = mat_py.read_text()
        mat_py.write_text(source + "\n# edited\n")
        after = executor.run(self.QUERIES)  # same instance: must refresh
        assert after.stats.stale == 4 and after.stats.evaluated == 4

        # The in-process re-evaluations were stamped with the code this
        # process *loaded* (pre-edit), so they stay stale against the
        # edited tree until a fresh process re-evaluates them ...
        assert executor.run(self.QUERIES).stats.stale == 4
        # ... and hit again once the tree matches the loaded code.
        mat_py.write_text(source)
        assert executor.run(self.QUERIES).stats.cache_hits == 4

    @pytest.mark.parametrize("backend", ["dir", "sqlite"])
    def test_gc_prunes_entries_a_cone_edit_staled(
        self, backend, tmp_path, copied_tree, monkeypatch
    ):
        location = (
            tmp_path / "cache" if backend == "dir"
            else f"sqlite:{tmp_path / 'cache.db'}"
        )
        old, new = self.QUERIES[:2], self.QUERIES[2:]
        assert self.run(location, copied_tree, old).stats.evaluated == 2
        cycles_py = copied_tree / "sim" / "cycles.py"
        cycles_py.write_text(cycles_py.read_text() + "\n# edited\n")
        # A process started on the edited tree stamps its writes with it.
        monkeypatch.setattr(
            cache_module, "query_vector", VersionRegistry(copied_tree).stamp
        )
        assert self.run(location, copied_tree, new).stats.evaluated == 2

        cache = ResultCache(location, registry=VersionRegistry(copied_tree))
        assert cache.fsck().ok == 4  # fsck checks integrity, not stamps
        time.sleep(0.05)
        report = cache.gc(days=0)
        assert (report.stale_removed, report.quarantine_removed) == (2, 0)
        assert len(cache) == 2
        assert [cache.lookup(q)[1] for q in self.QUERIES] == [
            "miss", "miss", "hit", "hit",
        ]


PROBE = """
import json, sys
from repro.explore import Executor, ResultCache, executor, versions
real = versions.query_vector
seen = []
executor.query_vector = lambda: seen.append("numpy" in sys.modules) or real()
from repro.explore import DesignQuery
Executor(cache=ResultCache(sys.argv[1])).run(
    [DesignQuery(kernel="fir", allocator="NO-SR", budget=8)]
)
print(json.dumps(seen))
"""


def test_write_stamp_is_taken_before_the_evaluation_stack_loads(tmp_path):
    """A fresh process stamps its writes before it imports numpy."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(tmp_path / "cache")],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False]


def walk_imports(context: LintContext, module: str) -> frozenset:
    """Reference edges: every Import/ImportFrom node of a full ast.walk."""
    import ast

    known = {name: unit.path for name, unit in context.units().items()}
    deps = set()

    def note(name):
        while name:
            if name in known:
                if name != module:
                    deps.add(name)
                return
            name = name.rpartition(".")[0]

    for node in ast.walk(ast.parse(known[module].read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                note(alias.name)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = module if known[module].name == "__init__.py" \
                    else module.rpartition(".")[0]
                for _ in range(node.level - 1):
                    anchor = anchor.rpartition(".")[0]
                base = f"{anchor}.{base}" if base else anchor
            if base.startswith(context.package):
                for alias in node.names:
                    note(f"{base}.{alias.name}")
    return frozenset(deps)


@pytest.mark.parametrize("tree", ["shipped", "synthetic"])
def test_import_graph_matches_full_ast_walk(tree, tmp_path):
    """Lint's import graph has every edge a reference walk finds."""
    if tree == "shipped":
        context = LintContext()
    else:
        pkg = make_tree(tmp_path)
        (pkg / "nested.py").write_text(
            textwrap.dedent(
                """
                try:
                    import pkg.base
                except ImportError:
                    from pkg import left
                else:
                    from pkg import right
                finally:
                    import pkg.lazy

                class Holder:
                    if True:
                        with open(__file__):
                            for _ in ():
                                import pkg.top
                            else:
                                while False:
                                    from .sub import leaf

                match 1:
                    case 1:
                        import pkg.plug_a
                """
            )
        )
        context = LintContext(pkg, package="pkg")
    for module in context.units():
        assert context.imports(module) == walk_imports(context, module), module
    if tree == "synthetic":
        assert len(context.imports("pkg.nested")) == 7
