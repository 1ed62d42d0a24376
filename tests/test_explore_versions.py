"""Per-module versioning, dependency cones and incremental invalidation.

Three layers:

* :class:`VersionRegistry` mechanics on a synthetic package tree
  (discovery, hashing, AST import edges including relative and
  function-level imports, cone traversal, plugin pruning);
* per-query version vectors of the real tree (which plugins a query
  pulls in, which subsystems stay out);
* end-to-end incremental resume against a *copied* ``repro`` tree:
  editing one kernel's builder re-evaluates only that kernel's points,
  editing ``codegen`` re-evaluates nothing.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.explore import (
    DesignQuery,
    Executor,
    ResultCache,
    VersionRegistry,
    query_roots,
    query_vector,
)
from repro.explore.versions import EVALUATION_ROOT, PLUGIN_MODULES
from repro.kernels import build_fir
from repro.plugins import ALLOCATOR_MODULES, KERNEL_MODULES

GOLDEN_CONES = Path(__file__).parent / "golden" / "query_cones.json"


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
        modules = registry.modules()
        assert {"pkg", "pkg.base", "pkg.sub", "pkg.sub.leaf"} <= set(modules)
        before = registry.module_hash("pkg.base")
        assert len(before) == 12
        (tmp_path / "pkg" / "base.py").write_text("X = 2\n")
        # hashes are cached per instance; a fresh registry sees the edit
        assert registry.module_hash("pkg.base") == before
        fresh = VersionRegistry(tmp_path / "pkg", package="pkg")
        assert fresh.module_hash("pkg.base") != before
        assert fresh.module_hash("pkg.left") == registry.module_hash("pkg.left")

    def test_import_edges(self, tmp_path):
        registry = VersionRegistry(make_tree(tmp_path), package="pkg")
        assert registry.imports("pkg.left") == {"pkg.base"}
        # relative import resolves, and the lazy function import counts
        assert registry.imports("pkg.right") == {"pkg.base", "pkg.lazy"}
        assert registry.imports("pkg.top") == {"pkg.left", "pkg.right"}
        assert registry.imports("pkg.sub.leaf") == {"pkg.top"}
        assert registry.imports("pkg.base") == frozenset()

    def test_cone_is_transitive_closure(self, tmp_path):
        registry = VersionRegistry(make_tree(tmp_path), package="pkg")
        assert registry.cone(["pkg.top"]) == {
            "pkg.top", "pkg.left", "pkg.right", "pkg.base", "pkg.lazy",
        }
        assert registry.cone(["pkg.base"]) == {"pkg.base"}
        with pytest.raises(KeyError):
            registry.cone(["pkg.nope"])

    def test_cone_prunes_plugins_unless_rooted(self, tmp_path):
        registry = VersionRegistry(make_tree(tmp_path), package="pkg")
        plugins = frozenset({"pkg.plug_a", "pkg.plug_b"})
        pruned = registry.cone(["pkg.dispatch"], prune=plugins)
        assert pruned == {"pkg.dispatch"}
        # Without prune_from every edge into a non-root plugin is cut,
        # including plug_a's own import of plug_b.
        rooted = registry.cone(["pkg.dispatch", "pkg.plug_a"], prune=plugins)
        assert rooted == {"pkg.dispatch", "pkg.plug_a"}

    def test_prune_from_keeps_plugin_to_plugin_edges(self, tmp_path):
        # Scoped pruning (what query_vector uses): only the dispatcher's
        # fan-out is cut, so a plugin delegating to another plugin keeps
        # that real dependency in its cone.
        registry = VersionRegistry(make_tree(tmp_path), package="pkg")
        plugins = frozenset({"pkg.plug_a", "pkg.plug_b"})
        cone = registry.cone(
            ["pkg.dispatch", "pkg.plug_a"],
            prune=plugins,
            prune_from=frozenset({"pkg.dispatch"}),
        )
        assert cone == {
            "pkg.dispatch", "pkg.plug_a", "pkg.plug_b", "pkg.base",
        }

    def test_vector_maps_cone_to_hashes(self, tmp_path):
        registry = VersionRegistry(make_tree(tmp_path), package="pkg")
        vector = registry.vector(("pkg.top",))
        assert set(vector) == registry.cone(["pkg.top"])
        assert vector["pkg.base"] == registry.module_hash("pkg.base")

    def test_vector_memo_keys_on_pruning_too(self, tmp_path):
        # Same roots, different pruning -> different vectors; the memo
        # must not replay whichever cone happened to be computed first.
        registry = VersionRegistry(make_tree(tmp_path), package="pkg")
        plugins = frozenset({"pkg.plug_a", "pkg.plug_b"})
        full = registry.vector(("pkg.dispatch",))
        pruned = registry.vector(("pkg.dispatch",), prune=plugins)
        assert set(full) == {"pkg.dispatch", "pkg.plug_a", "pkg.plug_b", "pkg.base"}
        assert set(pruned) == {"pkg.dispatch"}
        assert registry.vector(("pkg.dispatch",)) == full


class TestQueryVectors:
    def test_roots_select_one_kernel_and_one_allocator(self):
        query = DesignQuery(kernel="fir", allocator="KS-RA", budget=8)
        roots = query_roots(query)
        assert EVALUATION_ROOT in roots
        assert KERNEL_MODULES["fir"] in roots
        assert ALLOCATOR_MODULES["KS-RA"] in roots
        assert KERNEL_MODULES["mat"] not in roots
        assert ALLOCATOR_MODULES["FR-RA"] not in roots

    def test_embedded_kernel_needs_no_kernel_module(self):
        query = DesignQuery.from_kernel(
            build_fir(n=8, taps=4), allocator="PR-RA", budget=8
        )
        assert query.kernel_json is not None
        roots = query_roots(query)
        assert not any(r.startswith("repro.kernels.") for r in roots)

    def test_unknown_names_fall_back_to_whole_family(self):
        query = DesignQuery(kernel="nope", allocator="nope", budget=8)
        roots = set(query_roots(query))
        assert PLUGIN_MODULES <= roots

    def test_name_tables_match_the_live_dispatch_maps(self):
        # The numpy-free tables name the same plugins, in the same
        # order (the default axes), as the maps evaluation dispatches on.
        from repro.core.pipeline import _ALLOCATORS
        from repro.kernels.registry import KERNEL_FACTORIES

        assert list(KERNEL_MODULES.items()) == [
            (name, factory.__module__)
            for name, factory in KERNEL_FACTORIES.items()
        ]
        assert list(ALLOCATOR_MODULES.items()) == [
            (name, cls.__module__) for name, cls in _ALLOCATORS.items()
        ]

    def test_every_registered_pair_has_its_pinned_cone(self):
        """Each kernel x allocator cone is the shared base plus the
        kernel's and the allocator's own modules, as pinned.  Moving an
        import into a function keeps its edge; dropping one shrinks a
        cone and fails here.  Update the golden file only for an import
        edge changed on purpose."""
        golden = json.loads(GOLDEN_CONES.read_text())
        wrong = {}
        for kernel in KERNEL_MODULES:
            for allocator in ALLOCATOR_MODULES:
                cone = set(query_vector(
                    DesignQuery(kernel=kernel, allocator=allocator, budget=8)
                ))
                pinned = set(golden["base"]).union(
                    golden["kernels"][kernel], golden["allocators"][allocator]
                )
                if cone != pinned:
                    wrong[f"{kernel}/{allocator}"] = (
                        sorted(cone - pinned), sorted(pinned - cone)
                    )
        assert not wrong, f"(extra, missing) modules per pair: {wrong}"

    def test_vector_excludes_unrelated_subsystems(self):
        vector = query_vector(
            DesignQuery(kernel="fir", allocator="CPA-RA", budget=64)
        )
        assert "repro.sim.cycles" in vector
        assert "repro.scalar.coverage" in vector
        assert "repro.sim.residency" in vector
        for module in vector:
            assert not module.startswith("repro.codegen")
            assert not module.startswith("repro.bench")
            assert not module.startswith("repro.cli")
        assert "repro.kernels.mat" not in vector
        assert "repro.core.frra" not in vector

    def test_delegating_allocator_depends_on_its_delegate(self):
        # PR-RA runs FR-RA's full-replacement pass first, so frra.py is
        # a real dependency of every PR-RA point — editing the delegate
        # must invalidate the delegator's entries.
        vector = query_vector(
            DesignQuery(kernel="fir", allocator="PR-RA", budget=8)
        )
        assert "repro.core.prra" in vector
        assert "repro.core.frra" in vector
        # ...while the standalone allocators stay out of each other.
        assert "repro.core.knapsack" not in vector

    def test_self_consistent_with_import_graph(self):
        # Every module the vector names must exist and hash stably.
        vector = query_vector(DesignQuery(kernel="mat", allocator="FR-RA", budget=8))
        again = query_vector(DesignQuery(kernel="mat", allocator="FR-RA", budget=8))
        assert vector == again


class TestIncrementalResume:
    QUERIES = [
        DesignQuery(kernel=kernel, allocator=allocator, budget=8)
        for kernel in ("fir", "mat")
        for allocator in ("FR-RA", "CPA-RA")
    ]

    def run(self, cache_dir, tree):
        cache = ResultCache(cache_dir, registry=VersionRegistry(tree))
        return Executor(cache=cache).run(self.QUERIES)

    def test_resume_after_leaf_edit_reruns_only_dependents(
        self, tmp_path, copied_tree
    ):
        cache_dir = tmp_path / "cache"
        first = self.run(cache_dir, copied_tree)
        assert first.stats.evaluated == 4 and first.stats.cache_hits == 0

        resumed = self.run(cache_dir, copied_tree)
        assert resumed.stats.cache_hits == 4 and resumed.stats.evaluated == 0
        assert resumed.stats.stale == 0

        # Editing mat's builder must strand exactly the two mat points.
        mat_py = copied_tree / "kernels" / "mat.py"
        mat_py.write_text(mat_py.read_text() + "\n# edited\n")
        after_edit = self.run(cache_dir, copied_tree)
        assert after_edit.stats.cache_hits == 2
        assert after_edit.stats.stale == 2
        assert after_edit.stats.evaluated == 2
        assert [r for r in after_edit] == list(first)

        # Editing codegen (outside every cone) must strand nothing.
        vhdl_py = copied_tree / "codegen" / "vhdl.py"
        vhdl_py.write_text(vhdl_py.read_text() + "\n# edited\n")
        after_codegen = self.run(cache_dir, copied_tree)
        assert after_codegen.stats.cache_hits == 4
        assert after_codegen.stats.stale == 0

    def test_allocator_edit_strands_only_its_points(
        self, tmp_path, copied_tree
    ):
        cache_dir = tmp_path / "cache"
        self.run(cache_dir, copied_tree)
        cpara_py = copied_tree / "core" / "cpara.py"
        cpara_py.write_text(cpara_py.read_text() + "\n# edited\n")
        resumed = self.run(cache_dir, copied_tree)
        assert resumed.stats.stale == 2  # the two CPA-RA points
        assert resumed.stats.cache_hits == 2

    def test_delegate_edit_strands_delegating_allocator(
        self, tmp_path, copied_tree
    ):
        queries = [
            DesignQuery(kernel="fir", allocator=allocator, budget=8)
            for allocator in ("PR-RA", "KS-RA")
        ]
        cache = ResultCache(
            tmp_path / "cache", registry=VersionRegistry(copied_tree)
        )
        Executor(cache=cache).run(queries)
        frra_py = copied_tree / "core" / "frra.py"
        frra_py.write_text(frra_py.read_text() + "\n# edited\n")
        cache = ResultCache(
            tmp_path / "cache", registry=VersionRegistry(copied_tree)
        )
        resumed = Executor(cache=cache).run(queries)
        # PR-RA delegates to FR-RA, so its point goes stale; the
        # knapsack allocator never touches frra and stays cached.
        assert resumed.stats.stale == 1
        assert resumed.stats.cache_hits == 1

    def test_shared_dependency_edit_strands_everything(
        self, tmp_path, copied_tree
    ):
        cache_dir = tmp_path / "cache"
        self.run(cache_dir, copied_tree)
        cycles_py = copied_tree / "sim" / "cycles.py"
        cycles_py.write_text(cycles_py.read_text() + "\n# edited\n")
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
        mat_py.write_text(mat_py.read_text() + "\n# edited\n")
        after = executor.run(self.QUERIES)  # same instance: must refresh
        assert after.stats.stale == 2 and after.stats.cache_hits == 2

        # The in-process re-evaluations were stamped with the hashes the
        # process *loaded* (pre-edit), so a "fresh process" (new cache +
        # registry) still re-evaluates them once with the new code...
        repaired = self.run(tmp_path / "cache", copied_tree)
        assert repaired.stats.stale == 2 and repaired.stats.evaluated == 2
        # ...after which the cache is fully current again.
        assert self.run(tmp_path / "cache", copied_tree).stats.cache_hits == 4

    def test_default_registry_hashes_snapshot_at_import(self):
        # Write-side vectors must fingerprint the loaded code: the
        # default registry hashes the whole tree when repro.explore is
        # imported, not lazily at first put.
        from repro.explore.versions import default_registry

        registry = default_registry()
        assert set(registry._hashes) == set(registry.modules())

    def test_tampered_module_hash_strands_matching_cones(self, tmp_path):
        """The satellite form: mutate one module's recorded hash on disk."""
        cache_dir = tmp_path / "cache"
        cache = ResultCache(cache_dir)
        results = Executor(cache=cache).run(self.QUERIES)
        assert results.stats.evaluated == 4
        from repro.explore.cache import _entry_checksum

        tampered = 0
        for entry in cache_dir.glob("*.json"):
            doc = json.loads(entry.read_text())
            if "repro.kernels.fir" in doc["versions"]:
                doc["versions"]["repro.kernels.fir"] = "0" * 12
                # Re-stamp the checksum: simulates an entry *written*
                # with a different fir hash, not a torn write.
                doc["checksum"] = _entry_checksum(doc)
                entry.write_text(json.dumps(doc))
                tampered += 1
        assert tampered == 2
        resumed = Executor(cache=cache).run(self.QUERIES)
        assert resumed.stats.stale == 2
        assert resumed.stats.cache_hits == 2
        assert resumed.stats.evaluated == 2


def walk_imports(registry: VersionRegistry, module: str) -> frozenset:
    """Reference edges: every Import/ImportFrom node of a full ast.walk."""
    import ast

    known = registry.modules()
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
            if base.startswith(registry.package):
                for alias in node.names:
                    note(f"{base}.{alias.name}")
    return frozenset(deps)


@pytest.mark.parametrize("tree", ["shipped", "synthetic"])
def test_import_graph_matches_full_ast_walk(tree, tmp_path):
    """Statement-body scanning finds every edge a full walk finds."""
    if tree == "shipped":
        registry = VersionRegistry()
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
        registry = VersionRegistry(pkg, package="pkg")
    for module in registry.modules():
        assert registry.imports(module) == walk_imports(registry, module), module
    if tree == "synthetic":
        assert len(registry.imports("pkg.nested")) == 7


class TestDynamicImportWarning:
    """Untrackable dynamic imports warn loudly when the registry parses
    the offending module (satellite of the lint PR: the runtime twin of
    ``repro lint``'s version-cone:dynamic-import finding)."""

    def test_dynamic_import_warns_with_module_and_line(self, tmp_path):
        from repro.explore.versions import DynamicImportWarning

        pkg = make_tree(tmp_path)
        (pkg / "shifty.py").write_text(
            textwrap.dedent(
                """
                import importlib

                def load(name):
                    return importlib.import_module(name)
                """
            )
        )
        registry = VersionRegistry(pkg, package="pkg")
        with pytest.warns(DynamicImportWarning, match=r"pkg\.shifty \(line 5\)"):
            registry.cone(["pkg.shifty"])

    def test_static_tree_is_silent(self, tmp_path):
        import warnings as _warnings

        registry = VersionRegistry(make_tree(tmp_path), package="pkg")
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            registry.cone(["pkg.top"])
