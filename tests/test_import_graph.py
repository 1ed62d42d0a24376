"""The load-time import graph of ``src/repro`` has no cycle.

A cycle breaks only the entry points that close it: importing one of
its modules first in a fresh interpreter raises ``ImportError`` from a
partially initialized module, while any process that happened to load
the cycle from another side (a warm pytest run) never sees it.  The
graph is built from the sources: only module-level imports count
(function bodies run later, and ``if TYPE_CHECKING:`` never runs), each
import resolves to the deepest ``repro`` module on its dotted path, and
it also depends on every enclosing package ``__init__`` Python runs
first, except a package that already encloses the importing module,
which is loading already.
"""

import ast
from pathlib import Path

import repro

ROOT = Path(repro.__file__).resolve().parent


def module_files():
    files = {}
    for path in sorted(ROOT.rglob("*.py")):
        parts = ("repro",) + path.relative_to(ROOT).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        files[".".join(parts)] = path
    return files


def load_time_imports(body):
    """The import statements ``body`` runs when its module loads."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        elif isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test):
            yield from load_time_imports(node.orelse)
        else:
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from load_time_imports(getattr(node, field, []))


def import_graph():
    files = module_files()
    graph = {}
    for module, path in files.items():
        targets = set()
        for node in load_time_imports(ast.parse(path.read_text()).body):
            if isinstance(node, ast.Import):
                targets.update(alias.name for alias in node.names)
            elif node.module:
                targets.update(f"{node.module}.{a.name}" for a in node.names)
        edges = set()
        for name in targets:
            while name and name not in files:
                name = name.rpartition(".")[0]
            parts = name.split(".")
            for depth in range(1, len(parts) + 1):
                runs = ".".join(parts[:depth])
                if runs in files and not (
                    module == runs or module.startswith(runs + ".")
                ):
                    edges.add(runs)
        graph[module] = edges
    return graph


def find_cycle(graph, start):
    """One import cycle through ``start`` (a path back to it), or None."""
    paths = {start: [start]}
    frontier = [start]
    while frontier:
        module = frontier.pop(0)
        for target in sorted(graph[module]):
            if target == start:
                return paths[module] + [start]
            if target not in paths:
                paths[target] = paths[module] + [target]
                frontier.append(target)
    return None


def test_the_graph_sees_load_time_edges_only():
    graph = import_graph()
    # explore.context imports the cycle counter when it loads; the cycle
    # counter imports EvalContext inside functions only.
    assert "repro.sim.cycles" in graph["repro.explore.context"]
    assert "repro.explore.context" not in graph["repro.sim.cycles"]
    # Importing from outside a package runs the package first; from
    # inside, the package is loading already.
    assert "repro.sim" in graph["repro.scalar.coverage"]
    assert "repro.sim" not in graph["repro.sim.cycles"]


def test_the_import_graph_is_acyclic():
    graph = import_graph()
    on_cycles = sorted(m for m in graph if find_cycle(graph, m))
    assert not on_cycles, (
        f"{len(on_cycles)} modules lie on import cycles: "
        f"{', '.join(on_cycles)}; one cycle: "
        + " -> ".join(find_cycle(graph, on_cycles[0]))
    )
