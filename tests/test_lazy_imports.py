"""Commands that evaluate no point import nothing they do not use.

Each command runs in a fresh interpreter, which reports afterwards
which modules of the evaluation stack it loaded: none may be, since
listing names, printing help, planning a queue, serving every point
from the cache and checking a cache all work from the numpy-free name
tables, the query keys and the cache entries alone.  The packages on
that path (``repro``, ``repro.explore``, ``repro.hw``) re-export
lazily, so the last test checks that every public name still resolves.
Commands that read no cache entry hash no module source either: the
code stamp is taken only when entries are looked up or written.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.explore import Executor, ExplorationSpace

SRC = Path(__file__).resolve().parent.parent / "src"

#: numpy, the OPT-RA search, the cycle classifier and the harnesses.
EVALUATION_STACK = ("numpy", "repro.core.optra", "repro.sim.cycles",
                    "repro.bench")

AXES = ("--kernels", "fir", "mat", "--allocators", "FR-RA", "NO-SR",
        "--budgets", "8")

#: Runs ``repro ARGV...`` and reports its exit code and which of the
#: named modules it loaded, as the last line of standard error.
PROBE = """
import json, sys
from repro.cli import main
try:
    code = main(sys.argv[2:])
except SystemExit as exc:
    code = exc.code
loaded = [m for m in json.loads(sys.argv[1]) if m in sys.modules]
print(json.dumps({"code": code, "loaded": loaded}), file=sys.stderr)
"""


def run_repro(*argv):
    """``(exit code, loaded stack modules, stderr)`` of one command."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(EVALUATION_STACK), *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120,
    )
    report = json.loads(proc.stderr.strip().splitlines()[-1])
    return report["code"], report["loaded"], proc.stderr


#: Runs ``repro ARGV...`` with a profiler counting calls of
#: ``VersionRegistry.module_hash`` from the first import on, and reports
#: its exit code and that count as the last line of standard error.
HASH_PROBE = """
import json, sys
calls = []
def profile(frame, event, arg):
    if event == "call" and frame.f_code.co_name == "module_hash":
        calls.append(frame.f_code.co_filename)
sys.setprofile(profile)
from repro.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
sys.setprofile(None)
hashed = [f for f in calls if f.endswith("versions.py")]
print(json.dumps({"code": code, "hashed": len(hashed)}), file=sys.stderr)
"""


def count_hashes(*argv):
    """``(exit code, module_hash calls)`` of one command."""
    proc = subprocess.run(
        [sys.executable, "-c", HASH_PROBE, *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120,
    )
    report = json.loads(proc.stderr.strip().splitlines()[-1])
    return report["code"], report["hashed"]


@pytest.fixture(scope="module")
def caches(tmp_path_factory):
    """A directory and a sqlite cache, each holding every point of AXES."""
    root = tmp_path_factory.mktemp("lazy")
    uris = {"dir": str(root / "dir"), "sqlite": f"sqlite:{root / 'c.db'}"}
    space = ExplorationSpace(
        kernels=("fir", "mat"), allocators=("FR-RA", "NO-SR"), budgets=(8,)
    )
    for uri in uris.values():
        assert Executor(cache=uri).run(space).stats.evaluated == 4
    return uris


@pytest.mark.parametrize("argv", [
    ("list",),
    ("--help",),
    ("explore", *AXES, "--jobs", "1", "--dry-run"),
], ids=["list", "help", "dry-run"])
def test_commands_without_a_cache_load_no_evaluation_stack(argv):
    code, loaded, _ = run_repro(*argv)
    assert code == 0
    assert loaded == []


@pytest.mark.parametrize("backend", ["dir", "sqlite"])
@pytest.mark.parametrize("fmt", ["table", "csv"])
def test_an_all_hit_resume_loads_no_evaluation_stack(caches, backend, fmt):
    code, loaded, stderr = run_repro(
        "explore", *AXES, "--cache-dir", caches[backend], "--format", fmt
    )
    assert code == 0
    assert "0 evaluated, 4 cache hits (100%)" in stderr
    assert loaded == []


@pytest.mark.parametrize("backend", ["dir", "sqlite"])
def test_cache_fsck_loads_no_evaluation_stack(caches, backend):
    code, loaded, _ = run_repro("cache", "fsck", caches[backend])
    assert code == 0
    assert loaded == []


def test_a_point_to_evaluate_loads_the_stack(tmp_path):
    """The probe does see the stack when a point is evaluated."""
    code, loaded, _ = run_repro(
        "explore", "--kernels", "fir", "--allocators", "NO-SR",
        "--budgets", "8", "--cache-dir", str(tmp_path / "cache"),
    )
    assert code == 0
    assert set(loaded) == {"numpy", "repro.core.optra", "repro.sim.cycles"}


@pytest.mark.parametrize("argv", [
    ("list",), ("--help",), ("cache", "fsck", "dir"),
], ids=["list", "help", "fsck"])
def test_commands_that_read_no_entry_hash_no_source(caches, argv):
    argv = tuple(caches[arg] if arg in caches else arg for arg in argv)
    assert count_hashes(*argv) == (0, 0)


def test_an_all_hit_resume_hashes_the_cone_once(caches):
    from repro.explore.versions import EVALUATION_CONE

    code, hashed = count_hashes("explore", *AXES, "--cache-dir", caches["dir"])
    assert (code, hashed) == (0, len(EVALUATION_CONE))


@pytest.mark.parametrize("package", ["repro", "repro.explore", "repro.hw"])
def test_every_lazily_exported_name_resolves(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
