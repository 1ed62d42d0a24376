"""Every third-party module the code imports is one CI's tier-1 job installs.

The walk covers ``src/``, ``tests/`` and ``examples/`` and every import
statement in them, deferred and ``TYPE_CHECKING`` ones included: a
module that only one test imports still fails tier-1 where it is not
installed.  The standard library, ``repro`` itself and the helper
modules that live in ``tests/`` are not third-party;
``tests/lint_fixtures`` is lint input, never imported.

``ci.yml`` is read with a regular expression because PyYAML is not
among the packages CI installs.
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "examples")
LOCAL = {"repro"} | {path.stem for path in (ROOT / "tests").glob("*.py")}


def tier1_packages() -> set[str]:
    """The packages of the ``pip install`` line in CI's ``tests`` job."""
    text = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    job = re.search(r"^  tests:\n(.*?)(?=^  \S)", text, re.M | re.S)
    assert job, "ci.yml has no 'tests' job"
    install = re.search(r"pip install ([^\n]+)", job.group(1))
    assert install, "CI's tests job has no pip install line"
    return {name.lower().replace("-", "_") for name in install.group(1).split()}


def third_party_imports(root: Path) -> dict[str, set[str]]:
    """Top-level third-party module -> the files that import it."""
    found: dict[str, set[str]] = {}
    for top in SCANNED:
        for path in sorted((root / top).rglob("*.py")):
            if "lint_fixtures" in path.parts:
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module]
                else:
                    continue
                for name in names:
                    module = name.split(".")[0]
                    if module in sys.stdlib_module_names or module in LOCAL:
                        continue
                    found.setdefault(module, set()).add(
                        str(path.relative_to(root))
                    )
    return found


def test_tier1_installs_every_third_party_import():
    installed = tier1_packages()
    missing = {
        module: sorted(files)
        for module, files in third_party_imports(ROOT).items()
        if module.lower() not in installed
    }
    assert not missing, (
        f"imported but not installed by CI's tier-1 job {sorted(installed)}: "
        f"{missing}"
    )


def test_an_uninstalled_import_is_caught(tmp_path):
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_plot.py").write_text(
        "import os\nimport numpy\n\ndef f():\n    from matplotlib import pyplot\n"
    )
    found = third_party_imports(tmp_path)
    assert set(found) == {"numpy", "matplotlib"}
    assert "matplotlib" not in tier1_packages()
