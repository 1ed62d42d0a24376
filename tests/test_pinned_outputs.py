"""Byte-identity pins on the sweep outputs the project promises not to
change silently.

* ``tests/golden/explore_default.csv``: the default ``repro explore``
  (every kernel and allocator at the paper's 64-register budget) as
  CSV, at ``--jobs 1`` and ``--jobs 2``;
* ``BENCH_7_optgap.csv``: the OPT-RA gap report over the registered
  kernels, regenerated in-process at ``--jobs 1``.

Table 1, Figure 2 and the two VHDL goldens are pinned next to their
commands (``test_cli_smoke.py``, ``test_codegen_golden.py``); the
1,920-point heuristic grid (``tests/golden/heuristic_grid.csv``) takes
too long for tier-1 and is diffed in CI's oracle-smoke job.  All of
them carry the ``pinned`` marker, so ``pytest -m pinned`` checks a
change against every tier-1 golden at once.

To regenerate after an *intentional* change::

    PYTHONPATH=src python -m repro explore --format csv \\
        > tests/golden/explore_default.csv
    PYTHONPATH=src python -m repro explore \\
        --kernels bic decfir fir imi mat pat \\
        --allocators CPA-RA FR-RA KS-RA NO-SR OPT-RA PR-RA \\
        --budgets 4 8 12 16 24 32 48 64 \\
        --gap-report BENCH_7_optgap.csv --format csv > /dev/null
    PYTHONPATH=src python -m repro explore \\
        --kernels bic decfir fir imi mat pat \\
        --allocators CPA-RA FR-RA KS-RA NO-SR PR-RA \\
        --budgets 2 4 6 8 10 12 16 20 24 28 32 40 48 56 64 96 \\
        --ram-latencies 1 2 3 4 --format csv \\
        > tests/golden/heuristic_grid.csv
"""

from pathlib import Path

import pytest

from repro.cli import main

pytestmark = pytest.mark.pinned

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_explore_default_csv(capsys, jobs):
    code = main(["explore", "--format", "csv", "--jobs", jobs])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN_DIR / "explore_default.csv").read_text()


def test_gap_report(capsys, tmp_path):
    report = tmp_path / "gap.csv"
    code = main([
        "explore", "--kernels", "bic", "decfir", "fir", "imi", "mat", "pat",
        "--allocators", "CPA-RA", "FR-RA", "KS-RA", "NO-SR", "OPT-RA", "PR-RA",
        "--budgets", "4", "8", "12", "16", "24", "32", "48", "64",
        "--jobs", "1", "--gap-report", str(report), "--format", "csv",
    ])
    capsys.readouterr()
    assert code == 0
    assert report.read_text() == (ROOT / "BENCH_7_optgap.csv").read_text()
