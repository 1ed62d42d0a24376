"""CLI smoke tests: every subcommand through ``main(argv)``.

Each test asserts exit code 0 plus load-bearing substrings in captured
stdout — cheap insurance that argument wiring, imports and renderers
stay hooked together.  ``table1`` and ``figure2`` print the paper's
artifacts, so their stdout is also compared byte for byte with
``tests/golden/``.  To regenerate after an *intentional* change::

    PYTHONPATH=src python -m repro table1 > tests/golden/table1.txt
    PYTHONPATH=src python -m repro figure2 > tests/golden/figure2.txt
"""

import json
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.pinned
def test_table1(capsys):
    code, out, _ = run_cli(capsys, "table1")
    assert code == 0
    assert "Table 1 (reproduced)" in out
    assert "Aggregates:" in out
    for kernel in ("fir", "decfir", "mat", "imi", "pat", "bic"):
        assert kernel in out
    assert out == (GOLDEN_DIR / "table1.txt").read_text()


def test_kernel_trace(capsys):
    code, out, _ = run_cli(capsys, "kernel", "fir", "--trace")
    assert code == 0
    assert "fir under a 64-register budget" in out
    assert "CPA-RA decision trace:" in out
    assert "baseline: 1 register" in out


def test_vhdl(capsys):
    code, out, _ = run_cli(capsys, "vhdl", "fir")
    assert code == 0
    assert "entity fir_cpa_ra is" in out
    assert "end architecture behavioral;" in out


@pytest.mark.pinned
def test_figure2(capsys):
    code, out, _ = run_cli(capsys, "figure2")
    assert code == 0
    assert "Figure 2(c), reproduced" in out
    # The one production count under a non-pipeline objective: memory-
    # only latencies, one RAM port, no per-iteration overhead.
    assert out == (GOLDEN_DIR / "figure2.txt").read_text()


def test_list(capsys):
    code, out, _ = run_cli(capsys, "list")
    assert code == 0
    assert "fir" in out and "bic" in out
    assert "CPA-RA" in out and "KS-RA" in out
    assert "xcv1000-bg560" in out


def test_explore_table(capsys, tmp_path):
    argv = (
        "explore", "--kernels", "fir", "--allocators", "FR-RA", "PR-RA",
        "--budgets", "8", "16", "--jobs", "1",
        "--cache-dir", str(tmp_path / "cache"),
    )
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert "explored 4 design points" in out
    assert "PR-RA" in out
    assert "4 points: 4 evaluated, 0 cache hits" in err

    # Resumed run: everything from cache, zero re-evaluations.
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert "0 evaluated, 4 cache hits (100%)" in err


def test_explore_cache_dir_implies_resume(capsys, tmp_path):
    argv = (
        "explore", "--kernels", "fir", "--allocators", "FR-RA", "NO-SR",
        "--budgets", "8", "--cache-dir", str(tmp_path / "cache"),
    )
    # A cache directory is reused by default.
    code, _, err = run_cli(capsys, *argv)
    assert code == 0
    assert "2 points: 2 evaluated, 0 cache hits" in err
    code, _, err = run_cli(capsys, *argv)
    assert code == 0
    assert "0 evaluated, 2 cache hits (100%)" in err
    # --fresh forces re-evaluation even with a populated cache.
    code, _, err = run_cli(capsys, *argv, "--fresh")
    assert code == 0
    assert "2 evaluated, 0 cache hits" in err
    # ... and the rewritten entries are still reusable afterwards.
    code, _, err = run_cli(capsys, *argv)
    assert code == 0
    assert "0 evaluated, 2 cache hits (100%)" in err


def test_explore_sharded_stitch(capsys, tmp_path):
    cache = str(tmp_path / "cache")
    base = (
        "explore", "--kernels", "fir", "mat", "--allocators",
        "FR-RA", "NO-SR", "--budgets", "8", "16", "--cache-dir", cache,
    )
    # Reference run into a separate cache: the full space, evaluated.
    code, full_out, _ = run_cli(
        capsys, *base[:-1], str(tmp_path / "other"), "--format", "json",
    )
    assert code == 0

    # Two disjoint shards share one cache directory...
    totals = []
    for shard in ("1/2", "2/2"):
        code, out, err = run_cli(capsys, *base, "--shard", shard)
        assert code == 0
        assert "shard " + shard in out
        assert "0 cache hits" in err  # disjoint shards never overlap
        totals.append(int(err.split(" points:")[0].split()[-1]))
    assert sum(totals) == 8

    # ...and the unsharded resume stitches the full set from cache,
    # bit-identical to the reference evaluation.
    code, out, err = run_cli(capsys, *base, "--format", "json")
    assert code == 0
    assert "8 points: 0 evaluated, 8 cache hits (100%)" in err
    assert json.loads(out)["records"] == json.loads(full_out)["records"]


def test_explore_bad_shard_spec(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["explore", "--kernels", "fir", "--shard", "3/2"])
    assert excinfo.value.code != 0


@pytest.mark.parametrize("seconds", ["0", "-1", "-0.5"])
def test_explore_rejects_a_non_positive_point_timeout(capsys, seconds):
    with pytest.raises(SystemExit) as excinfo:
        main(["explore", "--kernels", "fir", "--point-timeout", seconds])
    assert excinfo.value.code == 2
    assert "must be > 0 seconds" in capsys.readouterr().err


def test_explore_json(capsys):
    code, out, _ = run_cli(
        capsys, "explore", "--kernels", "mat", "--allocators", "NO-SR",
        "--budgets", "8", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["stats"]["total"] == 1
    assert doc["records"][0]["query"]["kernel"] == "mat"
    assert doc["records"][0]["cycles"] > 0


def test_explore_csv(capsys):
    code, out, _ = run_cli(
        capsys, "explore", "--kernels", "mat", "--allocators", "NO-SR",
        "--budgets", "8", "--format", "csv",
    )
    assert code == 0
    header, row = out.splitlines()[:2]
    assert header.startswith("kernel,allocator,budget")
    assert row.startswith("mat,NO-SR,8")


def test_unknown_command_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code != 0


@pytest.mark.parametrize("argv, message", [
    (("vhdl", "fir", "--budget", "1"),
     "budget 1 cannot cover the mandatory register of 3 references"),
    (("table1", "--budget", "2"),
     "budget 2 cannot cover the mandatory register of 3 references"),
    (("explore", "--jobs", "0"), "jobs must be >= 1, got 0"),
    (("explore", "--budgets", "-3"), "register budget must be >= 1, got -3"),
], ids=["vhdl-budget", "table1-budget", "explore-jobs", "explore-budgets"])
def test_domain_errors_print_one_line_without_a_traceback(
    capsys, argv, message
):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("repro: error: ") and message in err
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("dry_run", [(), ("--dry-run",)])
def test_explore_rejects_a_gap_report_without_opt_ra_before_the_sweep(
    capsys, tmp_path, dry_run
):
    cache = tmp_path / "cache"
    code, out, err = run_cli(
        capsys,
        "explore", "--kernels", "fir", "mat", "--allocators", "FR-RA",
        "NO-SR", "--budgets", "8", "16", "--cache-dir", str(cache),
        "--gap-report", str(tmp_path / "gap.csv"), *dry_run,
    )
    assert code == 1
    assert out == ""
    assert err.startswith("repro: error: --gap-report needs OPT-RA")
    assert not list(cache.glob("*.pack"))
    assert not (tmp_path / "gap.csv").exists()
