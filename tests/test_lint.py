"""``repro lint``: the fixture corpus pins every check's exact findings.

Three layers:

* framework unit tests (suppression parsing, AST cache, check registry,
  knob discovery over the real tree);
* the fixture corpus under ``tests/lint_fixtures/lintfix`` — one module
  per positive/negative example, with the *exact* expected findings
  (check, code, line) pinned, including the reverted-PR-6-shaped
  ``missing_key`` module;
* the self-clean contract: ``repro lint --strict`` over the shipped
  ``src/repro`` tree produces zero unsuppressed findings, and every
  suppression carries a justification.
"""

import contextlib
import io
import json
from collections import Counter
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.lint import CHECKS, run_lint
from repro.lint.framework import (
    FALLBACK_KNOBS,
    LintContext,
    _load_unit,
    _parse_suppressions,
)

FIXTURES = Path(__file__).parent / "lint_fixtures" / "lintfix"


def fixture_report(checks=None):
    return run_lint(root=FIXTURES, package="lintfix", checks=checks)


def triples(report, path):
    """(check, code, line) per finding of one fixture module, sorted."""
    return [
        (f.check, f.code, f.line)
        for f in report.findings
        if f.path == f"lintfix/{path}"
    ]


# -- framework ---------------------------------------------------------------


def test_registered_checks():
    assert sorted(CHECKS) == [
        "determinism", "memo-keys", "version-cone", "worker-safety",
    ]


def test_unknown_check_rejected():
    with pytest.raises(ReproError, match="unknown lint check"):
        run_lint(root=FIXTURES, package="lintfix", checks=["no-such-check"])


def test_suppression_parsing():
    src = "\n".join([
        "x = 1  # repro-lint: ok determinism:id-key -- guarded by is",
        "# repro-lint: ok-file memo-keys",
        "# repro-lint: ok determinism:env-read, version-cone -- why not",
    ])
    supps = _parse_suppressions(src)
    assert [s.line for s in supps] == [1, 2, 3]
    assert supps[0].specs == (("determinism", "id-key"),)
    assert supps[0].justification == "guarded by is"
    assert not supps[0].file_level
    assert supps[1].file_level and supps[1].justification == ""
    assert supps[2].specs == (
        ("determinism", "env-read"), ("version-cone", None),
    )


def test_ast_cache_shared_across_runs():
    path = FIXTURES / "nondet.py"
    assert _load_unit("lintfix.nondet", path) is _load_unit(
        "lintfix.nondet", path
    )


def test_knob_discovery_real_tree():
    # One evaluation path: the shipped chain threads no flag knobs, so
    # memo-keys has nothing to police until someone adds one.
    context = LintContext()
    assert context.knobs() == frozenset()
    maps = {(m.module, m.name) for m in context.dispatch_maps()}
    assert ("repro.kernels.registry", "KERNEL_FACTORIES") in maps
    assert ("repro.core.pipeline", "_ALLOCATORS") in maps


def _chain_tree(root, flags):
    package = root / "chainpkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    params = "".join(f", {flag}=True" for flag in flags)
    (package / "evaluate.py").write_text(
        f"def evaluate_query(query{params}):\n    return query\n\n\n"
        f"def design_for(query, context=None{params}):\n    return query\n"
    )
    return LintContext(root=root, package="chainpkg")


def test_knob_discovery_follows_the_chain(tmp_path):
    # A flag threaded through two chain functions is a knob ...
    assert _chain_tree(tmp_path / "a", ["batch"]).knobs() == {"batch"}
    # ... and a chain without flags has none: no fallback set.
    assert _chain_tree(tmp_path / "b", []).knobs() == frozenset()


def test_knob_fallback_on_fixture_tree():
    context = LintContext(root=FIXTURES, package="lintfix")
    assert context.knobs() == FALLBACK_KNOBS
    # No lintfix.explore.evaluate -> the cone is the whole tree.
    assert context.cone() == frozenset(context.units())


# -- the fixture corpus: exact findings per module ---------------------------


def test_missing_key_flags_exactly_the_pr6_shape():
    report = fixture_report(checks=["memo-keys"])
    findings = [f for f in report.findings if f.check == "memo-keys"]
    assert [(f.path, f.code, f.line) for f in findings] == [
        ("lintfix/missing_key.py", "missing-knob", 12),
    ]
    assert "'ladder'" in findings[0].message
    # batch/engine reach the key, so only ladder is reported.
    assert "'batch'" not in findings[0].message


def test_complete_key_is_clean():
    report = fixture_report()
    assert triples(report, "complete_key.py") == []
    assert triples(report, "dispatch.py") == []
    assert triples(report, "plugins_a.py") == []
    assert triples(report, "plugins_b.py") == []


def test_nondet_one_finding_per_code():
    assert triples(fixture_report(), "nondet.py") == [
        ("determinism", "wall-clock", 9),
        ("determinism", "unseeded-random", 13),
        ("determinism", "env-read", 17),
        ("determinism", "id-key", 21),
        ("determinism", "set-iteration", 27),
        ("determinism", "unordered-reduction", 33),
    ]


def test_dynamic_cone_findings():
    assert triples(fixture_report(), "dynamic_cone.py") == [
        ("version-cone", "mutable-global", 9),
        ("version-cone", "dynamic-import", 10),
        ("version-cone", "dynamic-import", 11),
    ]


def test_wholesale_findings():
    assert triples(fixture_report(), "wholesale.py") == [
        ("version-cone", "wholesale-plugin-use", 9),
        ("version-cone", "wholesale-plugin-use", 13),
        ("version-cone", "late-registration", 17),
    ]


def test_pool_unsafe_findings():
    report = fixture_report()
    assert triples(report, "pool_unsafe.py") == [
        ("worker-safety", "mutable-global-state", 8),
        ("worker-safety", "lambda-to-pool", 13),
        ("worker-safety", "local-callable-to-pool", 18),
        ("worker-safety", "bound-method-to-pool", 19),
    ]
    bound = [
        f for f in report.findings if f.code == "bound-method-to-pool"
    ]
    assert [f.severity for f in bound] == ["warning"]


def test_bare_except_flagged_in_pool_driving_module():
    assert triples(fixture_report(), "bare_except.py") == [
        ("worker-safety", "no-bare-except", 12),
    ]
    # Modules that never touch pool machinery are exempt: nondet.py has
    # no pool imports/submissions, so its handlers are out of scope.
    report = fixture_report(checks=["worker-safety"])
    assert not [
        f for f in report.findings
        if f.code == "no-bare-except" and f.path != "lintfix/bare_except.py"
    ]


def test_sqlite_module_joins_the_cone():
    assert triples(fixture_report(), "sqlite_conn.py") == [
        ("worker-safety", "sqlite-connection-at-import", 11),
        ("worker-safety", "mutable-global-state", 17),
    ]
    # Modules without sqlite3 stay out of the extended cone: the
    # non-cone fixtures with module containers are not re-flagged.
    report = fixture_report(checks=["worker-safety"])
    flagged = {
        f.path for f in report.findings
        if f.code == "sqlite-connection-at-import"
    }
    assert flagged == {"lintfix/sqlite_conn.py"}


def test_suppression_semantics():
    report = fixture_report()
    by_line = {
        f.line: f
        for f in report.findings
        if f.path == "lintfix/suppressed.py"
    }
    justified = by_line[10]
    assert justified.suppressed
    assert justified.justification == (
        "envelope metadata only; never keys a cache entry"
    )
    bare_hygiene = by_line[14]
    assert (bare_hygiene.check, bare_hygiene.code) == (
        "framework", "bare-suppression",
    )
    assert not bare_hygiene.suppressed
    # The bare comment still silences the wall-clock it covers...
    assert by_line[15].suppressed
    # ...but the corpus as a whole does not pass: hygiene keeps it red.
    assert len(report.unsuppressed) == 21
    assert len(report.findings) == 23


def test_check_filter_still_runs_hygiene():
    report = fixture_report(checks=["memo-keys"])
    assert [(f.check, f.code) for f in report.findings] == [
        ("memo-keys", "missing-knob"),
        ("framework", "bare-suppression"),
    ]


# -- CLI ---------------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def self_clean_run():
    """One ``repro lint --strict --format json`` run over the shipped tree,
    shared by the self-clean tests so tier-1 runs the analyzer once."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["lint", "--strict", "--format", "json"])
    return code, json.loads(buf.getvalue())


def test_shipped_tree_is_lint_clean(self_clean_run):
    _, doc = self_clean_run
    assert doc["unsuppressed"] == 0
    # Deliberate designs are suppressed, never silently dropped — and
    # every suppression records why it is sound.  The designs are pinned
    # by file and code, so a finding that stops firing shows up here.
    designs = Counter(
        (f["path"], f"{f['check']}:{f['code']}") for f in doc["findings"]
    )
    assert designs == {
        ("repro/explore/context.py", "determinism:id-key"): 5,
        ("repro/explore/context.py", "version-cone:mutable-global"): 2,
    }
    assert all(f["justification"] for f in doc["findings"] if f["suppressed"])


def test_cli_strict_self_clean(self_clean_run):
    code, doc = self_clean_run
    assert code == 0
    assert doc["unsuppressed"] == 0


def test_cli_list(capsys):
    code, out, _ = run_cli(capsys, "lint", "--list")
    assert code == 0
    for name in CHECKS:
        assert name in out


def test_cli_fixtures_strict_fails_with_json(capsys, tmp_path):
    out_path = tmp_path / "lint.json"
    code, out, _ = run_cli(
        capsys, "lint", "--root", str(FIXTURES), "--package", "lintfix",
        "--strict", "--format", "json", "--out", str(out_path),
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["unsuppressed"] == 21
    assert json.loads(out_path.read_text()) == doc


def test_cli_unknown_check_exits_2_listing_the_checks(capsys):
    code, out, err = run_cli(capsys, "lint", "--check", "bogus")
    assert code == 2 and out == ""
    assert "bogus" in err
    for name in CHECKS:
        assert name in err


def test_cli_check_filter(capsys):
    code, out, _ = run_cli(
        capsys, "lint", "--root", str(FIXTURES), "--package", "lintfix",
        "--check", "worker-safety",
    )
    assert code == 0  # not strict
    assert "lambda-to-pool" in out
    assert "missing-knob" not in out
