"""``repro.lint`` — static cache-soundness & determinism analysis.

An AST-based analyzer over the evaluation plane with four checks:

* ``memo-keys`` — every memo/cache key captures every evaluation knob
  that reaches the memoized computation (the invariant the reverted
  PR 6 coverage-key bug violated);
* ``determinism`` — no wall clocks, unseeded RNGs, environment reads,
  ``id()`` keys or unordered set iteration in the evaluation cone;
* ``version-cone`` — no dynamic imports or hidden module state that
  the import-graph cone behind the cache's code stamp cannot see;
* ``worker-safety`` — pool work units pickle cleanly and share no
  hidden per-process state.

CLI: ``repro lint [--check NAME] [--format json] [--strict]``; CI runs
``repro lint --strict`` self-clean over ``src/repro``.  See
``docs/lint.md`` for the check catalog and suppression syntax.
"""

from repro.lint.framework import (
    CHECKS,
    Finding,
    LintCheck,
    LintContext,
    LintReport,
    register_check,
    run_lint,
)
from repro.lint.report import render_json, render_text

# Importing the check modules registers them in CHECKS.
from repro.lint import determinism, memo_keys, version_cone, worker_safety  # noqa: F401,E402

__all__ = [
    "CHECKS",
    "Finding",
    "LintCheck",
    "LintContext",
    "LintReport",
    "register_check",
    "run_lint",
    "render_json",
    "render_text",
]
