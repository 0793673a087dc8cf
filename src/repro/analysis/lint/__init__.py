"""Rule-based static diagnostics over SYNL programs (see
docs/LINT.md for the rule catalog).

Public surface: :func:`lint_program` and :func:`lint_counts` plus
the result/diagnostic types; the rule registry ``RULES`` is importable for docs and tests.
"""

from repro.analysis.lint.core import (CHECKERS, LINT_VERSION, RULES,
                                      Diagnostic, LintContext,
                                      LintResult, Rule, Severity, Span,
                                      lint_counts, lint_program,
                                      region_key)
from repro.analysis.lint import race, rules  # noqa: F401  (register rules)

__all__ = [
    "CHECKERS",
    "Diagnostic",
    "LINT_VERSION",
    "LintContext",
    "LintResult",
    "RULES",
    "Rule",
    "Severity",
    "Span",
    "lint_counts",
    "lint_program",
    "region_key",
]
