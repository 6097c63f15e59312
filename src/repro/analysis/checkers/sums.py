"""Left-fold totals: ``SUM001``.

* ``SUM001`` — the builtin ``sum()``.  Python 3.12's ``sum`` compensates
  float rounding (Neumaier), so a float total recorded on 3.11 differs
  from the same seeded run's on 3.12, and a payload hash pinned on one
  interpreter fails on the other.  Fold with
  :func:`repro.utils.stats.left_sum` (``((0 + v0) + v1) + ...`` on every
  version); a sum whose terms are exact (integers) may instead carry a
  ``# repro-lint: allow[SUM001] <reason>`` pragma.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.base import FileChecker, FileContext, register
from repro.analysis.config import LintConfig
from repro.analysis.findings import ERROR, Finding, declare

SUM001 = declare(
    "SUM001", ERROR, "builtin sum() used (compensated on Python >= 3.12)"
)


@register
class SumChecker(FileChecker):
    """SUM001: totals are left folds on every Python."""

    name = "left-fold-sums"

    def check(self, ctx: FileContext, config: LintConfig) -> Iterable[Finding]:
        return [
            ctx.finding(
                SUM001,
                node,
                "builtin sum() compensates float rounding on Python >= 3.12, "
                "so totals differ between interpreters — use "
                "repro.utils.stats.left_sum",
                checker=self.name,
            )
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "sum"
            and not ctx.binds_name("sum")
        ]
