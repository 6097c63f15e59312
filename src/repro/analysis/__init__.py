"""``repro lint``: AST-based determinism & kernel-discipline analysis.

Everything this reproduction promises — 0-ulp fused kernels, seeded
fleet runs bit-identical across backends and worker counts — rests on
hand-maintained conventions: counter-based RNG streams, the
``private_stream`` derivation, array-native hot paths, a strict pipe
protocol between coordinator handles and worker processes.  This
package makes those disciplines machine-enforced: a stdlib-only
(``ast`` + ``symtable``) static-analysis framework with

* a visitor-based checker registry (:mod:`repro.analysis.checkers`),
* per-finding codes and severities (:mod:`repro.analysis.findings`),
* inline-pragma suppression (:mod:`repro.analysis.allowlist`) beside
  the sanctioned site lists of :class:`~repro.analysis.config.LintConfig`,
  and
* a JSON-reportable engine behind the ``repro lint`` CLI subcommand
  (:mod:`repro.analysis.engine`, :mod:`repro.analysis.cli`).

The shipped checkers and their finding codes are documented in the
README's "Static analysis" section and printable via
``repro lint --list-codes``.
"""

from __future__ import annotations

from repro.analysis.config import LintConfig, ProtocolSpec
from repro.analysis.engine import Project, Report, run_lint
from repro.analysis.findings import CODES, ERROR, WARNING, Finding

__all__ = [
    "CODES",
    "ERROR",
    "Finding",
    "LintConfig",
    "Project",
    "ProtocolSpec",
    "Report",
    "WARNING",
    "run_lint",
]
