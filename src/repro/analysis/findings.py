"""Finding records and the central code registry.

Every checker reports :class:`Finding` values carrying a stable code
(``RNG001``, ``MP002``, ...), a severity, and a precise anchor
(path / line / column / enclosing scope).  Codes are declared once via
:func:`declare` so the CLI can list them (``repro lint --list-codes``)
and the README can document exactly what ships.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Severities.  ``error`` findings always fail the lint; ``warning``
#: findings fail only under ``--strict`` (the CI mode).
ERROR = "error"
WARNING = "warning"

#: code -> (severity, one-line summary); populated by :func:`declare`.
CODES: dict[str, tuple[str, str]] = {}


def declare(code: str, severity: str, summary: str) -> str:
    """Register a finding code; returns it so modules can alias it."""
    if severity not in (ERROR, WARNING):
        raise ValueError(f"unknown severity {severity!r}")
    if code in CODES and CODES[code] != (severity, summary):
        raise ValueError(f"finding code {code!r} declared twice")
    CODES[code] = (severity, summary)
    return code


#: Engine-level code: a file the lint was pointed at does not parse.
PARSE001 = declare("PARSE001", ERROR, "file does not parse as Python")


@dataclass(frozen=True, order=True)
class Finding:
    """One analyzer finding, anchored to a source location.

    The field order (path, line, col, code) doubles as the report sort
    order.  ``scope`` is the dotted enclosing def/class path
    (``"ShardWorker._recv"``), shown with the finding in the report.
    """

    path: str
    line: int
    col: int
    code: str
    severity: str
    message: str
    checker: str = ""
    scope: str = ""

    def to_dict(self) -> dict:
        """Plain-dict form for the JSON report."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "checker": self.checker,
            "scope": self.scope,
        }

    def format(self) -> str:
        """One human-readable report line."""
        where = f"{self.path}:{self.line}:{self.col}"
        scope = f" [in {self.scope}]" if self.scope else ""
        return f"{where} {self.code} {self.severity}: {self.message}{scope}"


def make_finding(
    code: str,
    path: str,
    line: int,
    col: int,
    message: str,
    *,
    checker: str = "",
    scope: str = "",
) -> Finding:
    """Build a finding, pulling the severity from the code registry."""
    try:
        severity, _ = CODES[code]
    except KeyError:
        raise ValueError(f"finding code {code!r} was never declared") from None
    return Finding(
        path=path,
        line=line,
        col=col,
        code=code,
        severity=severity,
        message=message,
        checker=checker,
        scope=scope,
    )
