"""Finding suppression by inline pragma, and the lint policy file.

A finding is suppressed only where it is raised: a
``# repro-lint: allow[CODE] reason`` comment on the flagged line (or the
line directly above it) suppresses the named code(s) at that site, with
the justification next to the code, e.g. a deliberately sequential fold
in a fused kernel::

    # repro-lint: allow[KRN002] order-sensitive scalar fold (bit-compat)
    for j, (start, stop) in enumerate(meta.slices):

``analysis_allow.toml`` at the project root carries only policy
sections extending the checker site lists (see
:meth:`repro.analysis.config.LintConfig.with_policy`); an ``[[allow]]``
suppression entry is refused.  The file is a deliberately small TOML
subset so the analyzer stays stdlib-only on every supported Python
(``tomllib`` is 3.11+): comments, ``[section]`` headers and single-line
``key = value`` pairs whose values are JSON-compatible scalars or
string arrays (``"s"``, ``3``, ``true``, ``["a", "b"]``).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

#: Inline suppression comment: ``# repro-lint: allow[RNG001]`` or
#: ``# repro-lint: allow[KRN001,KRN002] free-text reason``.
PRAGMA_RE = re.compile(r"#\s*repro-lint:\s*allow\[([A-Za-z0-9_,\s]+)\]")

_KEY_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_-]*)\s*=\s*(.+)$")


@dataclass
class Allowlist:
    """Parsed policy file: the checker site-list extensions by section."""

    policy: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    source: str = "<none>"


def _parse_value(raw: str, lineno: int, source: str) -> Any:
    """Parse a scalar/array value (the JSON-compatible TOML subset)."""
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        raise ValueError(
            f"{source}:{lineno}: cannot parse value {raw!r} (the allowlist "
            "accepts JSON-style strings, numbers, booleans and string arrays)"
        ) from None


def parse_allowlist(text: str, *, source: str = "<string>") -> Allowlist:
    """Parse policy-file text into its sections."""
    policy: dict[str, dict[str, Any]] = {}
    current: dict[str, Any] | None = None  # table the next keys land in

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[["):
            raise ValueError(
                f"{source}:{lineno}: table arrays such as {stripped!r} are not "
                "supported; suppress a finding with an inline "
                "'# repro-lint: allow[CODE] reason' pragma at its site"
            )
        if stripped.startswith("[") and stripped.endswith("]"):
            name = stripped[1:-1].strip()
            current = policy.setdefault(name, {})
            continue
        match = _KEY_RE.match(stripped)
        if match is None:
            raise ValueError(f"{source}:{lineno}: cannot parse line {stripped!r}")
        if current is None:
            raise ValueError(
                f"{source}:{lineno}: key {match.group(1)!r} outside any [section]"
            )
        current[match.group(1)] = _parse_value(match.group(2).strip(), lineno, source)
    return Allowlist(policy=policy, source=source)


def load_allowlist(path: str | Path) -> Allowlist:
    """Read and parse an allowlist file."""
    path = Path(path)
    return parse_allowlist(path.read_text(encoding="utf-8"), source=str(path))


def pragma_codes(lines: list[str], line: int) -> set[str]:
    """Codes suppressed at ``line`` (1-based) by an inline pragma.

    A pragma counts when it sits on the flagged line itself or on the
    line directly above (for statements too long to share a line with
    their justification).
    """
    codes: set[str] = set()
    for lineno in (line, line - 1):
        if 1 <= lineno <= len(lines):
            match = PRAGMA_RE.search(lines[lineno - 1])
            if match:
                codes.update(
                    c.strip() for c in match.group(1).split(",") if c.strip()
                )
    return codes
