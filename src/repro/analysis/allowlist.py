"""Finding suppression by inline pragma.

A finding is suppressed only where it is raised: a
``# repro-lint: allow[CODE] reason`` comment on the flagged line (or the
line directly above it) suppresses the named code(s) at that site, with
the justification next to the code, e.g. a deliberately sequential fold
in a fused kernel::

    # repro-lint: allow[KRN002] order-sensitive scalar fold (bit-compat)
    for j, (start, stop) in enumerate(meta.slices):

The sanctioned site lists (RNG construction, wall-clock reads, process
boundaries) live in :class:`repro.analysis.config.LintConfig`.
"""

from __future__ import annotations

import re

#: Inline suppression comment: ``# repro-lint: allow[RNG001]`` or
#: ``# repro-lint: allow[KRN001,KRN002] free-text reason``.
PRAGMA_RE = re.compile(r"#\s*repro-lint:\s*allow\[([A-Za-z0-9_,\s]+)\]")


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
