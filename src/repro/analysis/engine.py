"""Lint engine: file discovery, checker dispatch, suppression, reports.

:func:`run_lint` is the single entry point used by both the CLI and the
tier-1 gate test: it walks the configured roots, parses each file once
into a shared :class:`~repro.analysis.base.FileContext`, runs every
registered file/project checker, then filters the raw findings through
inline pragmas.  The surviving findings land in a :class:`Report` that
renders both human lines and a JSON document.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

from repro.analysis import checkers as _checkers  # noqa: F401  (registers)
from repro.analysis.allowlist import pragma_codes
from repro.analysis.base import (
    FILE_CHECKERS,
    PROJECT_CHECKERS,
    FileContext,
)
from repro.analysis.config import LintConfig
from repro.analysis.findings import ERROR, Finding, make_finding
from repro.analysis.findings import PARSE001


class Project:
    """A linted source tree: discovered files + parsed-context cache."""

    def __init__(self, root: str | Path, roots: tuple[str, ...] = ("src",)):
        self.root = Path(root)
        self.roots = roots
        self._contexts: dict[str, FileContext | None] = {}
        self._parse_failures: list[Finding] = []

    def files(self) -> list[str]:
        """Root-relative forward-slash paths of every linted ``.py`` file."""
        found: set[str] = set()
        for rel in self.roots:
            base = self.root / rel
            if base.is_file() and base.suffix == ".py":
                found.add(base.relative_to(self.root).as_posix())
            elif base.is_dir():
                for path in base.rglob("*.py"):
                    found.add(path.relative_to(self.root).as_posix())
        return sorted(found)

    def context(self, path: str) -> FileContext | None:
        """The parsed context for a root-relative path (``None`` if absent
        or unparsable; parse failures are reported once as ``PARSE001``)."""
        if path not in self._contexts:
            self._contexts[path] = self._load(path)
        return self._contexts[path]

    def _load(self, path: str) -> FileContext | None:
        full = self.root / path
        if not full.is_file():
            return None
        source = full.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            self._parse_failures.append(
                make_finding(
                    PARSE001,
                    path,
                    exc.lineno or 1,
                    (exc.offset or 0) + 1,
                    f"syntax error: {exc.msg}",
                    checker="engine",
                )
            )
            return None
        return FileContext(path=path, source=source, tree=tree)

    @property
    def parse_failures(self) -> list[Finding]:
        return list(self._parse_failures)


@dataclass
class Report:
    """The outcome of one lint run."""

    findings: tuple[Finding, ...]
    suppressed: tuple[tuple[Finding, str], ...]
    files: tuple[str, ...]
    root: str = "."
    checkers: tuple[str, ...] = ()

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == ERROR]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity != ERROR]

    def failing(self, *, strict: bool = False) -> bool:
        """Whether this report should fail the build."""
        if strict:
            return bool(self.findings)
        return bool(self.errors)

    def to_dict(self) -> dict:
        """JSON-ready document (``repro lint --json``)."""
        return {
            "root": self.root,
            "files": len(self.files),
            "checkers": list(self.checkers),
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "suppressed": len(self.suppressed),
            "findings": [f.to_dict() for f in self.findings],
        }

    def format_lines(self) -> list[str]:
        """Human-readable report: findings then a one-line summary."""
        lines = [f.format() for f in self.findings]
        lines.append(
            f"repro lint: {len(self.files)} files, "
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s), "
            f"{len(self.suppressed)} suppressed"
        )
        return lines


def _suppressed_by_pragma(finding: Finding, project: Project) -> bool:
    ctx = project._contexts.get(finding.path)
    if ctx is None:
        return False
    return finding.code in pragma_codes(ctx.lines, finding.line)


def run_lint(
    root: str | Path = ".",
    *,
    config: LintConfig | None = None,
    paths: tuple[str, ...] | None = None,
) -> Report:
    """Lint the tree at ``root`` and return a :class:`Report`.

    ``paths`` overrides the configured roots (still root-relative).
    """
    root = Path(root)
    config = config or LintConfig()

    project = Project(root, paths if paths is not None else config.roots)
    files = tuple(project.files())

    file_checkers = [cls() for cls in FILE_CHECKERS]
    project_checkers = [cls() for cls in PROJECT_CHECKERS]

    raw: list[Finding] = []
    for path in files:
        ctx = project.context(path)
        if ctx is None:
            continue  # recorded as a PARSE001 parse failure
        for checker in file_checkers:
            raw.extend(checker.check(ctx, config))
    for checker in project_checkers:
        raw.extend(checker.check(project, config))
    raw.extend(project.parse_failures)

    kept: list[Finding] = []
    suppressed: list[tuple[Finding, str]] = []
    for finding in sorted(set(raw)):
        if _suppressed_by_pragma(finding, project):
            suppressed.append((finding, "pragma"))
        else:
            kept.append(finding)

    return Report(
        findings=tuple(kept),
        suppressed=tuple(suppressed),
        files=files,
        root=str(root),
        checkers=tuple(
            c.name for c in (*file_checkers, *project_checkers)
        ),
    )
