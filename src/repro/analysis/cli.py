"""The ``repro lint`` subcommand.

Exit codes: ``0`` clean (or warnings without ``--strict``), ``1``
findings that fail the build, ``2`` usage problems or a source file
that is not UTF-8.  CI runs
``repro lint --strict`` so warnings cannot accumulate silently.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.config import LintConfig
from repro.analysis.engine import run_lint
from repro.analysis.findings import CODES


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach ``repro lint`` flags to an (sub)parser."""
    parser.add_argument(
        "paths",
        nargs="*",
        help="root-relative files/directories to lint (default: the "
        "configured roots, i.e. src/)",
    )
    parser.add_argument(
        "--root",
        default=".",
        help="project root containing src/ (default: .)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="fail on warnings too (the CI mode)",
    )
    parser.add_argument(
        "--json",
        dest="as_json",
        action="store_true",
        help="emit the report as a JSON document on stdout",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="also write the JSON report to this file",
    )
    parser.add_argument(
        "--list-codes",
        action="store_true",
        help="print every declared finding code and exit",
    )


def run_lint_cli(args: argparse.Namespace) -> int:
    """Execute ``repro lint`` from parsed arguments; returns exit code."""
    if args.list_codes:
        for code in sorted(CODES):
            severity, summary = CODES[code]
            print(f"{code}  {severity:7s}  {summary}")
        return 0

    root = Path(args.root)
    try:
        report = run_lint(
            root,
            config=LintConfig(),
            paths=tuple(args.paths) if args.paths else None,
        )
    except ValueError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2

    document = report.to_dict()
    if args.output:
        Path(args.output).write_text(
            json.dumps(document, indent=2) + "\n", encoding="utf-8"
        )
    if args.as_json:
        print(json.dumps(document, indent=2))
    else:
        for line in report.format_lines():
            print(line)
    return 1 if report.failing(strict=args.strict) else 0
