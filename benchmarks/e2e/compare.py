#!/usr/bin/env python3
"""Compare two end-to-end results files metric by metric.

    python3 benchmarks/e2e/compare.py A/results.json B/results.json

``A`` is the baseline (the parent commit, or the first of two sets of
runs of the same code), ``B`` the candidate.  For every workload in both
files and every end-to-end metric in ``BENCHMARK.json`` it prints one
row with a verdict from the metric's bound and direction:

* ``unresolved`` — the spread of either side's statistic is wider than
  the bound, so a change within it cannot be told from noise;
* ``worse`` / ``better`` — B moved past the bound in that direction;
* ``same`` — B is within the bound of A.

Payload hashes are compared too; a differing hash means the two runs
did not compute the same results.  The exit code is 1 if any row is
``worse``, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def verdict(a: float, b: float, *, better: str, bound: float, spread: float) -> tuple[str, float]:
    """(verdict, gain): gain is B's change relative to A (every end-to-end
    metric is positive), signed so that positive is better."""
    gain = (b - a) / a if better == "higher" else (a - b) / a
    if spread > bound:
        return "unresolved", gain
    if gain < -bound:
        return "worse", gain
    if gain > bound:
        return "better", gain
    return "same", gain


def compare(a: dict, b: dict, end_to_end: list[dict]) -> list[dict]:
    """One row per (workload, metric) present in both results files."""
    rows = []
    for workload, sides in a["workloads"].items():
        if workload not in b["workloads"]:
            continue
        ra, rb = sides["untraced"], b["workloads"][workload]["untraced"]
        for metric in end_to_end:
            name = metric["name"]
            if name not in ra["metrics"] or name not in rb["metrics"]:
                continue
            spread = max(ra.get("spreads", {}).get(name, 0.0), rb.get("spreads", {}).get(name, 0.0))
            result, gain = verdict(
                ra["metrics"][name],
                rb["metrics"][name],
                better=metric["better"],
                bound=metric["bound"],
                spread=spread,
            )
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "a": ra["metrics"][name],
                    "b": rb["metrics"][name],
                    "gain": gain,
                    "spread": spread,
                    "bound": metric["bound"],
                    "verdict": result,
                }
            )
        rows.append(
            {
                "workload": workload,
                "metric": "hash",
                "a": ra.get("hash"),
                "b": rb.get("hash"),
                "verdict": "same" if ra.get("hash") == rb.get("hash") else "differs",
            }
        )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two end-to-end results files.")
    parser.add_argument("a", help="baseline results.json")
    parser.add_argument("b", help="candidate results.json")
    args = parser.parse_args(argv)
    end_to_end = json.loads(BENCHMARK.read_text())["end_to_end"]
    rows = compare(
        json.loads(Path(args.a).read_text()), json.loads(Path(args.b).read_text()), end_to_end
    )
    for row in rows:
        if row["metric"] == "hash":
            print(f"{row['workload']:<13} {'hash':<28} {row['a']} {row['b']}  {row['verdict']}")
            continue
        print(
            f"{row['workload']:<13} {row['metric']:<28} {row['a']:>14.6g} {row['b']:>14.6g} "
            f"{100 * row['gain']:+8.2f}%  spread {100 * row['spread']:5.2f}% "
            f"bound {100 * row['bound']:5.1f}%  {row['verdict']}"
        )
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
