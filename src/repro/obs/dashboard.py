"""``repro top``: a curses-free text dashboard over a trace file.

Renders fleet health — energy, SLA violations, migration rate, cycle
latency percentiles, and a per-span time breakdown — from the Chrome
trace JSONL a ``--trace`` run writes.  Two modes:

* ``--replay`` reads the file once, renders one frame, and exits (what
  the tests drive);
* the default *follow* mode re-reads the growing file every
  ``--interval`` seconds and repaints with a plain ANSI home+clear —
  the coordinator flushes its tracer once per cycle, so a dashboard
  pointed at a live run updates as cycles complete.

Everything is derived from the trace events alone (complete ``"X"``
spans and ``"C"`` counter samples), so the dashboard needs no socket
into the running process and works identically on a recorded trace.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path
from typing import Any

from repro.obs.metrics import percentile
from repro.obs.trace import read_trace
from repro.utils.stats import left_sum
from repro.utils.tables import render_table

#: ANSI: cursor home + clear-to-end (repaint without curses).
_CLEAR = "\x1b[H\x1b[2J"


def summarize(events: list[dict[str, Any]]) -> dict[str, Any]:
    """Aggregate raw trace events into the dashboard's view model."""
    spans: dict[str, list[float]] = {}
    counters: dict[str, list[float]] = {}
    processes: dict[int, str] = {}
    for event in events:
        ph = event.get("ph")
        if ph == "X":
            spans.setdefault(event.get("name", "?"), []).append(
                float(event.get("dur", 0)) / 1e3  # us -> ms
            )
        elif ph == "C":
            counters.setdefault(event.get("name", "?"), []).append(
                float(event.get("args", {}).get("value", 0.0))
            )
        elif ph == "M" and event.get("name") == "process_name":
            processes[int(event.get("pid", 0))] = event.get("args", {}).get(
                "name", "?"
            )
    cycles = spans.get("fleet/cycle", [])
    return {
        "spans": spans,
        "counters": counters,
        "processes": processes,
        "cycle_ms": {
            "count": len(cycles),
            "p50": percentile(cycles, 50.0),
            "p90": percentile(cycles, 90.0),
            "p99": percentile(cycles, 99.0),
        },
    }


def _series_total(view: dict[str, Any], name: str) -> float:
    """Sum of one per-cycle counter series (each sample is one cycle)."""
    return float(left_sum(view["counters"].get(name, [])))


def _series_last(view: dict[str, Any], name: str) -> float:
    series = view["counters"].get(name, [])
    return float(series[-1]) if series else 0.0


def render(path, view: dict[str, Any]) -> str:
    """One dashboard frame as plain text."""
    cycles = view["cycle_ms"]
    n_cycles = max(1, cycles["count"])
    fleet_rows = [
        ["cycles seen", cycles["count"]],
        ["chains (last cycle)", _series_last(view, "fleet/chains")],
        ["fleet energy (J)", _series_total(view, "fleet/energy_j")],
        ["SLA violations", _series_total(view, "fleet/sla_violations")],
        [
            "migrations (total / per cycle)",
            f"{_series_total(view, 'fleet/migrations'):.0f} / "
            f"{_series_total(view, 'fleet/migrations') / n_cycles:.2f}",
        ],
        [
            "cycle latency p50/p90/p99 (ms)",
            f"{cycles['p50']:.2f} / {cycles['p90']:.2f} / {cycles['p99']:.2f}",
        ],
    ]
    span_rows = [
        [name, len(durs), left_sum(durs), percentile(durs, 50.0), max(durs)]
        for name, durs in sorted(
            view["spans"].items(), key=lambda kv: -left_sum(kv[1])
        )
    ]
    procs = ", ".join(
        f"{pid}:{name}" for pid, name in sorted(view["processes"].items())
    )
    parts = [
        render_table(
            ["metric", "value"],
            fleet_rows,
            title=f"fleet top — {path}",
        ),
        render_table(
            ["span", "count", "total ms", "p50 ms", "max ms"],
            span_rows,
            title="where the time goes",
        ),
    ]
    if procs:
        parts.append(f"processes: {procs}")
    return "\n".join(parts)


def add_top_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach ``repro top`` flags to a (sub)parser."""
    parser.add_argument(
        "trace", help="Chrome-trace JSONL file (a run's --trace output)"
    )
    parser.add_argument(
        "--replay",
        action="store_true",
        help="render one frame from the recorded trace and exit",
    )
    parser.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="follow-mode refresh period in seconds (default 2.0)",
    )
    parser.add_argument(
        "--refreshes",
        type=int,
        default=0,
        help="follow mode: stop after this many repaints (0 = until ^C)",
    )


def run_top_cli(args: argparse.Namespace) -> int:
    """Execute ``repro top`` from parsed arguments; returns exit code."""
    path = Path(args.trace)
    if not path.exists():
        print(f"repro top: no trace file {path}")
        return 2
    if args.interval <= 0:
        raise ValueError("--interval must be positive")
    if args.replay:
        print(render(path, summarize(read_trace(path))))
        return 0
    repaints = 0
    try:
        while True:
            frame = render(path, summarize(read_trace(path)))
            print(f"{_CLEAR}{frame}", flush=True)
            repaints += 1
            if args.refreshes and repaints >= args.refreshes:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
