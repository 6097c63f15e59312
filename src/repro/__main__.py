"""Command-line entry point: scenario runs, sweeps, and figure harnesses.

Subcommands::

    python -m repro run <spec.json | preset>   # one declarative scenario
    python -m repro sweep <specs.json | preset> --jobs 4 --out-dir results
    python -m repro scan <spec.json | preset>  # vectorized knob-grid scan
    python -m repro fleet <spec.json | preset> # sharded multi-cluster fleet
    python -m repro fig <id> [--quick]         # a paper-figure harness
    python -m repro lint [--strict] [--json]   # determinism static analysis
    python -m repro top <trace> [--replay]     # dashboard over a --trace file
    python -m repro list                       # everything runnable

Figure ids are the paper's figures (fig1..fig4, fig6..fig11) plus the
ablations (ablation-per, ablation-apex, ...).  For backward
compatibility the figure id may be given without the ``fig`` subcommand:
``python -m repro fig9 --quick`` still works.

Scenario specs are JSON files (see ``repro.scenario.ScenarioSpec``) or
named presets (``greennfv-maxt``, ``baseline``, ...); sweeps take a JSON
file holding a list of spec objects or a sweep preset (``comparison``,
``rules``).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from repro.experiments.registry import EXPERIMENTS, QUICK_BUDGETS
from repro.scenario import (
    CHAINS,
    CONTROLLERS,
    GRIDS,
    SCAN_OBJECTIVES,
    SCENARIOS,
    SLAS,
    SWEEPS,
    TRAFFIC,
    ScenarioSpec,
    SweepRunner,
    quick_spec,
    run,
    scan_knob_grid,
    scan_report,
)
from repro.utils.tables import render_table

_SUBCOMMANDS = ("run", "sweep", "scan", "fleet", "fig", "lint", "top", "list")


def _tracing(trace_path):
    """Context manager arming :mod:`repro.obs` for one CLI invocation.

    A no-op (instrumentation stays compiled out) when ``trace_path`` is
    falsy; otherwise spans/metrics stream to the given Chrome-trace
    JSONL file and are flushed/closed on the way out, crash included.
    """
    import contextlib

    if not trace_path:
        return contextlib.nullcontext()
    from repro import obs

    @contextlib.contextmanager
    def _armed():
        obs.enable(trace_path=trace_path)
        try:
            yield
        finally:
            obs.disable()

    return _armed()


def _load_spec(source: str) -> ScenarioSpec:
    """Resolve a spec source: a JSON file path or a scenario preset id."""
    if source in SCENARIOS:
        return SCENARIOS.get(source)()
    path = Path(source)
    if path.exists():
        return ScenarioSpec.load(path)
    raise SystemExit(
        f"error: {source!r} is neither a spec file nor a scenario preset; "
        f"presets: {', '.join(SCENARIOS.names())}"
    )


def _load_sweep(source: str) -> list[ScenarioSpec]:
    """Resolve a sweep source: a JSON list file or a sweep preset id."""
    if source in SWEEPS:
        return SWEEPS.get(source)()
    path = Path(source)
    if path.exists():
        data = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(data, list):
            raise SystemExit(
                f"error: {source} must contain a JSON list of scenario specs"
            )
        return [ScenarioSpec.from_dict(d) for d in data]
    raise SystemExit(
        f"error: {source!r} is neither a specs file nor a sweep preset; "
        f"presets: {', '.join(SWEEPS.names())}"
    )


def _print_result_summary(result) -> None:
    """One-run summary table on stdout."""
    m = result.metrics
    print(
        render_table(
            ["metric", "value"],
            [
                ["controller", result.spec.controller],
                ["SLA", result.spec.sla],
                ["mean throughput (Gbps)", m["mean_throughput_gbps"]],
                ["total energy (J)", m["total_energy_j"]],
                ["mean power (W)", m["mean_power_w"]],
                ["T/E (Gbps/kJ)", m["energy_efficiency"]],
                ["SLA satisfied", f"{m['sla_satisfied_frac']:.0%}"],
                ["wall clock (s)", result.elapsed_s],
            ],
            title=f"scenario {result.spec.name!r}",
        )
    )


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    if args.seed is not None:
        spec = spec.with_updates(seed=args.seed)
    if args.quick:
        spec = quick_spec(spec)
    with _tracing(args.trace):
        result = run(spec, out_path=args.out)
    _print_result_summary(result)
    if args.out:
        print(f"\n(result written to {args.out})")
    if args.trace:
        print(f"(trace written to {args.trace}; view with 'repro top' "
              "or https://ui.perfetto.dev)")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    specs = _load_sweep(args.specs)
    if args.quick:
        specs = [quick_spec(s) for s in specs]
    runner = SweepRunner(specs, out_dir=args.out_dir, processes=args.jobs)
    results = runner.run()
    print(
        render_table(
            ["scenario", "controller", "T (Gbps)", "E (J)", "T/E (Gbps/kJ)", "SLA"],
            runner.summary_rows(),
            title=f"sweep: {len(results)} scenarios",
        )
    )
    if args.out_dir:
        print(f"\n({len(results)} artifacts written to {args.out_dir}/)")
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    if args.top < 1:
        raise ValueError("--top must be >= 1")
    if args.loads is not None and not all(
        math.isfinite(l) and l >= 0 for l in args.loads
    ):
        raise ValueError("--loads must be finite and non-negative")
    if args.packet_bytes is not None and not all(
        math.isfinite(p) and p > 0 for p in args.packet_bytes
    ):
        raise ValueError("--packet-bytes must be finite and positive")
    grid = GRIDS.get(args.grid)()
    packet_bytes = args.packet_bytes
    if packet_bytes is not None and len(packet_bytes) == 1:
        packet_bytes = packet_bytes[0]
    telemetry = scan_knob_grid(
        spec, grid, offered_grid=args.loads, packet_bytes=packet_bytes
    )
    payload = scan_report(
        spec, grid, telemetry, objective=args.objective, top=args.top,
        min_delivery=args.min_delivery,
    )
    rows = [
        [
            r["rank"],
            r["knobs"]["cpu_share"],
            r["knobs"]["cpu_freq_ghz"],
            r["knobs"]["llc_fraction"],
            r["knobs"]["dma_mb"],
            r["knobs"]["batch_size"],
            r["score"],
            r["mean_throughput_gbps"],
            r["mean_energy_j"],
        ]
        for r in payload["results"]
    ]
    print(
        render_table(
            ["#", "share", "GHz", "llc", "dma MB", "batch", "score", "T (Gbps)", "E (J)"],
            rows,
            title=(
                f"scan {spec.name!r}: top {len(rows)} of {payload['grid_size']} "
                f"candidates by {args.objective}"
            ),
        )
    )
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"\n(scan artifact written to {args.out})")
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.fleet import run_fleet

    spec = _load_spec(args.spec)
    if args.seed is not None:
        spec = spec.with_updates(seed=args.seed)
    if args.quick:
        spec = quick_spec(spec)
    with _tracing(args.trace):
        result = run_fleet(
            spec,
            backend=args.backend,
            cycles=args.cycles,
            placement=args.placement,
            out_path=args.out,
        )
    t = result.totals
    fleet = result.fleet
    shards = fleet["topology"]["shards"]
    print(
        render_table(
            ["metric", "value"],
            [
                ["backend", fleet["backend"]],
                ["placement", fleet["placement"]],
                ["shards", len(shards)],
                ["total nodes", sum(s["nodes"] for s in shards)],
                ["intervals", t["intervals"]],
                ["final chains", t["final_chains"]],
                ["mean throughput (Gbps)", t["mean_throughput_gbps"]],
                ["total energy (J)", t["energy_j"]],
                ["  migration share (J)", t["migration_energy_j"]],
                ["mean power (W)", t["mean_power_w"]],
                ["T/E (Gbps/kJ)", t["energy_efficiency"]],
                ["SLA violations", t["sla_violations"]],
                ["migrations", t["migrations"]],
                ["  routed hops", t["migration_hops"]],
                ["churn (+/-)", f"{t['arrivals']}/{t['departures']}"],
                ["wall clock (s)", result.elapsed_s],
            ],
            title=f"fleet {spec.name!r}",
        )
    )
    if args.out:
        print(f"\n(fleet artifact written to {args.out})")
    if args.trace:
        print(f"(trace written to {args.trace}; view with 'repro top' "
              "or https://ui.perfetto.dev)")
    return 0


def _cmd_fig(args: argparse.Namespace) -> int:
    if args.id == "list":  # legacy spelling: `python -m repro list`
        return _cmd_list(args)
    if args.id not in EXPERIMENTS:
        print(
            f"unknown experiment {args.id!r}; "
            f"options: {', '.join(sorted(EXPERIMENTS))}",
            file=sys.stderr,
        )
        return 2
    kwargs = QUICK_BUDGETS.get(args.id, {}) if args.quick else {}
    _, report = EXPERIMENTS[args.id](**kwargs)
    text = report.render()
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"\n(report written to {args.out})")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    # Deferred import: the analyzer is pure stdlib but there is no reason
    # to parse source trees just to run a scenario.
    from repro.analysis.cli import run_lint_cli

    return run_lint_cli(args)


def _cmd_top(args: argparse.Namespace) -> int:
    # Deferred import: the dashboard only matters when asked for.
    from repro.obs.dashboard import run_top_cli

    return run_top_cli(args)


def _cmd_list(args: argparse.Namespace) -> int:
    print("available experiments:")
    for name in sorted(EXPERIMENTS):
        print(f"  {name}")
    print("\nscenario presets (run):")
    for name in SCENARIOS:
        print(f"  {name}")
    print("\nsweep presets (sweep):")
    for name in SWEEPS:
        print(f"  {name}")
    print("\nregistries:")
    print(f"  controllers: {', '.join(CONTROLLERS.names())}")
    print(f"  SLAs:        {', '.join(SLAS.names())}")
    print(f"  chains:      {', '.join(CHAINS.names())}")
    print(f"  traffic:     {', '.join(TRAFFIC.names())}")
    print(f"  knob grids:  {', '.join(GRIDS.names())} (scan)")
    from repro.fleet import FLEETS, PLACEMENTS

    print(f"  fleets:      {', '.join(FLEETS.names())} (fleet)")
    print(f"  placements:  {', '.join(PLACEMENTS.names())} (fleet --placement)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The subcommand CLI parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="GreenNFV reproduction: scenario runs, sweeps and figures.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_run = sub.add_parser("run", help="run one declarative scenario")
    p_run.add_argument("spec", help="spec JSON file or scenario preset id")
    p_run.add_argument("--out", default=None, help="write the result JSON here")
    p_run.add_argument("--seed", type=int, default=None, help="override the seed")
    p_run.add_argument("--quick", action="store_true", help="reduced budgets")
    p_run.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record a Chrome-trace JSONL of the run (Perfetto-loadable; "
             "see 'repro top')",
    )
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run many scenarios in parallel")
    p_sweep.add_argument("specs", help="JSON list of specs or sweep preset id")
    p_sweep.add_argument("--jobs", type=int, default=None, help="worker processes")
    p_sweep.add_argument(
        "--out-dir", default=None, help="write one JSON artifact per spec here"
    )
    p_sweep.add_argument("--quick", action="store_true", help="reduced budgets")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_scan = sub.add_parser(
        "scan", help="vectorized knob-grid scan of a spec's workload"
    )
    p_scan.add_argument("spec", help="spec JSON file or scenario preset id")
    p_scan.add_argument(
        "--grid", default="coarse",
        help=f"knob-grid preset ({', '.join(GRIDS.names())})",
    )
    p_scan.add_argument(
        "--objective", default="energy_efficiency", choices=SCAN_OBJECTIVES,
        help="ranking objective",
    )
    p_scan.add_argument(
        "--loads", type=float, nargs="+", default=None, metavar="PPS",
        help="offered load axis in packets/s (default: one draw from the "
             "spec's traffic model)",
    )
    p_scan.add_argument(
        "--packet-bytes", type=float, nargs="+", default=None, metavar="B",
        help="packet-size axis in bytes (default: the traffic model's mean "
             "frame size); several values scan a knobs x loads x sizes grid",
    )
    p_scan.add_argument(
        "--top", type=int, default=10, help="candidates to report (default 10)"
    )
    p_scan.add_argument(
        "--min-delivery", type=float, default=0.5, metavar="FRAC",
        help="min_energy feasibility gate: required delivered fraction of "
             "the offered load (default 0.5, as in oracle-static)",
    )
    p_scan.add_argument("--out", default=None, help="write the scan JSON here")
    p_scan.set_defaults(func=_cmd_scan)

    p_fleet = sub.add_parser(
        "fleet", help="run a sharded multi-cluster fleet scenario"
    )
    p_fleet.add_argument(
        "spec", help="spec JSON file or scenario preset id (needs a fleet: section)"
    )
    p_fleet.add_argument(
        "--backend", default=None,
        help="override the fleet's shard backend (process = one worker "
             "process per shard; results are bit-identical to local)",
    )
    p_fleet.add_argument(
        "--cycles", type=int, default=None, help="override the coordinator cycles"
    )
    p_fleet.add_argument(
        "--placement", default=None,
        help="override the placement policy proposing migrations "
             "(see 'repro list' for the registered policies)",
    )
    p_fleet.add_argument("--seed", type=int, default=None, help="override the seed")
    p_fleet.add_argument("--quick", action="store_true", help="reduced budgets")
    p_fleet.add_argument(
        "--out", default=None, help="write the fleet result JSON here"
    )
    p_fleet.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record a Chrome-trace JSONL of the run, shard-worker spans "
             "included (Perfetto-loadable; see 'repro top')",
    )
    p_fleet.set_defaults(func=_cmd_fleet)

    p_fig = sub.add_parser("fig", help="run a paper-figure harness")
    p_fig.add_argument("id", help="experiment id (see 'python -m repro list')")
    p_fig.add_argument(
        "--quick", action="store_true", help="reduced training budgets"
    )
    p_fig.add_argument(
        "--out", default=None, help="also write the rendered report to this file"
    )
    p_fig.set_defaults(func=_cmd_fig)

    p_lint = sub.add_parser(
        "lint", help="AST-based determinism & kernel-discipline analysis"
    )
    from repro.analysis.cli import add_lint_arguments

    add_lint_arguments(p_lint)
    p_lint.set_defaults(func=_cmd_lint)

    p_top = sub.add_parser(
        "top", help="live/replay text dashboard over a --trace file"
    )
    from repro.obs.dashboard import add_top_arguments

    add_top_arguments(p_top)
    p_top.set_defaults(func=_cmd_top)

    p_list = sub.add_parser("list", help="list experiments, presets, registries")
    p_list.set_defaults(func=_cmd_list)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI main; returns a process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    # Backward compatibility: `python -m repro fig9 --quick` (a bare
    # experiment id as the first token) routes to the `fig` subcommand.
    if argv and argv[0] not in _SUBCOMMANDS and argv[0] not in ("-h", "--help"):
        argv = ["fig", *argv]
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, TypeError, KeyError, OSError, json.JSONDecodeError) as exc:
        # Spec validation and lookup errors are user errors, not crashes:
        # show the message (it lists the valid options), not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
