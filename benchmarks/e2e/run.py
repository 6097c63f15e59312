#!/usr/bin/env python3
"""End-to-end benchmark: four workloads a user runs, timed and checked.

One workload, one pass::

    python3 benchmarks/e2e/run.py --workload fleet-churn --seed 1 \
        --seconds 20 --trace 0

Every workload in turn, each in a fresh interpreter, untraced then
traced, with a results file for ``compare.py``::

    python3 benchmarks/e2e/run.py --seed 1 --out bench-results/

With ``--trace 0`` the run times repeated identical repetitions with
tracing off and reports the end-to-end metrics.  With ``--trace 1`` it
alternates untraced and traced repetitions (``layers.py`` wrappers plus
``repro.obs``) and reports the per-layer metrics, including the direct
A/B tracing overhead.  Both modes check every repetition's outputs; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``, and the exit code is non-zero
when any repetition failed.

The program is imported from ``src/`` of the checkout that holds this
file; without it the benchmark exits non-zero before measuring.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"

#: Every end-to-end metric: (name, unit, better).  BENCHMARK.json holds
#: the same names with their bounds.
END_TO_END = (
    ("chain_intervals_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("throughput_gbps_per_chain", "Gbps", "higher"),
    ("energy_per_chain_interval_j", "J", "lower"),
    ("sla_met_frac", "1", "higher"),
)

#: Repetitions each loop runs even when ``--seconds`` has elapsed.
MIN_REPS = 3
#: Bootstrap resamples for the spread of a rep statistic.
BOOTSTRAP = 400


def import_program():
    """Import the workloads from this checkout's ``src/``; seconds taken."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {SRC}/repro; run from a full checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    t0 = time.perf_counter()
    import workloads  # noqa: F401  (imports the program's layers)

    import_s = time.perf_counter() - t0
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {SRC}")
    return import_s


def host_probe(rounds: int = 11) -> dict[str, float]:
    """Time a fixed numpy + Python loop; recorded only, never used to scale."""
    import numpy as np

    a = np.random.default_rng(0).random(4096)
    b = np.random.default_rng(1).random((64, 64))
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(100):
            float(np.sum(a * a))
            np.sqrt(a)
            b @ b
            [x * 2 for x in range(50)]
        times.append(1e3 * (time.perf_counter() - t0))
    return {
        "lq_ms": statistics.quantiles(times, n=4)[0],
        "median_ms": statistics.median(times),
    }


def provenance(seed: int) -> dict:
    """What produced a results file: code version, host, toolchain."""
    import numpy as np

    sha = dirty = None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        sha = subprocess.run(
            git + ["rev-parse", "HEAD"], capture_output=True, text=True
        ).stdout.strip() or None
        dirty = bool(
            subprocess.run(
                git + ["status", "--porcelain", "--untracked-files=no"],
                capture_output=True,
                text=True,
            ).stdout.strip()
        )
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
    }


def _rss_mb(who) -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(who).ru_maxrss / 1024.0


def bootstrap_spread(values, stat) -> float:
    """Quartile distance of ``stat`` over bootstrap resamples, as a share
    of its median: how far the statistic itself moves between runs."""
    import numpy as np

    values = np.asarray(values, dtype=np.float64)
    if len(values) < 2:
        return 0.0
    rng = np.random.default_rng(0)
    draws = [stat(list(rng.choice(values, size=len(values)))) for _ in range(BOOTSTRAP)]
    q1, med, q3 = statistics.quantiles(draws, n=4)
    return (q3 - q1) / med


@dataclass
class Rep:
    """One repetition: its timings, outcome and check errors."""

    build_s: float = 0.0
    warm_s: float = 0.0
    job_s: float = 0.0
    outcome: Any = None
    errors: list[str] = field(default_factory=list)
    layers: dict[str, float] | None = None

    @property
    def setup_s(self) -> float:
        return self.build_s + self.warm_s

    @property
    def ok(self) -> bool:
        return not self.errors


def run_rep(
    workload, seed: int, reference: str | None, *, traced: bool = False, trace_file=None
) -> Rep:
    """Set up, run and check one repetition.

    With ``traced`` the timing wrappers are installed and ``repro.obs``
    is on from before the build until after the teardown; ``rep.layers``
    holds the repetition's per-layer metrics, and its trace events go to
    ``trace_file`` (a ``repro.obs`` Tracer writing a file) when given.
    """
    rep = Rep()
    if traced:
        import layers
        from repro import obs

        instrumentation = layers.Instrumentation().install()
        obs.enable(label="e2e")
    state = raw = None
    try:
        t0 = time.perf_counter()
        state = workload.build(seed)
        t1 = time.perf_counter()
        workload.warm(state)
        t2 = time.perf_counter()
        if traced:
            setup_counters = obs.registry().counters
            setup_events = obs.tracer().drain()
        t3 = time.perf_counter()
        raw = workload.job(state)
        t4 = time.perf_counter()
        rep.build_s, rep.warm_s, rep.job_s = t1 - t0, t2 - t1, t4 - t3
        if traced:
            job_events = obs.tracer().drain()
            rep.layers = layers.layer_metrics(
                layers.Phase(
                    layers.counter_delta(obs.registry().counters, setup_counters),
                    layers.span_times(job_events),
                    rep.job_s,
                ),
                layers.Phase(setup_counters, layers.span_times(setup_events), t2 - t0),
            )
            if trace_file is not None:
                trace_file.ingest(setup_events + job_events)
                trace_file.flush()
    except Exception as exc:  # a failed repetition is counted, not fatal
        rep.errors.append(f"{type(exc).__name__}: {exc}")
    finally:
        if state is not None:
            workload.teardown(state)
        if traced:
            obs.disable()
            instrumentation.uninstall()
    if rep.ok:
        try:
            rep.outcome = workload.outcome(state, raw)
            rep.errors += workload.check(rep.outcome)
        except Exception as exc:
            rep.errors.append(f"{type(exc).__name__}: {exc}")
    if rep.ok and reference is not None and rep.outcome.digest != reference:
        rep.errors.append(f"payload hash {rep.outcome.digest} != {reference}")
    return rep


def measure(
    workload, seed: int, seconds: float, trace: bool, out: Path | None, import_s: float
) -> dict:
    """Run one workload for ``seconds`` and build its results record."""
    children_before = _rss_mb(resource.RUSAGE_CHILDREN)
    probe = host_probe()
    t0 = time.perf_counter()
    warm = run_rep(workload, seed, None)
    warmup_s = time.perf_counter() - t0
    reference = warm.outcome.digest if warm.ok else None
    reps: list[Rep] = []
    traced: list[Rep] = []
    trace_file = None
    if trace and out is not None:
        from repro.obs import Tracer

        trace_file = Tracer(out / f"{workload.name}.trace.jsonl", label="e2e")
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds or len(reps) < MIN_REPS:
        reps.append(run_rep(workload, seed, reference))
        if trace:
            traced.append(
                run_rep(workload, seed, reference, traced=True, trace_file=trace_file)
            )
    if trace_file is not None:
        trace_file.close()
    checks = [warm] + reps + traced
    if not trace and getattr(workload, "fleet", None) and workload.fleet.backend != "local":
        # The process backend must match the in-process reference bit for bit.
        checks.append(run_rep(workload.with_backend("local"), seed, reference))
    # Read before provenance() runs git, which would count as a child.
    rss_self, rss_children = _rss_mb(resource.RUSAGE_SELF), _rss_mb(resource.RUSAGE_CHILDREN)
    if rss_children <= children_before:
        # Only processes reaped before this run (a launcher shim) so far.
        rss_children = 0.0
    failed = [r for r in checks if not r.ok]
    ok = [r for r in reps if r.ok]
    record = {
        "workload": workload.name,
        "trace": int(trace),
        "seconds": seconds,
        "provenance": dict(provenance(seed), probe=probe),
        "attempted": len(checks),
        "failed": len(failed),
        "errors": [e for r in failed for e in r.errors][:10],
        "hash": reference,
        "reps": len(reps),
        "job_s": [r.job_s for r in reps],
        "setup_s": [r.setup_s for r in reps],
    }
    if not ok:
        record["metrics"] = {}
        return record
    outcome = ok[0].outcome
    ci = outcome.chain_intervals
    job_times = [r.job_s for r in ok]
    setups = [r.setup_s for r in ok]
    rates = [ci / t for t in job_times]
    q1, median, q3 = statistics.quantiles(rates, n=4) if len(rates) > 1 else rates * 3
    record["chain_intervals"] = ci
    record["diagnostics"] = {"rate_q1": q1, "rate_median": median, "rate_q3": q3}
    if not trace:
        record["metrics"] = dict(
            # Interference from other tenants only ever adds time, so the
            # fastest repetition is the steadiest estimate of the job's cost.
            chain_intervals_per_s=ci / min(job_times),
            setup_s=statistics.median(setups),
            peak_rss_mb=rss_self + rss_children,
            **outcome.modelled(),
        )
        record["spreads"] = {
            "chain_intervals_per_s": bootstrap_spread(job_times, min),
            "setup_s": bootstrap_spread(setups, statistics.median),
        }
        return record
    good = [r for r in traced if r.ok]
    if not good:
        record["metrics"] = {}
        return record
    measured = {
        "setup.import_s": import_s,
        "setup.build_s": statistics.median(r.build_s for r in ok),
        "setup.warmup_s": warmup_s,
        "obs.tracing_overhead_pct": 100.0
        * (min(r.job_s for r in good) / min(job_times) - 1.0),
        "proc.worker_peak_rss_mb": rss_children,
    }
    import layers

    record["traced_reps"] = len(traced)
    record["metrics"] = {
        name: float(
            measured[name]
            if name in measured
            else statistics.median(r.layers[name] for r in good)
        )
        for name, _, _ in layers.PER_LAYER
    }
    return record


def metric_specs(trace: bool):
    if not trace:
        return END_TO_END
    import layers

    return layers.PER_LAYER


def render(records: list[dict]) -> str:
    """A row per metric and a column per workload, then one status line
    per workload; all records come from the same pass."""
    from repro.utils.tables import render_table

    trace = records[0]["trace"]
    rows = [
        [name, *(r["metrics"].get(name, float("nan")) for r in records), unit]
        for name, unit, _ in metric_specs(trace)
    ]
    table = render_table(
        ["metric", *(r["workload"] for r in records), "unit"],
        rows,
        title="per-layer metrics (traced)" if trace else "end-to-end metrics",
        precision=4,
    )
    status = [
        f"{r['workload']}: {r['reps']} reps, {r['failed']}/{r['attempted']} failed, "
        f"hash {r['hash']}"
        for r in records
    ]
    return "\n".join([table, *status])


def last_line(record: dict) -> str:
    units = {name: unit for name, unit, _ in metric_specs(record["trace"])}
    return json.dumps(
        {
            "correct": record["failed"] == 0 and bool(record["metrics"]),
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in record["metrics"].items()
            },
        }
    )


def stop_helpers() -> None:
    """Stop and reap every process this one started.

    Shard workers are joined by ``teardown``; any a failure left behind
    are terminated here.  Creating a shared-memory arena also starts the
    multiprocessing resource tracker, which otherwise ends only after this
    process has exited and is then never reaped.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()


def run_one(args) -> int:
    try:
        return measure_one(args)
    finally:
        stop_helpers()


def measure_one(args) -> int:
    import_s = import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(
            f"error: unknown workload {args.workload!r}; "
            f"options: {', '.join(workloads.WORKLOADS)}"
        )
    workload = workloads.WORKLOADS[args.workload]
    out = Path(args.out) if args.out else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    record = measure(workload, args.seed, args.seconds, bool(args.trace), out, import_s)
    if out is not None:
        path = out / f"{workload.name}.trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(render([record]))
    for error in record["errors"]:
        print(f"failed: {error}")
    line = last_line(record)
    print(line)
    return 0 if json.loads(line)["correct"] else 1


def run_all(args) -> int:
    """Each workload in a fresh interpreter, one at a time; untraced, then
    traced.  The traced pass runs the minimum repetitions: its per-layer
    shares need a few traced jobs, not a stable rate."""
    import_program()
    import workloads

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    status = 0
    results = {"provenance": provenance(args.seed), "workloads": {}}
    for trace in (0, 1):
        for name in workloads.WORKLOADS:
            cmd = [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(0 if trace else args.seconds),
                "--trace", str(trace),
                "--out", str(out),
            ]
            path = out / f"{name}.trace{trace}.json"
            path.unlink(missing_ok=True)
            status |= subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode
            record = json.loads(path.read_text())
            results["workloads"].setdefault(name, {})[
                "traced" if trace else "untraced"
            ] = record
    (out / "results.json").write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    for side in ("untraced", "traced"):
        print(render([sides[side] for sides in results["workloads"].values()]))
    print(f"results written to {out / 'results.json'}")
    return 1 if status else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload (default: all, each in a child)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 reports the per-layer metrics")
    parser.add_argument("--out", help="directory for results records and traces")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.workload is None:
        if args.out is None:
            parser.error("--out is required when running every workload")
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
