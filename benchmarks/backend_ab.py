#!/usr/bin/env python3
"""Local against process fleet backend: alternating timed pairs per shape.

A fleet runs on one of two shard backends: ``local`` prices every shard
in one in-process cluster-kernel pass per cycle, ``process`` steps each
shard in its own worker process and ships its report back through a
shared-memory arena.  This script measures which is faster, shape by
shape, on the box it runs on.

The shapes are every fleet preset (``repro.fleet.spec.FLEETS``, at its
own cycle count) and the two fleet shapes of the end-to-end benchmark
(``fleet-steady`` and ``fleet-churn`` in ``benchmarks/e2e/workloads.py``,
at their job's cycle count); every shape runs under those shapes'
latency SLA.  For each shape it runs ``--pairs`` pairs; a pair runs the
same seeded fleet once on each backend, and the backend that goes first
alternates from pair to pair.  One side builds the
coordinator, runs one warm cycle, then times ``run_cycles`` over the
shape's cycles, the section the end-to-end benchmark times.  The rate is
the chain-intervals those cycles simulated per second of that time.

Every run's ``FleetResult.comparable()`` digest must equal every other
run's of the same shape, on either backend: the backends are
interchangeable only if they produce the same bits.  A digest mismatch or
a crash exits non-zero; timings never do.

Prints ``nproc``, one line per pair (both rates and the process/local
ratio, above 1 when the process backend was faster), then per shape the
median rates, the median ratio and the pairs the process backend won.
The last line is the same summary as one JSON object.

Run::

    python benchmarks/backend_ab.py                  # 10 pairs per shape
    python benchmarks/backend_ab.py --quick          # 1 pair per shape
    python benchmarks/backend_ab.py --shape fleet-steady --pairs 10 --seed 7
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]

from repro.fleet.spec import FLEETS, FleetSpec  # noqa: E402
from workloads import FLEET_CHURN, FLEET_STEADY, FleetWorkload  # noqa: E402

BACKENDS = ("local", "process")


def nproc() -> int:
    """The CPUs this process may run on, as ``nproc`` counts them."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def shapes() -> dict[str, FleetWorkload]:
    """Shape name -> workload: every fleet preset, then the e2e shapes."""
    out = {}
    for name in FLEETS.names():
        section = {"preset": name}
        cycles = FleetSpec.from_mapping(section).cycles
        out[name] = FleetWorkload(name, "", section, backend="local", cycles=cycles)
    for workload in (FLEET_STEADY, FLEET_CHURN):
        out[workload.name] = workload
    return out


def run_once(workload: FleetWorkload, backend: str, seed: int) -> tuple[float, str]:
    """(chain-intervals/s of the timed cycles, comparable() digest) of one run."""
    workload = workload.with_backend(backend)
    coordinator = workload.build(seed)
    try:
        workload.warm(coordinator)
        t0 = time.perf_counter()
        raw = workload.job(coordinator)
        elapsed = time.perf_counter() - t0
        outcome = workload.outcome(coordinator, raw)
    finally:
        workload.teardown(coordinator)
    return outcome.chain_intervals / elapsed, outcome.digest


def measure(name: str, workload: FleetWorkload, pairs: int, seed: int) -> dict:
    """Run the pairs of one shape; print each pair, return its summary."""
    rates = {backend: [] for backend in BACKENDS}
    digests = set()
    ratios = []
    for pair in range(pairs):
        order = BACKENDS if pair % 2 == 0 else BACKENDS[::-1]
        got = {}
        for backend in order:
            got[backend], digest = run_once(workload, backend, seed)
            rates[backend].append(got[backend])
            digests.add(digest)
        ratio = got["process"] / got["local"]
        ratios.append(ratio)
        print(
            f"{name:14s} pair {pair + 1:2d} ({order[0]} first): "
            f"local {got['local']:10.0f}/s  process {got['process']:10.0f}/s  "
            f"process/local {ratio:.3f}",
            flush=True,
        )
    summary = {
        "pairs": pairs,
        "local_median": statistics.median(rates["local"]),
        "process_median": statistics.median(rates["process"]),
        "ratio_median": statistics.median(ratios),
        "process_wins": sum(r > 1.0 for r in ratios),
        "digests_equal": len(digests) == 1,
        "digest": min(digests),
    }
    print(
        f"{name:14s} medians: local {summary['local_median']:.0f}/s, process "
        f"{summary['process_median']:.0f}/s, process/local {summary['ratio_median']:.3f}; "
        f"process won {summary['process_wins']} of {pairs}; "
        + ("digests equal" if summary["digests_equal"] else f"DIGESTS DIFFER {sorted(digests)}"),
        flush=True,
    )
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=10, help="pairs per shape (default 10)")
    parser.add_argument("--quick", action="store_true", help="one pair per shape")
    parser.add_argument("--seed", type=int, default=1, help="fleet seed (default 1)")
    parser.add_argument(
        "--shape", action="append", help="run only this shape (repeatable; default all)"
    )
    args = parser.parse_args(argv)
    pairs = 1 if args.quick else args.pairs
    if pairs < 1:
        parser.error("--pairs must be at least 1")
    every = shapes()
    names = args.shape or list(every)
    unknown = sorted(set(names) - set(every))
    if unknown:
        parser.error(f"unknown shape(s) {unknown}; options: {list(every)}")
    print(
        f"nproc {nproc()}, python {platform.python_version()}, "
        f"{platform.machine()}, seed {args.seed}, {pairs} pair(s) per shape",
        flush=True,
    )
    results = {name: measure(name, every[name], pairs, args.seed) for name in names}
    print(json.dumps({"nproc": nproc(), "seed": args.seed, "shapes": results}))
    return 0 if all(r["digests_equal"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
