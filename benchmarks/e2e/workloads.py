"""The four end-to-end workloads: what one repetition runs and how it is checked.

Every workload is a closed loop with one client: a repetition is set up,
its job runs to completion, and only then does the next repetition start.
All repetitions of a run use the same seed, so each does identical,
deterministic work and must produce the same payload hash.

A workload splits a repetition into the phases the benchmark times
separately:

* ``build(seed)`` and ``warm(state)`` — the set-up a user pays before
  the first useful interval: spec and context build; for fleets the
  coordinator build (routing, worker spawn, arena, initial deploys) and
  one warm cycle;
* ``job(state)`` — the timed section;
* ``teardown(state)`` — releases workers; not timed;
* ``outcome(state, raw)`` — the deterministic payload, the chain-interval
  count of the job and the modelled metrics; not timed;
* ``check(outcome)`` — output checks; an empty list means the repetition
  passed.

The job calls the program through module attributes (``runner.run``,
``runner.scan_knob_grid``) so that the traced pass's wrappers, installed
on those attributes, see the calls.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.spec import FleetSpec
from repro.nfv.engine import PacketEngine
from repro.nfv.knobs import KnobSettings
from repro.scenario import runner
from repro.scenario.catalog import GRIDS
from repro.scenario.presets import SCENARIOS

#: Relative tolerance for the scan's scalar recomputation.
SCALAR_RTOL = 1e-9
#: Relative tolerance for sums the program and the check add in the same
#: order (only the last bit may differ if a sum is ever reassociated).
SUM_RTOL = 1e-12


@dataclass
class Outcome:
    """What one repetition produced, in the units the metrics use."""

    payload: Any  # JSON-ready, deterministic; hashed
    chain_intervals: int  # simulated in the timed job
    throughput_gbps_per_chain: float
    energy_per_chain_interval_j: float
    sla_met_frac: float

    @property
    def digest(self) -> str:
        """Short SHA-256 of the canonical JSON payload."""
        blob = json.dumps(self.payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    def modelled(self) -> dict[str, float]:
        """The modelled end-to-end metrics (simulated, not host time)."""
        return {
            "throughput_gbps_per_chain": self.throughput_gbps_per_chain,
            "energy_per_chain_interval_j": self.energy_per_chain_interval_j,
            "sla_met_frac": self.sla_met_frac,
        }


def _numbers(value, key=None):
    """(key, number) for every int/float leaf of a JSON-ready value; the
    key is the nearest enclosing dict key (bools excluded)."""
    if isinstance(value, bool):
        return
    if isinstance(value, (int, float)):
        yield key, value
    elif isinstance(value, dict):
        for k, v in value.items():
            yield from _numbers(v, k)
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from _numbers(v, key)


def finite_nonnegative(label: str, value, signed=()) -> list[str]:
    """Errors for any non-finite number inside ``value``, or a negative
    one under a key not listed in ``signed``."""
    bad = [
        (k, x)
        for k, x in _numbers(value)
        if not math.isfinite(x) or (x < 0 and k not in signed)
    ]
    if bad:
        return [f"{label}: {len(bad)} non-finite or negative value(s), e.g. {bad[0]!r}"]
    return []


def _close(label: str, got: float, want: float, rtol: float) -> list[str]:
    if math.isclose(got, want, rel_tol=rtol, abs_tol=0.0):
        return []
    return [f"{label}: {got!r} != {want!r} (rtol {rtol:g})"]


class TrainMaxT:
    """DDPG training under the throughput SLA (the paper's §5.1 loop)."""

    name = "train-maxt"
    why = (
        "DDPG training on the scalar engine path: rl update and replay "
        "dominate; no fleet, cluster kernel or grid"
    )

    def build(self, seed: int):
        spec = SCENARIOS.get("greennfv-maxt")().with_updates(
            episodes=40, test_every=10, seed=seed
        )
        runner.build_context(spec)
        return spec

    def warm(self, spec) -> None:
        pass

    def job(self, spec):
        return runner.run(spec)

    def teardown(self, spec) -> None:
        pass

    def outcome(self, spec, result) -> Outcome:
        payload = result.to_dict()
        del payload["elapsed_s"]
        evals = len(result.training["records"])
        # Training steps, greedy evaluation episodes and the rollout.
        chain_intervals = (spec.episodes + evals) * spec.episode_len + spec.intervals
        metrics = result.metrics
        return Outcome(
            payload=payload,
            chain_intervals=chain_intervals,
            throughput_gbps_per_chain=metrics["mean_throughput_gbps"],
            energy_per_chain_interval_j=metrics["total_energy_j"] / len(result.timeline),
            sla_met_frac=metrics["sla_satisfied_frac"],
        )

    def check(self, outcome: Outcome) -> list[str]:
        payload = outcome.payload
        errors = finite_nonnegative("metrics", payload["metrics"])
        errors += finite_nonnegative("timeline", payload["timeline"])
        # Rewards are signed: an SLA violation is a penalty.
        errors += finite_nonnegative(
            "training", payload["training"], signed=("reward", "episode_rewards")
        )
        errors += _close(
            "total energy vs timeline sum",
            payload["metrics"]["total_energy_j"],
            sum(p["energy_j"] for p in payload["timeline"]),
            SUM_RTOL,
        )
        if not 0.0 <= payload["metrics"]["sla_satisfied_frac"] <= 1.0:
            errors.append("sla_satisfied_frac outside [0, 1]")
        return errors


#: The scan's load axis and frame sizes (K x 16 x 3 grid points).
SCAN_LOADS = tuple(float(x) for x in np.linspace(1e5, 8e5, 16))
SCAN_FRAMES = (64.0, 512.0, 1518.0)


class ScanFine:
    """The ``repro scan`` path: one vectorized grid over knobs, loads, frames."""

    name = "scan-fine"
    why = (
        "8,820-knob x 16-load x 3-frame scan through vectorized step_batch; "
        "the control for scalar and fleet changes"
    )

    def build(self, seed: int):
        spec = SCENARIOS.get("baseline")().with_updates(seed=seed)
        grid = GRIDS.get("fine")()
        runner.build_context(spec)
        return spec, grid

    def warm(self, state) -> None:
        pass

    def job(self, state):
        spec, grid = state
        telemetry = runner.scan_knob_grid(
            spec, grid, offered_grid=SCAN_LOADS, packet_bytes=SCAN_FRAMES
        )
        return runner.scan_report(
            spec, grid, telemetry, objective="energy_efficiency", top=10
        )

    def teardown(self, state) -> None:
        pass

    def outcome(self, state, report) -> Outcome:
        spec, grid = state
        top = report["results"][0]
        # The top candidate re-evaluated by scalar PacketEngine.step at
        # every load and frame size of the grid.
        ctx = runner.build_context(spec)
        engine = PacketEngine(params=ctx.engine_params)
        knobs = KnobSettings(**top["knobs"])
        samples = [
            engine.step(ctx.chain, knobs, load, frame, spec.interval_s)
            for load in SCAN_LOADS
            for frame in SCAN_FRAMES
        ]
        return Outcome(
            payload={"report": report, "scalar": [_sample_row(s) for s in samples]},
            chain_intervals=len(grid) * len(SCAN_LOADS) * len(SCAN_FRAMES),
            throughput_gbps_per_chain=top["mean_throughput_gbps"],
            energy_per_chain_interval_j=top["mean_energy_j"],
            sla_met_frac=sum(1 for s in samples if ctx.sla.satisfied(s)) / len(samples),
        )

    def check(self, outcome: Outcome) -> list[str]:
        report = outcome.payload["report"]
        scalar = outcome.payload["scalar"]
        errors = finite_nonnegative("scan results", report["results"])
        top = report["results"][0]
        n = len(scalar)
        errors += _close(
            "top candidate throughput (batch vs scalar)",
            top["mean_throughput_gbps"],
            sum(row["throughput_gbps"] for row in scalar) / n,
            SCALAR_RTOL,
        )
        errors += _close(
            "top candidate energy (batch vs scalar)",
            top["mean_energy_j"],
            sum(row["energy_j"] for row in scalar) / n,
            SCALAR_RTOL,
        )
        if [r["rank"] for r in report["results"]] != list(range(1, 11)):
            errors.append("scan report is not ranked 1..10")
        return errors


def _sample_row(sample) -> dict[str, float]:
    return {
        "throughput_gbps": sample.throughput_gbps,
        "energy_j": sample.energy_j,
        "latency_s": sample.latency_s,
    }


class FleetWorkload:
    """A fleet run: fresh coordinator, one warm cycle, then the timed cycles."""

    sla = "latency"
    sla_params = {"latency_bound_s": 1e-3}

    def __init__(
        self,
        name: str,
        why: str,
        section: dict[str, Any],
        *,
        backend: str,
        cycles: int,
        mp_context: str | None = None,
    ):
        self.name = name
        self.why = why
        self.fleet = FleetSpec.from_mapping(section).with_updates(backend=backend)
        self.cycles = cycles
        self.mp_context = mp_context

    @property
    def initial_chains(self) -> int:
        return sum(s.nodes * s.chains_per_node for s in self.fleet.topology.shards)

    def with_backend(self, backend: str) -> "FleetWorkload":
        """The same workload on another shard backend."""
        other = copy.copy(self)
        other.fleet = self.fleet.with_updates(backend=backend)
        return other

    def build(self, seed: int) -> FleetCoordinator:
        return FleetCoordinator(
            self.fleet,
            sla=self.sla,
            sla_params=self.sla_params,
            interval_s=1.0,
            seed=seed,
            mp_context=self.mp_context,
        )

    def warm(self, coordinator: FleetCoordinator) -> None:
        coordinator.run_cycles(1)

    def job(self, coordinator: FleetCoordinator):
        first = coordinator.interval
        coordinator.run_cycles(self.cycles)
        return first, coordinator.result()

    def teardown(self, coordinator: FleetCoordinator) -> None:
        coordinator.close()

    def outcome(self, coordinator, raw) -> Outcome:
        first, result = raw
        records = result.intervals
        totals = result.totals
        all_chain_intervals = sum(r["chains"] for r in records)
        return Outcome(
            payload=result.comparable(),
            chain_intervals=sum(r["chains"] for r in records if r["index"] >= first),
            throughput_gbps_per_chain=(
                sum(r["throughput_gbps"] for r in records) / all_chain_intervals
            ),
            energy_per_chain_interval_j=totals["energy_j"] / all_chain_intervals,
            sla_met_frac=1.0 - totals["sla_violations"] / all_chain_intervals,
        )

    def check(self, outcome: Outcome) -> list[str]:
        payload = outcome.payload
        totals = payload["totals"]
        errors = finite_nonnegative("totals", totals)
        errors += finite_nonnegative("intervals", payload["intervals"])
        errors += finite_nonnegative("migrations", payload["migrations"])
        errors += _close(
            "energy_j vs sim + migration",
            totals["energy_j"],
            totals["sim_energy_j"] + totals["migration_energy_j"],
            SUM_RTOL,
        )
        errors += _close(
            "sim_energy_j vs interval sum",
            totals["sim_energy_j"],
            sum(r["energy_j"] for r in payload["intervals"]),
            SUM_RTOL,
        )
        conserved = self.initial_chains + totals["arrivals"] - totals["departures"]
        if conserved != totals["final_chains"]:
            errors.append(
                f"chains not conserved: {self.initial_chains} + "
                f"{totals['arrivals']} - {totals['departures']} != "
                f"{totals['final_chains']}"
            )
        bad_hops = [
            m["chain"] for m in payload["migrations"] if m["hops"] != len(m["path"]) - 1
        ]
        if bad_hops:
            errors.append(f"migration hops != len(path) - 1 for {bad_hops[:3]}")
        return errors


FLEET_STEADY = FleetWorkload(
    "fleet-steady",
    "one process-backend shard worker, 32 nodes x 4 chains: plan cache hits, "
    "arena transport, watermark placement idle",
    {
        "preset": "datacenter",
        "topology": {
            "preset": "full-mesh",
            "n_shards": 1,
            "nodes": 32,
            "chains_per_node": 4,
        },
    },
    backend="process",
    cycles=8,
    mp_context="fork",
)

FLEET_CHURN = FleetWorkload(
    "fleet-churn",
    "8-site WAN on the local backend with churn and greedy placement: plan "
    "cache misses, compiles, routed migrations",
    {
        "preset": "wan",
        "placement": "greedy",
        "sync_every": 2,
        "topology": {"preset": "wan", "n_sites": 8, "nodes": 4, "chains_per_node": 1},
        "migration": {"amortize_intervals": 64, "budget_per_cycle": 4},
        "workload": {
            "peak_rate_pps": 3e5,
            "churn": {
                "arrivals_per_cycle": 1.0,
                "departure_prob": 0.05,
                "max_chains": 96,
            },
        },
    },
    backend="local",
    cycles=60,
)

#: Workload name -> workload, in the order the benchmark runs them.
WORKLOADS = {
    w.name: w for w in (TrainMaxT(), ScanFine(), FLEET_STEADY, FLEET_CHURN)
}
