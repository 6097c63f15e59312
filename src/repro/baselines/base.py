"""Common interface for the non-DDPG controllers of the Fig. 9 comparison.

Every controller is a closed-loop policy over the platform: it reads the
previous interval's telemetry (plus the flow analyzer's statistics) and
emits the next interval's knob settings.  :func:`run_controller` drives
any of them against a platform for a fixed horizon and aggregates the
metrics the comparison reports.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.nfv.chain import ServiceChain
from repro.nfv.controller import OnvmController
from repro.nfv.engine import EngineParams, PollingMode, TelemetrySample
from repro.nfv.knobs import KnobSettings
from repro.nfv.node import Node
from repro.traffic.analysis import FlowAnalyzer
from repro.traffic.generators import TrafficGenerator
from repro.utils.rng import RngLike


class Controller(abc.ABC):
    """A per-interval knob policy."""

    #: Data-plane configuration the controller assumes.  The untuned
    #: Baseline and EE-Pstate run the stock DPDK poll-mode data plane with
    #: no CAT partitioning and all cores online; the tuning controllers
    #: (Heuristics, Q-learning, GreenNFV) run the GreenNFV data plane.
    polling: PollingMode = PollingMode.ADAPTIVE
    cat_enabled: bool = True
    park_idle_cores: bool = True
    name: str = "controller"

    @abc.abstractmethod
    def initial_knobs(self) -> KnobSettings:
        """Knob settings for the first interval."""

    @abc.abstractmethod
    def decide(
        self, sample: TelemetrySample, analyzer: FlowAnalyzer, knobs: KnobSettings
    ) -> KnobSettings:
        """Next interval's knobs given last telemetry and flow statistics."""

    def reset(self) -> None:
        """Clear any internal state before a fresh run."""

    def prepare(self, chain: ServiceChain, engine=None) -> None:
        """Observe the deployed chain and platform before the run starts.

        Most rule controllers ignore it; model-based ones (the grid-search
        oracle) need the chain and the node's actual
        :class:`~repro.nfv.engine.PacketEngine` — including any custom
        ``EngineParams`` — to evaluate candidate configurations.
        """


@dataclass
class ControllerRun:
    """Aggregate metrics of one controller rollout (a Fig. 9 bar pair)."""

    name: str
    mean_throughput_gbps: float
    total_energy_j: float
    mean_power_w: float
    energy_efficiency: float  # Gbps per kJ over the run
    mean_cpu_usage_pct: float
    samples: list[TelemetrySample]


def run_controller(
    controller: Controller,
    chain: ServiceChain,
    generator: TrafficGenerator,
    *,
    intervals: int = 20,
    interval_s: float = 1.0,
    engine_params: EngineParams | None = None,
    rng: RngLike = None,
) -> ControllerRun:
    """Drive a controller against a fresh platform for ``intervals`` steps."""
    if intervals < 1:
        raise ValueError("need at least one interval")
    controller.reset()
    node = Node(
        params=engine_params,
        polling=controller.polling,
        cat_enabled=controller.cat_enabled,
        park_idle_cores=controller.park_idle_cores,
    )
    controller.prepare(chain, node.engine)
    ctrl = OnvmController(node, interval_s=interval_s, rng=rng)
    knobs = controller.initial_knobs()
    ctrl.add_chain(chain, generator, knobs)
    analyzer = ctrl.bindings[chain.name].analyzer

    samples: list[TelemetrySample] = []
    for _ in range(intervals):
        step_samples = ctrl.run_interval()
        sample = step_samples[chain.name]
        samples.append(sample)
        knobs = controller.decide(sample, analyzer, knobs)
        ctrl.set_knobs(chain.name, knobs)

    ts = np.asarray([s.throughput_gbps for s in samples])
    es = np.asarray([s.energy_j for s in samples])
    total_e = float(es.sum())
    return ControllerRun(
        name=controller.name,
        mean_throughput_gbps=float(ts.mean()),
        total_energy_j=total_e,
        mean_power_w=total_e / (intervals * interval_s),
        energy_efficiency=float(ts.mean() / (total_e / 1e3)) if total_e > 0 else 0.0,
        mean_cpu_usage_pct=float(
            np.mean([s.cpu_cores_busy for s in samples]) * 100.0
        ),
        samples=samples,
    )
