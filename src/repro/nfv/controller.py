"""ONVM-style controller: the platform's management interface.

The controller binds traffic generators to deployed chains, advances the
platform through control intervals, and exposes the state-collection and
knob-application operations of Algorithm 3's ``NF_CONTROLLER``:

* ``COLLECT_STATE`` -> :meth:`OnvmController.collect_state` returns per
  chain the tuple (throughput T, energy E, CPU utilization xi, arrival
  rate Omega);
* ``controller.ALLOCATE(a)`` -> :meth:`OnvmController.allocate` applies a
  knob vector and runs one interval, returning the next state.

Chains can be configured programmatically or from a config mapping (the
paper: "Service chains can be configured using a configuration file or
SDN controller").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.nfv.chain import ServiceChain
from repro.nfv.engine import TelemetrySample
from repro.nfv.knobs import KnobSettings
from repro.nfv.node import Node
from repro.traffic.analysis import FlowAnalyzer
from repro.traffic.generators import TrafficGenerator
from repro.utils.rng import RngLike, as_generator


@dataclass
class ChainBinding:
    """A chain bound to its traffic source on a node."""

    chain: ServiceChain
    generator: TrafficGenerator
    analyzer: FlowAnalyzer = field(default_factory=FlowAnalyzer)


@dataclass(frozen=True)
class ChainObservation:
    """The RL state tuple of Eq. (8) for one chain, plus diagnostics."""

    throughput_gbps: float  # T
    energy_j: float  # E
    cpu_utilization: float  # xi, 0..1 over provisioned cores
    arrival_rate_pps: float  # Omega
    cpu_cores_busy: float
    llc_miss_rate_per_s: float
    dropped_pps: float
    latency_s: float
    energy_efficiency: float

    def as_array(self) -> np.ndarray:
        """Vector [T, E, xi, Omega] in physical units."""
        return np.asarray(
            [
                self.throughput_gbps,
                self.energy_j,
                self.cpu_utilization,
                self.arrival_rate_pps,
            ],
            dtype=np.float64,
        )


class OnvmController:
    """Manages chains, traffic and knob application on one node."""

    def __init__(self, node: Node | None = None, *, interval_s: float = 1.0, rng: RngLike = None):
        self.node = node or Node()
        self.interval_s = float(interval_s)
        if not self.interval_s > 0:
            raise ValueError("interval must be positive")
        self.rng = as_generator(rng)
        self._bindings: dict[str, ChainBinding] = {}
        self._t = 0.0
        self._last: dict[str, TelemetrySample] = {}

    # -- configuration -----------------------------------------------------

    def reset(self) -> None:
        """Tear down all chains and rewind the clock, keeping the node.

        The node's engines and hardware models survive (see
        :meth:`Node.reset`); bindings, analyzers and cached telemetry are
        dropped so the next :meth:`add_chain` starts a pristine run.
        """
        self.node.reset()
        self._bindings.clear()
        self._t = 0.0
        self._last = {}

    @property
    def time_s(self) -> float:
        """Simulated wall-clock time."""
        return self._t

    @property
    def bindings(self) -> dict[str, ChainBinding]:
        """Chain name -> binding."""
        return dict(self._bindings)

    def add_chain(
        self,
        chain: ServiceChain,
        generator: TrafficGenerator,
        knobs: KnobSettings | None = None,
    ) -> None:
        """Deploy a chain and bind its traffic source."""
        self.node.deploy(chain, knobs)
        self._bindings[chain.name] = ChainBinding(chain=chain, generator=generator)

    def remove_chain(self, name: str) -> None:
        """Tear a chain down."""
        self.node.undeploy(name)
        del self._bindings[name]

    @staticmethod
    def from_config(
        config: Mapping[str, Mapping],
        generators: Mapping[str, TrafficGenerator],
        node: Node | None = None,
        **kwargs,
    ) -> "OnvmController":
        """Build a controller from a config-file style mapping.

        ``config`` maps chain name -> {"nfs": [names...], optional
        "knobs": {field: value}}; ``generators`` maps chain name to its
        traffic source.  Every entry's chain, knobs and generator are
        checked before any chain is deployed.
        """
        entries = []
        for name, spec in config.items():
            chain = ServiceChain.from_names(name, list(spec["nfs"]))
            knobs = KnobSettings(**spec.get("knobs", {}))
            if name not in generators:
                raise KeyError(f"no traffic generator for chain {name!r}")
            entries.append((chain, generators[name], knobs))
        ctrl = OnvmController(node, **kwargs)
        for entry in entries:
            ctrl.add_chain(*entry)
        return ctrl

    # -- Algorithm 3 operations ---------------------------------------------

    def set_knobs(self, name: str, knobs: KnobSettings) -> KnobSettings:
        """Apply knob settings to a chain (clamped); returns applied values."""
        return self.node.apply_knobs(name, knobs)

    def run_interval(self, dt_s: float | None = None) -> dict[str, TelemetrySample]:
        """Advance the platform one control interval.

        Draws each chain's offered load from its generator, steps every
        chain through the node's one-pass :meth:`~repro.nfv.node.Node.step_all`
        kernel, and feeds the flow analyzers.
        """
        dt = dt_s if dt_s is not None else self.interval_s
        offered: dict[str, tuple[float, float]] = {}
        for name, binding in self._bindings.items():
            rate = binding.generator.rate_at(self._t, dt, self.rng)
            offered[name] = (rate, binding.generator.packet_sizes.mean_bytes)
        samples = self.node.step_all(offered, dt)
        for name, sample in samples.items():
            self._bindings[name].analyzer.observe(sample.arrival_rate_pps * dt, dt)
        self._t += dt
        self._last = samples
        return samples

    def collect_state(self) -> dict[str, ChainObservation]:
        """Per-chain (T, E, xi, Omega) from the most recent interval.

        Before any interval has run, returns zeroed observations with the
        analyzers' current arrival estimates — the cold-start state the
        learning agent sees first.
        """
        out: dict[str, ChainObservation] = {}
        for name, binding in self._bindings.items():
            sample = self._last.get(name)
            if sample is None:
                out[name] = ChainObservation(
                    throughput_gbps=0.0,
                    energy_j=0.0,
                    cpu_utilization=0.0,
                    arrival_rate_pps=binding.analyzer.arrival_rate(),
                    cpu_cores_busy=0.0,
                    llc_miss_rate_per_s=0.0,
                    dropped_pps=0.0,
                    latency_s=0.0,
                    energy_efficiency=0.0,
                )
            else:
                out[name] = ChainObservation(
                    throughput_gbps=sample.throughput_gbps,
                    energy_j=sample.energy_j,
                    cpu_utilization=sample.cpu_utilization,
                    arrival_rate_pps=sample.arrival_rate_pps,
                    cpu_cores_busy=sample.cpu_cores_busy,
                    llc_miss_rate_per_s=sample.llc_miss_rate_per_s,
                    dropped_pps=sample.dropped_pps,
                    latency_s=sample.latency_s,
                    energy_efficiency=sample.energy_efficiency,
                )
        return out

    def allocate(
        self, name: str, knobs: KnobSettings, dt_s: float | None = None
    ) -> tuple[ChainObservation, TelemetrySample]:
        """Algorithm 3 line 6: apply an action, run an interval, observe.

        Returns (next observation for the chain, full telemetry).
        Other chains keep their current knobs for the interval.
        """
        self.set_knobs(name, knobs)
        samples = self.run_interval(dt_s)
        return self.collect_state()[name], samples[name]
