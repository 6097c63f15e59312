"""SDN controller cooperating with per-chain NF controllers (§6).

The controller steers flows between chain replicas hosted on the
cluster's nodes, using the telemetry the NF controllers feed back each
interval:

* **overload relief** — when a chain's utilization crosses the high
  watermark, its smallest flow is migrated to the least-utilized replica
  of the same service (throughput protection);
* **energy consolidation** — when two replicas both sit far below the low
  watermark, the lighter one's flows are consolidated onto the heavier,
  letting the vacated node's cores park (energy; the same motivation as
  the paper's flow-path consolidation);
* a **hysteresis budget** caps migrations per interval so the table does
  not thrash.

This realizes the "SDN controller and NF controller update each other"
loop: NF controllers publish (utilization, headroom) and apply the knob
policies; the SDN controller rewrites the flow->chain mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nfv.cluster_kernel import ClusterKernel, one_interval
from repro.nfv.engine import TelemetrySample, bottleneck_utilization
from repro.nfv.node import Node
from repro.sdn.flows import FlowSpec, SteeringTable
from repro.utils.rng import RngLike, private_stream


@dataclass(frozen=True)
class SdnConfig:
    """Steering policy parameters."""

    high_watermark: float = 0.85  # chain utilization triggering relief
    low_watermark: float = 0.35  # below this, a replica is a merge candidate
    max_migrations_per_interval: int = 1
    #: Minimum intervals between touching the same flow (hysteresis).
    flow_cooldown_intervals: int = 3

    def __post_init__(self) -> None:
        if not 0.0 < self.low_watermark < self.high_watermark <= 1.0:
            raise ValueError("need 0 < low_watermark < high_watermark <= 1")
        if self.max_migrations_per_interval < 0:
            raise ValueError("migration budget must be >= 0")
        if self.flow_cooldown_intervals < 0:
            raise ValueError("cooldown must be >= 0")


@dataclass
class ChainReplica:
    """One chain replica registered with the SDN controller."""

    chain_name: str
    node: Node
    service: str = "default"
    last_sample: TelemetrySample | None = None

    @property
    def utilization(self) -> float:
        """Bottleneck-NF utilization (0 before any interval).

        The steering signal is the chain's *binding stage*, not the mean
        over provisioned cores — a chain drops packets as soon as one NF
        saturates, however idle its siblings and infra threads are.
        """
        if self.last_sample is None:
            return 0.0
        return bottleneck_utilization(self.last_sample)


class SdnController:
    """Steers flows across chain replicas using NF-controller telemetry."""

    def __init__(
        self,
        config: SdnConfig | None = None,
        *,
        interval_s: float = 1.0,
        rng: RngLike = None,
    ):
        self.config = config or SdnConfig()
        self.interval_s = float(interval_s)
        if not self.interval_s > 0:
            raise ValueError("interval must be positive")
        self.table = SteeringTable()
        self._replicas: dict[str, ChainReplica] = {}
        self._flows: dict[str, FlowSpec] = {}
        self._cooldown: dict[str, int] = {}
        self._t = 0.0
        # Private stream: a passed Generator is spawned from, not stored,
        # so two controllers built from the same parent (two clusters of
        # one fleet, say) can never interleave draws on shared RNG state.
        self._rng = private_stream(rng)
        #: Cluster-wide stepping: one fused kernel pass per interval over
        #: every registered node.
        self._kernel: ClusterKernel | None = None

    # -- registration ---------------------------------------------------------

    @property
    def time_s(self) -> float:
        """Simulated time."""
        return self._t

    @property
    def replicas(self) -> dict[str, ChainReplica]:
        """Registered chain replicas."""
        return dict(self._replicas)

    def register_replica(self, replica: ChainReplica) -> None:
        """Make a chain replica available for steering."""
        if replica.chain_name in self._replicas:
            raise ValueError(f"replica {replica.chain_name!r} already registered")
        if replica.chain_name not in replica.node.chains:
            raise ValueError(
                f"chain {replica.chain_name!r} is not deployed on the node"
            )
        self._replicas[replica.chain_name] = replica
        self._kernel = None  # node set changed; rebuild on next interval

    def add_flow(self, flow: FlowSpec, chain_name: str | None = None) -> None:
        """Admit a flow; default placement is the least-utilized replica."""
        if flow.name in self._flows:
            raise ValueError(f"flow {flow.name!r} already admitted")
        candidates = self._replicas_for(flow.service)
        if not candidates:
            raise ValueError(f"no replica offers service {flow.service!r}")
        target = chain_name or min(candidates, key=lambda c: self._replicas[c].utilization)
        if target not in candidates:
            raise ValueError(
                f"chain {target!r} does not offer service {flow.service!r}"
            )
        self._flows[flow.name] = flow
        self.table.assign(flow.name, target, reason="admission")

    def _replicas_for(self, service: str) -> list[str]:
        return [name for name, r in self._replicas.items() if r.service == service]

    # -- the control loop -------------------------------------------------------

    def offered_per_chain(self, dt_s: float) -> dict[str, tuple[float, float]]:
        """Aggregate each chain's flows into (pps, mean packet size)."""
        out: dict[str, tuple[float, float]] = {
            name: (0.0, 1518.0) for name in self._replicas
        }
        for fname, flow in self._flows.items():
            chain = self.table.chain_of(fname)
            rate = flow.rate_at(self._t, dt_s, self._rng)
            prev_rate, prev_pkt = out[chain]
            total = prev_rate + rate
            pkt = (
                (prev_pkt * prev_rate + flow.packet_bytes * rate) / total
                if total > 0
                else flow.packet_bytes
            )
            out[chain] = (total, pkt)
        return out

    def run_interval(self) -> dict[str, TelemetrySample]:
        """One cooperative interval: route flows, run nodes, re-steer.

        Nodes are stepped with the current steering table's aggregates —
        the whole cluster of replicas is priced in one fused
        :class:`~repro.nfv.cluster_kernel.ClusterKernel` pass — and the
        returned telemetry updates the replicas and drives the steering
        decisions for the *next* interval.
        """
        offered = self.offered_per_chain(self.interval_s)
        if self._kernel is None:
            self._kernel = ClusterKernel(
                [replica.node for replica in self._replicas.values()]
            )
        samples = self._kernel.step(*one_interval(offered), self.interval_s).samples
        for name, replica in self._replicas.items():
            replica.last_sample = samples[name]
        self._t += self.interval_s
        for flow in list(self._cooldown):
            self._cooldown[flow] -= 1
            if self._cooldown[flow] <= 0:
                del self._cooldown[flow]
        self._steer(offered)
        return samples

    def _steer(self, offered: dict[str, tuple[float, float]]) -> None:
        """Apply the relief/consolidation rules within the budget."""
        budget = self.config.max_migrations_per_interval
        if budget <= 0 or len(self._replicas) < 2:
            return
        # Overload relief first (throughput protection beats energy).
        for name, replica in sorted(
            self._replicas.items(), key=lambda kv: -kv[1].utilization
        ):
            if budget <= 0:
                break
            if replica.utilization < self.config.high_watermark:
                break
            movable = [
                f
                for f in self.table.flows_on(name)
                if f not in self._cooldown
            ]
            if len(movable) < 2:  # never empty a chain for relief
                continue
            peers = [
                c
                for c in self._replicas_for(replica.service)
                if c != name
                and self._replicas[c].utilization < self.config.high_watermark
            ]
            if not peers:
                continue
            target = min(peers, key=lambda c: self._replicas[c].utilization)
            flow = movable[0]
            self.table.assign(flow, target, reason="overload-relief")
            self._cooldown[flow] = self.config.flow_cooldown_intervals
            budget -= 1

        # Energy consolidation: merge the two coolest replicas of a service.
        if budget <= 0:
            return
        services = {r.service for r in self._replicas.values()}
        for service in services:
            members = self._replicas_for(service)
            cool = [
                c
                for c in members
                if self._replicas[c].utilization < self.config.low_watermark
                and self.table.flows_on(c)
            ]
            if len(cool) < 2:
                continue
            cool.sort(key=lambda c: self._replicas[c].utilization)
            source, target = cool[0], cool[-1]
            movable = [
                f for f in self.table.flows_on(source) if f not in self._cooldown
            ]
            if not movable:
                continue
            flow = movable[0]
            self.table.assign(flow, target, reason="energy-consolidation")
            self._cooldown[flow] = self.config.flow_cooldown_intervals
            budget -= 1
            if budget <= 0:
                return
