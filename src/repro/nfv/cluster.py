"""Multi-node deployment.

The paper's testbed is six nodes: three MoonGen traffic sources and three
NF hosts, each NF host running a 3-NF chain (§5).  :class:`Cluster` wires
traffic nodes to NF-host controllers, steps them in lockstep, and
aggregates cluster-wide telemetry.  This is also the layer that supports
flow-path-aware chain consolidation ("consolidates the VNFs based on the
flow path", §2): chains that share a flow path can be co-located on one
node to share the LLC.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hw.server import ServerSpec, testbed_cluster
from repro.nfv.chain import ServiceChain, default_chain
from repro.nfv.cluster_kernel import ClusterKernel, one_interval
from repro.nfv.controller import OnvmController
from repro.nfv.engine import TelemetrySample
from repro.nfv.node import Node
from repro.traffic.generators import ConstantRateGenerator, TrafficGenerator
from repro.utils.rng import RngLike, as_generator, spawn


@dataclass
class ClusterSample:
    """Aggregated cluster telemetry for one interval."""

    per_chain: dict[str, TelemetrySample]
    total_throughput_gbps: float
    total_energy_j: float
    mean_cpu_utilization: float

    @property
    def energy_efficiency(self) -> float:
        """Cluster-level T/E in Gbps per kJ."""
        if self.total_energy_j <= 0:
            return 0.0
        return self.total_throughput_gbps / (self.total_energy_j / 1e3)


class Cluster:
    """A set of NF-host nodes stepped in lockstep.

    Intervals run through the cluster-wide stepping kernel: every node's
    hosted chains are priced in one fused
    :class:`~repro.nfv.cluster_kernel.ClusterKernel` pass (per-node
    ``step_all`` remains the bit-identical fallback for heterogeneous
    hardware or mixed interval lengths).
    """

    def __init__(self, controllers: list[OnvmController]):
        if not controllers:
            raise ValueError("cluster needs at least one controller")
        names: list[str] = []
        for ctrl in controllers:
            names.extend(ctrl.bindings.keys())
        if len(names) != len(set(names)):
            raise ValueError("chain names must be unique across the cluster")
        self.controllers = controllers
        self.kernel = ClusterKernel([ctrl.node for ctrl in controllers])

    @property
    def chain_names(self) -> list[str]:
        """All chain names across nodes."""
        out: list[str] = []
        for ctrl in self.controllers:
            out.extend(ctrl.bindings.keys())
        return out

    def controller_for(self, chain_name: str) -> OnvmController:
        """The controller hosting a chain."""
        for ctrl in self.controllers:
            if chain_name in ctrl.bindings:
                return ctrl
        raise KeyError(f"no node hosts chain {chain_name!r}")

    def step(self, dt_s: float | None = None) -> ClusterSample:
        """Advance every node one interval; aggregate telemetry.

        All nodes sharing one interval length are priced in a single
        fused kernel pass; controllers with differing intervals (and
        ``dt_s=None``) fall back to per-controller stepping.
        """
        per_chain: dict[str, TelemetrySample] = {}
        dts = {
            dt_s if dt_s is not None else ctrl.interval_s
            for ctrl in self.controllers
        }
        if len(dts) == 1:
            dt = dts.pop()
            offered: dict[str, tuple[float, float]] = {}
            for ctrl in self.controllers:
                offered.update(ctrl.draw_offered(dt))
            samples = self.kernel.step(*one_interval(offered), dt).samples
            for ctrl in self.controllers:
                sub = {name: samples[name] for name in ctrl.bindings}
                ctrl.finish_interval(sub, dt)
                per_chain.update(sub)
        else:
            for ctrl in self.controllers:
                per_chain.update(ctrl.run_interval(dt_s))
        total_t = sum(s.throughput_gbps for s in per_chain.values())
        total_e = sum(s.energy_j for s in per_chain.values())
        utils = [s.cpu_utilization for s in per_chain.values()]
        return ClusterSample(
            per_chain=per_chain,
            total_throughput_gbps=total_t,
            total_energy_j=total_e,
            mean_cpu_utilization=float(np.mean(utils)) if utils else 0.0,
        )

    @staticmethod
    def testbed(
        n_hosts: int = 3,
        *,
        rng: RngLike = None,
        line_gbps: float = 10.0,
        interval_s: float = 1.0,
    ) -> "Cluster":
        """The paper's deployment: three NF hosts, each a 3-NF chain.

        The other three testbed nodes are the MoonGen sources, represented
        by each chain's line-rate generator.
        """
        streams = spawn(as_generator(rng), n_hosts)
        controllers = []
        for i in range(n_hosts):
            node = Node(ServerSpec(name=f"host{i}"))
            ctrl = OnvmController(node, interval_s=interval_s, rng=streams[i])
            chain = default_chain(f"chain{i}")
            gen = ConstantRateGenerator.line_rate(line_gbps)
            ctrl.add_chain(chain, gen)
            controllers.append(ctrl)
        return Cluster(controllers)


def consolidation_plan(
    chains: list[ServiceChain],
    flow_paths: dict[str, list[str]],
    n_nodes: int,
    *,
    capacity: int | None = None,
) -> dict[str, int]:
    """Assign chains to nodes, co-locating chains that share flow paths.

    GreenNFV "consolidates the VNFs based on the flow path and minimizes
    the cache eviction" — chains processing the same flows should share a
    socket so packets stay LLC-resident across chains.  We greedily group
    chains by overlapping flow paths, then round-robin groups over nodes.

    Parameters
    ----------
    chains:
        Chains to place (anything with a unique ``name``).
    flow_paths:
        chain name -> list of flow identifiers it processes.
    n_nodes:
        Available NF-host nodes.
    capacity:
        Optional per-node chain limit.  Groups larger than the limit are
        split; when a whole (sub-)group no longer fits on any node its
        members are placed individually — co-location is a preference,
        never a reason to oversubscribe a node.  Raises when the chains
        cannot fit at all (``len(chains) > capacity * n_nodes``).

    Returns chain name -> node index.
    """
    if n_nodes <= 0:
        raise ValueError("need at least one node")
    if capacity is not None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if len(chains) > capacity * n_nodes:
            raise ValueError(
                f"{len(chains)} chains cannot fit on {n_nodes} nodes "
                f"of capacity {capacity}"
            )
    names = [c.name for c in chains]
    if len(names) != len(set(names)):
        raise ValueError("duplicate chain names")
    # Union-find over chains sharing any flow id.
    parent = {n: n for n in names}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    by_flow: dict[str, list[str]] = {}
    for name in names:
        for flow in flow_paths.get(name, []):
            by_flow.setdefault(flow, []).append(name)
    for members in by_flow.values():
        for other in members[1:]:
            union(members[0], other)

    groups: dict[str, list[str]] = {}
    for name in names:
        groups.setdefault(find(name), []).append(name)

    # Largest groups first so co-located sets land on the emptiest node.
    # With a capacity, oversized groups are pre-split into capacity-sized
    # slices, and a slice that fits on no single node falls back to
    # per-member placement (always possible: total fit is checked above).
    assignment: dict[str, int] = {}
    loads = [0] * n_nodes
    placeable: list[list[str]] = []
    for _, members in sorted(groups.items(), key=lambda kv: -len(kv[1])):
        if capacity is None or len(members) <= capacity:
            placeable.append(members)
        else:
            placeable.extend(
                members[i : i + capacity] for i in range(0, len(members), capacity)
            )

    def fits(node: int, count: int) -> bool:
        return capacity is None or loads[node] + count <= capacity

    for members in placeable:
        rooms = [n for n in range(n_nodes) if fits(n, len(members))]
        if rooms:
            target = min(rooms, key=lambda n: (loads[n], n))
            for m in members:
                assignment[m] = target
            loads[target] += len(members)
        else:
            for m in members:
                target = min(
                    (n for n in range(n_nodes) if fits(n, 1)),
                    key=lambda n: (loads[n], n),
                )
                assignment[m] = target
                loads[target] += 1
    return assignment
