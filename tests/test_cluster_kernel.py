"""Differential and behavioral tests for the cluster-wide stepping kernel.

``ClusterKernel.step`` prices every node's hosted chains in one fused
pass; it is the one place a diagonal plan is compiled and cached.  The
golden suite checks it against the per-node reference — a Python loop
of ``Node.step_all`` calls, the scalar per-node fold — to <= 1 ulp
(asserted bit-exact) across randomized node counts, heterogeneous
chains, knob churn, frame-size changes and every dispatch path, read
from the ``kernel/plan_cache/*`` counters (cold per-node fallback,
compile on second sight, warm fused plan).  The consumer classes pin
the rewired surfaces: ``SdnController`` steering decisions and
``Cluster.step`` aggregates must be identical to the per-node loop in
``benchmarks/perf/reference.py``.
"""

import numpy as np
import pytest

from repro import obs
from repro.nfv.chain import default_chain, heavy_chain, light_chain
from repro.nfv.cluster import Cluster
from repro.nfv.cluster_kernel import ClusterKernel, engines_compatible
from repro.nfv.engine import EngineParams, PollingMode, _LazyPerNF, bottleneck_utilization
from repro.nfv.knobs import KnobSettings
from repro.nfv.node import Node
from repro.sdn import ChainReplica, FlowSpec, SdnConfig, SdnController
from repro.traffic.generators import ConstantRateGenerator
from repro.utils.units import line_rate_pps

PACKET_SIZES = (64.0, 256.0, 512.0, 1024.0, 1518.0)
CHAIN_KINDS = (default_chain, light_chain, heavy_chain)


def build_cluster(seed: int) -> tuple[list[Node], dict]:
    """A randomized homogeneous cluster: 1-4 nodes x 1-4 chains each."""
    rng = np.random.default_rng(seed)
    polling = PollingMode.POLL if seed % 4 == 0 else PollingMode.ADAPTIVE
    cat = seed % 5 != 0
    n_nodes = int(rng.integers(1, 5))
    nodes: list[Node] = []
    offered: dict[str, tuple[float, float]] = {}
    for j in range(n_nodes):
        node = Node(polling=polling, cat_enabled=cat)
        n_chains = int(rng.integers(1, 5))
        for i in range(n_chains):
            chain = CHAIN_KINDS[int(rng.integers(len(CHAIN_KINDS)))](f"n{j}c{i}")
            node.deploy(
                chain,
                KnobSettings(
                    cpu_share=float(rng.uniform(0.2, 1.5)),
                    cpu_freq_ghz=float(rng.uniform(1.2, 2.1)),
                    llc_fraction=float(rng.uniform(0.05, 1.0 / n_chains)),
                    dma_mb=float(rng.uniform(1.0, 40.0)),
                    batch_size=int(rng.integers(1, 257)),
                ),
            )
            offered[chain.name] = (
                float(rng.uniform(0.0, 3e6)),
                float(rng.choice(PACKET_SIZES)),
            )
        nodes.append(node)
    return nodes, offered


def reference_step(nodes: list[Node], offered: dict, dt_s: float = 1.0) -> dict:
    """The per-node loop the kernel replaces (each node's own step_all)."""
    samples = {}
    for node in nodes:
        samples.update(
            node.step_all(
                {n: offered[n] for n in node.chains if n in offered}, dt_s
            )
        )
    return samples


def plan_cache_paths(step, *args, **kwargs):
    """Run one step with ``repro.obs`` on; return its result and the
    plan-cache paths the kernel took (``hit``/``promote``/``miss``/
    ``fallback``; empty when the kernel was not stepped)."""
    obs.enable()
    try:
        result = step(*args, **kwargs)
        counters = obs.drain_counters()
    finally:
        obs.disable()
    prefix = "kernel/plan_cache/"
    paths = [name[len(prefix):] for name in counters if name.startswith(prefix)]
    return result, paths


def node_state(nodes):
    """Knobs, CAT grants and config generation of every node."""
    return [
        (
            {name: hosted.knobs for name, hosted in node.chains.items()},
            node.cache.allocations,
            node._config_gen,
        )
        for node in nodes
    ]


class TestGoldenEquivalence:
    """~50 randomized cases: fused kernel vs. per-node loop, bit-exact."""

    @pytest.mark.parametrize("seed", range(25))
    @pytest.mark.parametrize("dt_s", [1.0, 0.25])
    def test_kernel_matches_per_node_loop(self, seed, dt_s):
        nodes_k, offered = build_cluster(seed)
        nodes_r, _ = build_cluster(seed)
        kernel = ClusterKernel(nodes_k)
        # Three intervals walk all dispatch paths: per-node fallback,
        # compile-on-second-sight, and the cached fused plan.
        for _ in range(3):
            got = kernel.step(offered, dt_s)
            ref = reference_step(nodes_r, offered, dt_s)
            assert set(got) == set(ref)
            for name in ref:
                # Dataclass equality: every field (power included) and
                # every per-NF row, bit-exact.
                assert got[name] == ref[name]
        # Side effects match too: node/chain meters and rx rings.
        for nk, nr in zip(nodes_k, nodes_r):
            assert nk.meter.total_joules == nr.meter.total_joules
            assert nk.meter.total_packets == nr.meter.total_packets
            for hk, hr in zip(nk.chains.values(), nr.chains.values()):
                assert hk.meter.total_joules == hr.meter.total_joules
                assert hk.rx_ring.occupancy == hr.rx_ring.occupancy
                assert hk.rx_ring.dropped == hr.rx_ring.dropped
                assert hk.rx_ring.high_water == hr.rx_ring.high_water

    @pytest.mark.parametrize("seed", range(5))
    def test_fused_plan_survives_load_changes_only(self, seed):
        nodes_k, offered = build_cluster(seed)
        nodes_r, _ = build_cluster(seed)
        kernel = ClusterKernel(nodes_k)
        rng = np.random.default_rng(900 + seed)
        pkts = {name: pkt for name, (_pps, pkt) in offered.items()}
        for it in range(4):
            drawn = {
                name: (float(rng.uniform(0.0, 3e6)), pkts[name]) for name in offered
            }
            got, paths = plan_cache_paths(kernel.step, drawn)
            ref = reference_step(nodes_r, drawn)
            for name in ref:
                assert got[name] == ref[name]
            # Same configuration re-stepped: compiled once, then fused.
            assert paths == [("miss", "promote", "hit", "hit")[it]]

    def test_knob_churn_falls_back_then_recompiles(self):
        nodes_k, offered = build_cluster(3)
        nodes_r, _ = build_cluster(3)
        kernel = ClusterKernel(nodes_k)
        for _ in range(3):
            _, paths = plan_cache_paths(kernel.step, offered)
            reference_step(nodes_r, offered)
        assert paths == ["hit"]
        name = next(iter(offered))
        new_knobs = {name: KnobSettings(cpu_share=0.9, batch_size=48)}
        got, paths = plan_cache_paths(kernel.step, offered, knobs=new_knobs)
        # Knob change invalidates the fused plan: cold interval again.
        assert paths == ["miss"]
        for node in nodes_r:
            if name in node.chains:
                node.apply_knobs(name, new_knobs[name])
        ref = reference_step(nodes_r, offered)
        for chain_name in ref:
            assert got[chain_name] == ref[chain_name]
        # Second sight of the new configuration fuses again and matches.
        got, paths = plan_cache_paths(kernel.step, offered)
        ref = reference_step(nodes_r, offered)
        assert paths == ["promote"]
        for chain_name in ref:
            assert got[chain_name] == ref[chain_name]

    def test_heterogeneous_engines_use_per_node_path(self):
        node_a = Node()
        node_a.deploy(default_chain("a0"), KnobSettings())
        node_b = Node(params=EngineParams(ring_call_cycles=300.0))
        node_b.deploy(light_chain("b0"), KnobSettings())
        ref_a = Node()
        ref_a.deploy(default_chain("a0"), KnobSettings())
        ref_b = Node(params=EngineParams(ring_call_cycles=300.0))
        ref_b.deploy(light_chain("b0"), KnobSettings())
        assert not engines_compatible([node_a, node_b])
        kernel = ClusterKernel([node_a, node_b])
        offered = {"a0": (1e6, 512.0), "b0": (5e5, 1518.0)}
        for _ in range(3):
            got, paths = plan_cache_paths(kernel.step, offered)
            ref = reference_step([ref_a, ref_b], offered)
            assert paths == ["fallback"]  # never fuses
            for name in ref:
                assert got[name] == ref[name]

    def test_validation_and_edge_cases(self):
        with pytest.raises(ValueError):
            ClusterKernel([])
        nodes, offered = build_cluster(1)
        kernel = ClusterKernel(nodes)
        with pytest.raises(ValueError):
            kernel.step(offered, dt_s=0.0)
        with pytest.raises(KeyError):
            kernel.step({"ghost": (1e5, 64.0)})
        with pytest.raises(KeyError):
            kernel.step({}, knobs={"ghost": KnobSettings()})
        # A node with no chains idles but still draws infra power.
        empty = Node()
        mixed = ClusterKernel([nodes[0], empty])
        first_offered = {n: offered[n] for n in nodes[0].chains}
        for _ in range(3):
            out = mixed.step(first_offered)
        assert set(out) == set(nodes[0].chains)
        assert empty.node_power_w() > 0

    def test_rejected_step_leaves_nodes_unchanged(self):
        # Names are all checked before any knob lands: an unknown knob
        # after a known one, or unknown offered traffic, must not apply
        # the known chain's knobs, repartition CAT or bump a generation.
        nodes, offered = build_cluster(3)
        kernel = ClusterKernel(nodes)
        known = next(iter(offered))
        changed = KnobSettings(cpu_share=0.9, llc_fraction=0.07, batch_size=48)
        before = node_state(nodes)
        with pytest.raises(KeyError):
            kernel.step(offered, knobs={known: changed, "ghost": KnobSettings()})
        with pytest.raises(KeyError):
            kernel.step({**offered, "ghost": (1e5, 64.0)}, knobs={known: changed})
        assert node_state(nodes) == before

    def test_duplicate_node_objects_are_deduped(self):
        nodes, offered = build_cluster(2)
        kernel = ClusterKernel([nodes[0], nodes[0], *nodes])
        assert len(kernel.nodes) == len(nodes)
        ref_nodes, _ = build_cluster(2)
        for _ in range(2):
            got = kernel.step(offered)
            ref = reference_step(ref_nodes, offered)
        for name in ref:
            assert got[name] == ref[name]


class TestClusterTelemetry:
    """The fused pass's lazy per-NF materialization and steering signal."""

    def test_lazy_per_nf_equals_eager(self):
        nodes, offered = build_cluster(7)
        kernel = ClusterKernel(nodes)
        for _ in range(2):
            samples = kernel.step(offered)
        name = next(iter(samples))
        sample = samples[name]
        assert isinstance(sample.per_nf, _LazyPerNF)
        # max_utilization is readable without materializing...
        assert sample.per_nf._items is None
        util = sample.per_nf.max_utilization
        assert sample.per_nf._items is None
        # ...and materialization agrees with it and with indexing.
        assert util == max(t.utilization for t in sample.per_nf)
        assert sample.per_nf[0] is sample.per_nf._items[0]
        assert len(sample.per_nf) == len(list(sample.per_nf))
        assert bottleneck_utilization(sample) == util

    def test_bottleneck_utilization_fallbacks(self):
        nodes, offered = build_cluster(8)
        node = nodes[0]
        sub = {n: offered[n] for n in node.chains}
        sample = next(iter(node.step_all(sub).values()))
        # Eager list path.
        assert bottleneck_utilization(sample) == max(
            t.utilization for t in sample.per_nf
        )
        sample.per_nf = []
        assert bottleneck_utilization(sample) == sample.cpu_utilization


class _PerNodeLoop:
    """Stands in for an SDN controller's fused kernel: the per-node loop."""

    def __init__(self, nodes, step_cluster):
        self.nodes = nodes
        self.step_cluster = step_cluster

    def step(self, offered, dt_s):
        per_node = [
            {n: offered[n] for n in node.chains if n in offered} for node in self.nodes
        ]
        return self.step_cluster(self.nodes, per_node, dt_s)


class TestSdnSteeringEquivalence:
    """Steering outcomes are unchanged between the kernel and the per-node loop."""

    LINE = line_rate_pps(10.0, 1518)

    def _build(self) -> SdnController:
        config = SdnConfig(max_migrations_per_interval=1, flow_cooldown_intervals=3)
        sdn = SdnController(config, rng=0)
        tuned = KnobSettings(
            cpu_share=1.0, batch_size=128, dma_mb=12, llc_fraction=0.45
        )
        for i in range(4):
            node = Node()
            chain = default_chain(f"sfc{i}")
            node.deploy(chain, tuned)
            sdn.register_replica(
                ChainReplica(chain_name=f"sfc{i}", node=node, service="sfc")
            )
        # An imbalanced admission so both relief and consolidation fire.
        for j in range(6):
            sdn.add_flow(
                FlowSpec(f"hot{j}", ConstantRateGenerator(0.18 * self.LINE), service="sfc"),
                chain_name="sfc0",
            )
        sdn.add_flow(
            FlowSpec("cool-a", ConstantRateGenerator(0.02 * self.LINE), service="sfc"),
            chain_name="sfc2",
        )
        sdn.add_flow(
            FlowSpec("cool-b", ConstantRateGenerator(0.03 * self.LINE), service="sfc"),
            chain_name="sfc3",
        )
        return sdn

    def test_migration_decisions_identical(self, perf_reference):
        kernel_sdn = self._build()
        ref_sdn = self._build()
        ref_sdn._kernel = _PerNodeLoop(
            [replica.node for replica in ref_sdn.replicas.values()],
            perf_reference.reference_cluster_step,
        )
        for it in range(15):
            got = kernel_sdn.run_interval()
            ref = ref_sdn.run_interval()
            assert set(got) == set(ref)
            for name in ref:
                assert got[name] == ref[name], (it, name)
            # Same steering state after every interval: assignments,
            # migration count, hysteresis budget bookkeeping.
            flows = list(ref_sdn.table.rules)
            assert {f: kernel_sdn.table.chain_of(f) for f in flows} == {
                f: ref_sdn.table.chain_of(f) for f in flows
            }
            assert kernel_sdn.table.migrations == ref_sdn.table.migrations
            assert kernel_sdn._cooldown == ref_sdn._cooldown
            for name in ref_sdn.replicas:
                assert (
                    kernel_sdn.replicas[name].utilization
                    == ref_sdn.replicas[name].utilization
                )
        # The scenario actually exercised steering (not a vacuous pass).
        assert ref_sdn.table.migrations >= 2
        reasons = {rule.reason for rule in ref_sdn.table.history}
        assert "overload-relief" in reasons

    def test_kernel_handles_replica_registration_growth(self):
        sdn = self._build()
        sdn.run_interval()
        node = Node()
        chain = default_chain("sfc9")
        node.deploy(chain, KnobSettings())
        sdn.register_replica(ChainReplica(chain_name="sfc9", node=node, service="sfc"))
        samples = sdn.run_interval()
        assert "sfc9" in samples


class TestClusterStepEquivalence:
    """Cluster.step through the kernel == the legacy per-controller loop."""

    def test_testbed_cluster_aggregates_identical(self):
        fused = Cluster.testbed(3, rng=0)
        legacy = Cluster.testbed(3, rng=0)
        for _ in range(4):
            a, paths = plan_cache_paths(fused.step)
            per_chain = {}
            for ctrl in legacy.controllers:
                per_chain.update(ctrl.run_interval(None))
            assert set(a.per_chain) == set(per_chain)
            for name in per_chain:
                assert a.per_chain[name] == per_chain[name]
        # Warm intervals actually ran fused.
        assert paths in (["promote"], ["hit"])

    def test_mixed_intervals_fall_back(self):
        cluster = Cluster.testbed(2, rng=1)
        cluster.controllers[1].interval_s = 0.5
        # Heterogeneous dt -> per-controller path; the kernel never steps.
        sample, paths = plan_cache_paths(cluster.step)
        assert paths == []
        assert sample.total_throughput_gbps > 0
