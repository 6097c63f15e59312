"""Differential and behavioral tests for the cluster-wide stepping kernel.

``ClusterKernel.step`` prices every node's hosted chains in one fused
pass; it is the one place a diagonal plan is compiled and cached.  The
golden suite checks its one-interval blocks against the per-node
reference — a Python loop of ``Node.step_all`` calls, the scalar
per-node fold — to <= 1 ulp (asserted bit-exact) across randomized node
counts, heterogeneous chains, knob churn, frame-size changes and every
dispatch path, read from the ``kernel/plan_cache/*`` counters (per-node
fallback, compile on first sight, warm fused plan).  Invalid arguments
are rejected before any state changes.  The consumer classes pin the
rewired surfaces: ``SdnController`` steering decisions must be
identical to the per-node loop in ``benchmarks/perf/reference.py``.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro import obs
from repro.nfv.chain import default_chain, heavy_chain, light_chain
from repro.nfv.cluster_kernel import ClusterKernel, engines_compatible, one_interval
from repro.nfv.engine import EngineParams, PollingMode, _LazyPerNF, bottleneck_utilization
from repro.nfv.knobs import KnobSettings
from repro.nfv.node import Node
from repro.sdn import ChainReplica, FlowSpec, SdnConfig, SdnController
from repro.traffic.generators import ConstantRateGenerator
from repro.traffic.packet import IMIX, LARGE_PACKETS, SMALL_PACKETS
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


def step_one(kernel: ClusterKernel, offered: dict, dt_s: float = 1.0) -> dict:
    """One interval through the kernel; the per-chain samples."""
    return kernel.step(*one_interval(offered), dt_s).samples


def plan_cache_paths(step, *args, **kwargs):
    """Run one step with ``repro.obs`` on; return its result and the
    plan-cache paths the kernel took (``hit``/``promote``/``fallback``;
    empty when the kernel was not stepped)."""
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
    """Knobs, CAT grants, config generation and meter of every node."""
    return [
        (
            {name: hosted.knobs for name, hosted in node.chains.items()},
            node.cache.allocations,
            node._config_gen,
            vars(node.meter).copy(),
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
        # Three intervals walk both fused paths: the compile on first
        # sight and the cached plan.
        for _ in range(3):
            got = step_one(kernel, offered, dt_s)
            ref = reference_step(nodes_r, offered, dt_s)
            assert set(got) == set(ref)
            for name in ref:
                # Dataclass equality: every field (power included) and
                # every per-NF row, bit-exact.
                assert got[name] == ref[name]
        # Side effects match too: the node meters.
        for nk, nr in zip(nodes_k, nodes_r):
            assert nk.meter.total_joules == nr.meter.total_joules
            assert nk.meter.total_packets == nr.meter.total_packets

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
            got, paths = plan_cache_paths(step_one, kernel, drawn)
            ref = reference_step(nodes_r, drawn)
            for name in ref:
                assert got[name] == ref[name]
            # Same configuration re-stepped: compiled once, then fused.
            assert paths == [("promote", "hit", "hit", "hit")[it]]

    def test_knob_change_recompiles(self):
        nodes_k, offered = build_cluster(3)
        nodes_r, _ = build_cluster(3)
        kernel = ClusterKernel(nodes_k)
        for _ in range(3):
            _, paths = plan_cache_paths(step_one, kernel, offered)
            reference_step(nodes_r, offered)
        assert paths == ["hit"]
        name = next(iter(offered))
        new_knobs = KnobSettings(cpu_share=0.9, batch_size=48)
        for node in (*nodes_k, *nodes_r):
            if name in node.chains:
                node.apply_knobs(name, new_knobs)
        # A knob change invalidates the fused plan: the new
        # configuration compiles on first sight.
        for expected in ("promote", "hit"):
            got, paths = plan_cache_paths(step_one, kernel, offered)
            ref = reference_step(nodes_r, offered)
            assert paths == [expected]
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
            got, paths = plan_cache_paths(step_one, kernel, offered)
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
            step_one(kernel, offered, dt_s=0.0)
        with pytest.raises(KeyError):
            step_one(kernel, {"ghost": (1e5, 64.0)})
        names, loads, pkts = one_interval(offered)
        with pytest.raises(ValueError, match="frame size"):
            kernel.step(names, loads, pkts[:-1])
        with pytest.raises(ValueError, match="non-negative"):
            kernel.step(names, np.full_like(loads, np.nan), pkts)
        # A node with no chains idles but still draws infra power.
        empty = Node()
        mixed = ClusterKernel([nodes[0], empty])
        first_offered = {n: offered[n] for n in nodes[0].chains}
        for _ in range(3):
            out = step_one(mixed, first_offered)
        assert set(out) == set(nodes[0].chains)
        assert empty.node_power_w() > 0

    @pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warm"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -64.0])
    def test_invalid_frame_size_leaves_state_unchanged(self, bad, warm):
        # Frame sizes are checked once, before the kernel touches knobs,
        # meters or its plan cache: on a fresh kernel and on one
        # whose configuration is already compiled.
        nodes, offered = build_cluster(3)
        kernel = ClusterKernel(nodes)
        if warm:
            step_one(kernel, offered)
        plan_key = kernel._plan_key
        before = node_state(nodes)
        names, loads, pkts = one_interval(offered)
        with pytest.raises(ValueError, match="frame sizes"):
            kernel.step(names, loads, [*pkts[:-1], bad])
        with pytest.raises(ValueError, match="frame sizes"):
            kernel.step(names, np.repeat(loads, 3, axis=1), bad)
        assert node_state(nodes) == before
        assert kernel._plan_key == plan_key

    def test_rejected_step_leaves_nodes_unchanged(self):
        # Every name is checked before any state changes: unknown
        # offered traffic after known chains must not integrate a meter
        # nor compile a plan.
        nodes, offered = build_cluster(3)
        kernel = ClusterKernel(nodes)
        name = next(iter(offered))
        before = node_state(nodes)
        with pytest.raises(KeyError):
            step_one(kernel, {**offered, "ghost": (1e5, 64.0)})
        with pytest.raises(ValueError, match="duplicate"):
            kernel.step([name, name], np.full((2, 1), 1e5), 64.0)
        assert node_state(nodes) == before
        assert kernel._plan_key is None

    def test_duplicate_node_objects_are_deduped(self):
        nodes, offered = build_cluster(2)
        kernel = ClusterKernel([nodes[0], nodes[0], *nodes])
        assert len(kernel.nodes) == len(nodes)
        ref_nodes, _ = build_cluster(2)
        for _ in range(2):
            got = step_one(kernel, offered)
            ref = reference_step(ref_nodes, offered)
        for name in ref:
            assert got[name] == ref[name]


class TestClusterTelemetry:
    """The fused pass's lazy per-NF materialization and steering signal."""

    def test_lazy_per_nf_equals_eager(self):
        nodes, offered = build_cluster(7)
        kernel = ClusterKernel(nodes)
        for _ in range(2):
            samples = step_one(kernel, offered)
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

    def step(self, names, loads, packet_bytes, dt_s):
        offered = dict(zip(names, zip(loads[:, 0].tolist(), packet_bytes)))
        per_node = [
            {n: offered[n] for n in node.chains if n in offered} for node in self.nodes
        ]
        return SimpleNamespace(samples=self.step_cluster(self.nodes, per_node, dt_s))


class TestSdnSteeringEquivalence:
    """Steering outcomes are unchanged between the kernel and the per-node loop."""

    LINE = line_rate_pps(10.0, 1518)

    def _build(self, sizes=(LARGE_PACKETS,)) -> SdnController:
        """Four replicas and an imbalanced admission; flow j carries
        ``sizes[j % len(sizes)]`` frames."""
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
        flows = [(f"hot{j}", 0.18, "sfc0") for j in range(6)]
        flows += [("cool-a", 0.02, "sfc2"), ("cool-b", 0.03, "sfc3")]
        for j, (name, share, chain_name) in enumerate(flows):
            generator = ConstantRateGenerator(share * self.LINE, sizes[j % len(sizes)])
            sdn.add_flow(FlowSpec(name, generator, service="sfc"), chain_name=chain_name)
        return sdn

    def _run_lockstep(self, sizes, intervals: int, reference_cluster_step):
        """Step a kernel-backed and a per-node-loop controller side by
        side; every sample and steering decision must agree."""
        kernel_sdn = self._build(sizes)
        ref_sdn = self._build(sizes)
        ref_sdn._kernel = _PerNodeLoop(
            [replica.node for replica in ref_sdn.replicas.values()],
            reference_cluster_step,
        )
        for it in range(intervals):
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
        for kernel_node, ref_node in zip(
            kernel_sdn._kernel.nodes, ref_sdn._kernel.nodes
        ):
            assert vars(kernel_node.meter) == vars(ref_node.meter)
        return ref_sdn

    def test_migration_decisions_identical(self, perf_reference):
        ref_sdn = self._run_lockstep(
            (LARGE_PACKETS,), 15, perf_reference.reference_cluster_step
        )
        # The scenario actually exercised steering (not a vacuous pass).
        assert ref_sdn.table.migrations >= 2
        reasons = {rule.reason for rule in ref_sdn.table.history}
        assert "overload-relief" in reasons

    def test_mixed_frame_sizes_recompile_after_migrations(self, perf_reference):
        # 64 B, IMIX and 1518 B flows: a migration changes the mean
        # frame size of both chains it touches, which is part of the
        # plan key, so the kernel must recompile and still match.
        obs.enable()
        try:
            ref_sdn = self._run_lockstep(
                (SMALL_PACKETS, IMIX, LARGE_PACKETS),
                16,
                perf_reference.reference_cluster_step,
            )
            counters = obs.drain_counters()
        finally:
            obs.disable()
        assert ref_sdn.table.migrations >= 2
        reasons = {rule.reason for rule in ref_sdn.table.history}
        assert {"overload-relief", "energy-consolidation"} <= reasons
        # One compile on first sight, then one per migration.
        assert counters["kernel/plan_cache/promote"] == 1 + ref_sdn.table.migrations
        assert counters["kernel/plan_cache/hit"] > 0
        assert "kernel/plan_cache/fallback" not in counters

    def test_kernel_handles_replica_registration_growth(self):
        sdn = self._build()
        sdn.run_interval()
        node = Node()
        chain = default_chain("sfc9")
        node.deploy(chain, KnobSettings())
        sdn.register_replica(ChainReplica(chain_name="sfc9", node=node, service="sfc"))
        samples = sdn.run_interval()
        assert "sfc9" in samples
