"""Differential and behavioral tests for the cluster-wide stepping kernel.

``ClusterKernel.step`` prices every node's hosted chains in one fused
pass; it is the one place a diagonal plan is compiled and cached.  The
golden suite checks its one-interval blocks against the per-node
reference — a Python loop of ``Node.step_all`` calls, the scalar
per-node fold — bit for bit, across randomized node counts,
heterogeneous chains, knob churn, frame-size changes and both
plan-cache outcomes, read from the ``kernel/plan_cache/*`` counters
(compile on first sight, warm fused plan), and on clusters that host no
chain at all.  The kernel returns rows only (achieved rate, throughput,
energy, latency, power, bottleneck utilization); :func:`kernel_samples`
joins them with the other sample fields, priced by the diagonal plan
the kernel compiles, so every field of every ``step_all`` sample stays
compared.  Nodes whose hardware or engine calibration differ are
refused at construction, and invalid arguments are rejected before any
state changes.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro import obs
from repro.hw.cache import LlcSpec
from repro.hw.cpu import CpuSpec
from repro.hw.dma import DmaSpec
from repro.hw.nic import NicSpec
from repro.hw.power import PowerModelParams
from repro.hw.server import ServerSpec
from repro.nfv.chain import default_chain, heavy_chain, light_chain
from repro.nfv.cluster_kernel import ClusterKernel, engines_compatible, row_names
from repro.nfv.engine import (
    EngineParams,
    NFTelemetry,
    PollingMode,
    TelemetrySample,
    chain_stack,
)
from repro.nfv.knobs import KnobSettings
from repro.nfv.node import Node, node_folds
from repro.traffic.packet import IMIX

PACKET_SIZES = (64.0, 256.0, 512.0, 1024.0, 1518.0)
CHAIN_KINDS = (default_chain, light_chain, heavy_chain)
#: One node setting per physics-bearing difference the fused plan
#: cannot share with a default ``Node()``.
MISMATCHES = {
    "engine-params": {"params": EngineParams(ring_call_cycles=300.0)},
    "polling": {"polling": PollingMode.POLL},
    "cat": {"cat_enabled": False},
    "parking": {"park_idle_cores": False},
    "cpu": {"server": ServerSpec(cpu=CpuSpec(cores=12))},
    "llc": {"server": ServerSpec(llc=LlcSpec(n_ways=16))},
    "nic": {"server": ServerSpec(nic=NicSpec(line_rate_gbps=25.0))},
    "dma": {"server": ServerSpec(dma=DmaSpec(drain_latency_s=2e-3))},
    "power": {"server": ServerSpec(power=PowerModelParams(p_max_w=180.0))},
}


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


def load_block(offered: dict) -> tuple[list, np.ndarray, list]:
    """``{name: (pps, frame bytes)}`` as one interval's
    :meth:`ClusterKernel.step` arguments ``(names, loads, frame sizes)``."""
    names = list(offered)
    return (
        names,
        np.array([offered[n][0] for n in names]).reshape(-1, 1),
        [offered[n][1] for n in names],
    )


def step_one(kernel: ClusterKernel, offered: dict, dt_s: float = 1.0):
    """One interval through the kernel; its block telemetry."""
    return kernel.step(*load_block(offered), dt_s)


#: The sample fields a kernel block returns as ``(n, R)`` rows.
BLOCK_FIELDS = ("achieved_pps", "throughput_gbps", "energy_j", "latency_s", "power_w")


def plan_samples(multi, stack, dt_s: float = 1.0) -> list[TelemetrySample]:
    """One interval of a diagonal plan's rows as ``TelemetrySample``s,
    per-NF rows included, to compare field by field with the scalar
    ``PacketEngine.step``."""
    rows = []
    for r, profile in enumerate(stack.profiles):
        n = len(profile)
        per_nf = [
            NFTelemetry(*nf)
            for nf in zip(
                profile.names,
                multi.cycles_per_packet[r, :n].tolist(),
                multi.service_rate_pps[r, :n].tolist(),
                multi.nf_utilization[r, :n].tolist(),
                multi.misses_per_packet[r, :n].tolist(),
            )
        ]
        offered = float(multi.offered_pps[r])
        rows.append(
            TelemetrySample(
                dt_s=dt_s,
                offered_pps=offered,
                achieved_pps=float(multi.achieved_pps[r]),
                packet_bytes=float(multi.packet_bytes[r]),
                throughput_gbps=float(multi.throughput_gbps[r]),
                llc_miss_rate_per_s=float(multi.llc_miss_rate_per_s[r]),
                cpu_utilization=float(multi.cpu_utilization[r]),
                cpu_cores_busy=float(multi.cpu_cores_busy[r]),
                power_w=float(multi.power_w[r]),
                energy_j=float(multi.energy_j[r]),
                dropped_pps=float(multi.dropped_pps[r]),
                latency_s=float(multi.latency_s[r]),
                arrival_rate_pps=offered,
                per_nf=per_nf,
            )
        )
    return rows


def kernel_samples(nodes, offered: dict, block, dt_s: float = 1.0) -> dict:
    """The last interval of a kernel block as one sample per hosted chain.

    The block's rows give the achieved rate, throughput, energy, latency
    and power; its utilization row must be each chain's bottleneck NF.
    Every other field is priced by the diagonal plan the kernel
    compiles — ``compile_chains`` on the same stack, CAT grants and
    contention, with ``include_power=False`` — at ``offered`` (unnamed
    chains idle at (0, 1518)).  The result compares field for field
    with ``Node.step_all``'s samples.
    """
    chains, knobs, grants, contention, pkts, loads = [], [], [], [], [], []
    for node in nodes:
        node_offered = [offered.get(name, (0.0, 1518.0)) for name in node.chains]
        pkts_of_node = [pkt for _, pkt in node_offered]
        node_contention = node_folds(
            node.table.tolist(), pkts_of_node, len(pkts_of_node), node.engine
        )[0]
        for (name, hosted), (pps, pkt) in zip(node.chains.items(), node_offered):
            chains.append(hosted.chain)
            knobs.append(hosted.knobs)
            grants.append(node.cache.allocated_bytes(name))
            contention.append(node_contention)
            pkts.append(pkt)
            loads.append(pps)
    if not chains:
        return {}
    engine = nodes[0].engine
    stack = chain_stack(tuple(chains), tuple(pkts), engine.server.llc.line_bytes)
    plan = engine.compile_chains(
        stack, knobs, llc_bytes=grants, contention=np.asarray(contention)
    )
    rows = plan_samples(plan.step(loads, dt_s, include_power=False), stack, dt_s)
    names = row_names(nodes)
    for r, sample in enumerate(rows):
        for field in BLOCK_FIELDS:
            setattr(sample, field, float(getattr(block, field)[-1, r]))
        assert block.utilization[-1, r] == max(nf.utilization for nf in sample.per_nf)
    return dict(zip(names, rows))


def cube_rounds_apart(node: Node) -> bool:
    """Whether numpy's array power and its scalar power round the Fan
    model's frequency cube apart at the node's mean chain frequency.

    The kernel prices P_max through the first and ``step_all`` through
    the second, so only on such a node may node power differ (by 1 ulp)
    and a chain's attributed power and energy (by up to 2 ulp).
    """
    n = len(node.chains)
    freq = node_folds(node.table.tolist(), [1518.0] * n, n, node.engine)[2]
    model = node.engine.power_model
    return model.p_max_at(np.array([freq]))[0] != model.p_max_at(freq)


def plan_cache_paths(step, *args, **kwargs):
    """Run one step with ``repro.obs`` on; return its result and the
    plan-cache paths the kernel took (``hit``/``promote``; empty when
    the kernel was not stepped)."""
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
            block = step_one(kernel, offered, dt_s)
            got = kernel_samples(nodes_k, offered, block, dt_s)
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
            block, paths = plan_cache_paths(step_one, kernel, drawn)
            got = kernel_samples(nodes_k, drawn, block)
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
            block, paths = plan_cache_paths(step_one, kernel, offered)
            got = kernel_samples(nodes_k, offered, block)
            ref = reference_step(nodes_r, offered)
            assert paths == [expected]
            for chain_name in ref:
                assert got[chain_name] == ref[chain_name]

    def test_per_name_frame_sizes_recompile_on_change(self):
        # A flow moving between chains changes the mean frame size of
        # both, and the sizes are part of the plan key: each new set of
        # per-name sizes compiles once, and every interval still
        # matches step_all.
        nodes_k, offered = build_cluster(6)
        nodes_r, _ = build_cluster(6)
        kernel = ClusterKernel(nodes_k)
        names = list(offered)
        mixed = (64.0, IMIX.mean_bytes, 1518.0)
        sizes = [
            tuple(mixed[(i + k) % 3] for i in range(len(names))) for k in range(3)
        ]
        schedule = [sizes[0]] * 2 + [sizes[1]] * 3 + [sizes[0], sizes[2], sizes[2]]
        # Node n1's mean frequency, 1.7667 GHz, is one at which numpy's
        # array and scalar power round P_max's cube apart: only there
        # may power and energy differ, by up to 2 ulp, and its meter's
        # joules by 1.  Node n0 stays exact.
        apart = [cube_rounds_apart(node) for node in nodes_r]
        assert apart == [False, True]
        rng = np.random.default_rng(60)
        promotes = 0
        for i, pkts in enumerate(schedule):
            drawn = {
                name: (float(rng.uniform(0.0, 3e6)), pkt)
                for name, pkt in zip(names, pkts)
            }
            block, paths = plan_cache_paths(step_one, kernel, drawn)
            new_sizes = i == 0 or pkts != schedule[i - 1]
            assert paths == ["promote" if new_sizes else "hit"], i
            promotes += new_sizes
            got = kernel_samples(nodes_k, drawn, block)
            ref = reference_step(nodes_r, drawn)
            assert set(got) == set(ref)
            for j, (node, near) in enumerate(zip(nodes_r, apart)):
                for name in node.chains:
                    want = ref[name]
                    if near:
                        for field in ("power_w", "energy_j"):
                            np.testing.assert_array_max_ulp(
                                getattr(got[name], field), getattr(want, field), maxulp=2
                            )
                        got[name] = replace(
                            got[name], power_w=want.power_w, energy_j=want.energy_j
                        )
                    assert got[name] == want, (i, name)
                np.testing.assert_array_max_ulp(
                    block.node_joules[-1, j], node.meter.total_joules, maxulp=int(near)
                )
        assert promotes == 4
        for node_k, node_r in zip(nodes_k, nodes_r):
            assert node_k.meter.total_seconds == node_r.meter.total_seconds
            assert node_k.meter.total_packets == node_r.meter.total_packets

    @pytest.mark.parametrize("mismatch", sorted(MISMATCHES))
    def test_mismatched_nodes_are_refused(self, mismatch):
        node_a, node_b = Node(), Node(**MISMATCHES[mismatch])
        node_a.deploy(default_chain("a0"), KnobSettings())
        node_b.deploy(light_chain("b0"), KnobSettings())
        assert not engines_compatible([node_a, node_b])
        with pytest.raises(ValueError, match="must share"):
            ClusterKernel([node_a, node_b])
        with pytest.raises(ValueError, match="must share"):
            ClusterKernel([Node(), Node(), Node(**MISMATCHES[mismatch])])

    def test_cosmetic_spec_fields_may_differ(self):
        nodes = [
            Node(ServerSpec(name="a", memory_gb=32.0)),
            Node(ServerSpec(name="b", os="other")),
        ]
        assert engines_compatible(nodes)
        assert ClusterKernel(nodes).nodes == nodes

    @pytest.mark.parametrize("kind", ["adaptive", "poll", "no-cat-unparked"])
    def test_chainless_cluster_matches_per_node_loop(self, kind, perf_reference):
        # Nodes that host no chain step the fused fold with zero rows;
        # each meters its infra power exactly as step_all does.
        settings = {
            "adaptive": {},
            "poll": {"polling": PollingMode.POLL},
            "no-cat-unparked": {"cat_enabled": False, "park_idle_cores": False},
        }[kind]
        nodes_k = [Node(**settings) for _ in range(3)]
        nodes_r = [Node(**settings) for _ in range(3)]
        kernel = ClusterKernel(nodes_k)
        for dt_s in (1.0, 0.25):
            block, paths = plan_cache_paths(
                kernel.step, [], np.empty((0, 3)), 1518.0, dt_s
            )
            want = []
            for _ in range(3):
                perf_reference.reference_cluster_step(nodes_r, [{}] * 3, dt_s)
                want.append([node.meter.total_joules for node in nodes_r])
            assert block.node_joules.tolist() == want
            for rows in (block.energy_j, block.power_w, block.utilization):
                assert rows.shape == (3, 0)
            assert paths == (["promote", "hit"] if dt_s == 1.0 else ["hit"])
        assert [vars(n.meter) for n in nodes_k] == [vars(n.meter) for n in nodes_r]
        assert all(n.meter.total_joules > 0 for n in nodes_k)

    def test_validation_and_edge_cases(self):
        with pytest.raises(ValueError):
            ClusterKernel([])
        nodes, offered = build_cluster(1)
        kernel = ClusterKernel(nodes)
        with pytest.raises(ValueError):
            step_one(kernel, offered, dt_s=0.0)
        with pytest.raises(KeyError):
            step_one(kernel, {"ghost": (1e5, 64.0)})
        names, loads, pkts = load_block(offered)
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
        assert out.achieved_pps.shape == (1, len(nodes[0].chains))
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
        names, loads, pkts = load_block(offered)
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
            got = kernel_samples(kernel.nodes, offered, step_one(kernel, offered))
            ref = reference_step(ref_nodes, offered)
        assert got == ref


class TestBlockRows:
    """Blocks of several intervals: every row, not only the last one the
    shard summaries read, and every shard's ``part`` of a pass."""

    INTERVALS = 5

    def _loads(self, offered: dict, seed: int) -> tuple[list, np.ndarray, list]:
        """A block of random per-interval loads at each chain's frame size."""
        names = list(offered)
        rng = np.random.default_rng(100 + seed)
        loads = rng.uniform(0.0, 3e6, size=(len(names), self.INTERVALS))
        return names, loads, [offered[n][1] for n in names]

    @pytest.mark.parametrize("seed", range(4))
    def test_every_interval_matches_per_node_loop(self, seed):
        nodes_k, offered = build_cluster(seed)
        nodes_r, _ = build_cluster(seed)
        names, loads, pkts = self._loads(offered, seed)
        block = ClusterKernel(nodes_k).step(names, loads, pkts)
        rows = row_names(nodes_r)
        assert block.utilization.shape == (self.INTERVALS, len(rows))
        for t in range(self.INTERVALS):
            ref = reference_step(
                nodes_r, dict(zip(names, zip(loads[:, t].tolist(), pkts)))
            )
            for r, name in enumerate(rows):
                for field in BLOCK_FIELDS:
                    assert getattr(block, field)[t, r] == getattr(ref[name], field), (
                        t,
                        name,
                        field,
                    )
                assert block.utilization[t, r] == max(
                    nf.utilization for nf in ref[name].per_nf
                ), (t, name)
            assert block.node_joules[t].tolist() == [
                node.meter.total_joules for node in nodes_r
            ]
        assert [vars(n.meter) for n in nodes_k] == [vars(n.meter) for n in nodes_r]

    def test_part_equals_stepping_those_nodes_alone(self):
        # A fleet group steps several shards' nodes in one pass and
        # hands each shard its part of the block: the part's rows and
        # node columns must equal a pass over that shard's nodes alone.
        nodes, offered = build_cluster(5)
        alone, _ = build_cluster(5)
        assert len(nodes) == 3
        names, loads, pkts = self._loads(offered, 5)
        block = ClusterKernel(nodes).step(names, loads, pkts)
        start = 0
        for j, node in enumerate(alone):
            mine = [i for i, name in enumerate(names) if name in node.chains]
            want = ClusterKernel([node]).step(
                [names[i] for i in mine], loads[mine], [pkts[i] for i in mine]
            )
            part = block.part(slice(start, start + len(mine)), slice(j, j + 1))
            start += len(mine)
            assert part.dt_s == want.dt_s
            for field in (*BLOCK_FIELDS, "utilization", "node_joules"):
                got, ref = getattr(part, field), getattr(want, field)
                assert got.shape == ref.shape and np.array_equal(got, ref), (j, field)
        assert start == block.utilization.shape[1]
