"""Differential and property tests for node stepping and the diagonal plan.

``Node.step_all`` is the scalar per-node fold: one ``engine.step`` per
chain, then one node power evaluation.  A diagonal
:class:`~repro.nfv.engine.ChainKernelPlan` is compiled and cached only
by :class:`~repro.nfv.cluster_kernel.ClusterKernel`, so the golden suite
steps a one-node kernel and the node's own ``step_all`` against an
independent scalar reference — one ``engine.step`` call per chain, the
seed implementation's shape — to <= 1 ulp across randomized chain
counts, knob settings, loads and packet sizes, through the compile on
first sight and the cached plan, which load-only changes reuse and a
knob change invalidates (paths read from the ``kernel/plan_cache/*``
counters).
The property classes pin the node invariants: CAT
partitions stay within capacity through deploy/undeploy/apply_knobs
interleavings, node power is monotone in offered load per chain,
``reset()`` round-trips ``step_all`` results bit-exactly, and a
rejected step leaves the node unchanged.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro import obs
from repro.hw.cache import contention_factor
from repro.nfv.chain import default_chain, heavy_chain, light_chain
from repro.nfv.cluster_kernel import ClusterKernel
from repro.nfv.engine import PollingMode, aggregate_samples, chain_stack
from repro.nfv.knobs import KnobSettings
from repro.nfv.node import Node, node_folds
from test_cluster_kernel import kernel_samples, plan_samples, step_one

PACKET_SIZES = (64.0, 256.0, 512.0, 1024.0, 1518.0)
CHAIN_KINDS = (default_chain, light_chain, heavy_chain)

SCALAR_FIELDS = (
    "dt_s",
    "offered_pps",
    "achieved_pps",
    "packet_bytes",
    "throughput_gbps",
    "llc_miss_rate_per_s",
    "cpu_utilization",
    "cpu_cores_busy",
    "dropped_pps",
    "latency_s",
    "arrival_rate_pps",
)
NF_FIELDS = ("cycles_per_packet", "service_rate_pps", "utilization", "misses_per_packet")


def build_node(seed: int) -> tuple[Node, list]:
    """A randomized node: 1-6 heterogeneous chains with random knobs."""
    rng = np.random.default_rng(seed)
    node = Node(
        polling=PollingMode.POLL if seed % 4 == 0 else PollingMode.ADAPTIVE,
        cat_enabled=seed % 5 != 0,
    )
    n_chains = int(rng.integers(1, 7))
    chains = []
    for i in range(n_chains):
        chain = CHAIN_KINDS[int(rng.integers(len(CHAIN_KINDS)))](f"c{i}")
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
        chains.append(chain)
    return node, chains


def draw_offered(rng: np.random.Generator, chains) -> dict:
    return {
        c.name: (
            float(rng.uniform(0.0, 3e6)),
            float(rng.choice(PACKET_SIZES)),
        )
        for c in chains
    }


def reference_samples(node: Node, offered: dict, dt_s: float = 1.0) -> dict:
    """Per-chain scalar ``engine.step`` loop (the seed ``Node.step`` shape).

    Pure with respect to node state: reads knobs/grants, mutates nothing.
    """
    total_demand = 0.0
    for name, hosted in node.chains.items():
        pps, pkt = offered.get(name, (0.0, 1518.0))
        total_demand += (
            hosted.knobs.batch_size * pkt
            + hosted.chain.total_state_bytes
            + hosted.knobs.dma_bytes * 0.25
        )
    contention = contention_factor(total_demand, node.server.llc.size_bytes)
    out = {}
    for name, hosted in node.chains.items():
        pps, pkt = offered.get(name, (0.0, 1518.0))
        out[name] = node.engine.step(
            hosted.chain,
            hosted.knobs,
            pps,
            pkt,
            dt_s,
            llc_bytes=node.llc_bytes_for(name),
            contention=contention,
            include_power=False,
        )
    return out


def plan_cache_paths(step, *args, **kwargs):
    """Run one kernel step with ``repro.obs`` on; return its result and
    the ``kernel/plan_cache/*`` paths it took."""
    obs.enable()
    try:
        result = step(*args, **kwargs)
        counters = obs.drain_counters()
    finally:
        obs.disable()
    prefix = "kernel/plan_cache/"
    return result, [name[len(prefix):] for name in counters if name.startswith(prefix)]


def assert_sample_close(got, ref, *, maxulp: int = 1) -> None:
    """Field-wise <= ``maxulp`` agreement of two telemetry samples."""
    for field in SCALAR_FIELDS:
        np.testing.assert_array_max_ulp(
            np.float64(getattr(got, field)),
            np.float64(getattr(ref, field)),
            maxulp=maxulp,
        )
    assert len(got.per_nf) == len(ref.per_nf)
    for got_nf, ref_nf in zip(got.per_nf, ref.per_nf):
        assert got_nf.name == ref_nf.name
        for field in NF_FIELDS:
            np.testing.assert_array_max_ulp(
                np.float64(getattr(got_nf, field)),
                np.float64(getattr(ref_nf, field)),
                maxulp=maxulp,
            )


class TestGoldenEquivalence:
    """~50 randomized cases: compiled plan vs. per-chain scalar loop, <= 1 ulp."""

    @pytest.mark.parametrize("seed", range(25))
    @pytest.mark.parametrize("dt_s", [1.0, 0.25])
    def test_step_all_matches_scalar_loop(self, seed, dt_s):
        node, chains = build_node(seed)
        twin, _ = build_node(seed)
        kernel = ClusterKernel([node])
        rng = np.random.default_rng(1000 + seed)
        # Three intervals with the same knob/frame configuration walk the
        # kernel's dispatch (the compile on first sight, then the cached
        # plan) next to the twin node's scalar fold.
        offered = draw_offered(rng, chains)
        for _ in range(3):
            ref = reference_samples(node, offered, dt_s)
            got = kernel_samples([node], offered, step_one(kernel, offered, dt_s), dt_s)
            scalar = twin.step_all(offered, dt_s)
            assert set(got) == set(ref) == set(scalar)
            for name in ref:
                # Power is attributed node-side (identically on every
                # path), so the engine-level fields carry the comparison.
                assert_sample_close(got[name], ref[name])
                assert_sample_close(scalar[name], ref[name])

    @pytest.mark.parametrize("seed", range(6))
    def test_plan_survives_load_changes_only(self, seed):
        # Varying loads reuse the kernel's compiled plan; the results must
        # still match the scalar loop at every new load vector.
        node, chains = build_node(seed)
        kernel = ClusterKernel([node])
        rng = np.random.default_rng(2000 + seed)
        pkt = {c.name: float(rng.choice(PACKET_SIZES)) for c in chains}
        for it in range(4):
            offered = {
                c.name: (float(rng.uniform(0.0, 3e6)), pkt[c.name]) for c in chains
            }
            ref = reference_samples(node, offered)
            block, paths = plan_cache_paths(step_one, kernel, offered)
            got = kernel_samples([node], offered, block)
            assert paths == [("promote", "hit", "hit", "hit")[it]]
            for name in ref:
                assert_sample_close(got[name], ref[name])

    def test_knob_change_invalidates_plan(self):
        node, chains = build_node(3)
        kernel = ClusterKernel([node])
        rng = np.random.default_rng(7)
        offered = draw_offered(rng, chains)
        for _ in range(3):
            step_one(kernel, offered)
        node.apply_knobs(chains[0].name, KnobSettings(cpu_share=0.9, batch_size=48))
        ref = reference_samples(node, offered)
        block, paths = plan_cache_paths(step_one, kernel, offered)
        got = kernel_samples([node], offered, block)
        # The stale plan is not reused: the new configuration compiles.
        assert paths == ["promote"]
        for name in ref:
            assert_sample_close(got[name], ref[name])

    def test_unknown_chain_keys_raise(self):
        node, chains = build_node(1)
        with pytest.raises(KeyError):
            node.step_all({"ghost": (1e5, 64.0)})
        with pytest.raises(ValueError):
            node.step_all({}, dt_s=0.0)

    def test_rejected_step_leaves_node_unchanged(self):
        # Unknown offered traffic is refused before the interval runs:
        # no knob, CAT partition, generation or meter changes.
        node, chains = build_node(3)
        offered = draw_offered(np.random.default_rng(5), chains)

        def state():
            knobs = {name: hosted.knobs for name, hosted in node.chains.items()}
            return knobs, node.cache.allocations, node._config_gen, node.meter.total_seconds

        before = state()
        with pytest.raises(KeyError):
            node.step_all({**offered, "ghost": (1e5, 64.0)})
        assert state() == before

    def test_empty_node_steps_repeatedly(self):
        # A chainless node idles (infra power only) on every call.
        node = Node()
        for _ in range(3):
            assert node.step_all({}) == {}
        assert node.node_power_w() > 0  # infra cores still draw power
        node2, chains = build_node(8)
        for c in chains:
            node2.undeploy(c.name)
        for _ in range(3):
            assert node2.step_all({}) == {}


class TestMultiChainInvariants:
    """Property tests over deploy/undeploy/apply_knobs interleavings."""

    @pytest.mark.parametrize("seed", range(8))
    def test_llc_partitions_stay_within_capacity(self, seed):
        rng = np.random.default_rng(seed)
        node = Node()
        deployed: list[str] = []
        counter = 0
        for _ in range(40):
            ops = ["deploy"]
            if deployed:
                ops += ["undeploy", "apply", "step"]
            op = ops[int(rng.integers(len(ops)))]
            if op == "deploy" and len(deployed) < 8:
                name = f"c{counter}"
                counter += 1
                node.deploy(
                    CHAIN_KINDS[counter % len(CHAIN_KINDS)](name),
                    KnobSettings(llc_fraction=float(rng.uniform(0.05, 1.0))),
                )
                deployed.append(name)
            elif op == "undeploy" and deployed:
                node.undeploy(deployed.pop(int(rng.integers(len(deployed)))))
            elif op == "apply" and deployed:
                name = deployed[int(rng.integers(len(deployed)))]
                node.apply_knobs(
                    name,
                    KnobSettings(
                        llc_fraction=float(rng.uniform(0.05, 1.0)),
                        batch_size=int(rng.integers(1, 257)),
                    ),
                )
            elif op == "step" and deployed:
                node.step_all(
                    {n: (float(rng.uniform(0, 1e6)), 512.0) for n in deployed}
                )
            if not deployed:
                continue
            allocations = node.cache.allocations
            assert set(allocations) == set(deployed)
            total_ways = sum(c.n_ways for c in allocations.values())
            assert total_ways <= node.server.llc.allocatable_ways
            assert all(c.n_ways >= 1 for c in allocations.values())

    @pytest.mark.parametrize("seed", range(5))
    def test_node_power_monotone_in_offered_load(self, seed):
        # Below each chain's service capacity, offering more traffic can
        # only consume more cycles, so node power must not decrease.
        node, chains = build_node(seed)
        rates = {}
        probe = {c.name: (1.0, 512.0) for c in chains}
        first = node.step_all(probe)
        for name, sample in first.items():
            rates[name] = min(nf.service_rate_pps for nf in sample.per_nf)
        for target in chains:
            last_power = -np.inf
            for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
                offered = {
                    c.name: (
                        0.2 * rates[c.name] if c.name != target.name
                        else frac * rates[target.name],
                        512.0,
                    )
                    for c in chains
                }
                samples = node.step_all(offered)
                power = sum(samples[c.name].power_w for c in chains)
                assert power >= last_power - 1e-9
                last_power = power

    @pytest.mark.parametrize("seed", range(5))
    def test_reset_round_trips_step_all_bit_exactly(self, seed):
        node, chains = build_node(seed)
        knobs = {c.name: node.chains[c.name].knobs for c in chains}
        rng = np.random.default_rng(300 + seed)
        offered_seq = [draw_offered(rng, chains) for _ in range(4)]
        first_run = [node.step_all(o) for o in offered_seq]

        node.reset()
        assert node.chains == {}
        for chain in chains:
            node.deploy(chain, knobs[chain.name])
        second_run = [node.step_all(o) for o in offered_seq]

        for a, b in zip(first_run, second_run):
            assert a == b  # dataclass equality: every field, every NF, bit-exact


def compile_node_plan(node: Node, offered: dict, contention=None):
    """A node's chains compiled into one diagonal plan, plus their loads."""
    names = list(node.chains)
    stack = chain_stack(
        tuple(node.chains[n].chain for n in names),
        tuple(offered[n][1] for n in names),
        node.server.llc.line_bytes,
    )
    plan = node.engine.compile_chains(
        stack,
        [node.chains[n].knobs for n in names],
        llc_bytes=[node.llc_bytes_for(n) for n in names],
        contention=contention,
    )
    return plan, [offered[n][0] for n in names]


class TestKernelTelemetry:
    """MultiChainTelemetry surface: plan rows, aggregation, stacking."""

    def test_plan_rows_match_step_all(self):
        # Every sample field but the node-attributed power, per-NF rows
        # included, is one row of the node's diagonal plan priced at
        # the node's CAT grants and contention.
        node, chains = build_node(4)
        offered = draw_offered(np.random.default_rng(11), chains)
        pkts = [offered[c.name][1] for c in chains]
        contention = node_folds(node.table.tolist(), pkts, len(pkts), node.engine)[0]
        plan, loads = compile_node_plan(node, offered, contention)
        rows = plan_samples(plan.step(loads, include_power=False), plan.stack)
        samples = node.step_all(offered)
        assert len(rows) == len(samples) == len(chains)
        for row, sample in zip(rows, samples.values()):
            assert row == replace(sample, power_w=0.0, energy_j=0.0)

    def test_aggregate_matches_python_fold(self):
        node, chains = build_node(6)
        offered = draw_offered(np.random.default_rng(12), chains)
        for _ in range(2):
            samples = node.step_all(offered)
        items = list(samples.values())
        agg = aggregate_samples(items)
        assert agg.achieved_pps == pytest.approx(sum(s.achieved_pps for s in items))
        assert agg.energy_j == pytest.approx(sum(s.energy_j for s in items))
        assert agg.power_w == pytest.approx(sum(s.power_w for s in items))
        assert agg.cpu_utilization == max(s.cpu_utilization for s in items)
        assert agg.latency_s == max(s.latency_s for s in items)

    def test_aggregate_sums_are_left_folds(self):
        # Python 3.12's builtin sum gives 1e16 + 2 here (Neumaier); the
        # fold adds one chain at a time on every interpreter.
        node, chains = build_node(12)
        offered = draw_offered(np.random.default_rng(3), chains)
        first = next(iter(node.step_all(offered).values()))
        items = [replace(first, energy_j=e) for e in (1e16, 1.0, 1.0)]
        assert aggregate_samples(items).energy_j == 1e16

    def test_aggregate_of_one_chain_is_its_sample(self):
        node, chains = build_node(11)  # hosts one chain
        offered = draw_offered(np.random.default_rng(2), chains)
        (sample,) = node.step_all(offered).values()
        assert aggregate_samples([sample]) is sample

    @pytest.mark.parametrize("seed", range(4))
    def test_step_chains_one_shot_matches_scalar(self, seed):
        # A plan compiled and stepped once must honor the same <= 1 ulp
        # contract as the cluster kernel's cached plan path.
        node, chains = build_node(seed)
        rng = np.random.default_rng(400 + seed)
        offered = draw_offered(rng, chains)
        plan, loads = compile_node_plan(node, offered)
        rows = plan_samples(plan.step(loads, include_power=False), plan.stack)
        for row, (name, hosted) in zip(rows, node.chains.items()):
            ref = node.engine.step(
                hosted.chain,
                hosted.knobs,
                offered[name][0],
                offered[name][1],
                llc_bytes=node.llc_bytes_for(name),
                include_power=False,
            )
            assert_sample_close(row, ref)

    def test_chain_stack_validates_lengths(self):
        with pytest.raises(ValueError):
            chain_stack((default_chain(),), (64.0, 1518.0))
        stack = chain_stack((default_chain("a"), light_chain("b")), (64.0, 1518.0))
        assert stack.rows == 2
        assert len(stack) == max(len(p) for p in stack.profiles)
