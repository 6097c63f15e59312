"""A shard run as one kernel block, pinned against per-interval stepping.

``ShardSim.run`` hands the whole ``(chains, n)`` load block it is given to
``ClusterKernel.step``, which compiles the cluster plan on a
configuration's first sight and folds every interval through the fused
path.  ``reference_shard_run`` in ``benchmarks/perf/reference.py`` is
the per-interval loop without the kernel: every interval, each node's
scalar ``Node.step_all`` fold.  The seeded grid below drives both
through runs of 1, 2, 3 and 8 intervals with a knob change, a deploy,
an undeploy and a vacated node between runs, on every registered SLA,
and requires every report table and node meter, and every field of
the last interval's samples (the kernel's rows joined with its diagonal
plan's, see ``kernel_samples``), to match at 0 ulp.
The plan-cache counters show when each run compiled.  The same grid
checks that every interval's per-chain energy sums to its node's meter
increment.
"""

import numpy as np
import pytest

from repro import obs
from repro.fleet.shard import ChainTicket, ShardConfig, ShardSim, kind_nfs
from repro.fleet.workload import FlashCrowdConfig, WorkloadConfig
from repro.hw.power import EnergyMeter, record_many
from repro.utils.stats import left_sums
from test_cluster_kernel import kernel_samples
from test_fleet import assert_same_report, column, hosted_loads

#: Every registered SLA, with a constraint that some chains miss.
SLA_PARAMS = {
    "max_throughput": {"energy_cap_j": 25.0},
    "min_energy": {"throughput_floor_gbps": 3.0},
    "energy_efficiency": {},
    "latency": {"latency_bound_s": 1e-3},
}
SLA_NAMES = tuple(SLA_PARAMS)


def grid_case(seed: int):
    """Two identical shards (block path, reference path) and a schedule."""
    rng = np.random.default_rng(seed)
    sla = SLA_NAMES[seed % len(SLA_NAMES)]
    n_nodes = int(rng.integers(2, 5))
    per_node = int(rng.integers(1, 4))
    workload = WorkloadConfig(
        peak_rate_pps=float(rng.uniform(3e5, 2e6)),
        period_s=16.0,
        noise_std=0.2,
        packet_bytes=float(rng.choice([64.0, 512.0, 1518.0])),
        flash=FlashCrowdConfig(probability=0.2, multiplier=3.0, duration_intervals=2),
    )
    config = ShardConfig(
        name=f"g{seed}",
        n_nodes=n_nodes,
        interval_s=(1.0, 0.5)[seed % 2],
        sla=sla,
        sla_params=SLA_PARAMS[sla],
        workload=workload.to_dict(),
        parked_power_w=7.5,
    )
    tickets = [
        ChainTicket(
            name=f"c{i}-{j}",
            nfs=kind_nfs("mixed", i * per_node + j),
            flow=f"f{i}",
            node=i,
        )
        for i in range(n_nodes)
        for j in range(per_node)
    ]
    sims = []
    for _ in range(2):
        sim = ShardSim(config)
        for ticket in tickets:
            sim.deploy(ticket)
        sims.append(sim)
    lengths = np.roll([1, 2, 3, 8, 2, 1], seed).tolist()
    knobs = {
        "cpu_share": float(rng.uniform(0.3, 1.5)),
        "cpu_freq_ghz": float(rng.uniform(1.2, 2.1)),
        "llc_fraction": float(rng.uniform(0.05, 0.3)),
        "batch_size": int(rng.integers(8, 257)),
    }
    return sims, lengths, knobs, tickets


def apply_command(sim: ShardSim, step: int, others, knobs) -> None:
    """The grid's command after run ``step``; each bumps a node
    generation, so the next run steps a new configuration."""
    if step == 0:
        sim.set_knobs({others[0].name: knobs})
    elif step == 1:
        sim.deploy(
            ChainTicket(
                name="arrival", nfs=kind_nfs("heavy"), flow="fa", node=len(sim.nodes) - 1
            )
        )
    elif step == 2:
        sim.undeploy(others[-1].name)
    elif step == 3:
        # Vacate node 0: it is parked and billed at the floor.
        for name in [n for n, t in sim._tickets.items() if t.node == 0]:
            sim.undeploy(name)


def plan_cache_counts(run, *args):
    """Run with ``repro.obs`` on; return the result and the
    ``kernel/plan_cache/*`` counts it recorded."""
    obs.enable()
    try:
        result = run(*args)
        counters = obs.drain_counters()
    finally:
        obs.disable()
    prefix = "kernel/plan_cache/"
    return result, {
        name[len(prefix):]: count
        for name, count in counters.items()
        if name.startswith(prefix)
    }


def assert_same_state(block: ShardSim, ref: ShardSim) -> None:
    """Node meters and hosted chains of two shards agree bit for bit."""
    assert block._node_energy == ref._node_energy
    for node_b, node_r in zip(block.nodes, ref.nodes):
        assert vars(node_b.meter) == vars(node_r.meter)
        assert list(node_b.chains) == list(node_r.chains)


def run_both(block: ShardSim, ref: ShardSim, loads, perf_reference):
    """One run of the block path and of the per-interval reference.

    Their reports, node state and last-interval samples must agree bit
    for bit.  Returns the block path's report and plan-cache counts.
    """
    blocks = []
    step = block.kernel.step
    block.kernel.step = lambda *args: blocks.append(step(*args)) or blocks[-1]
    try:
        got, counts = plan_cache_counts(block.run, loads)
    finally:
        del block.kernel.step
    want, want_samples = perf_reference.reference_shard_run(ref, loads)
    assert_same_report(got, want)
    assert_same_state(block, ref)
    pkt = block.workload.packet_bytes
    offered = {
        name: (pps, pkt) for name, pps in zip(loads.names, loads.pps[:, -1].tolist())
    }
    dt = block.config.interval_s
    assert kernel_samples(block.nodes, offered, blocks[-1], dt) == want_samples
    return got, counts


class TestBlockMatchesPerIntervalReference:
    """The seeded grid: runs, commands between them, every SLA."""

    @pytest.mark.parametrize("seed", range(16))
    def test_block_run_matches_reference(self, seed, perf_reference):
        (block, ref), lengths, knobs, tickets = grid_case(seed)
        others = [t for t in tickets if t.node != 0]
        start = 0
        for step, n in enumerate(lengths):
            loads = hosted_loads(block, start, n, seed=seed)
            got, counts = run_both(block, ref, loads, perf_reference)
            # When the block compiled: a new configuration (every run
            # before the last, which follows no command) compiles on
            # first sight.
            if step < 5:
                expected = {"promote": 1, **({"hit": n - 1} if n > 1 else {})}
            else:
                expected = {"hit": n}
            assert counts == expected, (step, n)
            if step == 4:
                assert 0.0 not in column(got, "chains", "node")
                assert column(got, "nodes", "power_w")[0] == 7.5
            for sim in (block, ref):
                apply_command(sim, step, others, knobs)
            start += n

    @pytest.mark.parametrize("seed", range(16))
    def test_chain_energy_sums_to_node_meter(self, seed):
        # Energy attribution is conserved: in every interval, the
        # left-fold sum of a node's per-chain energy equals its meter's
        # increment.
        (sim, _), lengths, knobs, tickets = grid_case(seed)
        others = [t for t in tickets if t.node != 0]
        kernel_step = sim.kernel.step
        checked = 0

        def step(*args):
            nonlocal checked
            widths = [len(node.chains) for node in sim.nodes]
            before = [node.meter.total_joules for node in sim.nodes]
            block = kernel_step(*args)
            increments = np.diff(np.vstack([before, block.node_joules]), axis=0)
            # Rows run node by node, in deployment order within a node.
            ends = np.cumsum(widths).tolist()
            for j, (width, end) in enumerate(zip(widths, ends)):
                if width:
                    attributed = left_sums(block.energy_j[:, end - width : end])
                    np.testing.assert_allclose(
                        attributed, increments[:, j], rtol=1e-12, atol=0.0
                    )
                    checked += len(attributed)
            return block

        sim.kernel.step = step
        start = 0
        for i, n in enumerate(lengths):
            sim.run(hosted_loads(sim, start, n, seed=seed))
            apply_command(sim, i, others, knobs)
            start += n
        assert checked >= sum(lengths)

    def test_grid_sees_both_sla_outcomes(self):
        # Not vacuous: across the grid each constrained SLA has chains
        # that meet it and chains that miss it.
        some_met = {name: False for name in SLA_NAMES}
        some_missed = {name: False for name in SLA_NAMES}
        for seed in range(8):
            (block, _), *_ = grid_case(seed)
            report = block.run(hosted_loads(block, 0, 8, seed=seed))
            total = sum(column(report, "intervals", "chains"))
            violations = sum(column(report, "intervals", "sla_violations"))
            some_met[block.config.sla] |= violations < total
            some_missed[block.config.sla] |= violations > 0
        for name in ("max_throughput", "min_energy", "latency"):
            assert some_met[name] and some_missed[name], name
        assert not some_missed["energy_efficiency"]


class TestPlanCachePath:
    """When a block compiles, read from the plan-cache counters."""

    def sim(self) -> ShardSim:
        (sim, _), *_ = grid_case(0)
        return sim

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_block_compiles_on_first_sight(self, n):
        sim = self.sim()
        compile_run = {"promote": 1, **({"hit": n - 1} if n > 1 else {})}
        assert plan_cache_counts(sim.run, hosted_loads(sim, 0, n))[1] == compile_run
        assert plan_cache_counts(sim.run, hosted_loads(sim, n, n))[1] == {"hit": n}
        name = sim.load_rows[0]
        sim.set_knobs({name: {"cpu_share": 0.7, "batch_size": 40}})
        loads = hosted_loads(sim, 2 * n, n)
        assert plan_cache_counts(sim.run, loads)[1] == compile_run

    def test_chainless_shard_compiles_on_first_sight(self, perf_reference):
        # A shard that hosts no chain steps the fused fold with zero
        # rows: one compile, then hits, every node metered at its infra
        # power as the per-interval reference meters it.
        (sim, ref), *_ = grid_case(3)
        for shard in (sim, ref):
            for name in list(shard._tickets):
                shard.undeploy(name)
        for start, n, counts in ((0, 1, {"promote": 1}), (1, 3, {"hit": 3}), (4, 2, {"hit": 2})):
            loads = hosted_loads(sim, start, n, seed=3)
            assert run_both(sim, ref, loads, perf_reference)[1] == counts
        assert all(node.meter.total_joules > 0 for node in sim.nodes)


class TestStep:
    """The kernel entry point itself."""

    def kernel(self):
        (sim, _), *_ = grid_case(2)
        return sim.kernel, list(sim._tickets)

    def test_unnamed_chains_idle(self, perf_reference):
        # A chain the block does not name idles at (0, 1518), as in
        # step_all: its row matches the per-node reference's idle sample.
        (sim, ref), *_ = grid_case(2)
        kernel, names = sim.kernel, list(sim._tickets)
        block = kernel.step(names[1:], np.full((len(names) - 1, 2), 4e5), 512.0)
        offered = {name: (4e5, 512.0) for name in names[1:]}
        for _ in range(2):
            want = perf_reference.reference_cluster_step(
                ref.nodes,
                [{n: offered[n] for n in node.chains if n in offered} for node in ref.nodes],
            )
        idle = want[names[0]]
        assert idle.offered_pps == 0.0 and idle.packet_bytes == 1518.0
        assert kernel_samples(sim.nodes, offered, block) == want
        assert block.throughput_gbps.shape == (2, len(names))
        assert block.node_joules.shape == (2, len(kernel.nodes))

    def test_validation(self):
        kernel, names = self.kernel()
        loads = np.full((len(names), 2), 1e5)
        with pytest.raises(ValueError, match="dt"):
            kernel.step(names, loads, 64.0, dt_s=0.0)
        with pytest.raises(ValueError, match="load block"):
            kernel.step(names, loads[:, :0], 64.0)
        with pytest.raises(ValueError, match="load block"):
            kernel.step(names[1:], loads, 64.0)
        with pytest.raises(ValueError, match="load block"):
            kernel.step(names, loads[:, 0], 64.0)
        with pytest.raises(ValueError, match="duplicate"):
            kernel.step([names[0], names[0]], loads[:2], 64.0)
        with pytest.raises(KeyError, match="ghost"):
            kernel.step(["ghost"], loads[:1], 64.0)
        with pytest.raises(ValueError, match="one per chain"):
            kernel.step(names, loads, [64.0] * (len(names) + 1))

    def test_per_name_frame_sizes(self, perf_reference):
        # One frame size per name equals the same sizes given row by row
        # to the per-node reference, and the sizes are part of the plan
        # key: a different size column compiles again.
        (sim, ref), *_ = grid_case(2)
        kernel, names = sim.kernel, list(sim._tickets)
        sizes = [(64.0, 570.0, 1518.0)[i % 3] for i in range(len(names))]
        loads = np.full((len(names), 3), 6e5)
        for pkts, expected in ((sizes, "promote"), (sizes, "hit"), (sizes[::-1], "promote")):
            block, counts = plan_cache_counts(kernel.step, names, loads, pkts)
            assert expected in counts
            for i in range(3):
                offered = dict(zip(names, zip(loads[:, i].tolist(), pkts)))
                want = perf_reference.reference_cluster_step(
                    ref.nodes,
                    [{n: offered[n] for n in node.chains} for node in ref.nodes],
                )
            assert kernel_samples(sim.nodes, offered, block) == want
            assert_same_state(sim, ref)


class TestBlockHelpers:
    """Meters and folds advance a block as n sequential calls."""

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_record_many_matches_sequential_records(self, n):
        rng = np.random.default_rng(n)
        meters = [EnergyMeter() for _ in range(4)]
        ref = [EnergyMeter() for _ in range(4)]
        for m, r in zip(meters, ref):
            m.record(3.3, 0.7, 11.0)
            r.record(3.3, 0.7, 11.0)
        power = rng.uniform(0.0, 150.0, (n, 4))
        packets = rng.uniform(0.0, 1e6, (n, 4))
        totals = record_many(meters, power, 0.5, packets)
        want = []
        for p_row, k_row in zip(power.tolist(), packets.tolist()):
            for r, p, k in zip(ref, p_row, k_row):
                r.record(p, 0.5, k)
            want.append([r.total_joules for r in ref])
        assert totals.tolist() == want
        assert [vars(m) for m in meters] == [vars(r) for r in ref]
        with pytest.raises(ValueError):
            record_many(meters, -power, 0.5, packets)
        with pytest.raises(ValueError, match="block"):
            record_many(meters, power[0], 0.5, packets[0])

    def test_left_sums_is_the_sequential_fold(self):
        rng = np.random.default_rng(9)
        terms = rng.uniform(0.0, 1.0, (7, 13)) * 10.0 ** rng.integers(-8, 8, (7, 13))
        start = rng.uniform(0.0, 1.0, 7)
        want = []
        for s, row in zip(start.tolist(), terms.tolist()):
            total = s
            for t in row:
                total += t
            want.append(total)
        assert left_sums(terms, start).tolist() == want
        assert left_sums(np.empty((3, 0))).tolist() == [0.0, 0.0, 0.0]
