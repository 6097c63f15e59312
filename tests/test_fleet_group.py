"""A fleet's in-process shards priced in one cluster-kernel pass per cycle.

``LocalShard.group`` builds handles that share one ``ClusterKernel``
over all their nodes.  ``run_shards`` checks every shard's load block
before any state moves, prices the whole group in one
``ClusterKernel.step``, and each shard books its own rows and node
columns of that pass.  These tests pin that a shard inside a group
reports, books and advances exactly as it does alone (its part of every
pass, row by row, and every field of its last interval's samples), that
a dropped group is
freed at once, that one bad block moves no shard, that a local fleet
makes one kernel step per cycle, and that a row prices the same however
wide the other rows pad the NF axis, which the first guarantee rests
on.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.fleet import (
    FLEETS,
    ChainTicket,
    FleetCoordinator,
    FleetSpec,
    LoadBlock,
    LocalShard,
)
from repro.fleet.shard import kind_nfs, run_shards
from repro.nfv.chain import ServiceChain
from repro.nfv.cluster_kernel import ClusterKernel
from repro.nfv.engine import PacketEngine, chain_stack
from repro.nfv.knobs import KnobSettings
from repro.nfv.nf import CATALOG
from repro.nfv.node import Node
from test_cluster_kernel import kernel_samples, plan_samples
from test_fleet import (
    assert_same_report,
    assert_same_reports,
    column,
    hosted_loads,
    shard_config,
)
from test_shard_block import assert_same_state, plan_cache_counts


def group_configs(seed: int = 0, *, empty: int | None = None):
    """Three shards of different sizes and chain mixes; shard ``empty``
    (if given) starts with no chains."""
    rng = np.random.default_rng(seed)
    configs = []
    for i in range(3):
        config = shard_config(
            name=f"s{i}",
            n_nodes=int(rng.integers(1, 4)),
            chains=int(rng.integers(1, 3)),
            sla=("latency", "min_energy", "max_throughput")[i],
            sla_params=(
                {"latency_bound_s": 1e-3},
                {"throughput_floor_gbps": 3.0},
                {"energy_cap_j": 25.0},
            )[i],
        )
        if i == empty:
            config = shard_config(
                name=config.name, n_nodes=config.n_nodes, initial_chains=()
            )
        configs.append(config)
    return configs


def block_for(shard, start, n, seed=0):
    """The load block a coordinator hands a ``LocalShard`` handle."""
    return hosted_loads(shard, start, n, seed=seed, config=shard.sim.config)


def command(shard, step: int) -> None:
    """A deployment or knob command between runs (bumps a generation);
    a shard with no chains is left empty."""
    rows = shard.load_rows
    if not rows:
        return
    if step == 0:
        shard.set_knobs({rows[0]: {"cpu_share": 0.6, "batch_size": 48}})
    elif step == 1:
        shard.deploy(
            ChainTicket(
                name=f"{shard.sim.config.name}-new",
                nfs=kind_nfs("heavy"),
                flow="fx",
                node=shard.sim.config.n_nodes - 1,
            )
        )
    elif step == 2:
        moved = shard.undeploy(rows[0])
        shard.deploy(moved.with_node(0))


def booked_parts(sims):
    """Record what each shard books of every pass, one list per shard.

    Each entry is every field of the shard's ``BlockTelemetry`` part (its
    six row arrays and its node columns, every interval) and every field
    of its last interval's samples, the kernel's rows joined with its
    diagonal plan's (``kernel_samples``), taken as the shard books it.
    """
    parts = []
    for sim in sims:
        book, out = sim._record, []

        def record(load_block, block, sim=sim, book=book, out=out):
            pkt = sim.workload.packet_bytes
            last = np.asarray(load_block.pps)[:, -1].tolist()
            offered = {name: (pps, pkt) for name, pps in zip(load_block.names, last)}
            out.append(
                (
                    {field: np.asarray(v).tolist() for field, v in vars(block).items()},
                    kernel_samples(sim.nodes, offered, block, sim.config.interval_s),
                )
            )
            return book(load_block, block)

        sim._record = record
        parts.append(out)
    return parts


def drive(shards, cycles: int = 4, seed: int = 0, n: int = 2):
    """Run every shard ``cycles`` times, with commands in between; the
    reports of each cycle, shard by shard."""
    out = []
    for cycle in range(cycles):
        for shard in shards:
            shard.begin_run(block_for(shard, cycle * n, n, seed))
        out.append([shard.finish_run() for shard in shards])
        for shard in shards:
            command(shard, cycle)
    return out


class TestGroupMatchesShardsAlone:
    @pytest.mark.parametrize("seed", range(4))
    def test_reports_and_state_match(self, seed):
        configs = group_configs(seed)
        grouped = LocalShard.group(configs)
        alone = [LocalShard(config) for config in configs]
        got = booked_parts([shard.sim for shard in grouped])
        want = booked_parts([shard.sim for shard in alone])
        assert_same_reports(drive(grouped, seed=seed), drive(alone, seed=seed))
        assert [len(parts) for parts in got] == [4] * 3
        assert got == want
        for g, a in zip(grouped, alone):
            assert_same_state(g.sim, a.sim)

    def test_empty_shard_matches_alone(self):
        # Alone, a shard with no chains steps the fused fold with zero
        # rows: it compiles once and then hits, as any configuration
        # does.  Its reports and node meters are the same as in a group.
        configs = group_configs(1, empty=1)
        grouped = LocalShard.group(configs)
        got_parts = booked_parts([shard.sim for shard in grouped])
        got = drive(grouped)
        alone = [LocalShard(config) for config in configs]
        want_parts = booked_parts([shard.sim for shard in alone])
        want = [plan_cache_counts(drive, [shard]) for shard in alone]
        assert want[1][1] == {"promote": 1, "hit": 4 * 2 - 1}
        assert_same_reports(
            got, [[w[cycle][0] for w, _ in want] for cycle in range(4)]
        )
        assert column(got[-1][1], "intervals", "chains") == [0.0, 0.0]
        assert got_parts == want_parts
        rows, samples = got_parts[1][-1]
        assert rows["utilization"] == [[], []] and samples == {}
        for g, a in zip(grouped, alone):
            assert_same_state(g.sim, a.sim)

    def test_group_of_one_is_shard_run(self):
        config = shard_config()
        (grouped,) = LocalShard.group([config])
        sim = LocalShard(config).sim
        got, want = booked_parts([grouped.sim, sim])
        grouped.begin_run(block_for(grouped, 0, 3))
        assert_same_report(grouped.finish_run(), sim.run(hosted_loads(sim, 0, 3)))
        assert len(got) == 1 and got == want
        assert_same_state(grouped.sim, sim)


class TestGroupLifetime:
    def test_dropped_fleet_is_freed_at_once(self):
        # Handles hold the group, the group holds sims, never handles:
        # no reference cycle keeps a dropped fleet's nodes and plans
        # alive until the next full collection.
        fleet = FleetSpec.from_mapping(FLEETS.get("wan")()).with_updates(
            backend="local"
        )
        gc.disable()
        try:
            with FleetCoordinator(fleet, seed=1) as coordinator:
                coordinator.run_cycles(2)
                sims = [weakref.ref(h.sim) for h in coordinator.handles.values()]
            del coordinator
            assert [ref() for ref in sims] == [None] * len(sims)
        finally:
            gc.enable()


class TestBadBlockMovesNothing:
    def snapshot(self, shards):
        return [
            (
                shard.sim._interval,
                list(shard.sim._node_energy),
                [dict(vars(node.meter)) for node in shard.sim.nodes],
            )
            for shard in shards
        ]

    @pytest.mark.parametrize("bad", [0, 1, 2])
    @pytest.mark.parametrize("fault", ["rows", "start"])
    def test_refused_before_any_shard_moves(self, bad, fault):
        shards = LocalShard.group(group_configs(2))
        drive(shards, cycles=1)
        before = self.snapshot(shards)
        blocks = [block_for(shard, 2, 2) for shard in shards]
        start, names, pps = blocks[bad].start, blocks[bad].names, blocks[bad].pps
        if fault == "rows":
            names, pps = names[::-1] + ("ghost",), np.vstack([pps[::-1], pps[:1]])
        else:
            start += 2
        blocks[bad] = LoadBlock(start, names, pps)
        with pytest.raises(ValueError, match=f"shard 's{bad}'"):
            for shard, block in zip(shards, blocks):
                shard.begin_run(block)
        assert self.snapshot(shards) == before
        # Nothing is left pending: the next good cycle runs.
        for shard in shards:
            shard.begin_run(block_for(shard, 2, 2))
        assert [len(shard.finish_run().intervals) for shard in shards] == [2] * 3

    def test_finish_before_the_group_is_complete(self):
        shards = LocalShard.group(group_configs(0))
        shards[0].begin_run(block_for(shards[0], 0, 2))
        with pytest.raises(RuntimeError, match="other shards"):
            shards[0].finish_run()
        with pytest.raises(RuntimeError, match="not collected"):
            shards[0].begin_run(block_for(shards[0], 0, 2))

    def test_run_shards_refuses_mismatched_inputs(self):
        a, b = (LocalShard(config).sim for config in group_configs(0)[:2])
        blocks = [hosted_loads(a, 0, 1), hosted_loads(b, 0, 1)]
        with pytest.raises(ValueError, match="exactly the shards' nodes"):
            run_shards([a, b], blocks, a.kernel)
        kernel = ClusterKernel(b.nodes + a.nodes)
        with pytest.raises(ValueError, match="exactly the shards' nodes"):
            run_shards([a, b], blocks, kernel)
        kernel = ClusterKernel(a.nodes + b.nodes)
        with pytest.raises(ValueError, match="one length"):
            run_shards([a, b], [blocks[0], hosted_loads(b, 0, 2)], kernel)
        # Row counts that only add up across shards are still refused.
        short = LoadBlock(0, blocks[0].names, blocks[0].pps[:-1])
        pps = blocks[1].pps
        long = LoadBlock(0, blocks[1].names, np.vstack([pps, pps[:1]]))
        with pytest.raises(ValueError, match="one row per chain"):
            run_shards([a, b], [short, long], kernel)
        assert a._interval == b._interval == 0


class TestOneKernelStepPerCycle:
    @pytest.mark.parametrize("preset", ["small", "medium", "wan", "datacenter"])
    def test_local_fleet(self, preset, monkeypatch):
        steps = []
        step = ClusterKernel.step

        def counted(kernel, *args, **kwargs):
            steps.append(len(kernel.nodes))
            return step(kernel, *args, **kwargs)

        monkeypatch.setattr(ClusterKernel, "step", counted)
        fleet = FleetSpec.from_mapping(FLEETS.get(preset)()).with_updates(
            backend="local"
        )

        def run():
            with FleetCoordinator(fleet, seed=1) as coordinator:
                coordinator.run_cycles(fleet.cycles)

        _, counts = plan_cache_counts(run)
        assert steps == [fleet.topology.total_nodes] * fleet.cycles
        assert counts["promote"] <= fleet.cycles


class TestNFPadding:
    """A row's values do not depend on how wide the other rows are: every
    sum over the NF axis is a left fold, exact under zero padding."""

    def price(self, nfs, other):
        """Row 0 and node 0 of a pass over a ``nfs`` chain, alone or
        beside a chain of ``other`` NFs on a second node."""
        knobs = KnobSettings(cpu_share=0.83, cpu_freq_ghz=1.7, batch_size=77)
        loads = np.array([[3.1e5, 9.7e5, 1.9e6]])
        nodes, names = [Node()], ["x"]
        nodes[0].deploy(ServiceChain.from_names("x", nfs), knobs)
        if other:
            catalog = sorted(CATALOG)
            nodes.append(Node())
            nodes[1].deploy(
                ServiceChain.from_names(
                    "y", [catalog[i % len(catalog)] for i in range(other)]
                )
            )
            names.append("y")
            loads = np.vstack([loads, np.full((1, 3), 6e5)])
        block = ClusterKernel(nodes).step(names, loads, 512.0)
        offered = dict(zip(names, ((pps, 512.0) for pps in loads[:, -1].tolist())))
        return (
            [block.achieved_pps[:, 0], block.throughput_gbps[:, 0],
             block.energy_j[:, 0], block.latency_s[:, 0], block.power_w[:, 0],
             block.utilization[:, 0], block.node_joules[:, 0]],
            kernel_samples(nodes, offered, block)["x"],
        )

    def same(self, nfs, other) -> bool:
        (alone, sample), (beside, sample2) = self.price(nfs, 0), self.price(nfs, other)
        return sample == sample2 and all(map(np.array_equal, alone, beside))

    @pytest.mark.parametrize("kind", ["default", "light", "heavy"])
    def test_fleet_rows_exact_at_any_width(self, kind):
        nfs = kind_nfs(kind)
        assert len(nfs) <= 3
        for other in range(1, 13):
            assert self.same(nfs, other), other

    def test_longer_rows_exact_at_any_width(self):
        nfs = ("nat", "firewall", "ids", "monitor", "router")
        for other in range(1, 13):
            assert self.same(nfs, other), other

    @pytest.mark.parametrize("width", [9, 12])
    def test_long_chains_price_alike_on_every_path(self, width):
        # The scalar step, a one-row diagonal plan and a knob grid sum a
        # chain of 8 or more NFs in one order.
        catalog = sorted(CATALOG)
        chain = ServiceChain.from_names(
            "long", [catalog[i % len(catalog)] for i in range(width)]
        )
        knobs = KnobSettings(cpu_share=0.83, cpu_freq_ghz=1.7, batch_size=77)
        engine = PacketEngine()
        for load in (3.1e5, 9.7e5, 4e6):
            scalar = engine.step(chain, knobs, load, 512.0)
            stack = chain_stack((chain,), (512.0,), engine.server.llc.line_bytes)
            (row,) = plan_samples(engine.compile_chains(stack, [knobs]).step([load]), stack)
            grid = engine.step_batch(chain, [knobs], [load], 512.0).sample(0, 0)
            assert row == scalar and grid == scalar, load
