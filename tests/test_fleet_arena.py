"""Telemetry-arena tests: layout, store/load round trips, bank
isolation, capacity guards, generation tracking and ``/dev/shm``
lifecycle (no segment may outlive its owning handle).
"""

from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.fleet import (
    ArenaLayout,
    ChainTicket,
    LocalShard,
    ShardConfig,
    ShardWorker,
    TelemetryArena,
    WorkloadConfig,
    arena_layout_for,
)
from repro.fleet.arena import BANKS, CHAIN_FIELDS, INTERVAL_FIELDS
from repro.nfv.knobs import KNOB_NAMES
from repro.fleet.shard import ShardSim, kind_nfs
from test_fleet import hosted_loads


def shard_config(name="s0", n_nodes=2, chains=2, **overrides):
    tickets = tuple(
        ChainTicket(
            name=f"{name}-n{i}-c{j}",
            nfs=kind_nfs("mixed", i * chains + j),
            flow=f"fg{(i * chains + j) // 2}",
            node=i,
        )
        for i in range(n_nodes)
        for j in range(chains)
    )
    base = dict(
        name=name,
        n_nodes=n_nodes,
        interval_s=1.0,
        sla="energy_efficiency",
        sla_params={},
        workload=WorkloadConfig(
            peak_rate_pps=8e5, period_s=64.0, flow_group_size=2
        ).to_dict(),
        parked_power_w=12.0,
        initial_chains=tickets,
    )
    base.update(overrides)
    return ShardConfig(**base)


class TestLayout:
    def test_validation(self):
        with pytest.raises(ValueError, match="interval"):
            ArenaLayout(max_intervals=0, max_chains=1, n_nodes=1)
        with pytest.raises(ValueError, match="chain"):
            ArenaLayout(max_intervals=1, max_chains=0, n_nodes=1)
        with pytest.raises(ValueError, match="node"):
            ArenaLayout(max_intervals=1, max_chains=1, n_nodes=0)

    def test_sizes(self):
        layout = ArenaLayout(max_intervals=4, max_chains=3, n_nodes=2)
        per_bank = (
            4  # header
            + 4 * len(INTERVAL_FIELDS)
            + 3 * (len(CHAIN_FIELDS) + len(KNOB_NAMES))
            + 2 * 3  # node fields
        )
        assert layout.bank_floats == per_bank
        assert layout.nbytes == BANKS * per_bank * 8

    def test_layout_for_config_fits_initial_chains(self):
        config = shard_config(n_nodes=2, chains=2)
        layout = arena_layout_for(config)
        assert layout.n_nodes == 2
        assert layout.max_chains >= len(config.initial_chains)
        # Both pipe ends must derive the identical layout from the
        # config alone — no shape information crosses the pipe.
        assert layout == arena_layout_for(config)


class TestStoreLoad:
    def _arena_and_report(self, n=2, config=None):
        config = config or shard_config()
        sim = ShardSim(config)
        report = sim.run(hosted_loads(sim, 0, n))
        arena = TelemetryArena.create(arena_layout_for(config))
        return arena, report

    def test_round_trip(self):
        arena, report = self._arena_and_report(n=2)
        try:
            arena.store_report(0, 7, report)
            header = arena.header(0)
            assert header[0] == 7.0  # generation
            assert header[1] == 0.0  # first interval index
            assert header[2] == float(len(report.intervals))
            assert header[3] == float(len(report.chains))
            ivals = arena.intervals(0)
            for j, row in enumerate(report.intervals):
                assert ivals[j, 0] == row.energy_j
                assert ivals[j, 1] == row.throughput_gbps
                assert ivals[j, 3] == float(row.sla_violations)
            rows = arena.chains(0)
            for i, chain in enumerate(report.chains):
                assert rows[i, 0] == float(chain.node)
                assert rows[i, 1] == chain.utilization
                assert rows[i, len(CHAIN_FIELDS)] == chain.knobs["cpu_share"]
            nodes = arena.nodes(0)
            for j, node in enumerate(report.nodes):
                assert nodes[j, 1] == node.power_w
        finally:
            arena.close()
            arena.unlink()

    def test_banks_are_isolated(self):
        config = shard_config()
        sim = ShardSim(config)
        first = sim.run(hosted_loads(sim, 0, 2))
        second = sim.run(hosted_loads(sim, 2, 2))
        arena = TelemetryArena.create(arena_layout_for(config))
        try:
            arena.store_report(0, 0, first)
            before = arena.intervals(0).copy()
            arena.store_report(1, 0, second)
            assert np.array_equal(arena.intervals(0), before)
            assert arena.header(1)[1] == 2.0  # second bank's start index
        finally:
            arena.close()
            arena.unlink()

    def test_capacity_guards(self):
        config = shard_config()
        sim = ShardSim(config)
        report = sim.run(hosted_loads(sim, 0, 3))
        tight = ArenaLayout(
            max_intervals=2, max_chains=1, n_nodes=config.n_nodes
        )
        arena = TelemetryArena.create(tight)
        try:
            with pytest.raises(ValueError, match="interval rows"):
                arena.store_report(0, 0, report)
            sim = ShardSim(config)
            short = sim.run(hosted_loads(sim, 0, 2))
            with pytest.raises(ValueError, match="chain rows"):
                arena.store_report(0, 0, short)
            with pytest.raises(ValueError, match="bank"):
                arena.store_report(BANKS, 0, short)
        finally:
            arena.close()
            arena.unlink()

    def test_node_row_count_is_enforced(self):
        arena, report = self._arena_and_report(n=1)
        wrong = TelemetryArena.create(
            ArenaLayout(max_intervals=4, max_chains=8, n_nodes=1)
        )
        try:
            with pytest.raises(ValueError, match="node rows"):
                wrong.store_report(0, 0, report)
        finally:
            wrong.close()
            wrong.unlink()
            arena.close()
            arena.unlink()


class TestWorkerArenaLifecycle:
    @pytest.mark.fleet_mp
    def test_unlink_on_close(self):
        config = shard_config()
        worker = ShardWorker(config)
        name = worker.arena.name
        shared_memory.SharedMemory(name=name).close()  # alive while open
        worker.begin_run(hosted_loads(worker, 0, 1, config=config))
        worker.finish_run()
        worker.close()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    @pytest.mark.fleet_mp
    def test_generation_tracks_deployments(self):
        config = shard_config()
        with ShardWorker(config) as worker:
            assert worker._generation == 0
            ticket = ChainTicket(
                name="late", nfs=kind_nfs("light"), flow="fg9", node=0
            )
            worker.deploy(ticket)
            assert worker._generation == 1
            worker.undeploy("late")
            assert worker._generation == 2
            # The worker stamps its own counter into the bank header; a
            # matching run proves both ends stayed in sync.
            worker.begin_run(hosted_loads(worker, 0, 1, config=config))
            report = worker.finish_run()
            bank = (worker._runs - 1) % BANKS
            assert worker.arena.header(bank)[0] == float(worker._generation)
            assert len(report.chains) == len(shard_config().initial_chains)

    @pytest.mark.fleet_mp
    def test_deploy_beyond_arena_capacity_is_refused(self):
        config = shard_config(n_nodes=1, chains=1, arena_chains=1)
        with ShardWorker(config) as worker:
            ticket = ChainTicket(
                name="overflow", nfs=kind_nfs("light"), flow="fg9", node=0
            )
            with pytest.raises(RuntimeError, match="arena is sized for"):
                worker.deploy(ticket)
            # The refusal happens before the sim mutates: the worker
            # still runs, and the row map still matches.
            worker.begin_run(hosted_loads(worker, 0, 1, config=config))
            assert len(worker.finish_run().chains) == 1

    @pytest.mark.fleet_mp
    def test_run_longer_than_arena_is_refused(self):
        config = shard_config(arena_intervals=2)
        with ShardWorker(config) as worker:
            worker.begin_run(hosted_loads(worker, 0, 3, config=config))
            with pytest.raises(RuntimeError, match="interval rows"):
                worker.finish_run()
            # The refusal happens before stepping, so the worker is
            # alive and its clock never moved.
            worker.begin_run(hosted_loads(worker, 0, 2, config=config))
            assert len(worker.finish_run().intervals) == 2

    @pytest.mark.fleet_mp
    def test_row_map_survives_migration(self):
        # The same deploy/undeploy/run sequence on both backends: the
        # reconstructed report must match the in-process reference
        # bit-for-bit after a chain hops nodes (row order resyncs).
        config = shard_config()

        def drive(shard):
            shard.begin_run(hosted_loads(shard, 0, 2, config=config))
            shard.finish_run()
            moved = shard.undeploy("s0-n0-c0")
            shard.deploy(moved.with_node(1))
            shard.set_knobs({"s0-n0-c1": {"cpu_share": 1.5}})
            shard.begin_run(hosted_loads(shard, 2, 2, config=config))
            return shard.finish_run()

        with ShardWorker(config) as worker:
            via_arena = drive(worker)
        local = LocalShard(config)
        reference = drive(local)
        assert via_arena == reference
        moved = {c.name: c.node for c in via_arena.chains}["s0-n0-c0"]
        assert moved == 1
