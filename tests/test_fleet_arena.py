"""Telemetry-arena tests: layout, store/load round trips, reports that
outlive the next run, capacity guards, generation tracking and
``/dev/shm`` lifecycle (no segment may outlive its owning handle).
"""

import os
import subprocess
import sys
from multiprocessing import shared_memory
from pathlib import Path

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
from repro.fleet.arena import CHAIN_FIELDS, INTERVAL_FIELDS, NODE_FIELDS
from repro.fleet.shard import ShardSim, kind_nfs
from test_fleet import RecordingConn, assert_same_report, column, hosted_loads


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
        # The segment holds one run's three report tables and nothing else.
        layout = ArenaLayout(max_intervals=4, max_chains=3, n_nodes=2)
        one_run = (
            4 * len(INTERVAL_FIELDS)
            + 3 * len(CHAIN_FIELDS)
            + 2 * len(NODE_FIELDS)
        )
        assert layout.nbytes == one_run * 8
        arena = TelemetryArena.create(layout)
        try:
            assert arena.intervals().shape == (4, len(INTERVAL_FIELDS))
            assert arena.chains().shape == (3, len(CHAIN_FIELDS))
            assert arena.nodes().shape == (2, len(NODE_FIELDS))
        finally:
            arena.close()
            arena.unlink()

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

    @pytest.mark.fleet_mp
    def test_round_trip(self):
        # A stored report's tables read back as they were written ...
        arena, report = self._arena_and_report(n=2)
        try:
            arena.store_report(report)
            assert np.array_equal(arena.intervals()[:2], report.intervals)
            assert np.array_equal(
                arena.chains()[: len(report.chains)], report.chains
            )
            assert np.array_equal(arena.nodes(), report.nodes)
        finally:
            arena.close()
            arena.unlink()
        # ... and a worker's reports, carried through its arena, equal
        # the in-process shard's run for run, across an arrival, a knob
        # update, a departure and a migration.
        config = shard_config()
        arrival = ChainTicket(name="late", nfs=kind_nfs("heavy"), flow="fg1", node=1)

        def drive(shard):
            reports = []
            for step in range(5):
                shard.begin_run(hosted_loads(shard, 2 * step, 2, config=config))
                reports.append(shard.finish_run())
                if step == 0:
                    shard.deploy(arrival)
                elif step == 1:
                    shard.set_knobs({"late": {"cpu_share": 0.4, "cpu_freq_ghz": 1.2}})
                elif step == 2:
                    shard.undeploy("s0-n1-c0")
                elif step == 3:
                    shard.deploy(shard.undeploy("s0-n0-c1").with_node(1))
            return reports

        with ShardWorker(config) as worker:
            via_arena = drive(worker)
        reference = drive(LocalShard(config))
        for got, want in zip(via_arena, reference):
            assert_same_report(got, want)
        assert via_arena[-1].names == ("s0-n0-c0", "s0-n1-c1", "late", "s0-n0-c1")
        assert column(via_arena[2], "chains", "cpu_share")[-1] == 0.4

    @pytest.mark.fleet_mp
    def test_a_report_outlives_the_next_run(self):
        # The worker writes every run into the same tables.  That is safe
        # because finish_run copies them out before the next run can be
        # sent, so a report kept from one cycle must not change when the
        # next cycle, after a deploy, overwrites the segment.
        config = shard_config()
        arrival = ChainTicket(name="late", nfs=kind_nfs("heavy"), flow="fg1", node=1)
        with ShardWorker(config) as worker:
            worker.begin_run(hosted_loads(worker, 0, 2, config=config))
            first = worker.finish_run()
            kept = [t.tobytes() for t in (first.intervals, first.chains, first.nodes)]
            worker.deploy(arrival)
            worker.begin_run(hosted_loads(worker, 2, 2, config=config))
            second = worker.finish_run()
            # Checked with the segment still mapped, so a report that
            # viewed it would fail here rather than crash.
            assert [t.tobytes() for t in (first.intervals, first.chains, first.nodes)] == kept
        # The next run did write over every table the first one read.
        assert len(second.chains) == len(first.chains) + 1
        for table in ("intervals", "chains", "nodes"):
            assert not np.array_equal(
                getattr(second, table)[: len(getattr(first, table))],
                getattr(first, table),
            ), table

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
                arena.store_report(report)
            sim = ShardSim(config)
            short = sim.run(hosted_loads(sim, 0, 2))
            with pytest.raises(ValueError, match="chain rows"):
                arena.store_report(short)
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
                wrong.store_report(report)
        finally:
            wrong.close()
            wrong.unlink()
            arena.close()
            arena.unlink()


class TestReadsAfterClose:
    def test_a_read_from_before_close_survives_close(self):
        # A read used to hand out a view into the segment; touching it
        # after close() read unmapped memory and killed the interpreter
        # (exit 139).  In a child process, so a regression cannot take
        # the test run down with it.
        snippet = (
            "from repro.fleet.arena import ArenaLayout, TelemetryArena\n"
            "a = TelemetryArena.create(ArenaLayout(2, 2, 1))\n"
            "v = a.intervals()\n"
            "a.close(); a.unlink()\n"
            "print(v.sum())\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", snippet], env=env, capture_output=True, timeout=120
        )
        assert done.returncode == 0, done.stderr.decode()
        assert done.stdout.decode().strip() == "0.0"

    def test_reads_are_copies_and_a_closed_arena_refuses_them(self):
        arena = TelemetryArena.create(ArenaLayout(2, 2, 1))
        try:
            table = arena.chains()
            table[:] = 7.0
            assert not arena.chains().any()
        finally:
            arena.close()
            arena.unlink()
        for read in (arena.intervals, arena.chains, arena.nodes):
            with pytest.raises(ValueError, match="closed"):
                read()


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
            # The worker stamps its own counter into the telemetry ack; a
            # matching run proves both ends stayed in sync.
            spy = RecordingConn(worker._conn)
            worker._conn = spy
            worker.begin_run(hosted_loads(worker, 0, 1, config=config))
            report = worker.finish_run()
            (ack,) = spy.messages
            assert ack[:2] == ("telemetry", 2)
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
        assert_same_report(via_arena, reference)
        nodes = dict(zip(via_arena.names, column(via_arena, "chains", "node")))
        assert nodes["s0-n0-c0"] == 1
