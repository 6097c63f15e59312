"""Fleet subsystem tests: topology, workloads, shards, the coordinator,
the differential local-vs-process guarantee, and the ``repro fleet`` CLI.
"""

import json
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.fleet import (
    FLEETS,
    ChainTicket,
    ChurnConfig,
    FlashCrowdConfig,
    FleetCoordinator,
    FleetResult,
    FleetSpec,
    FleetTopology,
    InterShardLink,
    LoadBlock,
    LocalShard,
    ShardConfig,
    ShardSpec,
    ShardWorker,
    WorkloadConfig,
    interval_stream,
    run_fleet,
    stream_hashes,
)
from repro.fleet.arena import CHAIN_FIELDS, INTERVAL_FIELDS, NODE_FIELDS
from repro.fleet.placement import PLACEMENTS, PlacementPolicy
from repro.fleet.shard import ShardReport, ShardSim, kind_nfs
from repro.fleet.spec import BACKENDS
from repro.hw.server import ServerSpec
from repro.nfv.cluster_kernel import row_names
from repro.scenario import SCENARIOS, ScenarioSpec
from repro.traffic.generators import DiurnalGenerator


def small_workload(**overrides):
    base = dict(peak_rate_pps=8e5, period_s=64.0, flow_group_size=2)
    base.update(overrides)
    return WorkloadConfig(**base)


def hosted_loads(shard, start, n, *, seed=0, config=None):
    """The load block a coordinator hands ``shard`` (a ``ShardSim`` or a
    shard handle) for the intervals ``[start, start + n)``: its hosted
    chains' draws under the workload and interval length of ``config``
    (by default the sim's own)."""
    config = config or shard.config
    names = shard.load_rows
    pps = WorkloadConfig.from_dict(config.workload).offered(
        seed, stream_hashes(names), start, n, config.interval_s
    )
    return LoadBlock(start, names, pps)


def column(report, table: str, field: str) -> list[float]:
    """One named column of a shard report's ``intervals``, ``chains`` or
    ``nodes`` table."""
    fields = {
        "intervals": INTERVAL_FIELDS,
        "chains": CHAIN_FIELDS,
        "nodes": NODE_FIELDS,
    }[table]
    return getattr(report, table)[:, fields.index(field)].tolist()


def assert_same_report(got, want) -> None:
    """Two shard reports agree: the same shard, start, chain names and
    flows, and float64 tables equal element for element."""
    assert (got.shard, got.start, got.names, got.flows) == (
        want.shard,
        want.start,
        want.names,
        want.flows,
    )
    for table in ("intervals", "chains", "nodes"):
        a, b = getattr(got, table), getattr(want, table)
        assert a.dtype == b.dtype == np.float64, table
        assert np.array_equal(a, b), (table, a, b)


def assert_same_reports(got, want) -> None:
    """Nested lists of shard reports agree report for report."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if isinstance(a, list):
            assert_same_reports(a, b)
        else:
            assert_same_report(a, b)


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
        workload=small_workload().to_dict(),
        parked_power_w=12.0,
        initial_chains=tickets,
    )
    base.update(overrides)
    return ShardConfig(**base)


def fleet_section(n_shards=2, nodes=2, chains_per_node=1, **overrides):
    base = dict(
        topology=FleetTopology.uniform(
            n_shards, nodes=nodes, chains_per_node=chains_per_node
        ).to_dict(),
        workload=small_workload().to_dict(),
        cycles=3,
        sync_every=2,
    )
    base.update(overrides)
    return base


# -- topology ------------------------------------------------------------------


class TestTopology:
    def test_round_trip(self):
        topo = FleetTopology(
            shards=(ShardSpec("a", 2, 2), ShardSpec("b", 3, 1, "light")),
            links=(InterShardLink("a", "b", gbps=100.0, latency_s=1e-3),),
        )
        assert FleetTopology.from_dict(topo.to_dict()) == topo

    def test_uniform(self):
        topo = FleetTopology.uniform(4, nodes=8, chains_per_node=4)
        assert topo.n_shards == 4
        assert topo.total_nodes == 32
        assert topo.total_chains == 128
        assert topo.flatten()[9] == ("s1", 1)

    def test_duplicate_shard_names_raise(self):
        with pytest.raises(ValueError, match="unique"):
            FleetTopology(shards=(ShardSpec("a"), ShardSpec("a")))

    def test_link_validation(self):
        with pytest.raises(ValueError, match="differ"):
            InterShardLink("a", "a")
        with pytest.raises(ValueError, match="unknown shards"):
            FleetTopology(
                shards=(ShardSpec("a"), ShardSpec("b")),
                links=(InterShardLink("a", "ghost"),),
            )
        with pytest.raises(ValueError, match="duplicate link"):
            FleetTopology(
                shards=(ShardSpec("a"), ShardSpec("b")),
                links=(InterShardLink("a", "b"), InterShardLink("b", "a")),
            )

    def test_link_between_explicit_and_default(self):
        topo = FleetTopology(
            shards=(ShardSpec("a"), ShardSpec("b"), ShardSpec("c")),
            links=(InterShardLink("a", "b", gbps=100.0),),
            default_link_gbps=25.0,
        )
        assert topo.link_between("b", "a").gbps == 100.0
        assert topo.link_between("a", "c").gbps == 25.0
        with pytest.raises(ValueError):
            topo.link_between("a", "a")
        with pytest.raises(KeyError):
            topo.link_between("a", "ghost")

    def test_empty_fleet_raises(self):
        with pytest.raises(ValueError, match="at least one shard"):
            FleetTopology(shards=())


# -- workload ------------------------------------------------------------------


class TestWorkload:
    def test_interval_stream_is_counter_based(self):
        a = interval_stream(7, "fleet/load/c0", 3).random(4)
        b = interval_stream(7, "fleet/load/c0", 3).random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, interval_stream(7, "fleet/load/c0", 4).random(4))
        assert not np.array_equal(a, interval_stream(8, "fleet/load/c0", 3).random(4))
        assert not np.array_equal(a, interval_stream(7, "fleet/load/c1", 3).random(4))

    def test_offered_is_pure(self):
        wl = small_workload(noise_std=0.1)
        c0 = stream_hashes(["c0"])
        block = wl.offered(3, c0, 5, 2, 1.0)
        assert np.array_equal(block, wl.offered(3, c0, 5, 2, 1.0))
        assert block[0, 0] != block[0, 1]
        # A chain's row depends on neither its block-mates nor the run split.
        pair = stream_hashes(["x", "c0"])
        assert np.array_equal(wl.offered(3, pair, 5, 2, 1.0)[1], block[0])
        assert wl.offered(3, c0, 6, 1, 1.0)[0, 0] == block[0, 1]

    def test_diurnal_shape(self):
        wl = small_workload(noise_std=0.0, trough_fraction=0.2, period_s=64.0)
        day = wl.offered(0, stream_hashes(["c"]), 0, 32, 1.0)[0]
        trough, peak = day[0], day[31]  # half period = peak
        assert peak > trough
        assert peak <= wl.peak_rate_pps

    def test_flash_crowd_window(self):
        wl = small_workload(
            noise_std=0.0,
            flash=FlashCrowdConfig(probability=1.0, multiplier=2.0, duration_intervals=3),
        )
        calm = small_workload(noise_std=0.0)
        c = stream_hashes(["c"])
        # probability 1: always flashing.
        flashing = wl.offered(0, c, 10, 1, 1.0)[0, 0]
        assert flashing / calm.offered(0, c, 10, 1, 1.0)[0, 0] == 2.0
        # No flash crowd: the noise-free diurnal rate, unscaled.
        curve = DiurnalGenerator(
            calm.peak_rate_pps,
            trough_fraction=calm.trough_fraction,
            period_s=calm.period_s,
        )
        assert calm.offered(0, c, 10, 1, 1.0)[0, 0] == (
            calm.peak_rate_pps * curve.level(10.0, 1.0)
        )

    @pytest.mark.parametrize(
        "make, field",
        [
            (lambda v: WorkloadConfig(peak_rate_pps=v), "peak_rate_pps"),
            (lambda v: WorkloadConfig(period_s=v), "period_s"),
            (lambda v: WorkloadConfig(noise_std=v), "noise_std"),
            (lambda v: WorkloadConfig(packet_bytes=v), "packet_bytes"),
            (lambda v: FlashCrowdConfig(multiplier=v), "multiplier"),
            (lambda v: ChurnConfig(arrivals_per_cycle=v), "arrivals_per_cycle"),
        ],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_parameters(self, make, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            make(value)

    def test_churn_events_deterministic_and_bounded(self):
        wl = small_workload(
            churn=ChurnConfig(arrivals_per_cycle=2.0, departure_prob=0.5, max_chains=4)
        )
        a = wl.churn_events(1, 0, ["d0", "d1"], 4)
        b = wl.churn_events(1, 0, ["d0", "d1"], 4)
        assert a == b
        arrivals, departures = a
        # max_chains=4 with 4 deployed: admissions limited to freed slots.
        assert arrivals <= len(departures)

    def test_round_trip(self):
        wl = small_workload(
            flash=FlashCrowdConfig(probability=0.1),
            churn=ChurnConfig(arrivals_per_cycle=1.0),
        )
        assert WorkloadConfig.from_dict(wl.to_dict()) == wl

    def test_validation(self):
        with pytest.raises(ValueError, match="profile"):
            WorkloadConfig(profile="sawtooth")
        with pytest.raises(ValueError):
            FlashCrowdConfig(probability=1.5)
        with pytest.raises(ValueError):
            ChurnConfig(departure_prob=-0.1)


# -- fleet spec ----------------------------------------------------------------


class TestFleetSpec:
    def test_preset_resolution_with_overrides(self):
        spec = FleetSpec.from_mapping({"preset": "small", "cycles": 2})
        assert spec.cycles == 2
        assert spec.topology.n_shards == 2

    def test_round_trip(self):
        spec = FleetSpec.from_mapping(fleet_section())
        assert FleetSpec.from_mapping(spec.to_dict()) == spec

    def test_unknown_fields_raise(self):
        with pytest.raises(ValueError, match="unknown fleet fields"):
            FleetSpec.from_mapping(fleet_section(bogus=1))

    def test_needs_topology(self):
        with pytest.raises(ValueError, match="topology"):
            FleetSpec.from_mapping({"cycles": 2})

    def test_bad_backend(self):
        with pytest.raises(ValueError, match="backend"):
            FleetSpec.from_mapping(fleet_section(backend="gpu"))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_initial_layout_above_capacity_raises(self, backend):
        # The process backend sizes each shard's telemetry arena by
        # capacity_per_node, so an over-capacity initial layout used to
        # run locally but fail in the first process-backend cycle.
        section = fleet_section(
            n_shards=1,
            nodes=2,
            chains_per_node=3,
            backend=backend,
            migration={"capacity_per_node": 2},
        )
        with pytest.raises(ValueError, match="shard 's0'.*capacity_per_node=2"):
            FleetSpec.from_mapping(section)
        section["migration"] = {"capacity_per_node": 3}
        assert FleetSpec.from_mapping(section).topology.total_chains == 6

    def test_more_chains_per_node_than_llc_ways_raises_at_build(self):
        # 19 chains on a node do not fit its 18 allocatable CAT ways; the
        # 19th deploy used to hang, and the spec now refuses the layout.
        with pytest.raises(ValueError, match="capacity_per_node=19 exceeds the 18"):
            FleetSpec.from_mapping(
                {
                    "preset": "small",
                    "migration": {"capacity_per_node": 19},
                    "topology": {
                        "preset": "full-mesh",
                        "n_shards": 1,
                        "nodes": 1,
                        "chains_per_node": 19,
                    },
                }
            )

    def test_capacity_above_llc_ways_raises_at_build(self):
        # The initial layout fits the node's 18 ways, but a capacity of
        # 19 let admission place a 19th chain on a node, which failed
        # in the middle of applying a plan ("cannot deploy 'dyn-0-0'").
        section = {
            "preset": "small",
            "cycles": 3,
            "migration": {"capacity_per_node": 19},
            "topology": {
                "preset": "full-mesh",
                "n_shards": 1,
                "nodes": 2,
                "chains_per_node": 18,
            },
            "workload": {
                "churn": {
                    "arrivals_per_cycle": 3.0,
                    "departure_prob": 0.0,
                    "max_chains": 40,
                }
            },
        }
        ways = ServerSpec().llc.allocatable_ways
        with pytest.raises(ValueError, match=f"exceeds the {ways} allocatable LLC ways"):
            FleetSpec.from_mapping(section)
        section["migration"] = {"capacity_per_node": ways}
        assert FleetSpec.from_mapping(section).migration.capacity_per_node == ways

    def test_capacity_at_llc_ways_fills_every_way(self):
        # The bound is inclusive: admission may fill a node to one chain
        # per allocatable way, and each of those deploys must succeed.
        ways = ServerSpec().llc.allocatable_ways
        spec = FleetSpec.from_mapping(
            {
                "preset": "small",
                "cycles": 3,
                "migration": {"capacity_per_node": ways},
                "topology": {
                    "preset": "full-mesh",
                    "n_shards": 1,
                    "nodes": 2,
                    "chains_per_node": ways - 1,
                },
                "workload": {
                    "churn": {
                        "arrivals_per_cycle": 3.0,
                        "departure_prob": 0.0,
                        "max_chains": 40,
                    }
                },
            }
        )
        with FleetCoordinator(spec, seed=1) as coordinator:
            coordinator.run_cycles(3)
            result = coordinator.result()
        assert result.totals["arrivals"] == 2
        assert result.totals["final_chains"] == 2 * ways
        assert sorted(c["node"] for c in result.churn) == [0, 1]

    def test_all_presets_resolve(self):
        for name in FLEETS:
            spec = FleetSpec.from_mapping({"preset": name})
            assert spec.topology.n_shards >= 1

    def test_scenario_spec_embeds_fleet(self):
        spec = ScenarioSpec(name="f", controller="static", fleet=fleet_section())
        again = ScenarioSpec.from_json(spec.to_json())
        assert again == spec
        assert again.fleet is not None

    def test_scenario_spec_rejects_bad_fleet(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="f", fleet={"preset": "ghost"})
        with pytest.raises(ValueError):
            ScenarioSpec(name="f", fleet={"topology": {"shards": []}})


# -- shard simulation ----------------------------------------------------------


class TestShardSim:
    def test_run_produces_telemetry(self):
        sim = ShardSim(shard_config())
        report = sim.run(hosted_loads(sim, 0, 3))
        assert (report.start, len(report.intervals)) == (0, 3)
        assert all(e > 0 for e in column(report, "intervals", "energy_j"))
        assert column(report, "intervals", "chains") == [4.0] * 3
        assert len(report.chains) == 4
        assert len(report.nodes) == 2
        assert all(u >= 0 for u in column(report, "chains", "utilization"))

    def test_lockstep_clock_enforced(self):
        sim = ShardSim(shard_config())
        sim.run(hosted_loads(sim, 0, 2))
        with pytest.raises(ValueError, match="interval 2"):
            sim.run(hosted_loads(sim, 5, 2))

    def test_run_rejects_mismatched_block(self):
        # A run steps exactly the hosted chains' rows: a block with a
        # chain missing, out of order, foreign, a row short, flat or
        # without an interval is refused before any state moves.
        sim = ShardSim(shard_config())
        good = hosted_loads(sim, 0, 2)
        rows = sim.load_rows
        bad_blocks = [
            good.take(rows[1:]),
            good.take(rows[::-1]),
            LoadBlock(0, rows + ("ghost",), np.vstack([good.pps, good.pps[:1]])),
            LoadBlock(0, rows, good.pps[1:]),
            LoadBlock(0, rows, good.pps[:, 0]),
            LoadBlock(0, rows, good.pps[:, :0]),
        ]
        for bad in bad_blocks:
            with pytest.raises(ValueError, match="load block"):
                sim.run(bad)
        report = sim.run(good)
        assert (report.start, len(report.intervals)) == (0, 2)

    def test_deploy_undeploy_ticket_round_trip(self):
        sim = ShardSim(shard_config())
        sim.run(hosted_loads(sim, 0, 1))
        ticket = sim.undeploy("s0-n0-c0")
        assert ticket.node == 0
        # A chain's load row comes with its deploy and goes with it.
        assert sorted(sim.load_rows) == sorted(row_names(sim.nodes))
        assert set(ticket.knobs) == {
            "cpu_share", "cpu_freq_ghz", "llc_fraction", "dma_mb", "batch_size",
        }
        sim.deploy(ticket.with_node(1))
        assert sim.nodes[1].chains["s0-n0-c0"] is not None
        assert sim.load_rows[-1] == "s0-n0-c0"
        assert sorted(sim.load_rows) == sorted(row_names(sim.nodes))
        with pytest.raises(ValueError, match="already"):
            sim.deploy(ticket)
        with pytest.raises(KeyError):
            sim.undeploy("ghost")

    def test_rejected_set_knobs_leaves_shard_unchanged(self):
        # Every name and setting is checked before any knob lands: an
        # unknown chain or an invalid setting after a valid update must
        # not apply it, repartition CAT or bump the node's generation.
        sim = ShardSim(shard_config())
        node = sim.nodes[0]

        def state():
            knobs = {name: hosted.knobs for name, hosted in node.chains.items()}
            return knobs, node.cache.allocations, node._config_gen

        before = state()
        valid = {"cpu_share": 0.5, "llc_fraction": 0.07}
        with pytest.raises(KeyError):
            sim.set_knobs({"s0-n0-c0": valid, "ghost": {}})
        with pytest.raises(ValueError):
            sim.set_knobs({"s0-n0-c0": valid, "s0-n0-c1": {"batch_size": 0}})
        with pytest.raises(TypeError, match="bogus"):
            sim.set_knobs({"s0-n0-c0": valid, "s0-n0-c1": {"bogus": 1.0}})
        assert state() == before

    @pytest.mark.parametrize(
        "handle", [LocalShard, pytest.param(ShardWorker, marks=pytest.mark.fleet_mp)]
    )
    def test_partial_knob_update_keeps_the_other_knobs(self, handle):
        # An update names only the knobs it changes: the others keep the
        # chain's settings, not the Baseline defaults, on both backends
        # and in the migration ticket they ride.
        deployed = {"cpu_freq_ghz": 1.5, "llc_fraction": 0.3, "dma_mb": 8.0,
                    "batch_size": 64}
        ticket = ChainTicket(
            name="c0", nfs=kind_nfs("light"), flow="f", node=0, knobs=deployed
        )
        shard = handle(shard_config(n_nodes=1, initial_chains=(ticket,)))
        try:
            shard.set_knobs({"c0": {"cpu_share": 0.5}})
            moved = shard.undeploy("c0")
        finally:
            shard.close()
        assert moved.knobs == {"cpu_share": 0.5, **deployed}

    def test_vacated_node_bills_parked_power(self):
        config = shard_config(n_nodes=2, chains=1, parked_power_w=5.0)
        sim = ShardSim(config)
        sim.undeploy("s0-n1-c0")  # node 1 now empty -> parked
        report = sim.run(hosted_loads(sim, 0, 1))
        busy_only = ShardSim(shard_config(n_nodes=1, chains=1, parked_power_w=5.0))
        busy_report = busy_only.run(hosted_loads(busy_only, 0, 1))
        assert column(report, "intervals", "energy_j")[0] == pytest.approx(
            column(busy_report, "intervals", "energy_j")[0] + 5.0
        )
        assert column(report, "nodes", "power_w")[1] == 5.0

    def test_same_seed_bit_identical(self):
        a, b = ShardSim(shard_config()), ShardSim(shard_config())
        assert_same_report(
            a.run(hosted_loads(a, 0, 4, seed=9)), b.run(hosted_loads(b, 0, 4, seed=9))
        )

    def test_different_seed_differs(self):
        cfg = shard_config(workload=small_workload(noise_std=0.2).to_dict())
        sim_a, sim_b = ShardSim(cfg), ShardSim(cfg)
        a = sim_a.run(hosted_loads(sim_a, 0, 4, seed=1))
        b = sim_b.run(hosted_loads(sim_b, 0, 4, seed=2))
        assert column(a, "intervals", "offered_pps") != column(
            b, "intervals", "offered_pps"
        )

    def test_kind_nfs(self):
        assert kind_nfs("light") == ("nat", "firewall")
        assert kind_nfs("mixed", 0) != kind_nfs("mixed", 1)
        with pytest.raises(ValueError, match="chain kind"):
            kind_nfs("ghost")


# -- coordinator (local backend) -----------------------------------------------


class TestCoordinatorLocal:
    def run_small(self, seed=3, **fleet_overrides):
        spec = ScenarioSpec(
            name="fleet-test",
            controller="static",
            fleet=fleet_section(**fleet_overrides),
            seed=seed,
        )
        return run_fleet(spec)

    def test_records_and_totals(self):
        result = self.run_small()
        assert len(result.intervals) == 6  # 3 cycles x 2 intervals
        assert [r["index"] for r in result.intervals] == list(range(6))
        assert result.totals["energy_j"] > 0
        assert result.totals["intervals"] == 6
        assert result.totals["final_chains"] == 4

    def test_seeded_run_is_reproducible(self):
        a = self.run_small(seed=5)
        b = self.run_small(seed=5)
        assert a.comparable() == b.comparable()

    def test_consolidation_migrates_and_respects_capacity(self):
        # 2 shards x 2 nodes x 1 chain with paired flow groups: the plan
        # co-locates each pair, vacating nodes; gains beat costs.
        result = self.run_small(cycles=4)
        assert result.totals["migrations"] >= 1
        for m in result.migrations:
            assert m["gain_j"] > m["cost_j"]
            assert m["reason"] in ("vacate", "colocate")
        # No node may ever exceed the capacity bound.
        placement: dict = {}
        for m in result.migrations:
            placement[m["chain"]] = (m["dst_shard"], m["dst_node"])
        counts: dict = {}
        for dst in placement.values():
            counts[dst] = counts.get(dst, 0) + 1
        capacity = FleetSpec.from_mapping(fleet_section()).migration.capacity_per_node
        assert all(c <= capacity for c in counts.values())

    def test_cross_shard_migration_costs_more(self):
        result = self.run_small(cycles=6)
        cross = [
            m for m in result.migrations if m["src_shard"] != m["dst_shard"]
        ]
        same = [m for m in result.migrations if m["src_shard"] == m["dst_shard"]]
        if cross and same:
            assert min(c["cost_j"] for c in cross) > max(s["cost_j"] for s in same)

    def test_churn_admits_and_retires(self):
        result = self.run_small(
            workload=small_workload(
                churn=ChurnConfig(
                    arrivals_per_cycle=2.0, departure_prob=0.3, max_chains=12
                )
            ).to_dict(),
            cycles=5,
        )
        assert result.totals["arrivals"] > 0
        events = {(c["event"], c["chain"]) for c in result.churn}
        arrived = {c for e, c in events if e == "arrival"}
        departed = {c for e, c in events if e == "departure"}
        assert departed <= arrived  # only dynamic chains depart

    def test_artifact_round_trip(self, tmp_path):
        result = self.run_small()
        path = result.save(tmp_path / "fleet.json")
        again = FleetResult.load(path)
        assert again.to_dict() == result.to_dict()

    def test_requires_fleet_section(self):
        spec = ScenarioSpec(name="plain")
        with pytest.raises(ValueError, match="no fleet section"):
            run_fleet(spec)

    def test_coordinator_closed_refuses_work(self):
        fleet = FleetSpec.from_mapping(fleet_section())
        coordinator = FleetCoordinator(fleet, seed=1)
        coordinator.close()
        with pytest.raises(RuntimeError, match="closed"):
            coordinator.run_cycles(1)


# -- the differential guarantee ------------------------------------------------


class RecordingConn:
    """A pipe end that records every reply it reads, and its kind."""

    def __init__(self, conn):
        self._conn = conn
        self.received = []
        self.messages = []

    def recv(self):
        msg = self._conn.recv()
        self.received.append(msg[0])
        self.messages.append(msg)
        return msg

    def __getattr__(self, attr):
        return getattr(self._conn, attr)


class TestProcessBackend:
    @pytest.mark.fleet_mp
    def test_one_cycle_smoke(self):
        """One multi-process coordinator cycle: the CI gate on ``fleet_mp``."""
        fleet = FleetSpec.from_mapping(fleet_section(cycles=1))
        with FleetCoordinator(
            fleet.with_updates(backend="process"), seed=2
        ) as coordinator:
            coordinator.run_cycles(1)
            result = coordinator.result()
        assert result.totals["intervals"] == 2
        assert result.totals["energy_j"] > 0

    @pytest.mark.fleet_mp
    def test_process_run_bit_identical_to_local(self):
        """The acceptance bar: energy, SLA violations and the migration
        log of a process-backed run match the LocalShard reference
        bit-for-bit (same floats, same decisions)."""
        spec = ScenarioSpec(
            name="fleet-diff",
            controller="static",
            fleet=fleet_section(
                cycles=4,
                workload=small_workload(
                    noise_std=0.1,
                    flash=FlashCrowdConfig(probability=0.1, multiplier=2.0),
                    churn=ChurnConfig(
                        arrivals_per_cycle=1.0, departure_prob=0.2, max_chains=10
                    ),
                ).to_dict(),
            ),
            seed=7,
        )
        local = run_fleet(spec, backend="local")
        proc = run_fleet(spec, backend="process")
        assert proc.comparable() == local.comparable()

    @pytest.mark.fleet_mp
    def test_chainless_start_bit_identical_to_local(self):
        # Every node starts empty, so the first cycle steps kernels with
        # zero rows; churn admits chains from the next cycle on.
        spec = ScenarioSpec(
            name="fleet-empty-start",
            controller="static",
            fleet=fleet_section(
                chains_per_node=0,
                cycles=4,
                workload=small_workload(
                    churn=ChurnConfig(
                        arrivals_per_cycle=1.5, departure_prob=0.2, max_chains=8
                    ),
                ).to_dict(),
            ),
            seed=4,
        )
        local = run_fleet(spec, backend="local")
        proc = run_fleet(spec, backend="process")
        assert local.intervals[0]["chains"] == 0
        assert local.totals["arrivals"] > 0
        assert proc.comparable() == local.comparable()

    @pytest.mark.fleet_mp
    def test_worker_error_propagates(self):
        config = shard_config()
        with ShardWorker(config) as worker:
            with pytest.raises(RuntimeError, match="ghost"):
                worker.undeploy("ghost")
            # Unexpected exception types must not kill the worker either
            # (LocalShard raises TypeError for the same bad ticket).
            bad = ChainTicket(
                name="bad", nfs=("nat",), flow="f", node=0, knobs={"bogus": 1.0}
            )
            with pytest.raises(RuntimeError, match="TypeError"):
                worker.deploy(bad)
            # The worker survives both command errors.
            worker.begin_run(hosted_loads(worker, 0, 1, config=config))
            report = worker.finish_run()
        assert column(report, "intervals", "energy_j")[0] > 0

    @pytest.mark.fleet_mp
    def test_worker_rejects_mismatched_block(self):
        # The run message carries the shard's rows; a block that does
        # not match the worker's hosted chains comes back as an error,
        # and the worker, its clock unmoved, runs the right block next.
        config = shard_config()
        with ShardWorker(config) as worker:
            good = hosted_loads(worker, 0, 2, config=config)
            rows = worker.load_rows
            for bad in (good.take(rows[::-1]), LoadBlock(0, rows, good.pps[1:])):
                worker.begin_run(bad)
                with pytest.raises(RuntimeError, match="load block"):
                    worker.finish_run()
            worker.begin_run(good)
            report = worker.finish_run()
            assert (report.start, len(report.intervals)) == (0, 2)

    @pytest.mark.fleet_mp
    def test_worker_error_includes_traceback(self):
        # The error reply carries the worker-side traceback (trimmed to
        # the failure site) so a shard failure is debuggable from the
        # parent, not just a bare "KeyError: 'ghost'".
        config = shard_config()
        with ShardWorker(config) as worker:
            with pytest.raises(RuntimeError) as excinfo:
                worker.undeploy("ghost")
            msg = str(excinfo.value)
            assert "--- worker traceback ---" in msg
            assert "undeploy" in msg  # the worker frame that raised
            assert "KeyError" in msg
            # The worker survives and keeps serving commands.
            worker.begin_run(hosted_loads(worker, 0, 1, config=config))
            assert column(worker.finish_run(), "intervals", "energy_j")[0] > 0

    @pytest.mark.fleet_mp
    def test_close_drains_in_flight_run(self):
        # close() with a run in flight must drain the pending telemetry
        # ack before the stop handshake — otherwise stop's reply read
        # consumes the telemetry message as its own, the worker is torn
        # down mid-protocol, and "stopped" is never seen.
        config = shard_config()
        worker = ShardWorker(config)
        spy = RecordingConn(worker._conn)
        worker._conn = spy
        worker.begin_run(hosted_loads(worker, 0, 2, config=config))
        worker.close()
        assert spy.received == ["telemetry", "stopped"]

    @pytest.mark.fleet_mp
    @pytest.mark.parametrize(
        "refused, error",
        [
            ({"ghost": {"cpu_share": 0.5}}, "KeyError"),
            ({"s0-n0-c1": {"batch_size": 0}}, "batch_size must be"),
        ],
    )
    def test_refused_knobs_raise_at_the_next_reply(self, refused, error):
        # set_knobs returns without its ack.  A command the worker
        # refuses raises at the handle's next reply; the run reply queued
        # behind it is still read and booked, and no knob moves, not even
        # the valid update sent in the same command.
        config = shard_config()
        knobs = ("cpu_share", "cpu_freq_ghz")
        with ShardWorker(config) as worker:
            worker.begin_run(hosted_loads(worker, 0, 1, config=config))
            first = worker.finish_run()
            before = [column(first, "chains", knob) for knob in knobs]
            worker.set_knobs({"s0-n0-c0": {"cpu_share": 0.5}, **refused})
            worker.begin_run(hosted_loads(worker, 1, 2, config=config))
            with pytest.raises(RuntimeError) as excinfo:
                worker.finish_run()
            msg = str(excinfo.value)
            assert "op 'knobs'" in msg
            assert error in msg
            assert "--- worker traceback ---" in msg
            assert "set_knobs" in msg  # the worker frame that raised
            worker.begin_run(hosted_loads(worker, 3, 1, config=config))
            report = worker.finish_run()
            tickets = [worker.undeploy(name) for name in worker.load_rows]
        assert (report.start, len(report.intervals)) == (3, 1)
        assert [column(report, "chains", knob) for knob in knobs] == before
        # Every knob, not only the two a report carries, as deployed.
        fresh = LocalShard(config)
        assert [t.knobs for t in tickets] == [
            fresh.undeploy(name).knobs for name in fresh.load_rows
        ]

    @pytest.mark.fleet_mp
    def test_close_reads_unacknowledged_knob_acks(self):
        # close() reads the knob acks still owed, a refusal among them,
        # before the stop handshake, which still sees "stopped".
        config = shard_config()
        worker = ShardWorker(config)
        spy = RecordingConn(worker._conn)
        worker._conn = spy
        worker.set_knobs({worker.load_rows[0]: {"cpu_share": 0.5}})
        worker.set_knobs({"ghost": {"cpu_share": 0.5}})
        worker.close()
        assert spy.received == ["ok", "error", "stopped"]

    @pytest.mark.fleet_mp
    def test_knobs_refused_while_a_run_is_in_flight(self):
        # Owed acks are read before the telemetry ack, so a knob command
        # sent behind a run would desync the pipe; it is refused unsent.
        config = shard_config()
        with ShardWorker(config) as worker:
            worker.begin_run(hosted_loads(worker, 0, 1, config=config))
            with pytest.raises(RuntimeError, match="run in flight"):
                worker.set_knobs({"s0-n0-c0": {"cpu_share": 0.5}})
            assert worker.finish_run().start == 0

    @pytest.mark.fleet_mp
    def test_deployment_commands_stay_synchronous(self):
        # A knob ack owed before a deploy is read before the deploy goes
        # out, and a refused ticket raises at the deploy call itself.
        config = shard_config()
        with ShardWorker(config) as worker:
            spy = RecordingConn(worker._conn)
            worker._conn = spy
            worker.set_knobs({worker.load_rows[0]: {"cpu_share": 0.5}})
            bad = ChainTicket(name="bad", nfs=("nat",), flow="f", node=9)
            with pytest.raises(RuntimeError, match="op 'deploy'.*out of range"):
                worker.deploy(bad)
            assert spy.received == ["ok", "error"]
            ticket = worker.undeploy(worker.load_rows[0])
            assert ticket.knobs["cpu_share"] == 0.5
            assert spy.received == ["ok", "error", "ticket"]

    @pytest.mark.fleet_mp
    def test_killed_worker_names_the_shard(self):
        # The run is sized to take long enough that the kill always
        # lands before the telemetry ack is written.
        config = shard_config(name="victim", arena_intervals=4096)
        worker = ShardWorker(config)
        arena_name = worker.arena.name
        worker.begin_run(hosted_loads(worker, 0, 4096, config=config))
        worker._proc.kill()
        worker._proc.join(timeout=10.0)
        with pytest.raises(
            RuntimeError, match="shard 'victim' worker died without replying"
        ) as excinfo:
            worker.finish_run()
        # The error reports the coordinator's view of the crash: which
        # opcode never got its reply and how far the shard had advanced.
        msg = str(excinfo.value)
        assert "pending op 'run'" in msg
        assert "0 cycle(s) completed" in msg
        assert "last interval 0" in msg
        worker.close()  # reaping an already-dead worker must not raise
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=arena_name)

    @pytest.mark.fleet_mp
    def test_killed_worker_reports_completed_cycles(self):
        # After one successful cycle the crash report must carry the
        # advanced cycle count and interval watermark.
        config = shard_config(name="victim", arena_intervals=4096)
        worker = ShardWorker(config)
        worker.begin_run(hosted_loads(worker, 0, 2, config=config))
        worker.finish_run()
        worker.begin_run(hosted_loads(worker, 2, 4096, config=config))
        worker._proc.kill()
        worker._proc.join(timeout=10.0)
        with pytest.raises(RuntimeError) as excinfo:
            worker.finish_run()
        msg = str(excinfo.value)
        assert "pending op 'run'" in msg
        assert "1 cycle(s) completed" in msg
        assert "last interval 2" in msg
        worker.close()

    @pytest.mark.fleet_mp
    def test_close_reclaims_arena_after_worker_crash_mid_run(self):
        # close() with the run still in flight and the worker already
        # dead: the drain hits EOF and the stop send a broken pipe —
        # both must be absorbed, and the arena segment still unlinked.
        config = shard_config(arena_intervals=4096)
        worker = ShardWorker(config)
        arena_name = worker.arena.name
        worker.begin_run(hosted_loads(worker, 0, 4096, config=config))
        worker._proc.kill()
        worker._proc.join(timeout=10.0)
        worker.close()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=arena_name)

    @pytest.mark.fleet_mp
    def test_worker_construction_error_surfaces(self):
        # A bad config must raise the real error at construction (as the
        # local backend does), not a dead pipe on the first command.
        bad = shard_config(
            initial_chains=(
                ChainTicket(name="x", nfs=("nat",), flow="f", node=9),
            )
        )
        with pytest.raises(RuntimeError, match="out of range"):
            ShardWorker(bad)

    def test_local_shard_interface(self):
        shard = LocalShard(shard_config())
        shard.begin_run(hosted_loads(shard.sim, 0, 2))
        with pytest.raises(RuntimeError, match="not collected"):
            shard.begin_run(hosted_loads(shard.sim, 2, 2))
        report = shard.finish_run()
        assert len(report.intervals) == 2
        with pytest.raises(RuntimeError, match="no run"):
            shard.finish_run()


# -- pipelining ----------------------------------------------------------------


class TestPipelining:
    """The one fleet schedule overlaps deciding on cycle *t* with stepping
    cycle *t+1*, so every decision lands exactly one interval boundary
    later than under the seed lockstep loop, which lives on as
    ``reference_lockstep_cycles`` in ``benchmarks/perf/reference.py``."""

    def churny_section(self, **overrides):
        return fleet_section(
            cycles=3,
            workload=small_workload(
                churn=ChurnConfig(
                    arrivals_per_cycle=2.0, departure_prob=0.0, max_chains=32
                ),
            ).to_dict(),
            **overrides,
        )

    def lockstep(self, perf_reference, spec, backend="local"):
        """``run_fleet`` with the lockstep reference schedule."""
        fleet = FleetSpec.from_mapping(spec.fleet).with_updates(backend=backend)
        with FleetCoordinator(
            fleet,
            sla=spec.sla,
            sla_params=spec.sla_params,
            interval_s=spec.interval_s,
            seed=spec.seed,
        ) as coordinator:
            perf_reference.reference_lockstep_cycles(coordinator, fleet.cycles)
            return coordinator.result()

    def test_depth_validation(self):
        with pytest.raises(ValueError, match="unknown fleet fields.*pipeline_depth"):
            FleetSpec.from_mapping(fleet_section(pipeline_depth=1))
        assert "pipeline_depth" not in FleetSpec.from_mapping(fleet_section()).to_dict()

    def test_depth_one_delays_decisions_one_boundary(self, perf_reference):
        spec = ScenarioSpec(
            name="fleet-stale",
            controller="static",
            fleet=self.churny_section(),
            seed=11,
        )
        d0 = self.lockstep(perf_reference, spec)
        d1 = run_fleet(spec)
        cycle0_arrivals = [
            c for c in d0.churn if c["cycle"] == 0 and c["event"] == "arrival"
        ]
        assert cycle0_arrivals  # guard: this seed must actually admit chains
        # Both schedules admit the same chains (the plan is a pure
        # function of cycle 0's reports, identical in both runs) ...
        assert [c["chain"] for c in cycle0_arrivals] == [
            c["chain"]
            for c in d1.churn
            if c["cycle"] == 0 and c["event"] == "arrival"
        ]
        # ... but with sync_every=2, lockstep deploys them before
        # interval 2 while the pipeline applies the same plan one
        # boundary later, so the admitted chains only step from
        # interval 4 on.
        assert d0.intervals[2]["chains"] > d1.intervals[2]["chains"]
        assert d0.intervals[0]["chains"] == d1.intervals[0]["chains"]

    @pytest.mark.fleet_mp
    def test_depth_zero_bit_identical_across_backends(self, perf_reference):
        # The pipelined cross-backend differential is
        # test_process_run_bit_identical_to_local; this pins the
        # lockstep reference driving either backend's handles too.
        spec = ScenarioSpec(
            name="fleet-diff-d0",
            controller="static",
            fleet=self.churny_section(),
            seed=9,
        )
        local = self.lockstep(perf_reference, spec, "local")
        proc = self.lockstep(perf_reference, spec, "process")
        assert proc.comparable() == local.comparable()


# -- CLI -----------------------------------------------------------------------


class TestFleetCli:
    def test_fleet_subcommand(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "fleet.json"
        assert main(["fleet", "fleet-small", "--quick", "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "fleet 'fleet-small'" in captured
        payload = json.loads(out.read_text())
        assert payload["format_version"] == 1
        assert payload["totals"]["intervals"] == 4  # quick: 2 cycles x 2

    def test_fleet_subcommand_rejects_plain_spec(self, capsys):
        from repro.__main__ import main

        assert main(["fleet", "baseline"]) == 2
        assert "no fleet section" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, options",
        [("--placement", tuple(PLACEMENTS.names())), ("--backend", BACKENDS)],
    )
    def test_unknown_choice_exits_2_naming_options(self, flag, options, capsys):
        from repro.__main__ import main

        assert main(["fleet", "fleet-small", flag, "ghost"]) == 2
        err = capsys.readouterr().err
        assert "'ghost'" in err
        for name in options:
            assert name in err

    def test_list_shows_fleet_presets(self, capsys):
        from repro.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fleet-small" in out
        assert "datacenter" in out


# -- preset deep-merge ---------------------------------------------------------


class TestPresetDeepMerge:
    """Partial overrides of nested sections keep the preset's siblings.

    The regression: ``from_mapping`` used to shallow-``update`` over the
    preset, so ``{"migration": {"budget_per_cycle": 1}}`` silently reset
    the wan preset's ``capacity_per_node=4`` back to the dataclass
    default.
    """

    def test_migration_partial_override(self):
        spec = FleetSpec.from_mapping(
            {"preset": "wan", "migration": {"budget_per_cycle": 1}}
        )
        assert spec.migration.budget_per_cycle == 1
        assert spec.migration.capacity_per_node == 4  # preset, not default

    def test_workload_partial_override(self):
        spec = FleetSpec.from_mapping(
            {"preset": "wan", "workload": {"period_s": 32.0}}
        )
        assert spec.workload.period_s == 32.0
        assert spec.workload.peak_rate_pps == 1.2e6
        assert spec.workload.flash.probability == 0.05

    def test_nested_nested_churn_override(self):
        spec = FleetSpec.from_mapping(
            {"preset": "wan", "workload": {"churn": {"departure_prob": 0.3}}}
        )
        assert spec.workload.churn.departure_prob == 0.3
        assert spec.workload.churn.arrivals_per_cycle == 0.5
        assert spec.workload.churn.max_chains == 24
        assert spec.workload.peak_rate_pps == 1.2e6

    def test_steering_partial_override(self):
        spec = FleetSpec.from_mapping(
            {"preset": "small", "steering": {"high_watermark": 0.8}}
        )
        assert spec.steering.high_watermark == 0.8
        assert spec.steering.low_watermark == 0.25
        assert spec.steering.enabled

    def test_topology_partial_override(self):
        spec = FleetSpec.from_mapping(
            {"preset": "small", "topology": {"default_link_latency_s": 0.01}}
        )
        assert spec.topology.default_link_latency_s == 0.01
        assert spec.topology.n_shards == 2  # preset's shards survive
        assert spec.topology.default_link_gbps == 40.0

    def test_topology_preset_replaces_wholesale(self):
        spec = FleetSpec.from_mapping(
            {"preset": "small", "topology": {"preset": "wan", "n_sites": 4}}
        )
        assert spec.topology == FleetTopology.wan(4)

    def test_scalar_override_still_replaces(self):
        spec = FleetSpec.from_mapping({"preset": "wan", "cycles": 3})
        assert spec.cycles == 3


# -- migration scoring ---------------------------------------------------------


class Desire(PlacementPolicy):
    """A stub policy: the named chains want the given global nodes, every
    other chain stays where the book has it."""

    def __init__(self, targets):
        super().__init__(n_nodes=0, capacity=0, seed=0)
        self.targets = targets

    def desired(self, cycle, model):
        return np.array(
            [self.targets.get(n, c) for n, c in zip(model.names, model.cur.tolist())]
        )


def table_report(shard, rows, n_nodes, node_power_w=50.0):
    """A gathered report of ``(name, flow, node)`` chain rows, each chain
    at 20 W and 0.2 utilization with 200 MB of state and a 50 MB DMA
    buffer, on nodes drawing ``node_power_w``."""
    chains = [[node, 0.2, 20.0, 2e8, 5e7, 1.0, 2.1] for _name, _flow, node in rows]
    return ShardReport(
        shard=shard,
        start=0,
        names=tuple(name for name, _flow, _node in rows),
        flows=tuple(flow for _name, flow, _node in rows),
        intervals=np.zeros((1, len(INTERVAL_FIELDS))),
        chains=np.array(chains, dtype=np.float64).reshape(len(rows), len(CHAIN_FIELDS)),
        nodes=np.tile([node_power_w, 0.2], (n_nodes, 1)),
    )


def plan_moves(coordinator, book, reports, targets):
    """The moves one cycle plans from ``reports`` for the placement book
    ``book`` when the policy wants each chain of ``targets`` at its
    ``(shard, node)``."""
    coordinator._placement = dict(book)
    coordinator._placer = Desire(
        {name: coordinator._global_index[key] for name, key in targets.items()}
    )
    return coordinator._plan_cycle(reports, 0, 2).moves


class TestPlacementBook:
    """Co-location reads the authoritative placement book, not telemetry.

    On the pipelined path the gathered tables lag one cycle: a flow-mate
    migrated by the previous plan still *reports* from its old node.  The
    regression: the scorer used to read the mate's location from its
    stale telemetry, paying (or withholding) the LLC-affinity bonus at
    the wrong node for one cycle after every migration.  Each case below
    gives the mate's report row and its book location as different
    nodes; a third chain shares the mover's node, so no vacate gain
    hides the bonus.
    """

    BONUS_J = 100.0

    @pytest.fixture()
    def coordinator(self):
        fleet = FleetSpec.from_mapping(
            {
                "topology": FleetTopology.uniform(
                    2, nodes=2, chains_per_node=1
                ).to_dict(),
                "migration": {"colocation_gain_j": self.BONUS_J},
            }
        )
        with FleetCoordinator(fleet, seed=0) as coordinator:
            yield coordinator

    def test_bonus_follows_book_one_cycle_after_migration(self, coordinator):
        # Mate "b" migrated from ("s0", 1) to ("s1", 0) last cycle; its
        # row still comes from s0's table, node 1.  Moving "a" to the
        # book's node must earn the co-location bonus.
        book = {"a": ("s0", 0), "c": ("s0", 0), "b": ("s1", 0)}
        reports = [
            table_report("s0", [("a", "fg0", 0), ("c", "fg1", 0), ("b", "fg0", 1)], 2),
            table_report("s1", [], 2),
        ]
        moves = plan_moves(coordinator, book, reports, {"a": ("s1", 0)})
        assert [(m.chain, m.dst, m.reason) for m in moves] == [
            ("a", ("s1", 0), "colocate")
        ]
        assert moves[0].gain_j == self.BONUS_J

    def test_stale_summary_location_earns_no_bonus(self, coordinator):
        # The inverse: "b"'s stale row is from the destination node, but
        # the book knows it sits on ("s0", 1): no bonus, and the move
        # cannot pay for itself.
        book = {"a": ("s0", 0), "c": ("s0", 0), "b": ("s0", 1)}
        reports = [
            table_report("s0", [("a", "fg0", 0), ("c", "fg1", 0)], 2),
            table_report("s1", [("b", "fg0", 0)], 2),
        ]
        assert plan_moves(coordinator, book, reports, {"a": ("s1", 0)}) == ()


class TestRoutedCosts:
    """Cross-shard migration costs integrate over the routed path."""

    @pytest.fixture()
    def coordinator(self):
        fleet = FleetSpec.from_mapping(
            {
                "topology": FleetTopology.wan(
                    6, nodes=1, chains_per_node=1
                ).to_dict(),
            }
        )
        with FleetCoordinator(fleet, seed=0) as coordinator:
            yield coordinator

    def _move(self, coordinator, dst_shard):
        # One chain per site; "c" sits alone on site1 and is worth moving
        # for the node it vacates.
        book = {f"c{i}": (f"site{i}", 0) for i in range(6)}
        book["c"] = book.pop("c1")
        reports = [
            table_report(shard, [(name, name, 0)], 1)
            for name, (shard, _node) in sorted(book.items(), key=lambda kv: kv[1])
        ]
        (move,) = plan_moves(coordinator, book, reports, {"c": (dst_shard, 0)})
        return move

    def test_multi_hop_costs_more_than_single_hop_model(self, coordinator):
        mig = coordinator.fleet.migration
        move = self._move(coordinator, "site5")
        # site1 -> site5 rides two ring links via site0.
        assert move.path == ("site1", "site0", "site5")
        payload = 2e8 + 5e7
        expected = mig.setup_j
        for link in coordinator._routing.path_links("site1", "site5"):
            expected += (
                payload * 8.0 / (link.gbps * 1e9) + link.latency_s
            ) * mig.link_power_w
        assert move.cost_j == expected
        # The pre-graph flat model would price this as one direct hop.
        link = coordinator.fleet.topology.link_between("site0", "site1")
        single_hop = (
            mig.setup_j
            + (payload * 8.0 / (link.gbps * 1e9) + link.latency_s)
            * mig.link_power_w
        )
        assert move.cost_j > single_hop * 1.5

    def test_adjacent_hop_reproduces_flat_model(self, coordinator):
        mig = coordinator.fleet.migration
        move = self._move(coordinator, "site2")
        assert move.path == ("site1", "site2")
        link = coordinator.fleet.topology.link_between("site1", "site2")
        assert move.cost_j == (
            mig.setup_j
            + ((2e8 + 5e7) * 8.0 / (link.gbps * 1e9) + link.latency_s)
            * mig.link_power_w
        )
