"""Placement baselines: the registry, the greedy LP pass, the genetic
searcher, and the seeded wan comparison against the watermark policy.
"""

import json

import numpy as np
import pytest

from repro.fleet import PLACEMENTS, FleetSpec, run_fleet
from repro.fleet.placement import PlacementModel, greedy_assign
from repro.scenario import ScenarioSpec


def model(**overrides):
    """A tiny 2-chain / 2-node problem, overridable per test."""
    base = dict(
        names=("a", "b"),
        cur=np.array([0, 1]),
        flow=np.array([0, 1]),
        util=np.array([0.2, 0.2]),
        power_w=np.array([30.0, 20.0]),
        move_cost_j=np.array([[0.0, 10.0], [10.0, 0.0]]),
        counts=np.array([1, 1]),
        node_power_w=np.array([112.0, 112.0]),
        node_util=np.array([0.2, 0.2]),
        extern=np.array([0, 0]),
        extern_util=np.array([0.0, 0.0]),
        vacate_gain_j=np.array([100.0, 100.0]),
        capacity=4,
        headroom=0.85,
        colocation_gain_j=0.0,
    )
    base.update(overrides)
    return PlacementModel(**base)


class TestRegistry:
    def test_policies_registered(self):
        assert {"watermark", "greedy", "genetic"} <= set(PLACEMENTS.names())

    def test_spec_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="placement"):
            FleetSpec.from_mapping({"preset": "small", "placement": "bogus"})

    def test_spec_default_is_watermark(self):
        assert FleetSpec.from_mapping({"preset": "small"}).placement == (
            "watermark"
        )


class TestGreedyAssign:
    def test_consolidates_lone_chains(self):
        # Both chains sit alone on nodes with a large vacate gain; the
        # heaviest moves first and the second then stays (its node is no
        # longer vacatable once the fleet has consolidated).
        assign = greedy_assign(model())
        assert assign.tolist() == [1, 1]

    def test_respects_capacity(self):
        assign = greedy_assign(model(capacity=1))
        assert assign.tolist() == [0, 1]

    def test_respects_headroom(self):
        assign = greedy_assign(
            model(
                util=np.array([0.5, 0.5]),
                extern_util=np.array([0.0, 0.5]),
            )
        )
        assert assign.tolist()[0] == 0  # 0.5 + 0.5 > 0.85 at node 1

    def test_colocation_attracts_flow_mates(self):
        # Same flow group, no vacate incentive: the heaviest chain is
        # (re)assigned first and joins its mate when the bonus beats the
        # transfer cost.
        assign = greedy_assign(
            model(
                flow=np.array([0, 0]),
                vacate_gain_j=np.array([0.0, 0.0]),
                colocation_gain_j=50.0,
            )
        )
        assert assign.tolist() == [1, 1]

    def test_no_move_when_nothing_to_gain(self):
        assign = greedy_assign(model(vacate_gain_j=np.array([0.0, 0.0])))
        assert assign.tolist() == [0, 1]


def comparison_spec(seed=3, **fleet_overrides):
    """Sparse chains on thin WAN links: consolidation pays, paths matter."""
    fleet = {
        "preset": "wan",
        "topology": {
            "preset": "wan", "n_sites": 4, "nodes": 2, "chains_per_node": 1,
        },
        "migration": {"amortize_intervals": 64},
        "workload": {
            "peak_rate_pps": 3e5,
            "churn": {"arrivals_per_cycle": 0.0, "departure_prob": 0.0},
        },
        "cycles": 8,
    }
    fleet.update(fleet_overrides)
    return ScenarioSpec(
        name="wan-comparison",
        sla="energy_efficiency",
        controller="static",
        traffic="line_rate",
        fleet=fleet,
        seed=seed,
    )


class TestSeededComparison:
    @pytest.fixture(scope="class")
    def runs(self):
        spec = comparison_spec()
        return {
            policy: run_fleet(spec, placement=policy)
            for policy in ("watermark", "greedy", "genetic")
        }

    def test_all_policies_migrate(self, runs):
        for policy, result in runs.items():
            assert result.totals["migrations"] > 0, policy

    def test_topology_aware_policies_beat_watermark_energy(self, runs):
        watermark = runs["watermark"].totals
        for policy in ("greedy", "genetic"):
            totals = runs[policy].totals
            assert totals["energy_j"] <= watermark["energy_j"], policy
            assert totals["sla_violations"] <= watermark["sla_violations"]

    def test_migrations_record_routed_paths(self, runs):
        for result in runs.values():
            for mig in result.migrations:
                assert mig["hops"] == len(mig["path"]) - 1
                if mig["src_shard"] != mig["dst_shard"]:
                    assert mig["path"][0] == mig["src_shard"]
                    assert mig["path"][-1] == mig["dst_shard"]
                    assert mig["path_latency_s"] > 0.0
                else:
                    assert mig["path_latency_s"] == 0.0

    def test_placement_recorded_in_payload(self, runs):
        for policy, result in runs.items():
            assert result.to_dict()["fleet"]["placement"] == policy


class TestGeneticDeterminism:
    def test_same_seed_bit_identical(self):
        spec = comparison_spec(cycles=4)
        one = run_fleet(spec, placement="genetic")
        two = run_fleet(spec, placement="genetic")
        assert one.comparable() == two.comparable()

    def test_different_seed_differs(self):
        one = run_fleet(comparison_spec(seed=3, cycles=4), placement="genetic")
        two = run_fleet(comparison_spec(seed=4, cycles=4), placement="genetic")
        assert one.comparable() != two.comparable()


class TestPlacementCli:
    def test_fleet_placement_flag(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "fleet.json"
        assert (
            main(
                [
                    "fleet", "fleet-wan", "--quick",
                    "--placement", "greedy", "--out", str(out),
                ]
            )
            == 0
        )
        captured = capsys.readouterr().out
        assert "greedy" in captured
        payload = json.loads(out.read_text())
        assert payload["fleet"]["placement"] == "greedy"

    def test_list_shows_placements(self, capsys):
        from repro.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "watermark" in out
        assert "genetic" in out
