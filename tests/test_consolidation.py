"""``consolidation_plan`` coverage: edge cases and the capacity property.

The fleet coordinator's migration planner is driven by this function, so
its corner cases (empty cluster, single node, one giant co-location
group) and the per-node capacity bound get pinned here.
"""

import numpy as np
import pytest

from repro.nfv.cluster import consolidation_plan


def names(n, prefix="c"):
    return [f"{prefix}{i}" for i in range(n)]


class TestConsolidationPlanEdges:
    def test_empty_cluster(self):
        assert consolidation_plan([], {}, 3) == {}

    def test_no_nodes_raises(self):
        with pytest.raises(ValueError, match="at least one node"):
            consolidation_plan(names(2), {}, 0)

    def test_single_node_takes_everything(self):
        plan = consolidation_plan(names(5), {}, 1)
        assert set(plan.values()) == {0}
        assert len(plan) == 5

    def test_all_chains_share_one_flow_colocate(self):
        cs = names(4)
        flow_paths = {c: ["f0"] for c in cs}
        plan = consolidation_plan(cs, flow_paths, 3)
        assert len(set(plan.values())) == 1

    def test_disjoint_flows_spread(self):
        cs = names(4)
        flow_paths = {c: [f"f{i}"] for i, c in enumerate(cs)}
        plan = consolidation_plan(cs, flow_paths, 4)
        assert sorted(plan.values()) == [0, 1, 2, 3]

    def test_transitive_flow_sharing_groups(self):
        # a-b share f1, b-c share f2 -> all three co-locate.
        cs = names(3)
        flow_paths = {"c0": ["f1"], "c1": ["f1", "f2"], "c2": ["f2"]}
        plan = consolidation_plan(cs, flow_paths, 2)
        assert len(set(plan.values())) == 1

    def test_duplicate_names_raise(self):
        cs = names(2) + ["c0"]
        with pytest.raises(ValueError, match="duplicate"):
            consolidation_plan(cs, {}, 2)


class TestConsolidationPlanCapacity:
    def test_oversized_group_is_split(self):
        cs = names(6)
        flow_paths = {c: ["f0"] for c in cs}
        plan = consolidation_plan(cs, flow_paths, 3, capacity=2)
        counts = {n: list(plan.values()).count(n) for n in set(plan.values())}
        assert all(c <= 2 for c in counts.values())
        assert len(plan) == 6

    def test_infeasible_raises(self):
        with pytest.raises(ValueError, match="cannot fit"):
            consolidation_plan(names(5), {}, 2, capacity=2)
        with pytest.raises(ValueError, match="capacity"):
            consolidation_plan(names(1), {}, 1, capacity=0)

    def test_capacity_one_is_a_permutation(self):
        cs = names(4)
        flow_paths = {c: ["f0"] for c in cs}
        plan = consolidation_plan(cs, flow_paths, 4, capacity=1)
        assert sorted(plan.values()) == [0, 1, 2, 3]

    def test_property_never_violates_capacity(self):
        """Random instances: the plan never oversubscribes any node."""
        rng = np.random.default_rng(42)
        for trial in range(60):
            n_nodes = int(rng.integers(1, 6))
            capacity = int(rng.integers(1, 5))
            n_chains = int(rng.integers(0, n_nodes * capacity + 1))
            cs = names(n_chains, prefix=f"t{trial}c")
            n_flows = max(1, int(rng.integers(1, 6)))
            flow_paths = {
                c: [
                    f"f{rng.integers(n_flows)}"
                    for _ in range(int(rng.integers(0, 3)))
                ]
                for c in cs
            }
            plan = consolidation_plan(cs, flow_paths, n_nodes, capacity=capacity)
            assert set(plan) == set(cs)
            loads = [0] * n_nodes
            for node in plan.values():
                assert 0 <= node < n_nodes
                loads[node] += 1
            assert all(l <= capacity for l in loads), (trial, loads, capacity)

    def test_unbounded_matches_previous_behavior(self):
        # capacity=None keeps the original greedy argmin placement.
        cs = names(6)
        flow_paths = {"c0": ["a"], "c1": ["a"], "c2": ["a"], "c3": ["b"], "c4": ["b"]}
        assert consolidation_plan(cs, flow_paths, 2) == consolidation_plan(
            cs, flow_paths, 2, capacity=10
        )
