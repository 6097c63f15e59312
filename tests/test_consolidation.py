"""``consolidation_plan`` coverage: edge cases and the capacity property.

The fleet coordinator's migration planner is driven by this function, so
its corner cases (empty cluster, single node, one giant co-location
group) and the per-node capacity bound get pinned here, and its
placement loop is compared with the filter-every-node loop it replaced.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def reference_plan(names, flow_paths, n_nodes, capacity=None):
    """The placement loop before it took one ``loads.index(min(loads))``
    per group: filter the nodes that fit the whole group, take the
    least-loaded (then lowest) of them, and place the members one by one
    when none fits.  The grouping is the function's own."""
    parent = {n: n for n in names}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    by_flow = {}
    for name in names:
        for flow in flow_paths.get(name, []):
            by_flow.setdefault(flow, []).append(name)
    for members in by_flow.values():
        for other in members[1:]:
            ra, rb = find(members[0]), find(other)
            if ra != rb:
                parent[ra] = rb
    groups = {}
    for name in names:
        groups.setdefault(find(name), []).append(name)
    assignment, loads, placeable = {}, [0] * n_nodes, []
    for _, members in sorted(groups.items(), key=lambda kv: -len(kv[1])):
        if capacity is None or len(members) <= capacity:
            placeable.append(members)
        else:
            placeable.extend(
                members[i : i + capacity] for i in range(0, len(members), capacity)
            )

    def fits(node, count):
        return capacity is None or loads[node] + count <= capacity

    for members in placeable:
        rooms = [n for n in range(n_nodes) if fits(n, len(members))]
        if rooms:
            target = min(rooms, key=lambda n: (loads[n], n))
            for m in members:
                assignment[m] = target
            loads[target] += len(members)
        else:
            for m in members:
                target = min(
                    (n for n in range(n_nodes) if fits(n, 1)),
                    key=lambda n: (loads[n], n),
                )
                assignment[m] = target
                loads[target] += 1
    return assignment


@st.composite
def instances(draw):
    n_nodes = draw(st.integers(min_value=1, max_value=8))
    capacity = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=8)))
    most = 24 if capacity is None else min(24, n_nodes * capacity)
    cs = names(draw(st.integers(min_value=0, max_value=most)))
    flows = st.lists(st.sampled_from([f"f{i}" for i in range(6)]), max_size=3)
    flow_paths = {c: draw(flows) for c in cs}
    return cs, flow_paths, n_nodes, capacity


class TestAgainstReferenceLoop:
    @settings(deadline=None, max_examples=300)
    @given(instances())
    def test_same_assignment_in_the_same_order(self, instance):
        cs, flow_paths, n_nodes, capacity = instance
        got = consolidation_plan(cs, flow_paths, n_nodes, capacity=capacity)
        want = reference_plan(cs, flow_paths, n_nodes, capacity=capacity)
        assert list(got.items()) == list(want.items())

    def test_the_fallback_splits_a_group_no_node_fits(self):
        # Three flow groups of 2 on two nodes of capacity 3: the first
        # two fill each node to 2, and the third fits on neither, so its
        # members go one at a time to the least-loaded node.
        cs = names(6)
        flow_paths = {c: [f"f{i // 2}"] for i, c in enumerate(cs)}
        args = (cs, flow_paths, 2)
        got = consolidation_plan(*args, capacity=3)
        assert list(got.items()) == list(reference_plan(*args, capacity=3).items())
        assert (got["c4"], got["c5"]) == (0, 1)
        assert sorted(got.values()) == [0, 0, 0, 1, 1, 1]
