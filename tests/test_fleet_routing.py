"""Graph topologies and the vectorized routing table.

Pins the non-mesh :class:`FleetTopology` semantics (explicit adjacency,
connectivity validation, preset builders, serialization) and checks the
Floyd–Warshall :class:`RoutingTable` — paths, latencies, bottlenecks and
k-shortest alternatives — against the scalar per-pair Dijkstra reference
in ``benchmarks/perf/reference.py``.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.fleet import (
    TOPOLOGY_PRESETS,
    FleetTopology,
    InterShardLink,
    RoutingTable,
    ShardSpec,
)

REPO = Path(__file__).resolve().parent.parent


def _reference_module():
    spec = importlib.util.spec_from_file_location(
        "perf_reference", REPO / "benchmarks" / "perf" / "reference.py"
    )
    mod = importlib.util.module_from_spec(spec)
    sys.modules["perf_reference"] = mod
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def reference():
    return _reference_module()


class TestPresetBuilders:
    def test_registry_names(self):
        assert set(TOPOLOGY_PRESETS) == {"full-mesh", "fat-tree", "wan"}

    def test_fat_tree_shape(self):
        topo = FleetTopology.fat_tree(pods=3, shards_per_pod=2, nodes=2)
        assert not topo.mesh
        assert [s.name for s in topo.shards] == [
            "p0s0", "p0s1", "p1s0", "p1s1", "p2s0", "p2s1",
        ]
        # Each pod is internally meshed (1 link per 2-shard pod) and the
        # three pod leaders form a core mesh (3 links).
        assert len(topo.links) == 3 + 3
        core = topo.link_between("p0s0", "p1s0")
        edge = topo.link_between("p0s0", "p0s1")
        assert core.gbps > edge.gbps
        assert core.latency_s > edge.latency_s

    def test_fat_tree_cross_pod_is_not_adjacent(self):
        topo = FleetTopology.fat_tree(pods=2, shards_per_pod=2)
        with pytest.raises(ValueError, match="not adjacent"):
            topo.link_between("p0s1", "p1s1")

    def test_wan_ring_with_express(self):
        topo = FleetTopology.wan(4, nodes=1, chains_per_node=1)
        assert not topo.mesh
        names = [s.name for s in topo.shards]
        assert names == ["site0", "site1", "site2", "site3"]
        # Ring of 4 plus one express chord site0<->site2.
        assert len(topo.links) == 5
        express = topo.link_between("site0", "site2")
        ring = topo.link_between("site0", "site1")
        assert express.gbps > ring.gbps
        with pytest.raises(ValueError, match="not adjacent"):
            topo.link_between("site1", "site3")

    def test_wan_two_sites_single_link(self):
        topo = FleetTopology.wan(2, nodes=1, chains_per_node=1)
        assert len(topo.links) == 1

    def test_mesh_edges_cover_all_pairs(self):
        topo = FleetTopology.uniform(3, nodes=1, chains_per_node=1)
        assert topo.mesh
        assert len(topo.edges()) == 3  # C(3, 2)

    def test_disconnected_graph_rejected(self):
        shards = tuple(
            ShardSpec(name=f"s{i}", nodes=1, chains_per_node=1)
            for i in range(3)
        )
        links = (InterShardLink(a="s0", b="s1"),)  # s2 unreachable
        with pytest.raises(ValueError, match="disconnected"):
            FleetTopology(shards=shards, links=links, mesh=False)


class TestSerialization:
    def test_round_trip_preserves_mesh_flag(self):
        topo = FleetTopology.wan(4)
        again = FleetTopology.from_dict(topo.to_dict())
        assert again == topo
        assert not again.mesh

    def test_from_dict_dispatches_presets(self):
        topo = FleetTopology.from_dict(
            {"preset": "wan", "n_sites": 4, "nodes": 3}
        )
        assert topo == FleetTopology.wan(4, nodes=3)
        mesh = FleetTopology.from_dict(
            {"preset": "full-mesh", "n_shards": 2, "nodes": 2}
        )
        assert mesh == FleetTopology.uniform(2, nodes=2)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown topology preset"):
            FleetTopology.from_dict({"preset": "torus"})

    def test_bad_preset_kwargs_rejected(self):
        with pytest.raises(ValueError, match="wan"):
            FleetTopology.from_dict({"preset": "wan", "bogus_knob": 3})


class TestRoutingTable:
    @pytest.mark.parametrize(
        "topo",
        [
            FleetTopology.wan(6, nodes=1, chains_per_node=1),
            FleetTopology.fat_tree(pods=3, shards_per_pod=2, nodes=1),
            FleetTopology.uniform(4, nodes=1, chains_per_node=1),
        ],
        ids=["wan6", "fat-tree", "mesh4"],
    )
    def test_matches_scalar_dijkstra(self, topo, reference):
        table = RoutingTable(topo)
        dist = reference.reference_route_tables(topo)
        names = [s.name for s in topo.shards]
        for i, a in enumerate(names):
            for j, b in enumerate(names):
                assert table.latency_s[i, j] == pytest.approx(
                    dist[a][b], abs=0.0
                )

    def test_paths_walk_real_links(self):
        topo = FleetTopology.wan(6, nodes=1, chains_per_node=1)
        table = RoutingTable(topo)
        names = [s.name for s in topo.shards]
        for a in names:
            for b in names:
                path = table.path(a, b)
                assert path[0] == a and path[-1] == b
                total = 0.0
                for u, v in zip(path, path[1:]):
                    link = topo.link_between(u, v)  # adjacency or raises
                    total += link.latency_s
                assert total == pytest.approx(
                    table.path_latency_s(a, b), abs=0.0
                )

    def test_multi_hop_where_not_adjacent(self):
        topo = FleetTopology.wan(6, nodes=1, chains_per_node=1)
        table = RoutingTable(topo)
        # site1 and site5 are two ring hops apart (via site0).
        path = table.path("site1", "site5")
        assert len(path) == 3
        assert table.path_latency_s("site1", "site5") == pytest.approx(
            2 * topo.link_between("site0", "site1").latency_s, abs=0.0
        )

    def test_direct_edge_never_displaced_by_equal_latency_detour(self):
        # Triangle with equal latencies everywhere: the 2-hop detour ties
        # the direct edge, and the strict-improvement relaxation must
        # keep the 1-hop route.
        shards = tuple(
            ShardSpec(name=f"s{i}", nodes=1, chains_per_node=1)
            for i in range(3)
        )
        links = tuple(
            InterShardLink(a=a, b=b, gbps=10.0, latency_s=0.01)
            for a, b in (("s0", "s1"), ("s1", "s2"), ("s0", "s2"))
        )
        table = RoutingTable(
            FleetTopology(shards=shards, links=links, mesh=False)
        )
        for a in ("s0", "s1", "s2"):
            for b in ("s0", "s1", "s2"):
                if a != b:
                    assert len(table.path(a, b)) == 2

    def test_bottleneck_is_min_link_on_path(self):
        topo = FleetTopology.wan(6, nodes=1, chains_per_node=1)
        table = RoutingTable(topo)
        for a in ("site1",):
            for b in ("site5",):
                links = table.path_links(a, b)
                assert table.path_bottleneck_gbps(a, b) == pytest.approx(
                    min(link.gbps for link in links), abs=0.0
                )

    @pytest.mark.parametrize(
        "topology",
        [FleetTopology.wan(8), FleetTopology.wan(64), FleetTopology.fat_tree(3, 3)],
        ids=["wan8", "wan64", "fat-tree"],
    )
    def test_transfer_seconds_sums_per_hop(self, topology):
        # Exactly the per-link fold the migration cost charges, for
        # every ordered pair (a same-shard "transfer" takes 0 s).
        table = RoutingTable(topology)
        rng = np.random.default_rng(8)
        for a in table.shard_names:
            for b in table.shard_names:
                n_bytes = float(rng.uniform(1e8, 1e9))
                expect = 0.0
                for link in table.path_links(a, b) if a != b else ():
                    expect += n_bytes * 8.0 / (link.gbps * 1e9) + link.latency_s
                assert table.transfer_seconds(a, b, n_bytes) == expect, (a, b)

    def test_deterministic_rebuild(self):
        topo = FleetTopology.fat_tree(pods=2, shards_per_pod=3)
        one, two = RoutingTable(topo), RoutingTable(topo)
        assert np.array_equal(one.latency_s, two.latency_s)
        assert np.array_equal(one.next_hop, two.next_hop)
        assert np.array_equal(one.bottleneck_gbps, two.bottleneck_gbps)
        assert np.array_equal(one.hop_gbps, two.hop_gbps)
        assert np.array_equal(one.hop_latency_s, two.hop_latency_s)
