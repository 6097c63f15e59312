"""The one migration cost, pinned against a per-link fold.

:func:`~repro.fleet.placement.build_model` prices every (chain, node)
move of a cycle from the routing table's hop tables, and both the
placement policies and the coordinator's vetting pass read that one
table.  Its float order is the per-link fold the coordinator once ran
per candidate: start from ``setup_j`` and, hop by hop along the routed
path, add ``(payload * 8 / (gbps * 1e9) + latency) * link_power_w``.
Summing the reciprocal rates first would round differently on 47% of
the cross-shard costs of the churning WAN below, so every comparison
here is exact.
"""

import numpy as np
import pytest

from repro.fleet import FleetCoordinator, FleetSpec, FleetTopology, RoutingTable
from repro.fleet import coordinator as coordinator_module
from repro.fleet.arena import CHAIN_FIELDS
from repro.fleet.placement import build_model

from test_fleet_digests import CHURN


@pytest.mark.parametrize(
    "topology",
    [FleetTopology.wan(8), FleetTopology.wan(64), FleetTopology.fat_tree(3, 3)],
    ids=["wan8", "wan64", "fat-tree"],
)
def test_hop_tables_hold_every_path_link_in_hop_order(topology):
    table = RoutingTable(topology)
    depth = table.hop_gbps.shape[2]
    assert depth == table.hops.max()
    for i, a in enumerate(table.shard_names):
        for j, b in enumerate(table.shard_names):
            links = table.path_links(a, b) if a != b else ()
            pad = depth - len(links)
            assert table.hop_gbps[i, j].tolist() == (
                [link.gbps for link in links] + [np.inf] * pad
            )
            assert table.hop_latency_s[i, j].tolist() == (
                [link.latency_s for link in links] + [0.0] * pad
            )


def folded_costs(coordinator, chains, model):
    """Every (chain, node) move cost of ``model`` as a per-link Python
    fold over :meth:`~repro.fleet.routing.RoutingTable.path_links`."""
    mig = coordinator.fleet.migration
    routing = coordinator._routing
    state = chains[:, CHAIN_FIELDS.index("state_bytes")].tolist()
    dma = chains[:, CHAIN_FIELDS.index("dma_bytes")].tolist()
    nodes = coordinator._global_nodes
    out = []
    for c, cur in enumerate(model.cur.tolist()):
        src = nodes[cur][0]
        row = []
        for n, (dst, _node) in enumerate(nodes):
            cost = mig.setup_j
            if dst != src:
                for link in routing.path_links(src, dst):
                    transfer_s = (
                        (state[c] + dma[c]) * 8.0 / (link.gbps * 1e9)
                        + link.latency_s
                    )
                    cost += transfer_s * mig.link_power_w
            row.append(0.0 if n == cur else cost)
        out.append(row)
    return out


def test_move_cost_is_the_per_link_fold_over_a_churning_wan(monkeypatch):
    built = []

    def recording(**kwargs):
        model = build_model(**kwargs)
        built.append((kwargs["chains"], model))
        return model

    monkeypatch.setattr(coordinator_module, "build_model", recording)
    fleet = FleetSpec.from_mapping(CHURN)
    with FleetCoordinator(fleet, seed=1) as coordinator:
        coordinator.run_cycles(12)
        assert len(built) == 12
        pairs = 0
        for chains, model in built:
            assert model.move_cost_j.tolist() == folded_costs(
                coordinator, chains, model
            )
            pairs += model.move_cost_j.size
        moves = coordinator.result().migrations
    # The fleet grows and migrates across shards while it is priced.
    assert pairs > 12 * 32 * 32
    assert any(m["src_shard"] != m["dst_shard"] for m in moves)
