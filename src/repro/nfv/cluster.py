"""Flow-path-aware chain consolidation.

GreenNFV "consolidates the VNFs based on the flow path" (§2): chains that
share a flow path are co-located on one node to share the LLC.
:func:`consolidation_plan` computes that assignment; the fleet's
placement policies start from it.
"""

from __future__ import annotations

from typing import Hashable, Sequence


def consolidation_plan(
    names: Sequence[str],
    flow_paths: dict[str, list[Hashable]],
    n_nodes: int,
    *,
    capacity: int | None = None,
) -> dict[str, int]:
    """Assign chains to nodes, co-locating chains that share flow paths.

    GreenNFV "consolidates the VNFs based on the flow path and minimizes
    the cache eviction" — chains processing the same flows should share a
    socket so packets stay LLC-resident across chains.  We greedily group
    chains by overlapping flow paths, then round-robin groups over nodes.

    Parameters
    ----------
    names:
        Names of the chains to place, unique.
    flow_paths:
        chain name -> list of flow identifiers it processes.
    n_nodes:
        Available NF-host nodes.
    capacity:
        Optional per-node chain limit.  Groups larger than the limit are
        split; when a whole (sub-)group no longer fits on any node its
        members are placed individually — co-location is a preference,
        never a reason to oversubscribe a node.  Raises when the chains
        cannot fit at all (``len(names) > capacity * n_nodes``).

    Returns chain name -> node index.
    """
    if n_nodes <= 0:
        raise ValueError("need at least one node")
    if capacity is not None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if len(names) > capacity * n_nodes:
            raise ValueError(
                f"{len(names)} chains cannot fit on {n_nodes} nodes "
                f"of capacity {capacity}"
            )
    if len(names) != len(set(names)):
        raise ValueError("duplicate chain names")
    # Union-find over chains sharing any flow id.
    parent = {n: n for n in names}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    by_flow: dict[str, list[str]] = {}
    for name in names:
        for flow in flow_paths.get(name, []):
            by_flow.setdefault(flow, []).append(name)
    for members in by_flow.values():
        for other in members[1:]:
            union(members[0], other)

    groups: dict[str, list[str]] = {}
    for name in names:
        groups.setdefault(find(name), []).append(name)

    # Largest groups first so co-located sets land on the emptiest node.
    # With a capacity, oversized groups are pre-split into capacity-sized
    # slices, and a slice that fits on no single node falls back to
    # per-member placement (always possible: total fit is checked above).
    assignment: dict[str, int] = {}
    loads = [0] * n_nodes
    placeable: list[list[str]] = []
    for _, members in sorted(groups.items(), key=lambda kv: -len(kv[1])):
        if capacity is None or len(members) <= capacity:
            placeable.append(members)
        else:
            placeable.extend(
                members[i : i + capacity] for i in range(0, len(members), capacity)
            )

    # Each group goes to the least-loaded node, the lowest index on a tie.
    # When that node cannot take the group, no node can, and the members
    # go one by one to the least-loaded node (which always has room).
    for members in placeable:
        target = loads.index(min(loads))
        if capacity is None or loads[target] + len(members) <= capacity:
            for m in members:
                assignment[m] = target
            loads[target] += len(members)
        else:
            for m in members:
                target = loads.index(min(loads))
                assignment[m] = target
                loads[target] += 1
    return assignment
