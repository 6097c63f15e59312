"""Fleet topology: shards of clusters joined by a weighted link graph.

A :class:`FleetTopology` is pure data — JSON-round-trippable like a
:class:`~repro.scenario.spec.ScenarioSpec` — describing the shape of the
fleet: how many shards, how many NF-host nodes and initially deployed
chains per shard, and the capacity/latency of the links the cross-shard
chain migrations travel over.

The link structure is a true graph.  In the default **mesh** mode
(``mesh=True``) every shard pair is adjacent: links not listed
explicitly fall back to the topology's default full-mesh link, so small
specs stay small and every pre-graph spec keeps its exact semantics.
With ``mesh=False`` only the explicit :class:`InterShardLink` entries
are edges; non-adjacent shards are reachable only over multi-hop routed
paths (see :mod:`repro.fleet.routing`), and the graph must be connected.
:meth:`FleetTopology.fat_tree` and :meth:`FleetTopology.wan` build the
two canonical non-mesh shapes; ``{"preset": "fat-tree", ...}`` in a
topology dict resolves them declaratively via :data:`TOPOLOGY_PRESETS`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.utils.stats import left_sum

#: Chain presets a shard may deploy; "mixed" cycles through all three.
CHAIN_KINDS = ("default", "light", "heavy")


@dataclass(frozen=True)
class ShardSpec:
    """One shard: a cluster of homogeneous NF-host nodes."""

    name: str
    nodes: int = 2
    chains_per_node: int = 2
    #: Chain preset for the initial deployment: one of
    #: :data:`CHAIN_KINDS` or ``"mixed"`` (cycles through them).
    chain_kind: str = "mixed"

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError("shard needs a non-empty name")
        if self.nodes < 1:
            raise ValueError("shard needs at least one node")
        if self.chains_per_node < 0:
            raise ValueError("chains_per_node must be >= 0")
        if self.chain_kind != "mixed" and self.chain_kind not in CHAIN_KINDS:
            raise ValueError(
                f"unknown chain kind {self.chain_kind!r}; "
                f"options: {('mixed', *CHAIN_KINDS)}"
            )

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form."""
        return {
            "name": self.name,
            "nodes": self.nodes,
            "chains_per_node": self.chains_per_node,
            "chain_kind": self.chain_kind,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ShardSpec":
        """Build (and validate) from a plain dict."""
        return cls(**dict(data))


@dataclass(frozen=True)
class InterShardLink:
    """A bidirectional link between two shards (migration transport)."""

    a: str
    b: str
    gbps: float = 40.0
    latency_s: float = 2e-3

    def __post_init__(self) -> None:
        if not self.a or not self.b:
            raise ValueError("link endpoints need names")
        if self.a == self.b:
            raise ValueError(f"link endpoints must differ (got {self.a!r} twice)")
        if not 0 < self.gbps < math.inf:
            raise ValueError("link capacity must be finite and positive")
        if not 0 <= self.latency_s < math.inf:
            raise ValueError("link latency must be finite and >= 0")

    @property
    def key(self) -> tuple[str, str]:
        """Direction-independent endpoint pair."""
        return tuple(sorted((self.a, self.b)))

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form."""
        return {"a": self.a, "b": self.b, "gbps": self.gbps, "latency_s": self.latency_s}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "InterShardLink":
        """Build (and validate) from a plain dict."""
        return cls(**dict(data))


@dataclass(frozen=True)
class FleetTopology:
    """Shards plus the weighted inter-shard link graph between them."""

    shards: tuple[ShardSpec, ...]
    links: tuple[InterShardLink, ...] = ()
    #: Fallback full-mesh link used for shard pairs without an explicit
    #: :class:`InterShardLink` entry (mesh mode only).
    default_link_gbps: float = 40.0
    default_link_latency_s: float = 2e-3
    #: ``True``: every shard pair is adjacent (explicit link or the
    #: default fallback) — the pre-graph semantics.  ``False``: only the
    #: explicit ``links`` are edges; other pairs route multi-hop.
    mesh: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.shards, tuple):
            object.__setattr__(self, "shards", tuple(self.shards))
        if not isinstance(self.links, tuple):
            object.__setattr__(self, "links", tuple(self.links))
        if not self.shards:
            raise ValueError("fleet needs at least one shard")
        names = [s.name for s in self.shards]
        if len(names) != len(set(names)):
            raise ValueError(f"shard names must be unique: {names}")
        if not 0 < self.default_link_gbps < math.inf:
            raise ValueError("default link capacity must be finite and positive")
        if not 0 <= self.default_link_latency_s < math.inf:
            raise ValueError("default link latency must be finite and >= 0")
        known = set(names)
        seen: set[tuple[str, str]] = set()
        for link in self.links:
            unknown = {link.a, link.b} - known
            if unknown:
                raise ValueError(f"link references unknown shards {sorted(unknown)}")
            if link.key in seen:
                raise ValueError(f"duplicate link between {link.key}")
            seen.add(link.key)
        if not self.mesh and len(names) > 1:
            # Every shard must be reachable: an unroutable migration
            # graph should fail at spec time, not mid-run.
            adjacent: dict[str, set[str]] = {n: set() for n in names}
            for link in self.links:
                adjacent[link.a].add(link.b)
                adjacent[link.b].add(link.a)
            reached = {names[0]}
            frontier = [names[0]]
            while frontier:
                nxt = []
                for cur in frontier:
                    for n in adjacent[cur]:
                        if n not in reached:
                            reached.add(n)
                            nxt.append(n)
                frontier = nxt
            unreachable = sorted(set(names) - reached)
            if unreachable:
                raise ValueError(
                    f"topology graph is disconnected (mesh=False): shards "
                    f"{unreachable} are unreachable from {names[0]!r}"
                )

    # -- lookups -----------------------------------------------------------

    @property
    def n_shards(self) -> int:
        """Number of shards."""
        return len(self.shards)

    @property
    def total_nodes(self) -> int:
        """NF-host nodes across the whole fleet."""
        return left_sum(s.nodes for s in self.shards)

    @property
    def total_chains(self) -> int:
        """Initially deployed chains across the whole fleet."""
        return left_sum(s.nodes * s.chains_per_node for s in self.shards)

    def shard(self, name: str) -> ShardSpec:
        """Look a shard up by name."""
        for s in self.shards:
            if s.name == name:
                return s
        raise KeyError(f"no shard {name!r}; shards: {[s.name for s in self.shards]}")

    def link_between(self, a: str, b: str) -> InterShardLink:
        """The direct link between two *adjacent* shards.

        In mesh mode every pair is adjacent (explicit entry or the
        default fallback).  With ``mesh=False`` only explicit links are
        edges; asking for a non-adjacent pair raises — route over
        :class:`~repro.fleet.routing.RoutingTable` paths instead.
        """
        self.shard(a), self.shard(b)  # raise on unknown names
        if a == b:
            raise ValueError("no inter-shard link within one shard")
        key = tuple(sorted((a, b)))
        for link in self.links:
            if link.key == key:
                return link
        if not self.mesh:
            raise ValueError(
                f"shards {key[0]!r} and {key[1]!r} are not adjacent "
                "(mesh=False); migrations between them route multi-hop"
            )
        return InterShardLink(
            key[0], key[1], self.default_link_gbps, self.default_link_latency_s
        )

    def edges(self) -> tuple[InterShardLink, ...]:
        """Every direct edge of the link graph, sorted by endpoint pair.

        Mesh topologies enumerate all shard pairs (explicit entries plus
        default fallbacks); graph topologies return the explicit links.
        This is the adjacency a :class:`~repro.fleet.routing.RoutingTable`
        compiles from.
        """
        if not self.mesh:
            return tuple(sorted(self.links, key=lambda l: l.key))
        names = [s.name for s in self.shards]
        return tuple(
            self.link_between(names[i], names[j])
            for i in range(len(names))
            for j in range(i + 1, len(names))
        )

    def flatten(self) -> list[tuple[str, int]]:
        """Global node list: ``(shard_name, node_index)`` in shard order.

        The coordinator's global placement (``consolidation_plan`` over
        the whole fleet) indexes nodes by position in this list.
        """
        return [(s.name, i) for s in self.shards for i in range(s.nodes)]

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form; ``from_dict(to_dict())`` is the identity."""
        return {
            "shards": [s.to_dict() for s in self.shards],
            "links": [l.to_dict() for l in self.links],
            "default_link_gbps": self.default_link_gbps,
            "default_link_latency_s": self.default_link_latency_s,
            "mesh": self.mesh,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FleetTopology":
        """Build (and validate) from a plain dict.

        ``{"preset": "fat-tree", "pods": 3}`` dispatches to the named
        :data:`TOPOLOGY_PRESETS` builder with the sibling keys as its
        arguments; otherwise the dict is the explicit shards/links form.
        """
        data = dict(data)
        preset = data.pop("preset", None)
        if preset is not None:
            try:
                builder = TOPOLOGY_PRESETS[preset]
            except KeyError:
                raise ValueError(
                    f"unknown topology preset {preset!r}; "
                    f"options: {sorted(TOPOLOGY_PRESETS)}"
                ) from None
            try:
                return builder(**data)
            except TypeError as exc:
                raise ValueError(
                    f"invalid arguments for topology preset {preset!r}: {exc}"
                ) from exc
        shards = tuple(ShardSpec.from_dict(s) for s in data.pop("shards", ()))
        links = tuple(InterShardLink.from_dict(l) for l in data.pop("links", ()))
        return cls(shards=shards, links=links, **data)

    @staticmethod
    def uniform(
        n_shards: int,
        nodes: int = 2,
        chains_per_node: int = 2,
        *,
        chain_kind: str = "mixed",
        link_gbps: float = 40.0,
        link_latency_s: float = 2e-3,
    ) -> "FleetTopology":
        """A homogeneous full-mesh fleet (the common benchmark shape)."""
        if n_shards < 1:
            raise ValueError("fleet needs at least one shard")
        return FleetTopology(
            shards=tuple(
                ShardSpec(f"s{i}", nodes, chains_per_node, chain_kind)
                for i in range(n_shards)
            ),
            default_link_gbps=link_gbps,
            default_link_latency_s=link_latency_s,
        )

    @staticmethod
    def fat_tree(
        pods: int = 2,
        shards_per_pod: int = 2,
        nodes: int = 2,
        chains_per_node: int = 2,
        *,
        chain_kind: str = "mixed",
        edge_gbps: float = 100.0,
        edge_latency_s: float = 5e-4,
        core_gbps: float = 400.0,
        core_latency_s: float = 2e-3,
    ) -> "FleetTopology":
        """A two-tier fat-tree: pods of shards behind a core mesh.

        Shard ``p{p}s{i}`` sits in pod ``p``.  Shards inside one pod are
        fully meshed over fat edge links; the first shard of each pod is
        the pod leader, and the leaders form the core mesh.  Cross-pod
        migrations between non-leaders therefore route three hops
        (edge up, core across, edge down) — the bottleneck is whichever
        tier is thinner.
        """
        if pods < 1:
            raise ValueError("fat-tree needs at least one pod")
        if shards_per_pod < 1:
            raise ValueError("fat-tree needs at least one shard per pod")
        shards = tuple(
            ShardSpec(f"p{p}s{i}", nodes, chains_per_node, chain_kind)
            for p in range(pods)
            for i in range(shards_per_pod)
        )
        links: list[InterShardLink] = []
        for p in range(pods):
            for i in range(shards_per_pod):
                for j in range(i + 1, shards_per_pod):
                    links.append(
                        InterShardLink(
                            f"p{p}s{i}", f"p{p}s{j}", edge_gbps, edge_latency_s
                        )
                    )
        for p in range(pods):
            for q in range(p + 1, pods):
                links.append(
                    InterShardLink(
                        f"p{p}s0", f"p{q}s0", core_gbps, core_latency_s
                    )
                )
        return FleetTopology(shards=shards, links=tuple(links), mesh=False)

    @staticmethod
    def wan(
        n_sites: int = 4,
        nodes: int = 2,
        chains_per_node: int = 2,
        *,
        chain_kind: str = "mixed",
        gbps: float = 10.0,
        latency_s: float = 0.02,
        express_gbps: float = 40.0,
        express_latency_s: float = 0.03,
    ) -> "FleetTopology":
        """A WAN ring of sites with one express chord.

        Sites ``site0..siteN-1`` are joined in a ring of thin, long-haul
        links; for four or more sites an express chord joins ``site0``
        to the antipodal site.  Most migrations are multi-hop, so routed
        path costs (latency sums, bottleneck bandwidth) dominate — the
        shape that separates topology-aware placement from the full-mesh
        model.
        """
        if n_sites < 2:
            raise ValueError("a WAN needs at least two sites")
        shards = tuple(
            ShardSpec(f"site{i}", nodes, chains_per_node, chain_kind)
            for i in range(n_sites)
        )
        if n_sites == 2:
            ring = [InterShardLink("site0", "site1", gbps, latency_s)]
        else:
            ring = [
                InterShardLink(
                    f"site{i}", f"site{(i + 1) % n_sites}", gbps, latency_s
                )
                for i in range(n_sites)
            ]
        if n_sites >= 4:
            ring.append(
                InterShardLink(
                    "site0", f"site{n_sites // 2}",
                    express_gbps, express_latency_s,
                )
            )
        return FleetTopology(shards=shards, links=tuple(ring), mesh=False)


#: Named topology builders reachable from ``{"preset": ...}`` dicts.
TOPOLOGY_PRESETS = {
    "full-mesh": FleetTopology.uniform,
    "fat-tree": FleetTopology.fat_tree,
    "wan": FleetTopology.wan,
}
