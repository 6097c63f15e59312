"""Vectorized path math over the fleet's inter-shard link graph.

A :class:`RoutingTable` compiles a :class:`~repro.fleet.topology.FleetTopology`
into dense all-pairs arrays: shortest-path latency, per-path bottleneck
bandwidth, hop counts, next-hop successors and each path's links in hop
order — everything the coordinator's migration cost model and the
placement searchers need, batched in numpy instead of per-pair graph
walks.

The compile is a vectorized Floyd–Warshall: each relaxation round ``k``
updates all ``S x S`` pairs at once under a single strict-improvement
mask (``alt < dist``), so a direct edge is never displaced by an
equal-latency multi-hop detour and the tables are deterministic in the
shard order of the topology.

Exactness note: ``hop_gbps`` and ``hop_latency_s`` hold each routed
path's links in hop order, the same links :meth:`path_links` returns as
:class:`~repro.fleet.topology.InterShardLink` objects.  The migration
cost model (:func:`~repro.fleet.placement.build_model`) and
:meth:`RoutingTable.transfer_seconds` fold per-hop floats over them in
hop order, so a transfer is timed bit for bit as it is charged.
"""

from __future__ import annotations

import numpy as np

from repro.fleet.topology import FleetTopology, InterShardLink
from repro.utils.stats import left_sums


class RoutingTable:
    """All-pairs routed paths for one topology, as dense numpy arrays.

    Attributes (all ``(S, S)`` for ``S`` shards, diagonal = self):

    * ``latency_s`` — shortest-path latency (sum of edge latencies);
    * ``bottleneck_gbps`` — thinnest edge along that path (``inf`` on
      the diagonal);
    * ``hops`` — edge count of the path (0 on the diagonal);
    * ``next_hop`` — successor matrix: ``next_hop[i, j]`` is the first
      shard index after ``i`` on the path to ``j``.

    ``hop_gbps`` and ``hop_latency_s`` are ``(S, S, H)``, ``H`` the most
    hops of any path: ``[i, j, h]`` is the rate and latency of hop ``h``
    of the path from ``i`` to ``j``.  Past a path's last hop the rate is
    ``inf`` and the latency 0, so a padded hop serializes a payload in
    exactly 0 s.
    """

    def __init__(self, topology: FleetTopology):
        self.topology = topology
        names = tuple(s.name for s in topology.shards)
        self.shard_names = names
        self._index = {name: i for i, name in enumerate(names)}
        n = len(names)
        lat = np.full((n, n), np.inf)
        gbw = np.zeros((n, n))
        for link in topology.edges():
            a, b = self._index[link.a], self._index[link.b]
            lat[a, b] = lat[b, a] = link.latency_s
            gbw[a, b] = gbw[b, a] = link.gbps
        self._compile_tables(lat, gbw)

    # -- compile -----------------------------------------------------------

    def _compile_tables(self, lat: np.ndarray, gbw: np.ndarray) -> None:
        """Vectorized Floyd–Warshall over the adjacency arrays.

        All four tables relax under one strict-improvement mask, so they
        stay mutually consistent (the bottleneck and hop entries always
        describe the same path the latency entry priced).  The hop
        tables then walk ``next_hop`` over the adjacency arrays, one
        round per hop for every pair at once.
        """
        n = lat.shape[0]
        dist = lat.copy()
        np.fill_diagonal(dist, 0.0)
        idx = np.arange(n)
        nxt = np.where(np.isfinite(lat), idx[None, :], -1)
        nxt[idx, idx] = idx
        hops = np.where(np.isfinite(lat), 1, 0)
        np.fill_diagonal(hops, 0)
        bneck = np.where(gbw > 0.0, gbw, 0.0)
        np.fill_diagonal(bneck, np.inf)
        for k in range(n):  # repro-lint: allow[KRN002] Floyd–Warshall relaxation rounds are inherently sequential in k; each round is a fully vectorized S x S update
            alt = dist[:, k, None] + dist[None, k, :]
            better = alt < dist
            dist = np.where(better, alt, dist)
            nxt = np.where(better, nxt[:, k, None], nxt)
            hops = np.where(better, hops[:, k, None] + hops[None, k, :], hops)
            bneck = np.where(
                better, np.minimum(bneck[:, k, None], bneck[None, k, :]), bneck
            )
        off_diag = ~np.eye(n, dtype=bool)
        if n > 1 and not np.isfinite(dist[off_diag]).all():
            # Topology validation rejects disconnected graphs before a
            # table is ever built; this guards direct misuse.
            raise ValueError("topology graph is disconnected; cannot route")
        depth = int(hops.max(initial=0))
        hop_gbps = np.full((n, n, depth), np.inf)
        hop_lat = np.zeros((n, n, depth))
        at = np.repeat(idx[:, None], n, axis=1)
        for h in range(depth):  # repro-lint: allow[KRN002] a path walk is sequential in its hops; each round steps all S x S paths at once
            step = nxt[at, idx[None, :]]
            live = h < hops
            hop_gbps[:, :, h] = np.where(live, gbw[at, step], np.inf)
            hop_lat[:, :, h] = np.where(live, lat[at, step], 0.0)
            at = step
        self.latency_s = dist
        self.next_hop = nxt
        self.hops = hops
        self.bottleneck_gbps = bneck
        self.hop_gbps = hop_gbps
        self.hop_latency_s = hop_lat

    # -- lookups -----------------------------------------------------------

    @property
    def n_shards(self) -> int:
        """Number of shards (vertices) in the table."""
        return len(self.shard_names)

    def index(self, shard: str) -> int:
        """Dense index of a shard name."""
        try:
            return self._index[shard]
        except KeyError:
            raise KeyError(
                f"no shard {shard!r}; shards: {list(self.shard_names)}"
            ) from None

    def path(self, src: str, dst: str) -> tuple[str, ...]:
        """The routed shard sequence from ``src`` to ``dst``, inclusive."""
        i, j = self.index(src), self.index(dst)
        names = self.shard_names
        out = [names[i]]
        while i != j:
            i = int(self.next_hop[i, j])
            out.append(names[i])
        return tuple(out)

    def path_links(self, src: str, dst: str) -> tuple[InterShardLink, ...]:
        """The actual links along the routed path, in hop order.

        Every consecutive pair on a routed path is adjacent by
        construction, so ``link_between`` resolves each hop exactly: the
        per-pair object view of ``hop_gbps`` and ``hop_latency_s``.
        """
        hops = self.path(src, dst)
        return tuple(
            self.topology.link_between(a, b) for a, b in zip(hops, hops[1:])
        )

    def path_latency_s(self, src: str, dst: str) -> float:
        """Shortest-path latency between two shards."""
        return float(self.latency_s[self.index(src), self.index(dst)])

    def path_bottleneck_gbps(self, src: str, dst: str) -> float:
        """Bottleneck bandwidth of the shortest path between two shards."""
        return float(self.bottleneck_gbps[self.index(src), self.index(dst)])

    def transfer_seconds(self, src: str, dst: str, n_bytes: float) -> float:
        """Routed wire time for ``n_bytes``: hop by hop, the payload's
        serialization at the hop's link rate plus the hop's latency.

        The fold ``n_bytes * 8.0 / (gbps * 1e9) + latency`` over
        :attr:`hop_gbps` and :attr:`hop_latency_s` is the migration
        cost's (:func:`~repro.fleet.placement.build_model`), so both
        agree to the last bit; a padded hop adds exactly 0.
        """
        i, j = self.index(src), self.index(dst)
        terms = n_bytes * 8.0 / (self.hop_gbps[i, j] * 1e9) + self.hop_latency_s[i, j]
        return float(left_sums(terms))
