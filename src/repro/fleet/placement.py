"""Joint placement + path-allocation baselines for the fleet coordinator.

The coordinator's migration pass has two halves: a *policy* proposes a
fleet-wide desired placement, and the common vetting pass keeps only the
net-positive, budget/capacity/headroom-respecting moves.  Both read one
:class:`PlacementModel`, the cycle's problem as dense arrays built from
the gathered shard tables and the placement book
(:func:`build_model`); its ``move_cost_j`` is the
:class:`~repro.fleet.spec.MigrationConfig` cost over routed paths.
:data:`PLACEMENTS` is the policy registry — ``repro fleet --placement
{watermark,greedy,genetic}`` — and every policy is a deterministic
function of the model and the cycle index, so seeded runs stay
bit-identical across backends regardless of the policy.

* ``watermark`` — the original coordinator: flow-affine consolidation
  via :func:`~repro.nfv.cluster.consolidation_plan`, blind to the link
  graph (the vetting pass pays routed costs after the fact).
* ``greedy`` — an LP-shaped greedy relaxation of the joint
  placement/routing ILP (minimize routed transfer energy plus active
  node energy, subject to capacity and SLA-headroom constraints):
  chains are (re)assigned one at a time, heaviest first, each to the
  node minimizing its marginal routed cost minus vacate/co-location
  savings.
* ``genetic`` — a small generational searcher over whole assignments
  (tournament-free: elite truncation, uniform crossover, point
  mutation) whose fitness is the same vectorized routed-energy model;
  all randomness comes from the counter-based
  :func:`~repro.fleet.workload.interval_stream` keyed on the cycle, so
  the search is reproducible anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.fleet.routing import RoutingTable
from repro.fleet.spec import MigrationConfig
from repro.fleet.workload import interval_stream
from repro.nfv.cluster import consolidation_plan
from repro.scenario.registry import Registry

PLACEMENTS = Registry("placement policy")

#: Constraint-violation penalty: large enough that one overfull node or
#: blown SLA watermark dominates any achievable energy difference.
_INFEASIBLE_J = 1e12


@dataclass(frozen=True)
class PlacementModel:
    """One cycle's placement problem as dense arrays.

    ``C`` chains (the reporting chains the placement book holds, in name
    order) over ``N`` global nodes (``topology.flatten()`` order).
    ``cur`` and ``counts`` come from the book; the chain columns and
    ``node_power_w`` / ``node_util`` from the gathered report tables.
    ``move_cost_j[c, n]`` is the one migration cost: ``setup_j``, plus,
    for a cross-shard move, each hop of the routed path serializing the
    chain's state and DMA buffer at its own rate and adding its latency,
    priced at ``link_power_w`` and folded in hop order (0 at the chain's
    current node).  Every policy searches it and the coordinator's
    vetting pass charges it.  ``extern``/``extern_util`` account for
    placed chains outside the problem (no telemetry yet), so capacity
    and headroom stay honest.
    """

    names: tuple[str, ...]
    cur: np.ndarray
    flow: np.ndarray
    util: np.ndarray
    power_w: np.ndarray
    move_cost_j: np.ndarray
    counts: np.ndarray
    node_power_w: np.ndarray
    node_util: np.ndarray
    extern: np.ndarray
    extern_util: np.ndarray
    vacate_gain_j: np.ndarray
    capacity: int
    headroom: float
    colocation_gain_j: float

    @property
    def n_nodes(self) -> int:
        """Global node count ``N``."""
        return int(self.counts.shape[0])


def build_model(
    *,
    migration: MigrationConfig,
    routing: RoutingTable,
    node_shard: np.ndarray,
    interval_s: float,
    names: tuple[str, ...],
    flows: Sequence[str],
    chains: np.ndarray,
    nodes: np.ndarray,
    cur: np.ndarray,
    counts: np.ndarray,
) -> PlacementModel:
    """Assemble one cycle's problem from the report tables.

    ``chains`` holds the :data:`~repro.fleet.arena.CHAIN_FIELDS` rows of
    ``names`` (in flow groups ``flows``), ``nodes`` the
    :data:`~repro.fleet.arena.NODE_FIELDS` row of every global node, and
    ``node_shard`` each global node's routing-table shard index.
    """
    mig = migration
    n_nodes = len(node_shard)
    codes: dict[str, int] = {}
    flow = np.array([codes.setdefault(f, len(codes)) for f in flows], dtype=np.int64)
    _node, util, power_w, state_bytes, dma_bytes, _share, _freq = chains.T
    node_power, node_util = nodes.T
    payload = (state_bytes + dma_bytes)[:, None]
    src = node_shard[cur][:, None]
    dst = node_shard[None, :]
    # The routed fold, hop by hop in path order (a per-hop sum, not one
    # over the summed reciprocal rates, which rounds differently).  A
    # same-shard move has no hops, and a hop past a path's end adds
    # exactly 0.0, so those moves cost setup_j alone.
    move_cost = np.full((len(names), n_nodes), float(mig.setup_j))
    for h in range(routing.hop_gbps.shape[2]):
        transfer_s = (
            payload * 8.0 / (routing.hop_gbps[src, dst, h] * 1e9)
            + routing.hop_latency_s[src, dst, h]
        )
        move_cost += transfer_s * mig.link_power_w
    move_cost[np.arange(len(names)), cur] = 0.0
    counts = np.array(counts, dtype=np.int64)
    own = np.bincount(cur, minlength=n_nodes)
    own_util = np.bincount(cur, weights=util, minlength=n_nodes)
    horizon_s = mig.amortize_intervals * interval_s
    return PlacementModel(
        names=tuple(names),
        cur=cur,
        flow=flow,
        util=util,
        power_w=power_w,
        move_cost_j=move_cost,
        counts=counts,
        node_power_w=node_power,
        node_util=node_util,
        extern=np.clip(counts - own, 0, None),
        extern_util=np.clip(node_util - own_util, 0.0, None),
        vacate_gain_j=np.clip(node_power - mig.parked_power_w, 0.0, None)
        * horizon_s,
        capacity=int(mig.capacity_per_node),
        headroom=float(mig.headroom),
        colocation_gain_j=float(mig.colocation_gain_j),
    )


def greedy_assign(model: PlacementModel) -> np.ndarray:
    """One heaviest-first greedy pass over the LP relaxation.

    Each chain moves to the node minimizing its marginal cost — routed
    transfer energy minus the vacate saving of emptying its source and
    the co-location bonus of joining a flow-mate — subject to capacity
    and headroom; ties (and no-improvement) keep the current node, so
    an already-consolidated fleet is a fixed point.
    """
    assign = model.cur.copy()
    counts = model.counts.copy()
    util_n = model.extern_util + np.bincount(
        assign, weights=model.util, minlength=model.n_nodes
    )
    order = sorted(
        range(len(model.names)), key=lambda c: (-model.power_w[c], c)
    )
    for c in order:
        cur = int(assign[c])
        mates = model.flow == model.flow[c]
        mates[c] = False
        mate_nodes = np.zeros(model.n_nodes, dtype=bool)
        mate_nodes[assign[mates]] = True
        delta = model.move_cost_j[c].copy()
        if counts[cur] == 1:
            # Leaving would park the source node; staying forgoes it.
            delta = delta - model.vacate_gain_j[cur]
            delta[cur] += model.vacate_gain_j[cur]
        delta = delta - model.colocation_gain_j * mate_nodes
        feasible = (counts < model.capacity) & (
            util_n + model.util[c] <= model.headroom
        )
        feasible[cur] = True
        delta[~feasible] = np.inf
        best = int(np.argmin(delta))
        if best != cur and delta[best] < delta[cur]:
            assign[c] = best
            counts[cur] -= 1
            counts[best] += 1
            util_n[cur] -= model.util[c]
            util_n[best] += model.util[c]
    return assign


class PlacementPolicy:
    """Shared construction for the registered policies: the fleet's
    global node count, the per-node chain capacity and the run seed."""

    def __init__(self, n_nodes: int, capacity: int, seed: int):
        self.n_nodes = int(n_nodes)
        self.capacity = int(capacity)
        self.seed = int(seed)

    def desired(self, cycle: int, model: PlacementModel) -> np.ndarray | None:
        """Each model row's desired global node, or ``None`` to skip."""
        raise NotImplementedError


@PLACEMENTS.register("watermark")
class WatermarkPlacement(PlacementPolicy):
    """The original coordinator policy: flow-affine consolidation."""

    def desired(self, cycle: int, model: PlacementModel) -> np.ndarray | None:
        flow_paths = {name: [f] for name, f in zip(model.names, model.flow.tolist())}
        try:
            plan = consolidation_plan(
                model.names, flow_paths, self.n_nodes, capacity=self.capacity
            )
        except ValueError:
            # More chains than the capacity model admits (transient
            # churn overshoot): skip consolidation this cycle.
            return None
        return np.array([plan[name] for name in model.names], dtype=np.int64)


@PLACEMENTS.register("greedy")
class GreedyPlacement(PlacementPolicy):
    """LP-shaped greedy over the routed-energy model (topology-aware)."""

    def desired(self, cycle: int, model: PlacementModel) -> np.ndarray | None:
        return greedy_assign(model)


@PLACEMENTS.register("genetic")
class GeneticPlacement(PlacementPolicy):
    """Generational search over whole assignments (SNIPPETS.md §3 shape)."""

    population = 24
    generations = 10
    elite = 6
    seed_mutation = 0.25
    mutation = 0.08

    def desired(self, cycle: int, model: PlacementModel) -> np.ndarray | None:
        n_chains, n_nodes = len(model.names), model.n_nodes
        rng = interval_stream(self.seed, "fleet/placement/genetic", cycle)
        pop = np.tile(model.cur, (self.population, 1))
        pop[1] = greedy_assign(model)
        scatter = rng.random((self.population - 2, n_chains)) < self.seed_mutation
        pop[2:][scatter] = rng.integers(0, n_nodes, size=int(scatter.sum()))
        n_children = self.population - self.elite
        for _ in range(self.generations):
            order = np.argsort(self._fitness(model, pop), kind="stable")
            elite = pop[order[: self.elite]]
            pa = rng.integers(0, self.elite, size=n_children)
            pb = rng.integers(0, self.elite, size=n_children)
            take_a = rng.random((n_children, n_chains)) < 0.5
            children = np.where(take_a, elite[pa], elite[pb])
            mutate = rng.random((n_children, n_chains)) < self.mutation
            children[mutate] = rng.integers(0, n_nodes, size=int(mutate.sum()))
            pop = np.concatenate([elite, children])
        return pop[int(np.argmin(self._fitness(model, pop)))]

    def _fitness(self, model: PlacementModel, pop: np.ndarray) -> np.ndarray:
        """Vectorized routed-energy estimate of a ``(P, C)`` population.

        Lower is better: routed move costs, minus vacated-node and
        co-location savings, plus hard penalties for capacity overflow
        and SLA-headroom strain — the whole population at once, no
        per-individual Python.
        """
        cols = np.arange(pop.shape[1])
        moved = pop != model.cur[None, :]
        cost = (model.move_cost_j[cols[None, :], pop] * moved).sum(axis=1)
        occupancy = pop[:, :, None] == np.arange(model.n_nodes)[None, None, :]
        node_counts = occupancy.sum(axis=1) + model.extern[None, :]
        overflow = np.clip(node_counts - model.capacity, 0, None).sum(axis=1)
        util_n = (occupancy * model.util[None, :, None]).sum(axis=1)
        util_n = util_n + model.extern_util[None, :]
        strain = np.clip(util_n - model.headroom, 0.0, None).sum(axis=1)
        saved = ((node_counts == 0) * model.vacate_gain_j[None, :]).sum(axis=1)
        same_flow = (model.flow[:, None] == model.flow[None, :]) & ~np.eye(
            pop.shape[1], dtype=bool
        )
        mated = (
            same_flow[None, :, :] & (pop[:, :, None] == pop[:, None, :])
        ).any(axis=2)
        bonus = model.colocation_gain_j * mated.sum(axis=1)
        return cost - saved - bonus + _INFEASIBLE_J * (overflow + strain)
