"""The fleet's global control loop: gather, decide, scatter.

Each coordinator cycle runs every shard ``sync_every`` control intervals
(concurrently on the process backend; in one cluster-kernel pass for
all shards on the local backend, :meth:`~repro.fleet.shard.LocalShard.group`),
gathers the per-shard :class:`~repro.fleet.shard.ShardReport`
tables, and makes the global decisions the single-cluster
controllers cannot:

* **churn** — admit Poisson chain arrivals onto the least-loaded nodes
  and retire departing chains (:meth:`~repro.fleet.workload.WorkloadConfig.churn_events`);
* **cross-shard chain migration** — the configured
  :data:`~repro.fleet.placement.PLACEMENTS` policy (``watermark``:
  flow-affine :func:`~repro.nfv.cluster.consolidation_plan`; ``greedy``
  / ``genetic``: topology-aware routed-energy searchers) proposes the
  fleet-wide target placement over one
  :class:`~repro.fleet.placement.PlacementModel` built from the
  gathered tables, and each proposed move is accepted only when its
  estimated energy gain beats the model's migration cost — priced
  along the :class:`~repro.fleet.routing.RoutingTable` path for
  cross-shard moves — and the target has SLA headroom (see
  :class:`~repro.fleet.spec.MigrationConfig`);
* **SDN knob steering** — watermark rules on each chain's bottleneck
  utilization, scattered back as per-chain knob updates.

Every decision is a deterministic function of the gathered reports and
the counter-based churn stream, so a seeded run is bit-identical across
backends and worker counts.  The coordinator also draws the fleet's
offered load, once per cycle for every chain
(:meth:`~repro.fleet.workload.WorkloadConfig.offered`), and hands each
shard its own rows with the run command.  The decide phase is
pipelined: while the coordinator plans cycle *t* from its gathered
telemetry, the shards are already stepping cycle *t+1*'s intervals —
safe because workload draws are counter-based and placement-independent
— and the planned migration/knob commands are applied at the next
interval boundary (bounded staleness: every decision lands exactly one
cycle after the telemetry it was planned from, on both backends
alike).  Cycle *t+2*'s load block is drawn in the same window, for the
chains the plan leaves.  The lockstep
schedule, which decides before the shards step again, is kept as
``reference_lockstep_cycles`` in ``benchmarks/perf/reference.py``.
:func:`run_fleet` is the facade the CLI and tests share; its
:class:`FleetResult` artifact records the per-interval fleet energy/SLA
series, the migration log and the churn history.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from repro import obs
from repro.obs import clock
from repro.fleet.shard import (
    ChainTicket,
    LocalShard,
    ShardConfig,
    ShardReport,
    ShardWorker,
    kind_nfs,
)
from repro.fleet.placement import PLACEMENTS, PlacementModel, build_model
from repro.fleet.routing import RoutingTable
from repro.fleet.spec import FleetSpec
from repro.fleet.topology import CHAIN_KINDS
from repro.fleet.workload import LoadBlock, stream_hashes
from repro.utils.stats import left_sum

#: Fleet-artifact schema version (bump on layout changes).
FLEET_FORMAT_VERSION = 1


@dataclass
class FleetResult:
    """Structured, JSON-native outcome of one fleet run.

    ``metrics`` is the rolling per-cycle observability series (one
    snapshot of the :mod:`repro.obs` registry per coordinator cycle) —
    empty unless the run had instrumentation enabled.  It carries
    wall-clock-derived values (cycle latency, chain-intervals/sec), so
    :meth:`comparable` excludes it alongside ``elapsed_s``.
    """

    fleet: dict[str, Any]
    intervals: list[dict[str, Any]]
    migrations: list[dict[str, Any]]
    churn: list[dict[str, Any]]
    cycles: list[dict[str, Any]]
    totals: dict[str, Any]
    elapsed_s: float = 0.0
    metrics: list[dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready payload (round-trips through :meth:`from_dict`)."""
        return {
            "format_version": FLEET_FORMAT_VERSION,
            "fleet": dict(self.fleet),
            "intervals": [dict(r) for r in self.intervals],
            "migrations": [dict(m) for m in self.migrations],
            "churn": [dict(c) for c in self.churn],
            "cycles": [dict(c) for c in self.cycles],
            "totals": dict(self.totals),
            "elapsed_s": self.elapsed_s,
            "metrics": [dict(m) for m in self.metrics],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FleetResult":
        """Rebuild a result from :meth:`to_dict` output."""
        version = data.get("format_version")
        if version != FLEET_FORMAT_VERSION:
            raise ValueError(f"unsupported fleet format_version {version!r}")
        return cls(
            fleet=dict(data["fleet"]),
            intervals=[dict(r) for r in data["intervals"]],
            migrations=[dict(m) for m in data["migrations"]],
            churn=[dict(c) for c in data["churn"]],
            cycles=[dict(c) for c in data["cycles"]],
            totals=dict(data["totals"]),
            elapsed_s=float(data.get("elapsed_s", 0.0)),
            metrics=[dict(m) for m in data.get("metrics", [])],
        )

    def to_json(self, *, indent: int | None = 2) -> str:
        """JSON form of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def save(self, path) -> Path:
        """Write the artifact; returns the path written."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path

    @classmethod
    def load(cls, path) -> "FleetResult":
        """Read an artifact written by :meth:`save`."""
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def comparable(self) -> dict[str, Any]:
        """The determinism-relevant payload (everything but wall clock).

        The differential tests compare this across backends: identical
        telemetry, SLA violations and migration log mean the run was
        bit-reproducible.  The executing backend and wall clock are the
        only fields allowed to differ.
        """
        out = self.to_dict()
        del out["elapsed_s"]
        del out["metrics"]
        out["fleet"] = dict(out["fleet"])
        del out["fleet"]["backend"]
        return out


@dataclass(frozen=True)
class _Move:
    """One accepted migration decision.

    ``path`` is the routed shard sequence the transfer travels
    (``(src_shard, ..., dst_shard)`` for cross-shard moves, the single
    shard for intra-shard moves); ``path_latency_s`` and
    ``bottleneck_gbps`` describe that path's summed latency and
    thinnest link.
    """

    chain: str
    src: tuple[str, int]
    dst: tuple[str, int]
    gain_j: float
    cost_j: float
    reason: str
    path: tuple[str, ...]
    path_latency_s: float
    bottleneck_gbps: float


@dataclass(frozen=True)
class _CyclePlan:
    """One cycle's decisions, computed without touching any handle.

    Planning is pure — no pipe traffic, no coordinator-state mutation —
    so it can overlap the shards stepping the next
    cycle; :meth:`FleetCoordinator._apply_cycle` scatters it at the
    following interval boundary.  ``cycle``/``interval`` identify the
    reported cycle the plan was computed from (what the logs record),
    regardless of when it is applied.
    """

    cycle: int
    interval: int
    departures: tuple[tuple[str, str], ...]  # (chain, shard)
    moves: tuple[_Move, ...]
    arrivals: tuple[tuple[str, ChainTicket], ...]  # (shard, ticket)
    arrival_hashes: np.ndarray  # (arrivals, 2) stream hashes, same order
    knob_updates: tuple[tuple[str, dict[str, dict[str, Any]]], ...]


class FleetCoordinator:
    """Drives a fleet of shard workers through the global control loop."""

    def __init__(
        self,
        fleet: FleetSpec,
        *,
        sla: str = "energy_efficiency",
        sla_params: Mapping[str, Any] | None = None,
        interval_s: float = 1.0,
        seed: int = 0,
        mp_context: str | None = None,
    ):
        if not interval_s > 0:
            raise ValueError("interval must be positive")
        self.fleet = fleet
        self.sla = sla
        self.sla_params = dict(sla_params or {})
        self.interval_s = float(interval_s)
        self.seed = int(seed)
        topo = fleet.topology
        #: Global node index: position in ``topology.flatten()``.
        self._global_nodes = topo.flatten()
        self._global_index = {
            key: g for g, key in enumerate(self._global_nodes)
        }
        #: All-pairs routed paths over the inter-shard link graph; the
        #: migration cost model prices every cross-shard move along its
        #: routed hops (one hop on a full mesh — the pre-graph model).
        self._routing = RoutingTable(topo)
        #: Each global node's shard, as a routing-table index.
        self._node_shard = np.array(
            [self._routing.index(shard) for shard, _ in self._global_nodes],
            dtype=np.int64,
        )
        self._placer = PLACEMENTS.get(fleet.placement)(
            len(self._global_nodes), fleet.migration.capacity_per_node, self.seed
        )
        # Initial deployment: chains_per_node per node, chain kinds
        # cycling per the shard spec, consecutive chains sharing a flow
        # group (the co-location affinity consolidation acts on).
        group = max(1, fleet.workload.flow_group_size)
        counter = 0
        tickets: dict[str, list[ChainTicket]] = {s.name: [] for s in topo.shards}
        self._placement: dict[str, tuple[str, int]] = {}
        for shard in topo.shards:
            for node in range(shard.nodes):
                for slot in range(shard.chains_per_node):
                    name = f"{shard.name}-n{node}-c{slot}"
                    ticket = ChainTicket(
                        name=name,
                        nfs=kind_nfs(shard.chain_kind, counter),
                        flow=f"fg{counter // group}",
                        node=node,
                    )
                    tickets[shard.name].append(ticket)
                    self._placement[name] = (shard.name, node)
                    counter += 1
        #: Each deployed chain's ``(load, flash)`` stream hashes
        #: (:func:`~repro.fleet.workload.stream_hashes`), from the moment
        #: it enters the fleet until it departs.
        initial = list(self._placement)
        self._hashes = dict(zip(initial, stream_hashes(initial)))
        self._dynamic: set[str] = set()
        self._arrivals_admitted = 0
        self._interval = 0
        self._cycle = 0
        self._records: list[dict[str, Any]] = []
        self._migrations: list[dict[str, Any]] = []
        self._churn_log: list[dict[str, Any]] = []
        self._cycle_log: list[dict[str, Any]] = []
        self._migration_energy_j = 0.0
        #: Observability bookkeeping.  ``_t0`` anchors the internally
        #: measured ``elapsed_s`` (see :meth:`result`); the rest feeds
        #: the per-cycle metrics snapshots — all wall-clock-derived, none
        #: of it touches the seeded decision path.
        self._t0 = time.perf_counter()
        self._last_snap_t: float | None = None
        self._records_mark = 0
        self._chain_intervals_total = 0
        self._metrics_log: list[dict[str, Any]] = []
        configs = [
            ShardConfig(
                name=shard.name,
                n_nodes=shard.nodes,
                interval_s=self.interval_s,
                sla=self.sla,
                sla_params=self.sla_params,
                workload=fleet.workload.to_dict(),
                parked_power_w=fleet.migration.parked_power_w,
                initial_chains=tuple(tickets[shard.name]),
                # Telemetry-arena capacity: one run reply holds
                # sync_every interval rows; admission never exceeds
                # the per-node capacity bound.
                arena_intervals=fleet.sync_every,
                arena_chains=shard.nodes * fleet.migration.capacity_per_node,
                trace=obs.enabled(),
            )
            for shard in topo.shards
        ]
        self.handles: dict[str, Any] = {}
        try:
            if fleet.backend == "local":
                # One kernel pass per cycle prices every in-process shard.
                for config, handle in zip(configs, LocalShard.group(configs)):
                    self.handles[config.name] = handle
            else:
                for config in configs:
                    self.handles[config.name] = ShardWorker(
                        config, mp_context=mp_context
                    )
        except BaseException:
            self.close()
            raise
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "FleetCoordinator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Release every shard handle (reaps worker processes)."""
        self._closed = True
        for handle in getattr(self, "handles", {}).values():
            handle.close()

    # -- the global loop ---------------------------------------------------

    @property
    def interval(self) -> int:
        """Global control intervals completed so far."""
        return self._interval

    @property
    def n_chains(self) -> int:
        """Chains currently deployed across the fleet."""
        return len(self._placement)

    def run_cycles(self, n_cycles: int) -> None:
        """Run ``n_cycles`` gather/decide/scatter cycles.

        Every cycle's shards step one block of offered load, drawn in
        one pass for every chain they host, and each shard's run command
        carries its rows.  While the shards step cycle *t+1*, the
        coordinator decides cycle *t* (its commands are applied at the
        next interval boundary — bounded staleness) and draws cycle
        *t+2*'s block.  A call draws its first block when it starts and
        none after its last cycle.  The pipeline fully
        drains before this method returns, so the final gathered cycle
        of each call is decided and applied immediately; results depend
        on how a run is chunked into ``run_cycles`` calls, but are
        bit-identical across backends for the same chunking.
        """
        if self._closed:
            raise RuntimeError("coordinator is closed")
        if n_cycles < 1:
            raise ValueError("n_cycles must be >= 1")
        # Double-buffered.  Each iteration kicks off the next
        # run before deciding the previous cycle, so planning and the
        # next cycle's draw (and, on the process backend, the
        # coordinator's entire decide phase) overlap the shards'
        # stepping.  Scatter commands only ever go out between
        # finish_run and the next begin_run — never while a run is in
        # flight — so every reply a handle reads answers a command sent
        # before it.
        handles = list(self.handles.values())
        n = self.fleet.sync_every
        pending: tuple[list[ShardReport], int, int] | None = None
        cycle = self._cycle
        for i in range(n_cycles):
            with obs.span("fleet/cycle", cycle=cycle):
                if i == 0:
                    block = self._draw_loads(list(self._placement), self._interval)
                for handle in handles:
                    handle.begin_run(block.take(handle.load_rows))
                if pending is not None:
                    with obs.span("fleet/plan", cycle=pending[1]):
                        plan = self._plan_cycle(*pending)
                else:
                    plan = None
                if i + 1 < n_cycles:
                    # Look ahead: the next cycle steps the chains this
                    # plan leaves, in the order _apply_cycle books them.
                    block = self._draw_loads(
                        self._chains_after(plan), self._interval + n
                    )
                with obs.span("fleet/gather", interval=self._interval):
                    reports = [handle.finish_run() for handle in handles]
                self._merge_records(reports)
                self._interval += n
                if plan is not None:
                    self._apply_cycle(plan)
                pending = (reports, cycle, self._interval)
                cycle += 1
            # Spans only move over the pipe between finish_run and the
            # next begin_run — never while a run is in flight — so the
            # drain rides the same request/reply ordering as scatter.
            if obs._ENABLED:
                self._drain_worker_spans()
        # The drain half-cycle: plan+apply for the last gathered reports.
        # Not a "fleet/cycle" span — dashboards count those as cycles run.
        with obs.span("fleet/drain", cycle=pending[1]):
            with obs.span("fleet/plan", cycle=pending[1]):
                plan = self._plan_cycle(*pending)
            self._apply_cycle(plan)
        if obs._ENABLED:
            self._drain_worker_spans()

    def _chains_after(self, plan: _CyclePlan | None) -> list[str]:
        """The deployed chains once ``plan`` is applied, in placement
        order: the survivors, then the arrivals in admission order.

        Books the arrivals' stream hashes a boundary early, so the
        look-ahead draw can read them before :meth:`_apply_cycle` admits
        the chains.
        """
        if plan is None:
            return list(self._placement)
        departed = {name for name, _shard in plan.departures}
        arrivals = [ticket.name for _shard, ticket in plan.arrivals]
        self._hashes.update(zip(arrivals, plan.arrival_hashes))
        return [n for n in self._placement if n not in departed] + arrivals

    def _draw_loads(self, names: list[str], start: int) -> LoadBlock:
        """The offered load of ``names`` over one run from ``start``,
        drawn from their stored stream hashes in one key pass
        (:meth:`~repro.fleet.workload.WorkloadConfig.offered`)."""
        hashes = np.array([self._hashes[name] for name in names], np.uint64)
        pps = self.fleet.workload.offered(
            self.seed,
            hashes.reshape(len(names), 2),
            start,
            self.fleet.sync_every,
            self.interval_s,
        )
        return LoadBlock(start, tuple(names), pps)

    def _plan_cycle(
        self, reports: list[ShardReport], cycle: int, interval: int
    ) -> _CyclePlan:
        """Decide one cycle from its gathered reports (pure).

        Keeps one fixed decision order — churn departures
        free capacity, the consolidation pass plans against the
        post-departure occupancy, arrivals land on the post-migration
        layout, steering routes via the post-migration placement — but
        against local copies of the placement/occupancy state, so no
        coordinator state mutates and no pipe traffic happens until
        :meth:`_apply_cycle`, and :meth:`run_cycles` can plan while the
        shards step.
        """
        # One churn draw per cycle: departures free capacity before the
        # consolidation pass, arrivals land on the post-migration layout.
        n_arrivals, departure_names = self.fleet.workload.churn_events(
            self.seed, cycle, sorted(self._dynamic), len(self._placement)
        )
        departed = set(departure_names)
        departures = tuple(
            (name, self._placement[name][0]) for name in departure_names
        )
        placement = {
            name: key
            for name, key in self._placement.items()
            if name not in departed
        }
        counts = np.zeros(len(self._global_nodes), dtype=np.int64)
        for key in placement.values():
            counts[self._global_index[key]] += 1
        model, chains = self._model(reports, placement, counts)
        moves = tuple(self._plan_migrations(cycle, model, placement, counts))
        for move in moves:
            placement[move.chain] = move.dst
        arrivals: list[tuple[str, ChainTicket]] = []
        if n_arrivals:
            capacity = self.fleet.migration.capacity_per_node
            group = max(1, self.fleet.workload.flow_group_size)
            k = self._arrivals_admitted
            for _ in range(n_arrivals):
                open_nodes = np.flatnonzero(counts < capacity)
                if not open_nodes.size:
                    break
                target = int(open_nodes[np.argmin(counts[open_nodes])])
                shard, node = self._global_nodes[target]
                ticket = ChainTicket(
                    name=f"dyn-{cycle}-{k}",
                    nfs=kind_nfs(CHAIN_KINDS[k % len(CHAIN_KINDS)]),
                    flow=f"fg-dyn-{k // group}",
                    node=node,
                )
                arrivals.append((shard, ticket))
                counts[target] += 1
                k += 1
        knob_updates = self._plan_knobs(model.names, chains, placement)
        return _CyclePlan(
            cycle=cycle,
            interval=interval,
            departures=departures,
            moves=moves,
            arrivals=tuple(arrivals),
            arrival_hashes=stream_hashes([ticket.name for _, ticket in arrivals]),
            knob_updates=knob_updates,
        )

    def _model(
        self,
        reports: list[ShardReport],
        placement: Mapping[str, tuple[str, int]],
        counts: np.ndarray,
    ) -> tuple[PlacementModel, np.ndarray]:
        """One cycle's :class:`~repro.fleet.placement.PlacementModel`,
        and the chain-table rows it was built from.

        The rows are cut to the chains the book still places, in name
        order: the gathered tables are one cycle stale, so a chain the
        last plan retired still reports and one it admitted does not
        yet.  The reports arrive in shard order with one row per node,
        so their node tables stack in ``topology.flatten()`` order.
        """
        names = [name for report in reports for name in report.names]
        flows = [flow for report in reports for flow in report.flows]
        rows = sorted(
            (i for i, name in enumerate(names) if name in placement),
            key=names.__getitem__,
        )
        placed = tuple(names[i] for i in rows)
        chains = np.concatenate([report.chains for report in reports])[rows]
        model = build_model(
            migration=self.fleet.migration,
            routing=self._routing,
            node_shard=self._node_shard,
            interval_s=self.interval_s,
            names=placed,
            flows=[flows[i] for i in rows],
            chains=chains,
            nodes=np.concatenate([report.nodes for report in reports]),
            cur=np.array(
                [self._global_index[placement[name]] for name in placed],
                dtype=np.int64,
            ),
            counts=counts,
        )
        return model, chains

    def _apply_cycle(self, plan: _CyclePlan) -> None:
        """Scatter one plan's decisions and write the logs.

        This runs one cycle after the plan's reports were gathered;
        every log row carries the plan's own cycle/interval stamps (the
        cycle the telemetry came from), not the cycle it was applied in.
        """
        with obs.span("fleet/apply", cycle=plan.cycle):
            self._apply_cycle_inner(plan)
        self._cycle += 1
        if obs._ENABLED:
            self._snapshot_metrics(plan)

    def _apply_cycle_inner(self, plan: _CyclePlan) -> None:
        for name, shard in plan.departures:
            self._placement.pop(name)
            del self._hashes[name]
            self.handles[shard].undeploy(name)
            self._dynamic.discard(name)
            self._churn_log.append(
                {
                    "cycle": plan.cycle,
                    "interval": plan.interval,
                    "event": "departure",
                    "chain": name,
                    "shard": shard,
                }
            )
        self._apply_migrations(plan.moves, plan.cycle, plan.interval)
        for (shard, ticket), hashes in zip(plan.arrivals, plan.arrival_hashes):
            self.handles[shard].deploy(ticket)
            self._placement[ticket.name] = (shard, ticket.node)
            self._hashes[ticket.name] = hashes
            self._dynamic.add(ticket.name)
            self._arrivals_admitted += 1
            self._churn_log.append(
                {
                    "cycle": plan.cycle,
                    "interval": plan.interval,
                    "event": "arrival",
                    "chain": ticket.name,
                    "shard": shard,
                    "node": ticket.node,
                }
            )
        for shard, updates in plan.knob_updates:
            self.handles[shard].set_knobs(updates)
        self._cycle_log.append(
            {
                "cycle": plan.cycle,
                "interval": plan.interval,
                "migrations": len(plan.moves),
                "migration_energy_j": left_sum(m.cost_j for m in plan.moves),
                "arrivals": len(plan.arrivals),
                "departures": len(plan.departures),
                "knob_updates": left_sum(
                    len(updates) for _, updates in plan.knob_updates
                ),
                "chains": len(self._placement),
            }
        )

    def _merge_records(self, reports: list[ShardReport]) -> None:
        """Sum per-shard interval rows into fleet-wide records."""
        with obs.span("fleet/merge", reports=len(reports)):
            self._merge_records_inner(reports)

    def _merge_records_inner(self, reports: list[ShardReport]) -> None:
        # The shards step in lockstep, so their interval tables cover
        # the same intervals; fold them in shard order from 0.0.
        total = np.zeros_like(reports[0].intervals)
        for report in reports:
            total += report.intervals
        start = reports[0].start
        for j, (energy, throughput, offered, violations, chains) in enumerate(
            total.tolist()
        ):
            self._records.append(
                {
                    "index": start + j,
                    "energy_j": energy,
                    "throughput_gbps": throughput,
                    "offered_pps": offered,
                    "sla_violations": int(violations),
                    "chains": int(chains),
                }
            )

    # -- migration ---------------------------------------------------------

    def _plan_migrations(
        self,
        cycle: int,
        model: PlacementModel,
        placement: Mapping[str, tuple[str, int]],
        counts: np.ndarray,
    ) -> list[_Move]:
        """Policy proposes, the cost model disposes: keep net-positive moves.

        The configured :data:`~repro.fleet.placement.PLACEMENTS` policy
        proposes each model row's desired node (``watermark`` is the
        original flow-affine ``consolidation_plan``).  Every row whose
        desire differs from its book node is a candidate, and all of
        them are scored in one array pass over ``model``:

        * gain — a chain alone on its node parks the node on leaving,
          ``max(0, node power - parked_power_w - dynamic_fraction *
          chain power)`` over the amortization horizon; a flow-mate at
          the target (by its book node, not its stale report) adds
          ``colocation_gain_j``;
        * cost — ``model.move_cost_j``, the routed migration cost.

        Moves whose routed path takes longer than ``max_path_latency_s``
        and moves that do not gain more than they cost are vetoed.  The survivors,
        best net first, are accepted in turn within ``budget_per_cycle``
        while the target has capacity and SLA headroom (its binding
        stage plus the incoming chain's utilization).  ``placement``
        and ``counts`` are the authoritative post-departure book;
        ``counts`` is mutated in place as moves are accepted, so the
        caller's arrival pass sees the post-migration occupancy.
        """
        mig = self.fleet.migration
        if mig.budget_per_cycle <= 0 or model.n_nodes < 2 or not model.names:
            return []
        desired = self._placer.desired(cycle, model)
        if desired is None:
            return []
        rows = np.flatnonzero(desired != model.cur)
        cur, dst = model.cur[rows], desired[rows]
        vacate = model.counts[cur] == 1
        horizon_s = mig.amortize_intervals * self.interval_s
        marginal_w = mig.dynamic_fraction * model.power_w[rows]
        gain = np.where(
            vacate,
            np.maximum(
                0.0, model.node_power_w[cur] - mig.parked_power_w - marginal_w
            )
            * horizon_s,
            0.0,
        )
        # The chain itself sits at its book node, never at the target, so
        # any count there is a flow-mate.
        mates = np.zeros((int(model.flow.max()) + 1, model.n_nodes), np.int64)
        np.add.at(mates, (model.flow, model.cur), 1)
        mated = mates[model.flow[rows], dst] > 0
        gain = np.where(mated, gain + mig.colocation_gain_j, gain)
        cost = model.move_cost_j[rows, dst]
        net = gain - cost
        # A bound of 0 leaves path latency unbounded.
        far = (mig.max_path_latency_s > 0.0) & (
            self._routing.latency_s[self._node_shard[cur], self._node_shard[dst]]
            > mig.max_path_latency_s
        )
        losing = ~far & (net <= 0)
        if obs._ENABLED:
            for reason, vetoed in (("path_latency", far), ("net_negative", losing)):
                if vetoed.any():
                    obs.inc(f"fleet/migrations/veto[{reason}]", int(vetoed.sum()))
        kept = np.flatnonzero(~(far | losing))
        ranked = kept[np.lexsort((rows[kept], -net[kept]))].tolist()
        gain_j, cost_j, util = gain.tolist(), cost.tolist(), model.util.tolist()
        target_util = model.node_util.tolist()
        moves: list[_Move] = []
        for i, k in enumerate(ranked):
            if len(moves) >= mig.budget_per_cycle:
                if obs._ENABLED:
                    obs.inc("fleet/migrations/veto[budget]", len(ranked) - i)
                break
            c, src, to = int(rows[k]), int(cur[k]), int(dst[k])
            if counts[to] >= mig.capacity_per_node:
                if obs._ENABLED:
                    obs.inc("fleet/migrations/veto[capacity]")
                continue
            # SLA headroom: the target's binding stage plus the incoming
            # chain's must stay below the watermark.
            if target_util[to] + util[c] > mig.headroom:
                if obs._ENABLED:
                    obs.inc("fleet/migrations/veto[headroom]")
                continue
            name = model.names[c]
            src_shard = placement[name][0]
            dst_shard = self._global_nodes[to][0]
            cross = dst_shard != src_shard
            moves.append(
                _Move(
                    chain=name,
                    src=placement[name],
                    dst=self._global_nodes[to],
                    gain_j=gain_j[k],
                    cost_j=cost_j[k],
                    reason="vacate" if vacate[k] else "colocate",
                    path=(
                        self._routing.path(src_shard, dst_shard)
                        if cross
                        else (src_shard,)
                    ),
                    path_latency_s=(
                        self._routing.path_latency_s(src_shard, dst_shard)
                        if cross
                        else 0.0
                    ),
                    bottleneck_gbps=(
                        self._routing.path_bottleneck_gbps(src_shard, dst_shard)
                        if cross
                        else 0.0
                    ),
                )
            )
            counts[to] += 1
            counts[src] -= 1
            target_util[to] += util[c]
            if obs._ENABLED:
                obs.inc("fleet/migrations/accepted")
        return moves

    def _apply_migrations(
        self, moves: tuple[_Move, ...], cycle: int, interval: int
    ) -> None:
        for move in moves:
            src_shard, _ = move.src
            dst_shard, dst_node = move.dst
            ticket = self.handles[src_shard].undeploy(move.chain)
            self.handles[dst_shard].deploy(ticket.with_node(dst_node))
            self._placement[move.chain] = (dst_shard, dst_node)
            self._migration_energy_j += move.cost_j
            self._migrations.append(
                {
                    "cycle": cycle,
                    "interval": interval,
                    "chain": move.chain,
                    "src_shard": src_shard,
                    "src_node": move.src[1],
                    "dst_shard": dst_shard,
                    "dst_node": dst_node,
                    "gain_j": move.gain_j,
                    "cost_j": move.cost_j,
                    "reason": move.reason,
                    "path": list(move.path),
                    "hops": max(0, len(move.path) - 1),
                    "path_latency_s": move.path_latency_s,
                    "bottleneck_gbps": move.bottleneck_gbps,
                }
            )

    # -- knob steering -----------------------------------------------------

    def _plan_knobs(
        self,
        names: tuple[str, ...],
        chains: np.ndarray,
        placement: Mapping[str, tuple[str, int]],
    ) -> tuple[tuple[str, dict[str, dict[str, Any]]], ...]:
        from repro.nfv.knobs import DEFAULT_RANGES as ranges

        steering = self.fleet.steering
        if not steering.enabled:
            return ()
        # Cap targets at the hardware ranges the nodes will clamp to, so
        # a chain already pinned at the limits is not re-sent the same
        # futile update every cycle.  ``placement`` is the planned
        # post-migration layout, so an update for a migrating chain is
        # routed to its destination shard.  The rows are the model's,
        # in CHAIN_FIELDS column order.
        share_max = min(steering.share_max, ranges.max_cpu_share)
        share_min = max(steering.share_min, ranges.min_cpu_share)
        per_shard: dict[str, dict[str, dict[str, Any]]] = {}
        for name, (_node, util, _power, _state, _dma, cpu_share, freq_ghz) in zip(
            names, chains.tolist()
        ):
            if util > steering.high_watermark:
                share = min(cpu_share * steering.share_step, share_max)
                freq = min(freq_ghz + steering.freq_step_ghz, ranges.max_freq_ghz)
            elif util < steering.low_watermark:
                share = max(cpu_share / steering.share_step, share_min)
                freq = max(freq_ghz - steering.freq_step_ghz, ranges.min_freq_ghz)
            else:
                continue
            if (share, freq) == (cpu_share, freq_ghz):
                continue
            shard, _node = placement[name]
            per_shard.setdefault(shard, {})[name] = {
                "cpu_share": share,
                "cpu_freq_ghz": freq,
            }
        return tuple(sorted(per_shard.items()))

    # -- observability -----------------------------------------------------

    def _drain_worker_spans(self) -> None:
        """Pull buffered spans + counter deltas from every shard handle.

        Process-backend handles expose ``drain_spans`` (a pipe round
        trip); local handles run in-process and already share the
        registry/tracer, so they have nothing to drain.
        """
        tracer = obs.tracer()
        registry = obs.registry()
        for handle in self.handles.values():
            drain = getattr(handle, "drain_spans", None)
            if drain is None:
                continue
            events, counters = drain()
            if events and tracer is not None:
                tracer.ingest(events)
            if counters:
                registry.merge_counters(counters)
        if tracer is not None:
            tracer.flush()

    def _snapshot_metrics(self, plan: _CyclePlan) -> None:
        """Append one per-cycle snapshot to the rolling metrics series.

        Everything here is derived from already-recorded state plus the
        sanctioned clock — called strictly after the cycle's decisions
        are applied, so it cannot perturb a seeded run.

        The merge order runs one cycle ahead of the apply order, so
        rows are claimed by interval stamp (records arrive
        index-sorted): each snapshot takes exactly its own cycle's rows,
        whichever cycle's gather merged them.  Throughput is a
        running average over the whole run — a per-window rate would
        spike on the drain half-cycle, whose gather happened inside the
        previous window.
        """
        now = clock.perf_s()
        prev = self._last_snap_t if self._last_snap_t is not None else self._t0
        cycle_s = now - prev
        self._last_snap_t = now
        rows = []
        i = self._records_mark
        while i < len(self._records) and self._records[i]["index"] < plan.interval:
            rows.append(self._records[i])
            i += 1
        self._records_mark = i
        energy_j = left_sum(r["energy_j"] for r in rows)
        sla_violations = left_sum(r["sla_violations"] for r in rows)
        self._chain_intervals_total += left_sum(r["chains"] for r in rows)
        elapsed = now - self._t0
        reg = obs.registry()
        reg.observe("fleet/cycle_s", cycle_s)
        reg.gauge("fleet/chains", len(self._placement))
        snap = reg.snapshot()
        self._metrics_log.append(
            {
                "cycle": plan.cycle,
                "interval": plan.interval,
                "cycle_s": cycle_s,
                "chains": len(self._placement),
                "chain_intervals_per_s": (
                    self._chain_intervals_total / elapsed if elapsed > 0 else 0.0
                ),
                "energy_j": energy_j,
                "sla_violations": sla_violations,
                "migrations": len(self._migrations),
                "counters": snap["counters"],
                "histograms": snap["histograms"],
            }
        )
        tracer = obs.tracer()
        if tracer is not None:
            ts = clock.now_us()
            tracer.counter("fleet/energy_j", energy_j, ts=ts)
            tracer.counter("fleet/sla_violations", sla_violations, ts=ts)
            tracer.counter("fleet/migrations", len(self._migrations), ts=ts)
            tracer.counter("fleet/chains", len(self._placement), ts=ts)
            tracer.flush()

    # -- results -----------------------------------------------------------

    def result(self, elapsed_s: float | None = None) -> FleetResult:
        """Package everything recorded so far into a result artifact.

        ``elapsed_s`` defaults to the coordinator's own construction-to-
        now wall time (the sanctioned clock); pass a value only to
        override that measurement — the old ``elapsed_s=0.0`` default
        silently recorded zero for every caller that forgot to time the
        run themselves.
        """
        if elapsed_s is None:
            elapsed_s = time.perf_counter() - self._t0
        records = self._records
        sim_energy = left_sum(r["energy_j"] for r in records)
        throughputs = [r["throughput_gbps"] for r in records]
        horizon_s = len(records) * self.interval_s
        total_energy = sim_energy + self._migration_energy_j
        mean_thr = left_sum(throughputs) / len(throughputs) if throughputs else 0.0
        totals = {
            "intervals": len(records),
            "sim_energy_j": sim_energy,
            "migration_energy_j": self._migration_energy_j,
            "energy_j": total_energy,
            "mean_throughput_gbps": mean_thr,
            "mean_power_w": total_energy / horizon_s if horizon_s > 0 else 0.0,
            "energy_efficiency": (
                mean_thr / (total_energy / 1e3) if total_energy > 0 else 0.0
            ),
            "sla_violations": left_sum(r["sla_violations"] for r in records),
            "migrations": len(self._migrations),
            "migration_hops": left_sum(m["hops"] for m in self._migrations),
            "migration_path_latency_s": left_sum(
                m["path_latency_s"] for m in self._migrations
            ),
            "arrivals": left_sum(
                1 for c in self._churn_log if c["event"] == "arrival"
            ),
            "departures": left_sum(
                1 for c in self._churn_log if c["event"] == "departure"
            ),
            "final_chains": len(self._placement),
        }
        fleet_info = self.fleet.to_dict()
        fleet_info.update(
            {
                "backend": self.fleet.backend,
                "sla": self.sla,
                "sla_params": dict(self.sla_params),
                "interval_s": self.interval_s,
                "seed": self.seed,
            }
        )
        return FleetResult(
            fleet=fleet_info,
            intervals=[dict(r) for r in records],
            migrations=[dict(m) for m in self._migrations],
            churn=[dict(c) for c in self._churn_log],
            cycles=[dict(c) for c in self._cycle_log],
            totals=totals,
            elapsed_s=elapsed_s,
            metrics=[dict(m) for m in self._metrics_log],
        )


def run_fleet(
    spec,
    *,
    backend: str | None = None,
    cycles: int | None = None,
    placement: str | None = None,
    out_path=None,
) -> FleetResult:
    """Run a scenario spec's fleet section end-to-end.

    ``spec`` is a :class:`~repro.scenario.spec.ScenarioSpec` whose
    ``fleet`` field holds the fleet section (inline or via a
    :data:`~repro.fleet.spec.FLEETS` preset).  ``backend`` / ``cycles``
    / ``placement`` override the section without editing the spec.
    Writes the JSON artifact to ``out_path`` when given.
    """
    if getattr(spec, "fleet", None) is None:
        raise ValueError(
            f"scenario {spec.name!r} has no fleet section; add a 'fleet:' "
            "dict (e.g. {'preset': 'small'}) to the spec"
        )
    fleet = FleetSpec.from_mapping(spec.fleet)
    if cycles is not None:
        fleet = fleet.with_updates(cycles=cycles)
    if backend is not None:
        fleet = fleet.with_updates(backend=backend)
    if placement is not None:
        fleet = fleet.with_updates(placement=placement)
    with FleetCoordinator(
        fleet,
        sla=spec.sla,
        sla_params=spec.sla_params,
        interval_s=spec.interval_s,
        seed=spec.seed,
    ) as coordinator:
        coordinator.run_cycles(fleet.cycles)
        result = coordinator.result()
    if out_path is not None:
        result.save(out_path)
    return result
