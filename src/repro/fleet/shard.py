"""Shard execution: shards stepped through a shared cluster kernel.

A shard is one cluster of the fleet, simulated as a deterministic state
machine driven by coordinator commands:

* ``run(block)`` — advance the global control intervals of a
  :class:`~repro.fleet.workload.LoadBlock` (the offered load the
  coordinator drew for the shard's chains) as one block through a fused
  cluster kernel
  (:meth:`~repro.nfv.cluster_kernel.ClusterKernel.step`, which compiles
  a configuration on first sight and prices the whole block), and
  return a :class:`ShardReport`: three float64 tables of per-interval
  energy/SLA rows and of per-chain and per-node state for the
  coordinator's decisions;
* ``deploy(ticket)`` / ``undeploy(name)`` — chain arrival, departure and
  the two halves of a cross-shard migration.  A :class:`ChainTicket` is
  the serializable form of a chain in flight: NF names, knobs, flow
  group, destination node;
* ``set_knobs(updates)`` — the scatter half of the SDN steering loop.
  The shard's nodes keep their chains' knobs as views of one float64
  table, so a command reads the named chains' rows, clamps them
  (:func:`~repro.nfv.knobs.clamp_table`) and writes them back in one
  pass each; a node moves its generation, and so costs the next run a
  compile of the plan's knob half, only when one of its values moved.

Every run goes through one function, :func:`run_shards`: it checks
each shard's block against the shard, prices all of them in one
:meth:`~repro.nfv.cluster_kernel.ClusterKernel.step` over their nodes,
and each shard books its own rows and node columns of that pass.  A
shard's slice of a shared pass equals its own kernel's pass bit for
bit, so how shards are grouped changes the cost, never the numbers.

Two interchangeable backends execute the same :class:`ShardSim`:
:class:`LocalShard` runs it in-process (tests, determinism reference,
single-process runs), where the coordinator's shards form one group
and the whole fleet is one kernel pass per cycle, and
:class:`ShardWorker` runs it in a real worker process behind a pipe, a
group of one (:meth:`ShardSim.run`).  Each command is one message
with one reply, read in order: a run's reply is collected after every
shard's run is sent, a deploy or undeploy waits for its reply, and a
knob command's ack is read only before the handle's next reply, so the
worker applies knobs while the coordinator plans.  The report body
does not travel over the pipe: each worker writes the report's tables
into a shared-memory :class:`~repro.fleet.arena.TelemetryArena` and the
run reply is a tiny ``("telemetry", generation, start, n, n_chains)``
ack; the handle copies the tables out of the arena before it sends the
next run, and names the chain rows from its own ticket mirror (resynced
only on deploy/undeploy).
A shard draws nothing itself: every stochastic input is counter-based
(:mod:`repro.fleet.workload`) and drawn by the coordinator, so both
backends produce bit-identical telemetry for the same seed.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import traceback
from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Sequence

import numpy as np

from repro import obs
from repro.fleet.arena import (
    CHAIN_FIELDS,
    INTERVAL_FIELDS,
    NODE_FIELDS,
    ArenaLayout,
    TelemetryArena,
)
from repro.hw.server import ServerSpec
from repro.nfv.chain import (
    ServiceChain,
    default_chain,
    heavy_chain,
    light_chain,
)
from repro.nfv.cluster_kernel import BlockTelemetry, ClusterKernel, row_names
from repro.nfv.knobs import KNOB_NAMES, KnobSettings, clamp_table
from repro.nfv.node import STATE, TABLE_COLUMNS, Node
from repro.fleet.topology import CHAIN_KINDS
from repro.fleet.workload import LoadBlock, WorkloadConfig
from repro.utils.stats import left_sums
from repro.utils.units import mb_to_bytes

#: Each knob's column in a node's table.
_KNOB_COLUMN = {name: i for i, name in enumerate(KNOB_NAMES)}

#: NF line-ups of the deployable chain presets, derived from the
#: :mod:`repro.nfv.chain` factories so fleet chains can never silently
#: diverge from the identically-named single-cluster presets (kept as
#: names so tickets serialize).
_KIND_NFS: dict[str, tuple[str, ...]] = {
    kind: tuple(nf.name for nf in factory().nfs)
    for kind, factory in (
        ("default", default_chain),
        ("light", light_chain),
        ("heavy", heavy_chain),
    )
}


def kind_nfs(kind: str, index: int = 0) -> tuple[str, ...]:
    """NF names for a chain preset id (``"mixed"`` cycles by ``index``)."""
    if kind == "mixed":
        kind = CHAIN_KINDS[index % len(CHAIN_KINDS)]
    try:
        return _KIND_NFS[kind]
    except KeyError:
        raise ValueError(
            f"unknown chain kind {kind!r}; options: {('mixed', *_KIND_NFS)}"
        ) from None


@dataclass(frozen=True)
class ChainTicket:
    """A chain in serializable form: deployment order or migration cargo."""

    name: str
    nfs: tuple[str, ...]
    flow: str
    node: int
    knobs: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("chain ticket needs a name")
        if not self.nfs:
            raise ValueError("chain ticket needs at least one NF")
        if self.node < 0:
            raise ValueError("node index must be >= 0")
        if not isinstance(self.nfs, tuple):
            object.__setattr__(self, "nfs", tuple(self.nfs))
        if not isinstance(self.knobs, dict):
            object.__setattr__(self, "knobs", dict(self.knobs))

    def with_node(self, node: int) -> "ChainTicket":
        """The same chain re-targeted at another node (migration)."""
        return replace(self, node=node)


@dataclass(frozen=True)
class ShardConfig:
    """Everything one shard worker needs to build its simulation."""

    name: str
    n_nodes: int
    interval_s: float
    sla: str
    sla_params: Mapping[str, Any]
    workload: Mapping[str, Any]
    parked_power_w: float
    initial_chains: tuple[ChainTicket, ...] = ()
    #: Telemetry-arena capacity: interval rows per ``run`` reply and the
    #: hard cap on hosted chains (0 = auto-size from the initial layout).
    arena_intervals: int = 64
    arena_chains: int = 0
    #: When true a spawned worker enables :mod:`repro.obs` in buffered
    #: mode (spans/counters travel back over the ``drain_spans`` pipe
    #: round trip).  Set from ``obs.enabled()`` at coordinator build.
    trace: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("shard config needs a name")
        if self.n_nodes < 1:
            raise ValueError("shard needs at least one node")
        if not self.interval_s > 0:
            raise ValueError("interval must be positive")
        if not 0 <= self.parked_power_w < math.inf:
            raise ValueError("parked power must be finite and >= 0")
        if self.arena_intervals < 1:
            raise ValueError("arena_intervals must be >= 1")
        if self.arena_chains < 0:
            raise ValueError("arena_chains must be >= 0")
        if not isinstance(self.sla_params, dict):
            object.__setattr__(self, "sla_params", dict(self.sla_params))
        if not isinstance(self.workload, dict):
            object.__setattr__(self, "workload", dict(self.workload))
        if not isinstance(self.initial_chains, tuple):
            object.__setattr__(self, "initial_chains", tuple(self.initial_chains))


def arena_layout_for(config: ShardConfig) -> ArenaLayout:
    """The telemetry-arena shape implied by a shard config.

    Both pipe ends call this on the *same* config, so the layout never
    needs to be negotiated over the pipe.  ``arena_chains=0`` auto-sizes
    to comfortably above the initial deployment (churn and migration can
    only grow a shard up to the coordinator's admission caps, which pass
    an explicit capacity instead).
    """
    chains = config.arena_chains or max(
        16, 2 * len(config.initial_chains), 2 * config.n_nodes
    )
    return ArenaLayout(
        max_intervals=config.arena_intervals,
        max_chains=chains,
        n_nodes=config.n_nodes,
    )


@dataclass(frozen=True)
class ShardReport:
    """The gather payload: one shard's answer to a ``run`` command.

    Its telemetry is three float64 tables in the arena's column layout
    (:mod:`repro.fleet.arena`): ``intervals`` holds one
    :data:`~repro.fleet.arena.INTERVAL_FIELDS` row per interval from
    ``start``, ``chains`` one :data:`~repro.fleet.arena.CHAIN_FIELDS`
    row per hosted chain in deployment order (the chains ``names``, in
    flow groups ``flows``), and ``nodes`` one
    :data:`~repro.fleet.arena.NODE_FIELDS` row per node.
    """

    shard: str
    start: int
    names: tuple[str, ...]
    flows: tuple[str, ...]
    intervals: np.ndarray
    chains: np.ndarray
    nodes: np.ndarray


class ShardSim:
    """The deterministic shard state machine (backend-independent).

    The shard hashes and draws nothing: each :meth:`run` is handed the
    offered load of its chains, one row per hosted chain in
    :attr:`load_rows` order.
    """

    def __init__(self, config: ShardConfig):
        from repro.scenario.catalog import SLAS  # deferred: registry import

        self.config = config
        self.workload = WorkloadConfig.from_dict(config.workload)
        self.sla = SLAS.get(config.sla)(**dict(config.sla_params))
        servers = [ServerSpec(name=f"{config.name}.n{i}") for i in range(config.n_nodes)]
        # The nodes' chain tables are views of one shard table, so a knob
        # command reads and writes every node's rows at once.
        ways = servers[0].llc.allocatable_ways
        self._tables = np.empty((len(servers), ways, len(TABLE_COLUMNS)))
        self.nodes = [Node(s, store=t) for s, t in zip(servers, self._tables)]
        self.kernel = ClusterKernel(self.nodes)
        self._tickets: dict[str, ChainTicket] = {}
        self._interval = 0
        self._node_energy = [0.0] * config.n_nodes
        for ticket in config.initial_chains:
            self.deploy(ticket)

    # -- deployment commands -----------------------------------------------

    @property
    def load_rows(self) -> tuple[str, ...]:
        """Hosted chains in deployment order: the rows :meth:`run`
        expects of a load block."""
        return tuple(self._tickets)

    def deploy(self, ticket: ChainTicket) -> None:
        """Deploy a ticketed chain on its target node."""
        if ticket.name in self._tickets:
            raise ValueError(f"chain {ticket.name!r} already on shard")
        if not 0 <= ticket.node < len(self.nodes):
            raise ValueError(
                f"node {ticket.node} out of range for shard {self.config.name!r}"
            )
        chain = ServiceChain.from_names(ticket.name, list(ticket.nfs))
        knobs = KnobSettings(**dict(ticket.knobs)) if ticket.knobs else None
        self.nodes[ticket.node].deploy(chain, knobs)
        self._tickets[ticket.name] = ticket

    def undeploy(self, name: str) -> ChainTicket:
        """Remove a chain; returns its ticket with the knobs that stuck."""
        if name not in self._tickets:
            raise KeyError(f"no chain {name!r} on shard {self.config.name!r}")
        ticket = self._tickets.pop(name)
        node = self.nodes[ticket.node]
        applied = node.chains[name].knobs.to_dict()
        node.undeploy(name)
        return replace(ticket, knobs=applied)

    def set_knobs(self, updates: Mapping[str, Mapping[str, Any]]) -> None:
        """Apply per-chain knob updates (clamped on the owning node).

        An update names only the knobs it changes; the chain keeps its
        current setting of every other knob.  Every name, knob and value
        is checked before any is applied, so a rejected update leaves the
        shard unchanged.  The command's rows are read from the shard's
        table, clamped (:func:`~repro.nfv.knobs.clamp_table`) and written
        back in one pass each; a node whose values do not move keeps its
        generation, so the next run compiles nothing for it.
        """
        if not updates:
            return
        at: tuple[list[int], list[int]] = ([], [])  # each entry's node and row
        for name in updates:
            ticket = self._tickets.get(name)
            if ticket is None:
                raise KeyError(f"no chain {name!r} on shard {self.config.name!r}")
            at[0].append(ticket.node)
            at[1].append(self.nodes[ticket.node].row_of(name))
        current = self._tables[at][:, :5]
        rows = current.tolist()
        for row, settings in zip(rows, updates.values()):
            for knob, value in settings.items():
                if knob not in _KNOB_COLUMN:
                    raise TypeError(f"unknown knob {knob!r}; knobs: {list(KNOB_NAMES)}")
                row[_KNOB_COLUMN[knob]] = value
        node = self.nodes[0]  # a shard's nodes share ranges and ladder
        knobs = clamp_table(rows, node.ranges, node.server.cpu)
        moved = knobs != current
        self._tables[at[0], at[1], :5] = knobs
        written: dict[int, bool] = {}  # node -> whether an llc_fraction moved
        for j, row, llc in zip(at[0], moved.any(axis=1).tolist(), moved[:, 2].tolist()):
            if row:
                written[j] = written.get(j, False) or llc
        for j, llc in written.items():
            self.nodes[j].knobs_written(llc)

    # -- the stepping loop -------------------------------------------------

    def run(self, block: LoadBlock) -> ShardReport:
        """Advance the global intervals ``[block.start, block.start + n)``
        under the ``(chains, n)`` offered loads of ``block``.

        The block's rows must be the hosted chains in :attr:`load_rows`
        order, and ``block.start`` must match the shard's own clock — the
        fleet steps in lockstep, and a drifted shard would silently run
        another interval's counter-based traffic.  A group of one for
        :func:`run_shards`, through the shard's own kernel.
        """
        return run_shards((self,), (block,), self.kernel)[0]

    def _check(self, load_block: LoadBlock) -> None:
        """Refuse a block whose rows, shape or start do not match this
        shard."""
        cfg = self.config
        names = self.load_rows
        if tuple(load_block.names) != names:
            raise ValueError(
                f"shard {cfg.name!r} hosts chains {list(names)}, but the "
                f"load block's rows are {list(load_block.names)}"
            )
        pps = np.asarray(load_block.pps)
        if pps.ndim != 2 or pps.shape[0] != len(names):
            raise ValueError(
                f"shard {cfg.name!r}: need a (chains, intervals) load block "
                f"with one row per chain, got shape {pps.shape}"
            )
        if load_block.start != self._interval:
            raise ValueError(
                f"shard {cfg.name!r} is at interval {self._interval}, "
                f"coordinator asked for {load_block.start}"
            )

    def _record(self, load_block: LoadBlock, block: BlockTelemetry) -> ShardReport:
        """Book one stepped run: this shard's rows and nodes of the pass."""
        n = load_block.pps.shape[-1]
        start = load_block.start
        with obs.span("shard/run", shard=self.config.name, start=start, n=n):
            return self._record_inner(load_block, block)

    def _record_inner(
        self, load_block: LoadBlock, block: BlockTelemetry
    ) -> ShardReport:
        cfg = self.config
        dt = cfg.interval_s
        loads = load_block.pps
        n = loads.shape[1]
        # Node-level energy: meter deltas, so idle (but unvacated) nodes
        # are billed; a node with no chains at all is parked and billed
        # at the parked floor instead.
        totals = block.node_joules
        hosting = np.asarray([bool(node.chains) for node in self.nodes])
        node_j = np.where(
            hosting,
            totals - np.vstack([self._node_energy, totals[:-1]]),
            cfg.parked_power_w * dt,
        )
        self._node_energy = totals[-1].tolist()
        self._interval += n
        # Left-to-right folds in node, row and ticket order; np.sum's
        # pairwise rounding would change the recorded totals.  The
        # columns follow INTERVAL_FIELDS.
        intervals = np.empty((n, len(INTERVAL_FIELDS)))
        intervals[:, 0] = left_sums(node_j)
        intervals[:, 1] = left_sums(block.throughput_gbps)
        intervals[:, 2] = left_sums(loads.T)
        intervals[:, 3] = (~self.sla.satisfied(block)).sum(axis=1)
        intervals[:, 4] = block.energy_j.shape[1]
        # Each chain's state after the block's last interval.  The
        # block's columns follow the nodes' kernel row order; the chain
        # rows follow the tickets, the load rows' order.
        column = {name: r for r, name in enumerate(row_names(self.nodes))}
        order = [column[name] for name in self._tickets]
        table = np.concatenate([node.table for node in self.nodes])[order]
        chains = np.empty((len(order), len(CHAIN_FIELDS)))
        chains[:, 0] = [ticket.node for ticket in self._tickets.values()]
        chains[:, 1] = block.utilization[-1, order]
        chains[:, 2] = block.power_w[-1, order]
        chains[:, 3] = table[:, STATE]
        chains[:, 4] = mb_to_bytes(table[:, 3])
        chains[:, 5:] = table[:, :2]
        # A node's utilization is its busiest chain's; its rows are one
        # contiguous run of the kernel order.
        utilization = block.utilization[-1].tolist()
        nodes = np.empty((len(self.nodes), len(NODE_FIELDS)))
        nodes[:, 0] = node_j[-1] / dt
        r = 0
        for j, node in enumerate(self.nodes):
            k = len(node.chains)
            nodes[j, 1] = max(utilization[r : r + k], default=0.0)
            r += k
        return ShardReport(
            shard=cfg.name,
            start=load_block.start,
            names=tuple(self._tickets),
            flows=tuple(ticket.flow for ticket in self._tickets.values()),
            intervals=intervals,
            chains=chains,
            nodes=nodes,
        )


def run_shards(
    sims: Sequence[ShardSim], blocks: Sequence[LoadBlock], kernel: ClusterKernel
) -> list[ShardReport]:
    """Advance each shard through one run of its block, in one kernel pass.

    ``kernel`` must step exactly the shards' nodes, shard by shard, so
    each shard owns one contiguous run of the kernel's rows and node
    columns.  Every block is checked against its shard (rows, clock,
    length) before any state moves; one :meth:`ClusterKernel.step
    <repro.nfv.cluster_kernel.ClusterKernel.step>` then prices every
    shard's block, and each shard books its own
    :meth:`~repro.nfv.cluster_kernel.BlockTelemetry.part` of it.  A
    shard's report is the one its own kernel would give: a row prices
    the same beside chains of any length.
    """
    if len(sims) != len(blocks):
        raise ValueError("need one load block per shard")
    nodes = [node for sim in sims for node in sim.nodes]
    if len(nodes) != len(kernel.nodes) or any(
        a is not b for a, b in zip(nodes, kernel.nodes)
    ):
        raise ValueError("the kernel must step exactly the shards' nodes, in order")
    if len({sim.config.interval_s for sim in sims}) > 1:
        raise ValueError("shards stepped in one pass need one interval length")
    if len({block.pps.shape[-1] for block in blocks}) > 1:
        raise ValueError("shards stepped in one pass need blocks of one length")
    for sim, block in zip(sims, blocks):
        sim._check(block)
    packet_bytes = [
        sim.workload.packet_bytes
        for sim, block in zip(sims, blocks)
        for _ in block.names
    ]
    telemetry = kernel.step(
        [name for block in blocks for name in block.names],
        np.concatenate([block.pps for block in blocks]),
        packet_bytes,
        sims[0].config.interval_s,
    )
    reports = []
    row = col = 0
    for sim, block in zip(sims, blocks):
        rows, cols = len(block.names), len(sim.nodes)
        part = telemetry.part(slice(row, row + rows), slice(col, col + cols))
        reports.append(sim._record(block, part))
        row, col = row + rows, col + cols
    return reports


# -- backends ------------------------------------------------------------------


class _RunGroup:
    """In-process shards stepped through one shared cluster kernel: each
    member's block for the next pass, and its report from the last.

    It holds the sims, never their handles, so a group makes no
    reference cycle and a dropped fleet is freed at once.
    """

    def __init__(self, sims: list[ShardSim], kernel: ClusterKernel):
        self.sims = sims
        self.kernel = kernel
        self.blocks: list[LoadBlock | None] = [None] * len(sims)
        self.reports: list[ShardReport | None] = [None] * len(sims)


class LocalShard:
    """In-process shard handle: the determinism reference backend.

    Handles built together by :meth:`group` step as one: each
    :meth:`begin_run` hands over its shard's block, and the call that
    completes the set prices every shard of the group in one pass of a
    kernel shared by all their nodes (:func:`run_shards`).  A handle
    built alone is a group of one and runs at once.
    """

    backend = "local"

    def __init__(self, config: ShardConfig):
        self.sim = ShardSim(config)
        self._group = _RunGroup([self.sim], self.sim.kernel)
        self._slot = 0

    @classmethod
    def group(cls, configs: Sequence[ShardConfig]) -> list["LocalShard"]:
        """One handle per config, all stepped through one shared kernel."""
        shards = [cls(config) for config in configs]
        sims = [shard.sim for shard in shards]
        group = _RunGroup(sims, ClusterKernel([n for sim in sims for n in sim.nodes]))
        for slot, shard in enumerate(shards):
            shard._group, shard._slot = group, slot
        return shards

    @property
    def load_rows(self) -> tuple[str, ...]:
        """The chains a run's load block holds, in row order."""
        return self.sim.load_rows

    def begin_run(self, block: LoadBlock) -> None:
        """Start one run command: once every shard of the group has its
        block, all of them run synchronously, in this call."""
        group, slot = self._group, self._slot
        if group.blocks[slot] is not None or group.reports[slot] is not None:
            raise RuntimeError("previous run not collected")
        group.blocks[slot] = block
        if any(pending is None for pending in group.blocks):
            return
        blocks, group.blocks = group.blocks, [None] * len(group.sims)
        group.reports = run_shards(group.sims, blocks, group.kernel)

    def finish_run(self) -> ShardReport:
        """Collect the report of the last :meth:`begin_run`."""
        group, slot = self._group, self._slot
        report = group.reports[slot]
        if report is None:
            if group.blocks[slot] is not None:
                raise RuntimeError(
                    f"shard {self.sim.config.name!r}: the group's other "
                    "shards have not begun their runs"
                )
            raise RuntimeError("no run in flight")
        group.reports[slot] = None
        return report

    def deploy(self, ticket: ChainTicket) -> None:
        """Deploy a ticketed chain."""
        self.sim.deploy(ticket)

    def undeploy(self, name: str) -> ChainTicket:
        """Remove a chain; returns its migration ticket."""
        return self.sim.undeploy(name)

    def set_knobs(self, updates: Mapping[str, Mapping[str, Any]]) -> None:
        """Apply per-chain knob settings."""
        self.sim.set_knobs(updates)

    def close(self) -> None:
        """No resources to release in-process."""


def _error_payload(
    exc: BaseException,
    *,
    frames: int = 8,
    spans: list[dict[str, Any]] | None = None,
    counters: dict[str, float] | None = None,
) -> tuple:
    """An ``("error", summary, trimmed_traceback[, spans, counters])`` reply.

    The worker-side traceback is what makes a shard failure debuggable
    from the parent — ``KeyError: 'c3'`` alone says nothing about which
    ``undeploy``/``set_knobs`` path raised it.  Only the last ``frames``
    stack entries ship (the failure site, not the pipe plumbing), and as
    a plain string: tracebacks themselves do not pickle.

    When the worker is tracing, its buffered spans and counter deltas
    ride the error reply (``spans``/``counters``), so instrumentation
    recorded before a crash still reaches the coordinator's trace file.
    Callers that never trace get the plain 3-tuple unchanged.
    """
    summary = f"{type(exc).__name__}: {exc}"
    trimmed = "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__, limit=-frames)
    ).rstrip()
    if spans is None:
        return ("error", summary, trimmed)
    return ("error", summary, trimmed, spans, counters or {})


def shard_worker(config: ShardConfig, conn, arena_name: str) -> None:
    """Worker-process main loop (one shard's NF/SDN agent).

    Construction is part of the protocol: the worker reports ``ready``
    (or the construction error) before entering the command loop, so a
    bad config surfaces as the real exception message in the parent —
    exactly where the local backend would raise it — instead of a dead
    pipe on the first command.

    Run telemetry travels through the shared-memory arena named
    ``arena_name`` (created and owned by the parent handle): the worker
    stores each report there and replies with a small
    ``("telemetry", ...)`` ack.  The ``generation`` counter bumps
    on every successful deploy/undeploy — the parent mirrors it, so a
    telemetry ack written against a stale chain set is detected instead
    of silently mis-mapping arena rows to chain names.
    """
    if config.trace:
        # Fresh buffered tracer/registry — any obs state inherited over a
        # fork (the parent's open trace file!) is abandoned, never closed.
        obs.enable_worker(f"shard-{config.name}")
    try:
        sim = ShardSim(config)
        arena = TelemetryArena.attach(arena_name, arena_layout_for(config))
    except Exception as exc:
        try:
            conn.send(_error_payload(exc))
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
        return
    conn.send(("ready", config.name))
    generation = 0
    try:
        while True:
            msg = conn.recv()
            kind = msg[0]
            if kind == "stop":
                conn.send(("stopped", config.name))
                return
            try:
                if kind == "run":
                    block = msg[1]
                    n = block.pps.shape[-1]
                    if n > arena.layout.max_intervals:
                        # Refuse before stepping: a post-hoc overflow in
                        # store_report would leave the sim clock advanced
                        # with the telemetry dropped.
                        raise ValueError(
                            f"shard {config.name!r} arena is sized for "
                            f"{arena.layout.max_intervals} interval rows "
                            f"per run, asked for {n}"
                        )
                    report = sim.run(block)
                    arena.store_report(report)
                    conn.send(
                        ("telemetry", generation, block.start, n, len(report.chains))
                    )
                elif kind == "deploy":
                    if len(sim.load_rows) >= arena.layout.max_chains:
                        raise ValueError(
                            f"shard {config.name!r} arena is sized for "
                            f"{arena.layout.max_chains} chains; deploy of "
                            f"{msg[1].name!r} refused"
                        )
                    sim.deploy(msg[1])
                    generation += 1
                    conn.send(("ok",))
                elif kind == "undeploy":
                    ticket = sim.undeploy(msg[1])
                    generation += 1
                    conn.send(("ticket", ticket))
                elif kind == "knobs":
                    sim.set_knobs(msg[1])
                    conn.send(("ok",))
                elif kind == "drain_spans":
                    # Buffered trace events + counter deltas; both empty
                    # lists/dicts when the worker is not tracing.
                    conn.send(
                        ("spans", obs.drain_events(), obs.drain_counters())
                    )
                else:
                    conn.send(("error", f"unknown message {kind!r}"))
            except Exception as exc:  # keep the worker alive; report back
                conn.send(
                    _error_payload(
                        exc,
                        spans=obs.drain_events() if config.trace else None,
                        counters=obs.drain_counters(),
                    )
                )
    except (EOFError, KeyboardInterrupt):  # pragma: no cover - parent died
        return
    finally:
        arena.close()


class ShardWorker:
    """Process-backed shard handle: one worker process, one pipe, one
    shared-memory telemetry arena.

    The coordinator overlaps shards by sending every handle its ``run``
    command before collecting any ack.  A knob command does not wait for
    its ack either: the handle counts the acks it is owed and reads them,
    in order, before any reply it waits for, so the worker applies knobs
    while the coordinator plans.  Deployment commands are synchronous:
    :meth:`deploy` raises a refused ticket at the call, and
    :meth:`undeploy` returns the migration ticket.  The handle keeps a
    ticket mirror of the worker's chain set — deployment order is the
    arena's chain row order — plus a generation counter bumped on every
    deploy/undeploy, so :meth:`finish_run` can copy the
    :class:`ShardReport` out of the arena and detect a desynced row map
    instead of mis-attributing telemetry.
    """

    backend = "process"

    def __init__(self, config: ShardConfig, *, mp_context: str | None = None):
        ctx = mp.get_context(mp_context) if mp_context else mp.get_context()
        self.name = config.name
        self.arena = TelemetryArena.create(arena_layout_for(config))
        self._tickets: dict[str, ChainTicket] = {
            ticket.name: ticket for ticket in config.initial_chains
        }
        self._generation = 0
        self._runs = 0
        self._run_span: tuple[int, int] | None = None
        self._in_flight = False
        #: Knob commands sent whose acks are not read yet.
        self._acks_owed = 0
        self._closed = False
        self._conn = None
        self._proc = None
        #: Crash forensics: the opcode awaiting its reply and the last
        #: interval a completed run reached — both reported when the
        #: worker dies without replying.
        self._pending_op: str | None = "spawn"
        self._last_interval = 0
        try:
            parent_conn, child_conn = ctx.Pipe()
            self._conn = parent_conn
            self._proc = ctx.Process(
                target=shard_worker,
                args=(config, child_conn, self.arena.name),
                daemon=True,
            )
            self._proc.start()
            self._recv("ready")
        except BaseException:
            self.close()
            raise

    def _recv(self, expect: str):
        try:
            msg = self._conn.recv()
        except (EOFError, ConnectionResetError):
            # EOF for an orderly peer close, ECONNRESET when the worker
            # process was killed outright mid-command.  Report what the
            # coordinator knows: the opcode whose reply never came and
            # how far the shard had advanced before it died.
            raise RuntimeError(
                f"shard {self.name!r} worker died without replying "
                f"(pending op {self._pending_op!r}, {self._runs} cycle(s) "
                f"completed, last interval {self._last_interval})"
            ) from None
        if msg[0] == "error":
            # A tracing worker's error reply carries its buffered spans
            # and counter deltas — salvage them before raising, so
            # instrumentation up to the crash lands in the trace.
            if len(msg) > 4 and obs.enabled():
                tracer = obs.tracer()
                if tracer is not None and msg[3]:
                    tracer.ingest(msg[3])
                if msg[4]:
                    obs.registry().merge_counters(msg[4])
            detail = msg[1]
            if len(msg) > 2 and msg[2]:
                detail = f"{detail}\n--- worker traceback ---\n{msg[2]}"
            raise RuntimeError(
                f"shard {self.name!r} worker, op {self._pending_op!r}: {detail}"
            )
        if msg[0] != expect:  # pragma: no cover - protocol bug
            raise RuntimeError(f"shard {self.name!r}: expected {expect!r}, got {msg[0]!r}")
        self._pending_op = None
        if len(msg) > 2:
            return tuple(msg[1:])
        return msg[1] if len(msg) > 1 else None

    def _collect_acks(self) -> RuntimeError | None:
        """Read every knob ack owed, in order; returns the first refusal
        among them, if any, once all are read."""
        op = self._pending_op
        refused = None
        while self._acks_owed:
            self._acks_owed -= 1
            self._pending_op = "knobs"
            try:
                self._recv("ok")
            except RuntimeError as exc:
                refused = refused or exc
        self._pending_op = op
        return refused

    def _settle(self) -> None:
        """Before a synchronous command goes out: read the owed knob
        acks, and raise a refused knob command with nothing queued
        behind it."""
        refused = self._collect_acks()
        if refused is not None:
            raise refused

    @property
    def load_rows(self) -> tuple[str, ...]:
        """The chains a run's load block holds, in row order (the
        worker's deployment order, mirrored)."""
        return tuple(self._tickets)

    def begin_run(self, block: LoadBlock) -> None:
        """Dispatch one run command, carrying the shard's load block,
        without waiting for the ack."""
        if self._in_flight:
            raise RuntimeError("previous run not collected")
        self._pending_op = "run"
        self._conn.send(("run", block))
        self._run_span = (block.start, block.pps.shape[-1])
        self._in_flight = True

    def finish_run(self) -> ShardReport:
        """Block for the telemetry ack, then copy the report out of the
        arena.

        The knob acks owed from before the run come first.  A refused
        knob command raises here, once the run's own reply is read and
        booked, so the next run finds the handle in step with its worker.
        """
        if not self._in_flight:
            raise RuntimeError("no run in flight")
        self._in_flight = False
        refused = self._collect_acks()
        try:
            generation, start, n, n_chains = self._recv("telemetry")
        except RuntimeError:
            if refused is None:
                raise
            raise refused
        self._runs += 1
        if (
            generation != self._generation
            or (start, n) != self._run_span
            or n_chains != len(self._tickets)
        ):  # pragma: no cover - protocol bug
            raise RuntimeError(
                f"shard {self.name!r}: telemetry ack out of sync (generation "
                f"{generation}/{self._generation}, span {(start, n)}/"
                f"{self._run_span}, chains {n_chains}/{len(self._tickets)})"
            )
        self._last_interval = start + n
        if refused is not None:
            raise refused
        with obs.span("shard/arena_rebuild", shard=self.name):
            return self._load_report(start, n)

    def _load_report(self, start: int, n: int) -> ShardReport:
        """Arena -> :class:`ShardReport`: one copy per table (the arena's
        reads); names and flows come from the ticket mirror."""
        arena = self.arena
        tickets = self._tickets
        chains = arena.chains()[: len(tickets)]
        nodes = [ticket.node for ticket in tickets.values()]
        if chains[:, 0].tolist() != nodes:  # pragma: no cover - protocol bug
            raise RuntimeError(
                f"shard {self.name!r}: arena chain rows are on nodes "
                f"{chains[:, 0].tolist()}, the ticket mirror's chains "
                f"{list(tickets)} on nodes {nodes}"
            )
        return ShardReport(
            shard=self.name,
            start=start,
            names=tuple(tickets),
            flows=tuple(ticket.flow for ticket in tickets.values()),
            intervals=arena.intervals()[:n],
            chains=chains,
            nodes=arena.nodes(),
        )

    def deploy(self, ticket: ChainTicket) -> None:
        """Deploy a ticketed chain (synchronous; resyncs the row map)."""
        self._settle()
        self._pending_op = "deploy"
        self._conn.send(("deploy", ticket))
        self._recv("ok")
        self._tickets[ticket.name] = ticket
        self._generation += 1
        if obs._ENABLED:
            obs.inc("fleet/arena/generation_bumps")

    def undeploy(self, name: str) -> ChainTicket:
        """Remove a chain; returns its migration ticket (synchronous;
        resyncs the row map)."""
        self._settle()
        self._pending_op = "undeploy"
        self._conn.send(("undeploy", name))
        ticket = self._recv("ticket")
        del self._tickets[name]
        self._generation += 1
        if obs._ENABLED:
            obs.inc("fleet/arena/generation_bumps")
        return ticket

    def set_knobs(self, updates: Mapping[str, Mapping[str, Any]]) -> None:
        """Send per-chain knob settings without waiting for the ack; a
        refused command raises at the handle's next reply."""
        if self._in_flight:
            # Its ack would queue behind the telemetry ack, and owed acks
            # are read first.
            raise RuntimeError("knob command with a run in flight")
        self._conn.send(("knobs", dict(updates)))
        self._acks_owed += 1

    def drain_spans(self) -> tuple[list[dict[str, Any]], dict[str, float]]:
        """Pull the worker's buffered trace events and counter deltas
        (synchronous; coordinator calls this between cycles)."""
        self._settle()
        self._pending_op = "drain_spans"
        self._conn.send(("drain_spans",))
        events, counters = self._recv("spans")
        return events, counters

    def close(self) -> None:
        """Stop the worker, reap its process and reclaim the arena."""
        if self._closed:
            return
        self._closed = True
        try:
            if self._conn is not None:
                # Drain the replies still owed (knob acks, then a pending
                # telemetry ack) first: the stop handshake below would
                # otherwise consume one as its own reply and tear the
                # worker down mid-run.
                owed = self._acks_owed + self._in_flight
                self._acks_owed, self._in_flight = 0, False
                try:
                    for _ in range(owed):
                        if not self._conn.poll(30.0):
                            break
                        self._conn.recv()
                except (EOFError, OSError):
                    pass
                try:
                    self._conn.send(("stop",))
                except (BrokenPipeError, OSError):  # pragma: no cover
                    pass
                else:
                    try:
                        if self._conn.poll(2.0):
                            self._conn.recv()
                    except (EOFError, OSError):  # pragma: no cover
                        pass
            if self._proc is not None:
                self._proc.join(timeout=5.0)
                if self._proc.is_alive():  # pragma: no cover - stuck worker
                    self._proc.terminate()
                    self._proc.join(timeout=2.0)
        finally:
            self.arena.close()
            self.arena.unlink()

    def __enter__(self) -> "ShardWorker":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
