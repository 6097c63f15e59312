"""Cluster-wide stepping kernel: one vectorized pass over all nodes.

The fleet shards step many nodes in lockstep, each node hosting several
chains.  Every hosted chain across the cluster becomes one row of a
single padded super-stack; its load-independent half compiles into one
:class:`~repro.nfv.engine.ChainKernelPlan` per cluster-wide (knobs,
deployment, frame sizes) generation, and a block of intervals is priced
for all rows in one vectorized evaluation.  This kernel is the one place
a diagonal plan is compiled and cached.

:meth:`ClusterKernel.step` is the only entry point.  The in-process
shards of a fleet share one kernel over all their nodes and hand it one
run of ``sync_every`` intervals per coordinator cycle
(:func:`~repro.fleet.shard.run_shards`); a shard worker process hands
its own kernel its own shard's run.  Single-cluster loops (the
environments, ``run_controller``, the SDN controller) step their nodes
through :meth:`Node.step_all <repro.nfv.node.Node.step_all>` instead.

The plan is cached in two halves.  The deployment half (the chain
stack and the node layout of the rows) is rebuilt only when a node's
chain set or the frame sizes change.  The knob half is recomputed
whenever a node's knob generation moves, from the nodes' chain tables
concatenated in row order: every node's contention and power-fold
inputs (:func:`~repro.nfv.node.node_folds`) and the physics, through
``compile_chains``' ``(R, 5)`` array path.  On a 2-CPU x86-64 box, at
32 nodes x 4 chains, a knob-only compile takes 0.32 ms, a full one 0.54
ms and an interval of stepping 0.22 ms.  The kernel only fuses physics
it can prove is the same: nodes of mismatched hardware or engine
calibration are refused at construction (:func:`engines_compatible`).

A row prices the same whichever rows share its plan: rows are padded to
the longest chain, and every sum over the NF lanes is a left fold, which
padded zero lanes leave exact at any width.  A node's fold reads only
its own rows, so a shard's slice of a shared pass equals its own
kernel's pass bit for bit.  A cluster that hosts no chain steps the
same fold with zero rows, each node metered at its infra power.

Node-level bookkeeping (one Fan-model power evaluation per node and
interval, cycle-proportional power attribution, node energy-meter
integration in interval order) replays the exact scalar arithmetic of
``step_all``, so every returned row and node meter matches a per-node
``step_all`` loop bit for bit (``tests/test_cluster_kernel.py`` and
``tests/test_shard_block.py`` pin it).  The exception is the Fan
model's frequency cube, which numpy's array power and its scalar power
round 1 ulp apart at some mean frequencies: node power then differs by
1 ulp, and a chain's attributed share by up to 2.  The kernel returns
arrays only, no per-chain sample objects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.hw.power import record_many
from repro.nfv.engine import ChainKernelPlan, ChainStack, stack_profiles
from repro.nfv.node import GRANT, Node, node_folds
from repro.utils.stats import left_sums


def row_names(nodes) -> list[str]:
    """The kernel's row order over ``nodes``: every hosted chain, node by
    node, in deployment order within a node.  A block's ``(n, R)`` rows
    follow it."""
    return [name for node in nodes for name in node.chains]


def engines_compatible(nodes) -> bool:
    """Whether all nodes' physics can be fused into one kernel pass.

    The fused plan evaluates every row against one engine's calibration
    and hardware curves, so the nodes must agree on the engine
    parameters, polling mode, CAT/parking policy and every
    physics-bearing hardware spec (CPU, LLC, NIC, DMA, power model).
    Cosmetic spec fields (name, memory, OS string) may differ.
    """
    if not nodes:
        return False
    first = nodes[0]
    e0, s0 = first.engine, first.server
    for node in nodes[1:]:
        e, s = node.engine, node.server
        if (
            e.params != e0.params
            or e.polling != e0.polling
            or e.cat_enabled != e0.cat_enabled
            or e.park_idle_cores != e0.park_idle_cores
        ):
            return False
        if (s.cpu, s.llc, s.nic, s.dma, s.power) != (
            s0.cpu,
            s0.llc,
            s0.nic,
            s0.dma,
            s0.power,
        ):
            return False
    return True


@dataclass(frozen=True)
class _FusedMeta:
    """The deployment half of the plan cache.

    Everything here depends only on which chains the nodes host, in
    what order and at which frame sizes, so a knob-only change keeps
    it: the chain stack, the row layout (row ``r`` is chain ``slot[r]``
    of node ``owner[r]``), the node meters, and the infra busy cores
    that start each node's folds.
    """

    stack: ChainStack | None  # None when no node hosts a chain
    owner: np.ndarray  # (R,) owning node index per row
    slot: np.ndarray  # (R,) position of each row on its node
    counts: np.ndarray  # (N,) chains per node
    width: int  # most chains on one node (0 when none hosts a chain)
    pkts: np.ndarray  # (R,) frame size per row
    node_meters: tuple  # (N,) EnergyMeter per node
    infra_rows: np.ndarray  # (R,) owning node's infra_busy per row
    fold_start: np.ndarray  # (3, N) infra_busy, 0, 0: starts of the node folds

    def node_rows(self, rows: np.ndarray) -> np.ndarray:
        """``(..., R) -> (..., N, width)``: each node's rows in deployment
        order, zero past its last."""
        out = np.zeros(rows.shape[:-1] + (len(self.node_meters), self.width))
        out[..., self.owner, self.slot] = rows
        return out


@dataclass
class BlockTelemetry:
    """Per-interval telemetry of one :meth:`ClusterKernel.step` call.

    Row arrays are ``(n, R)``, one row per interval and one column per
    hosted chain in the kernel's row order (:func:`row_names`).  ``achieved_pps`` through ``latency_s`` are
    the fields the :mod:`repro.core.sla` predicates read, so
    ``sla.satisfied(block)`` is the ``(n, R)`` outcome; ``power_w`` is
    each chain's attributed share of its node's power and
    ``utilization`` its bottleneck NF's utilization.
    """

    dt_s: float
    achieved_pps: np.ndarray  # (n, R)
    throughput_gbps: np.ndarray  # (n, R)
    energy_j: np.ndarray  # (n, R)
    latency_s: np.ndarray  # (n, R)
    power_w: np.ndarray  # (n, R)
    utilization: np.ndarray  # (n, R) the max over each row's NFs
    node_joules: np.ndarray  # (n, N) each node meter's total after each interval

    def part(self, rows: slice, nodes: slice) -> "BlockTelemetry":
        """The telemetry of a contiguous run of rows and of node columns:
        one shard's share of a pass over several shards' nodes."""
        return BlockTelemetry(
            self.dt_s,
            self.achieved_pps[:, rows],
            self.throughput_gbps[:, rows],
            self.energy_j[:, rows],
            self.latency_s[:, rows],
            self.power_w[:, rows],
            self.utilization[:, rows],
            self.node_joules[:, nodes],
        )


class ClusterKernel:
    """Steps a fixed set of nodes through one fused kernel pass.

    Owns the one compiled-plan cache.  ``step`` replaces n rounds of
    looping ``node.step_all`` over the nodes: it takes the union of the
    nodes' offered traffic (chain names are unique across a cluster)
    for a block of n intervals and returns their per-interval arrays,
    with the same node-side effect (the node meters).  Nodes whose
    physics the fused plan cannot share (:func:`engines_compatible`) are
    refused.
    """

    def __init__(self, nodes):
        seen: list[Node] = []
        for node in nodes:
            if not any(node is n for n in seen):
                seen.append(node)
        if not seen:
            raise ValueError("cluster kernel needs at least one node")
        if not engines_compatible(seen):
            raise ValueError(
                "cluster kernel nodes must share engine parameters, polling, "
                "CAT, core parking and hardware specs"
            )
        self.nodes: list[Node] = seen
        self._plan: ChainKernelPlan | None = None
        self._plan_key: tuple | None = None
        self._power_inputs: tuple | None = None
        self._plan_meta: _FusedMeta | None = None
        self._meta_key: tuple | None = None

    # -- dispatch ----------------------------------------------------------

    def step(self, names, loads, packet_bytes, dt_s: float = 1.0) -> BlockTelemetry:
        """Advance every node n intervals under the current configuration.

        Parameters
        ----------
        names:
            Chain names, one per row of ``loads``; hosted chains not
            named idle at (0, 1518).
        loads:
            ``(len(names), n)`` offered pps, one column per interval.
        packet_bytes:
            One frame size for every named chain, or one per name.
        dt_s:
            Interval length in seconds.

        Every argument is checked before any state changes: unknown or
        duplicate names, NaN or negative loads and frame sizes that are
        not finite and positive all raise.  The intervals run in order
        with ``step_all``'s arithmetic, so the node meters and every
        returned row equal n per-node ``step_all`` loops, power and
        energy within the frequency-cube ulps the module notes.  Returns
        the per-interval arrays.
        """
        if not dt_s > 0:
            raise ValueError("dt must be positive")
        loads = np.asarray(loads, dtype=np.float64)
        if loads.ndim != 2 or loads.shape[0] != len(names) or loads.shape[1] < 1:
            raise ValueError("need a (chains, intervals >= 1) load block")
        if not (loads >= 0).all():
            raise ValueError("offered rates must be non-negative")
        pkts = np.asarray(packet_bytes, dtype=np.float64)
        if pkts.ndim and pkts.shape != (len(names),):
            raise ValueError("need one frame size, or one per chain name")
        pad = pkts.tolist() if pkts.ndim else [pkts.item()] * len(names)
        if not all(0 < p < np.inf for p in set(pad)):
            raise ValueError("frame sizes must be finite and positive")
        column = {name: i for i, name in enumerate(names)}
        if len(column) != len(names):
            raise ValueError("duplicate chain names in the load block")
        rows = row_names(self.nodes)
        # Each row's column; unnamed rows read the idle pad after the
        # last, and the names left in ``column`` are hosted nowhere.
        cols = [column.pop(name, len(names)) for name in rows]
        if column:
            raise KeyError(f"offered traffic for unknown chains: {sorted(column)}")
        pad.append(1518.0)
        row_pkts = tuple([pad[c] for c in cols])
        n = loads.shape[1]
        row_loads = np.ascontiguousarray(
            np.concatenate([loads, np.zeros((1, n))])[cols].T
        )
        self._fuse((tuple(node._config_gen for node in self.nodes), row_pkts), n)
        return self._step_fused(row_loads, dt_s)

    def _fuse(self, key, n: int) -> None:
        """Plan-cache dispatch for n intervals under configuration ``key``,
        compiling the plan on a configuration's first sight.

        Cross-chain contention derives from (generation, frame sizes),
        so the cache keys on exactly those.  This dispatch (not the
        fused fold) is the sanctioned instrumentation point: every
        interval counts as one plan-cache lookup (``hit``; a compile
        counts as ``promote`` and the rest of its block as hits), and
        the compile runs in a span, while ``_step_fused`` stays
        observation-free (KRN002 hot path).
        """
        if self._plan_key == key:
            if obs._ENABLED:
                obs.inc("kernel/plan_cache/hit", n)
            return
        if obs._ENABLED:
            obs.inc("kernel/plan_cache/promote")
            if n > 1:
                obs.inc("kernel/plan_cache/hit", n - 1)
            with obs.span("kernel/compile", rows=len(key[1])):
                self._compile(key)
        else:
            self._compile(key)

    # -- the fused path ----------------------------------------------------

    def _compile(self, key) -> None:
        """Build the plan's knob half from the nodes' tables, and its
        deployment half (:class:`_FusedMeta`) only when a node's chain
        set or the frame sizes changed.  A cluster that hosts no chain
        has no plan, only the fold's node inputs."""
        _gens, row_pkts = key
        deployment = (tuple(node._deploy_gen for node in self.nodes), row_pkts)
        if self._meta_key != deployment:
            self._compile_meta(row_pkts)
            self._meta_key = deployment
        meta = self._plan_meta
        engine = self.nodes[0].engine
        table = np.concatenate([node.table for node in self.nodes])
        # node_folds reads row k of every node at once: (width, ..., N).
        slots, pkts = (np.moveaxis(meta.node_rows(a), -1, 0) for a in (table.T, meta.pkts))
        contention, allocated, freq = node_folds(slots, pkts, meta.counts, engine)
        self._power_inputs = (allocated, freq)
        self._plan = None
        if meta.stack is not None:
            self._plan = engine.compile_chains(
                meta.stack,
                table[:, :5],
                llc_bytes=table[:, GRANT],
                contention=contention[meta.owner],
            )
        self._plan_key = key

    def _compile_meta(self, row_pkts) -> None:
        """Stack the hosted chains at their frame sizes and lay the rows
        out node by node."""
        hosted = [h for node in self.nodes for h in node.chains.values()]
        counts = np.array([len(node.chains) for node in self.nodes])
        owner = np.repeat(np.arange(len(counts)), counts)
        # A row's position on its node: its index past the node's first row.
        slot = np.arange(len(owner)) - np.searchsorted(owner, owner)
        infra_busy = np.array([node.engine.infra_busy for node in self.nodes])
        zeros = np.zeros(len(self.nodes))
        line = self.nodes[0].engine.server.llc.line_bytes
        self._plan_meta = _FusedMeta(
            stack=stack_profiles(h.profile(p, line) for h, p in zip(hosted, row_pkts))
            if hosted
            else None,
            owner=owner,
            slot=slot,
            counts=counts,
            width=int(counts.max(initial=0)),
            pkts=np.array(row_pkts, dtype=np.float64),
            node_meters=tuple(node.meter for node in self.nodes),
            infra_rows=infra_busy[owner],
            fold_start=np.stack([infra_busy, zeros, zeros]),
        )

    def _step_fused(self, loads, dt_s) -> BlockTelemetry:
        """Price a block of intervals at once, then fold per node.

        ``loads`` is ``(n, R)``, one row per interval.  The fold replays
        ``step_all``'s scalar bookkeeping for every interval — the same
        float operations in the same order — with the elementwise parts
        as array ops over the whole block (elementwise numpy matches the
        scalar operations bit for bit), the order-sensitive per-node
        sums as left folds, and every node's Fan-model power in one
        batched call.  The node meters integrate the intervals in order,
        and each meter is written back once per block.
        """
        plan, meta = self._plan, self._plan_meta
        allocated, freq = self._power_inputs
        if plan is None:
            # No hosted chain: zero rows, and each node meters its infra power.
            busy = achieved = loads
        else:
            multi = plan.step(loads, dt_s, include_power=False)
            busy, achieved = multi.cpu_cores_busy, multi.achieved_pps
        # step_all's three per-node sums, each a left fold over the
        # node's chains in deployment order: busy cores
        # ``infra + max(0, busy_r - infra) + ...``, cycle weights and
        # packets (both from zero).  Zero padding ends a short node's
        # fold exactly.
        rows = np.empty(busy.shape[:-1] + (3, busy.shape[-1]))
        np.maximum(0.0, busy - meta.infra_rows, out=rows[..., 0, :])
        weights = np.maximum(busy, 1e-9, out=rows[..., 1, :])
        np.multiply(achieved, dt_s, out=rows[..., 2, :])
        sums = left_sums(meta.node_rows(rows), meta.fold_start)
        busy_totals, wsums, packets = sums[..., 0, :], sums[..., 1, :], sums[..., 2, :]

        # One batched Fan-model evaluation across nodes and intervals.
        engine = self.nodes[0].engine
        power_nodes = np.asarray(
            engine.node_power(busy_totals, allocated, freq)
        )
        node_joules = record_many(meta.node_meters, power_nodes, dt_s, packets)
        if plan is None:
            return BlockTelemetry(dt_s, *[loads] * 6, node_joules)

        # Cycle-proportional attribution: share_r = w_r / wsum_node, then
        # power * share and (power * dt) * share exactly as step_all
        # computes them (weights >= 1e-9, so wsum is always positive).
        shares = weights / wsums[..., meta.owner]
        row_power = power_nodes[..., meta.owner]
        return BlockTelemetry(
            dt_s=dt_s,
            achieved_pps=achieved,
            throughput_gbps=multi.throughput_gbps,
            energy_j=row_power * dt_s * shares,
            latency_s=multi.latency_s,
            power_w=row_power * shares,
            utilization=multi.nf_utilization.max(axis=-1),
            node_joules=node_joules,
        )
