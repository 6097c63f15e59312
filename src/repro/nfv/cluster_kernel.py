"""Cluster-wide stepping kernel: one vectorized pass over all nodes.

The SDN steering loop and the fleet shards step many nodes in
lockstep, each node hosting several chains.  Every hosted chain across the cluster becomes one row of a
single padded super-stack; its load-independent half compiles into one
:class:`~repro.nfv.engine.ChainKernelPlan` per cluster-wide (knobs,
deployment, frame sizes) generation, and a block of intervals is priced
for all rows in one vectorized evaluation.  This kernel is the one place
a diagonal plan is compiled and cached.

:meth:`ClusterKernel.step` is the only entry point.  The in-process
shards of a fleet share one kernel over all their nodes and hand it one
run of ``sync_every`` intervals per coordinator cycle
(:func:`~repro.fleet.shard.run_shards`); a shard worker process hands
its own kernel its own shard's run, and the SDN controller a block of
one.  Every configuration compiles on first
sight, and the plan then prices every interval until a knob/deployment
change (or new frame sizes) on any of its nodes invalidates it.
Measured for one interval on a 2-CPU x86-64 box, the per-node scalar
fold costs 0.09-0.39 ms on clusters of at most 4 chains against a
0.49-0.62 ms compile, 2.2-2.3 ms at 8 nodes x 4 chains against
0.74-0.90 ms, and 8.7-9.7 ms at 32 x 4 against 1.36-1.64 ms: a compile
pays for itself from mid-sized clusters on, and costs a small one at
most about 0.5 ms per configuration.  Nodes with incompatible hardware
or engine calibration always take the per-node path — the kernel only
fuses physics it can prove is the same.

A row prices the same whichever rows share its plan, and a node's fold
reads only its own rows, so a shard's slice of a shared pass equals
its own kernel's pass bit for bit.  One limit comes from the NF axis:
rows are padded to the longest chain, and numpy sums that axis pairwise
once it is 8 or more lanes wide.  Padding is exact at any width for
rows of at most 3 NFs; a row of 4 or more NFs is exact only while the
longest row has fewer than 8 NFs (measured: 4- to 7-NF rows first
change when padded to width 8).  Fleet chains have 2-3 NFs
(``tests/test_fleet_group.py`` pins both sides of the limit).

Node-level bookkeeping (one Fan-model power evaluation per node and
interval, cycle-proportional power attribution, node energy-meter
integration in interval order) replays the exact scalar arithmetic of
``step_all``, so every sample matches the per-node path to <= 1 ulp
(measured 0 ulp; ``tests/test_cluster_kernel.py`` and
``tests/test_shard_block.py`` pin it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.hw.power import record_many
from repro.nfv.engine import ChainKernelPlan, TelemetrySample, chain_stack
from repro.nfv.knobs import KnobSettings
from repro.nfv.node import Node


def left_sums(terms, start=0.0) -> np.ndarray:
    """Left-to-right sums over the last axis: ``((start + t0) + t1) + ...``.

    The order of the scalar folds' ``+=`` loops.  ``np.sum`` adds
    pairwise and Python >= 3.12's ``sum`` compensates, so either would
    round differently.  ``np.add.accumulate`` keeps every partial sum,
    so it adds exactly one term at a time.
    """
    terms = np.asarray(terms, dtype=np.float64)
    acc = np.empty(terms.shape[:-1] + (terms.shape[-1] + 1,))
    acc[..., 0] = start
    acc[..., 1:] = terms
    return np.add.accumulate(acc, axis=-1)[..., -1]


def one_interval(offered) -> tuple[list, np.ndarray, list]:
    """``{name: (pps, packet_bytes)}`` as :meth:`ClusterKernel.step`'s
    ``(names, loads, packet_bytes)`` for a block of one interval."""
    return (
        list(offered),
        np.array([pps for pps, _ in offered.values()]).reshape(-1, 1),
        [pkt for _, pkt in offered.values()],
    )


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
    """Knob/deployment-static constants cached with the compiled plan.

    Everything here depends only on the (knobs, deployment, frame sizes)
    generation the plan was compiled for — never on the interval's
    offered loads — so the fused step can skip the per-node Python
    rebuild ``step_all`` performs each interval.  The per-node fold
    inputs (the infra busy cores in ``infra_rows`` and ``fold_start``,
    ``allocated_totals``, ``freq_means``) come from
    :meth:`~repro.nfv.node.Node.fold_inputs`, the method ``step_all``
    reads, preserving bit-compatibility.
    """

    names: tuple[str, ...]
    hosted_rows: tuple  # (R,) HostedChain per row
    node_meters: tuple  # (N,) EnergyMeter per node
    owner: np.ndarray  # (R,) owning node index per row
    slot: np.ndarray  # (R,) position of each row on its node
    width: int  # most chains on one node
    infra_rows: np.ndarray  # (R,) owning node's infra_busy per row
    fold_start: np.ndarray  # (3, N) infra_busy, 0, 0: starts of the node folds
    allocated_totals: np.ndarray  # (N,)
    freq_means: np.ndarray  # (N,)

    def node_sums(self, rows: np.ndarray, start) -> np.ndarray:
        """Each node's :func:`left_sums` over its rows in deployment
        order, ``(..., R) -> (..., N)``: the order of ``step_all``'s
        ``+=`` folds (zero padding ends a short node's fold exactly)."""
        terms = np.zeros(rows.shape[:-1] + (len(self.node_meters), self.width))
        terms[..., self.owner, self.slot] = rows
        return left_sums(terms, start)


@dataclass
class BlockTelemetry:
    """Per-interval telemetry of one :meth:`ClusterKernel.step` call.

    Row arrays are ``(n, R)``, one row per interval and one column per
    hosted chain in the kernel's row order (node by node, deployment
    order within a node).  They are the fields the
    :mod:`repro.core.sla` predicates read, so ``sla.satisfied(block)``
    is the ``(n, R)`` outcome.  :class:`TelemetrySample` objects are
    built for the last interval only.
    """

    dt_s: float
    achieved_pps: np.ndarray  # (n, R)
    throughput_gbps: np.ndarray  # (n, R)
    energy_j: np.ndarray  # (n, R)
    latency_s: np.ndarray  # (n, R)
    node_joules: np.ndarray  # (n, N) each node meter's total after each interval
    samples: dict[str, TelemetrySample]  # the last interval's, by chain name

    def part(self, rows: slice, nodes: slice) -> "BlockTelemetry":
        """The telemetry of a contiguous run of rows and of node columns:
        one shard's share of a pass over several shards' nodes."""
        names = list(self.samples)[rows]
        return BlockTelemetry(
            self.dt_s,
            self.achieved_pps[:, rows],
            self.throughput_gbps[:, rows],
            self.energy_j[:, rows],
            self.latency_s[:, rows],
            self.node_joules[:, nodes],
            {name: self.samples[name] for name in names},
        )


class ClusterKernel:
    """Steps a fixed set of nodes through one fused kernel pass.

    Owns the one compiled-plan cache.  ``step`` replaces n rounds of
    looping ``node.step_all`` over the nodes: it takes the union of the
    nodes' offered traffic (chain names are unique across a cluster)
    for a block of n intervals and returns their per-interval arrays
    plus the last interval's telemetry, with identical node-side
    effects (node meters, ``last_sample``).
    """

    def __init__(self, nodes):
        seen: list[Node] = []
        for node in nodes:
            if not any(node is n for n in seen):
                seen.append(node)
        if not seen:
            raise ValueError("cluster kernel needs at least one node")
        self.nodes: list[Node] = seen
        self._fusable = engines_compatible(self.nodes)
        self._plan: ChainKernelPlan | None = None
        self._plan_key: tuple | None = None
        self._plan_meta: _FusedMeta | None = None

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
        with ``step_all``'s arithmetic, so the state and the last
        interval's samples equal n per-node ``step_all`` loops.  Returns
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
        rows = [name for node in self.nodes for name in node.chains]
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
        if self._fuse((tuple(node._config_gen for node in self.nodes), row_pkts), n):
            return self._step_fused(row_loads, dt_s)
        return self._block_per_node(rows, row_loads, row_pkts, dt_s)

    def _fuse(self, key, n: int) -> bool:
        """Plan-cache dispatch for n intervals under configuration ``key``.

        Returns whether the fused plan prices them, compiling it on a
        configuration's first sight; mismatched hardware (or no hosted
        chain) takes the per-node path instead.

        Cross-chain contention derives from (generation, frame sizes),
        so the cache keys on exactly those.  This dispatch (not the
        fused fold) is the sanctioned instrumentation point: every
        interval counts as one plan-cache lookup (``hit`` or
        ``fallback``; a compile counts as ``promote`` and the rest of
        its block as hits), and the compile runs in a span, while
        ``_step_fused`` stays observation-free (KRN002 hot path).
        """
        if not self._fusable or not key[1]:
            if obs._ENABLED:
                obs.inc("kernel/plan_cache/fallback", n)
            return False
        if self._plan_key == key:
            if obs._ENABLED:
                obs.inc("kernel/plan_cache/hit", n)
            return True
        if obs._ENABLED:
            obs.inc("kernel/plan_cache/promote")
            if n > 1:
                obs.inc("kernel/plan_cache/hit", n - 1)
            with obs.span("kernel/compile", rows=len(key[1])):
                self._compile(key)
        else:
            self._compile(key)
        return True

    def _block_per_node(self, rows, row_loads, row_pkts, dt_s) -> BlockTelemetry:
        """Cold path: interval by interval, each node through ``step_all``."""
        n = len(row_loads)
        fields = np.empty((n, len(rows), 4))
        node_joules = np.empty((n, len(self.nodes)))
        for i, loads in enumerate(row_loads.tolist()):
            offered = dict(zip(rows, zip(loads, row_pkts)))
            samples: dict[str, TelemetrySample] = {}
            for node in self.nodes:
                samples.update(
                    node.step_all({name: offered[name] for name in node.chains}, dt_s)
                )
            for r, name in enumerate(rows):
                sample = samples[name]
                fields[i, r] = (
                    sample.achieved_pps,
                    sample.throughput_gbps,
                    sample.energy_j,
                    sample.latency_s,
                )
            node_joules[i] = [node.meter.total_joules for node in self.nodes]
        achieved, throughput, energy, latency = np.moveaxis(fields, -1, 0)
        return BlockTelemetry(
            dt_s, achieved, throughput, energy, latency, node_joules, samples
        )

    # -- the fused path ----------------------------------------------------

    def _compile(self, key) -> None:
        """Build the cluster-wide plan: one super-stack over all nodes.

        Alongside the compiled physics, every knob/deployment-static
        quantity the fold needs (each node's
        :meth:`~repro.nfv.node.Node.fold_inputs`, the node meters, the
        row-to-node layout) is collected here.
        """
        _gens, all_pkts = key
        chains: list = []
        knobs: list[KnobSettings] = []
        grants: list[float] = []
        contention = np.empty(len(all_pkts), dtype=np.float64)
        names: list[str] = []
        hosted_rows: list = []
        owner: list[int] = []
        slot: list[int] = []
        n_nodes = len(self.nodes)
        infra_busy = np.empty(n_nodes, dtype=np.float64)
        allocated_totals = np.empty(n_nodes, dtype=np.float64)
        freq_means = np.empty(n_nodes, dtype=np.float64)
        row = 0
        for j, node in enumerate(self.nodes):
            start = row
            for name, hosted in node.chains.items():
                chains.append(hosted.chain)
                knobs.append(hosted.knobs)
                grants.append(node.cache.allocated_bytes(name))
                names.append(name)
                hosted_rows.append(hosted)
                owner.append(j)
            slot.extend(range(len(node.chains)))
            row += len(node.chains)
            contention[start:row] = (
                node.contention_for(all_pkts[start:row]) if node.chains else 1.0
            )
            infra_busy[j], allocated_totals[j], freq_means[j] = node.fold_inputs()
        engine = self.nodes[0].engine
        stack = chain_stack(tuple(chains), all_pkts, engine.server.llc.line_bytes)
        self._plan = engine.compile_chains(
            stack, knobs, llc_bytes=grants, contention=contention
        )
        self._plan_key = key
        owner_arr = np.asarray(owner, dtype=np.intp)
        self._plan_meta = _FusedMeta(
            names=tuple(names),
            hosted_rows=tuple(hosted_rows),
            node_meters=tuple(node.meter for node in self.nodes),
            owner=owner_arr,
            slot=np.asarray(slot, dtype=np.intp),
            width=max(slot) + 1,
            infra_rows=infra_busy[owner_arr],
            fold_start=np.stack([infra_busy, np.zeros(n_nodes), np.zeros(n_nodes)]),
            allocated_totals=allocated_totals,
            freq_means=freq_means,
        )

    def _step_fused(self, loads, dt_s) -> BlockTelemetry:
        """Warm path: price a block of intervals at once, then fold per node.

        ``loads`` is ``(n, R)``, one row per interval.  The fold replays ``step_all``'s scalar
        bookkeeping for every interval — the same float operations in
        the same order — with the elementwise parts as array ops over
        the whole block (elementwise numpy matches the scalar operations
        bit for bit), the order-sensitive per-node sums as left folds,
        and every node's Fan-model power in one batched call.  The node
        meters integrate the intervals in order, and each meter is
        written back once per block.
        """
        plan = self._plan
        meta = self._plan_meta
        multi = plan.step(loads, dt_s, include_power=False)
        busy = multi.cpu_cores_busy
        # step_all's three per-node sums, each a left fold over the
        # node's chains in deployment order: busy cores
        # ``infra + max(0, busy_r - infra) + ...``, cycle weights and
        # packets (both from zero).
        rows = np.empty(busy.shape[:-1] + (3, busy.shape[-1]))
        np.maximum(0.0, busy - meta.infra_rows, out=rows[..., 0, :])
        weights = np.maximum(busy, 1e-9, out=rows[..., 1, :])
        np.multiply(multi.achieved_pps, dt_s, out=rows[..., 2, :])
        sums = meta.node_sums(rows, meta.fold_start)
        busy_totals, wsums, packets = sums[..., 0, :], sums[..., 1, :], sums[..., 2, :]

        # One batched Fan-model evaluation across nodes and intervals.
        engine = self.nodes[0].engine
        power_nodes = np.asarray(
            engine.node_power(busy_totals, meta.allocated_totals, meta.freq_means)
        )
        energy_nodes = power_nodes * dt_s

        # Cycle-proportional attribution: share_r = w_r / wsum_node, then
        # power * share and (power * dt) * share exactly as step_all
        # computes them (weights >= 1e-9, so wsum is always positive).
        shares = weights / wsums[..., meta.owner]
        multi.power_w = power_nodes[..., meta.owner] * shares
        multi.energy_j = energy_nodes[..., meta.owner] * shares

        node_joules = record_many(meta.node_meters, power_nodes, dt_s, packets)

        last = multi.samples()
        # repro-lint: allow[KRN002] per-chain sample handoff mutates hosted objects, once per block
        for hosted, sample in zip(meta.hosted_rows, last):
            hosted.last_sample = sample
        return BlockTelemetry(
            dt_s=dt_s,
            achieved_pps=multi.achieved_pps,
            throughput_gbps=multi.throughput_gbps,
            energy_j=multi.energy_j,
            latency_s=multi.latency_s,
            node_joules=node_joules,
            samples=dict(zip(meta.names, last)),
        )
