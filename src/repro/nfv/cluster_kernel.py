"""Cluster-wide stepping kernel: one vectorized pass over all nodes.

The SDN steering loop, the multi-node ``Cluster`` scenarios and the
fleet shards step many nodes in lockstep, each node hosting several
chains.  Every hosted chain across the cluster becomes one row of a
single padded super-stack; its load-independent half compiles into one
:class:`~repro.nfv.engine.ChainKernelPlan` per cluster-wide (knobs,
deployment, frame sizes) generation, and a block of intervals is priced
for all rows in one vectorized evaluation.  This kernel is the one place
a diagonal plan is compiled and cached.  When it compiles depends on
how many intervals the caller steps under one configuration:

* :meth:`ClusterKernel.step_block` — a fleet shard's run of n
  intervals.  A run of n >= 2 reuses its configuration within itself,
  so the plan compiles on first sight and every interval is fused;
* :meth:`ClusterKernel.step` — one interval, the block's n = 1 case,
  for the SDN controller, ``Cluster`` and ``MultiChainEnv``.  A
  configuration on first sight runs each node's scalar
  :meth:`~repro.nfv.node.Node.step_all` fold (cheaper than a compile
  for knob-churning control loops that never revisit a setting), and
  the plan compiles on second sight.  That rule is a heuristic, not a
  measured split;
* either way the plan then prices every interval until a
  knob/deployment change (or new frame sizes) invalidates it;
* nodes with incompatible hardware or engine calibration always take
  the per-node path — the kernel only fuses physics it can prove is the
  same.

Node-level bookkeeping (one Fan-model power evaluation per node and
interval, cycle-proportional power attribution, rx-ring and
energy-meter integration in interval order) replays the exact scalar
arithmetic of ``step_all``, so every sample matches the per-node path to
<= 1 ulp (measured 0 ulp; ``tests/test_cluster_kernel.py`` and
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
from repro.nfv.rings import offer_many


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
    rings: tuple  # (R,) FluidRing per row
    chain_meters: tuple  # (R,) EnergyMeter per row
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
    """Per-interval telemetry of one :meth:`ClusterKernel.step_block` call.

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


class ClusterKernel:
    """Steps a fixed set of nodes through one fused kernel pass.

    Owns the one compiled-plan cache.  ``step`` is a drop-in
    replacement for looping ``node.step_all`` over the nodes: it takes
    the union of the nodes' offered traffic (chain names are unique
    across a cluster) and returns the union of their telemetry, with
    identical node-side effects (knob application, CAT repartitioning,
    rings, meters, ``last_sample``).  ``step_block`` advances the same
    state n intervals in one call and returns their per-interval
    arrays.
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
        self._plan_candidate: tuple | None = None
        self._plan_meta: _FusedMeta | None = None
        self._owners_gens: tuple | None = None
        self._owners: dict[str, Node] = {}

    # -- dispatch ----------------------------------------------------------

    def step(
        self,
        offered: dict[str, tuple[float, float]],
        dt_s: float = 1.0,
        *,
        knobs: dict[str, KnobSettings] | None = None,
    ) -> dict[str, TelemetrySample]:
        """Advance every node one control interval in one kernel pass.

        Parameters
        ----------
        offered:
            Mapping chain name -> (offered_pps, packet_bytes) across the
            whole cluster; chains without an entry idle at (0, 1518).
        dt_s:
            Interval length in seconds.
        knobs:
            Optional per-chain settings applied (clamped, repartitioned)
            on the owning nodes before the interval runs.

        Every chain name is checked before any knob is applied, so a
        call that raises ``KeyError`` leaves every node unchanged.
        Returns the union of per-chain telemetry over all nodes.
        """
        if dt_s <= 0:
            raise ValueError("dt must be positive")
        gens = tuple(node._config_gen for node in self.nodes)
        if self._owners_gens != gens:
            self._owners = {
                name: node for node in self.nodes for name in node.chains
            }
            self._owners_gens = gens
        owners = self._owners
        for name in knobs or ():
            if name not in owners:
                raise KeyError(f"no chain {name!r} on this cluster")
        unknown = set(offered) - owners.keys()
        if unknown:
            raise KeyError(f"offered traffic for unknown chains: {sorted(unknown)}")
        if knobs:
            for name, settings in knobs.items():
                owners[name].apply_knobs(name, settings)
            gens = tuple(node._config_gen for node in self.nodes)
            self._owners_gens = gens

        # Flat load/frame columns in node-major deployment order (the
        # exact per-node ordering step_all uses).
        all_loads: list[float] = []
        all_pkts: list[float] = []
        for node in self.nodes:
            for name in node.chains:
                pps, pkt = offered.get(name, (0.0, 1518.0))
                all_loads.append(pps)
                all_pkts.append(pkt)
        if self._compile_on_reuse((gens, tuple(all_pkts)), 1):
            return self._step_fused(all_loads, dt_s).samples
        return self._step_per_node(offered, dt_s)

    def step_block(
        self, names, loads, packet_bytes: float, dt_s: float = 1.0
    ) -> BlockTelemetry:
        """Advance every node n intervals under the current configuration.

        Parameters
        ----------
        names:
            Chain names, one per row of ``loads``; hosted chains not
            named idle at (0, 1518), as in :meth:`step`.
        loads:
            ``(len(names), n)`` offered pps, one column per interval.
        packet_bytes:
            Frame size of every named chain.
        dt_s:
            Interval length in seconds.

        The intervals run in order with :meth:`step`'s arithmetic, so
        the state and the last interval's samples equal n ``step``
        calls, except for when the plan compiles: a block of n >= 2
        intervals compiles on first sight, one interval keeps
        :meth:`step`'s rule.  Returns the per-interval arrays.
        """
        if dt_s <= 0:
            raise ValueError("dt must be positive")
        loads = np.asarray(loads, dtype=np.float64)
        if loads.ndim != 2 or loads.shape[0] != len(names) or loads.shape[1] < 1:
            raise ValueError("need a (chains, intervals >= 1) load block")
        column = {name: i for i, name in enumerate(names)}
        if len(column) != len(names):
            raise ValueError("duplicate chain names in the load block")
        rows = [name for node in self.nodes for name in node.chains]
        unknown = column.keys() - set(rows)
        if unknown:
            raise KeyError(f"offered traffic for unknown chains: {sorted(unknown)}")
        key = (
            tuple(node._config_gen for node in self.nodes),
            tuple([packet_bytes if name in column else 1518.0 for name in rows]),
        )
        cols = [column.get(name, len(names)) for name in rows]
        n = loads.shape[1]
        row_loads = np.ascontiguousarray(
            np.concatenate([loads, np.zeros((1, n))])[cols].T
        )
        if self._compile_on_reuse(key, n):
            return self._step_fused(row_loads, dt_s)
        return self._block_per_node(rows, row_loads, key[1], dt_s)

    def _compile_on_reuse(self, key, n: int) -> bool:
        """Plan-cache dispatch for n intervals under configuration ``key``.

        Returns whether the fused plan prices them, compiling it first
        when the configuration is reused: on its second sight, or at
        once for a block of n >= 2 intervals, which reuses it within
        itself.  One interval on first sight takes the scalar per-node
        fold instead.

        Cross-chain contention derives from (generation, frame sizes),
        so the cache keys on exactly those.  This dispatch (not the
        fused fold) is the sanctioned instrumentation point: every
        interval counts as one plan-cache lookup (``hit``, ``miss`` or
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
        if self._plan_candidate == key or n > 1:
            if obs._ENABLED:
                obs.inc("kernel/plan_cache/promote")
                if n > 1:
                    obs.inc("kernel/plan_cache/hit", n - 1)
                with obs.span("kernel/compile", rows=len(key[1])):
                    self._compile(key)
            else:
                self._compile(key)
            return True
        if obs._ENABLED:
            obs.inc("kernel/plan_cache/miss")
        self._plan_candidate = key
        return False

    def _step_per_node(self, offered, dt_s) -> dict[str, TelemetrySample]:
        """Cold path: each node steps through its own ``step_all``."""
        samples: dict[str, TelemetrySample] = {}
        for node in self.nodes:
            node_offered = {
                name: offered[name] for name in node.chains if name in offered
            }
            samples.update(node.step_all(node_offered, dt_s))
        return samples

    def _block_per_node(self, rows, row_loads, row_pkts, dt_s) -> BlockTelemetry:
        """Cold path for a block: interval by interval through ``step_all``."""
        n = len(row_loads)
        fields = np.empty((n, len(rows), 4))
        node_joules = np.empty((n, len(self.nodes)))
        samples: dict[str, TelemetrySample] = {}
        for i, loads in enumerate(row_loads.tolist()):
            samples = self._step_per_node(dict(zip(rows, zip(loads, row_pkts))), dt_s)
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
        :meth:`~repro.nfv.node.Node.fold_inputs`, ring/meter handles,
        the row-to-node layout) is collected here.
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
            rings=tuple(h.rx_ring for h in hosted_rows),
            chain_meters=tuple(h.meter for h in hosted_rows),
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

        ``loads`` is ``(n, R)``, one row per interval, or ``(R,)`` for
        :meth:`step`'s one interval (the returned arrays then lack the
        interval axis).  The fold replays ``step_all``'s scalar
        bookkeeping for every interval — the same float operations in
        the same order — with the elementwise parts as array ops over
        the whole block (elementwise numpy matches the scalar operations
        bit for bit), the order-sensitive per-node sums as left folds,
        and every node's Fan-model power in one batched call.  Rings and
        meters integrate the intervals in order, and each object is
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
        achieved_dt = np.multiply(multi.achieved_pps, dt_s, out=rows[..., 2, :])
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

        # Rx rings and energy meters integrate the intervals in order.
        offer_many(
            meta.rings,
            np.minimum(multi.offered_pps, multi.achieved_pps + multi.dropped_pps),
            np.maximum(multi.achieved_pps, 1.0),
            dt_s,
        )
        node_joules = record_many(meta.node_meters, power_nodes, dt_s, packets)
        record_many(meta.chain_meters, multi.power_w, dt_s, achieved_dt)

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
