"""Cluster-wide stepping kernel: one vectorized pass over all nodes.

The SDN steering loop, the multi-node ``Cluster`` scenarios and the
fleet shards step many nodes in lockstep, each node hosting several
chains.  Every hosted chain across the cluster becomes one row of a
single padded super-stack; its load-independent half compiles into one
:class:`~repro.nfv.engine.ChainKernelPlan` per cluster-wide (knobs,
deployment, frame sizes) generation, and an interval is priced for all
rows in one vectorized evaluation.  This kernel is the one place a
diagonal plan is compiled and cached:

* a configuration on first sight runs each node's scalar
  :meth:`~repro.nfv.node.Node.step_all` fold (cheaper than a compile
  for knob-churning control loops that never revisit a setting);
* on second sight the cluster-wide plan compiles and prices every
  subsequent interval until a knob/deployment change (or new frame
  sizes) invalidates it;
* nodes with incompatible hardware or engine calibration always take
  the per-node path — the kernel only fuses physics it can prove is the
  same.

Node-level bookkeeping (one Fan-model power evaluation per node,
cycle-proportional power attribution, rx-ring and energy-meter
integration) replays the exact scalar arithmetic of ``step_all``, so
every sample matches the per-node path to <= 1 ulp (measured 0 ulp;
``tests/test_cluster_kernel.py`` pins it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.nfv.engine import ChainKernelPlan, TelemetrySample, chain_stack
from repro.nfv.knobs import KnobSettings
from repro.nfv.node import Node
from repro.nfv.rings import offer_many


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
    inputs (``infra_busy``, ``allocated_totals``, ``freq_means``) come
    from :meth:`~repro.nfv.node.Node.fold_inputs`, the method
    ``step_all`` reads, preserving bit-compatibility.
    """

    names: tuple[str, ...]
    slices: tuple[tuple[int, int], ...]
    counts: np.ndarray  # (N,) chains per node, int
    hosted_rows: tuple  # (R,) HostedChain per row
    rings: tuple  # (R,) FluidRing per row
    infra_busy: tuple[float, ...]  # (N,)
    infra_rows: np.ndarray  # (R,) owning node's infra_busy per row
    allocated_totals: np.ndarray  # (N,)
    freq_means: np.ndarray  # (N,)


class ClusterKernel:
    """Steps a fixed set of nodes through one fused kernel pass.

    Owns the one compiled-plan cache.  ``step`` is a drop-in
    replacement for looping ``node.step_all`` over the nodes: it takes
    the union of the nodes' offered traffic (chain names are unique
    across a cluster) and returns the union of their telemetry, with
    identical node-side effects (knob application, CAT repartitioning,
    rings, meters, ``last_sample``).
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

        # Cross-chain contention derives from (generation, frame sizes),
        # so the plan cache keys on exactly those.  The dispatch (not the
        # fused loop) is the sanctioned instrumentation point: plan-cache
        # hit/miss counters and the compile span live here, while
        # ``_step_fused`` stays observation-free (KRN002 hot path).
        key = (gens, tuple(all_pkts))
        if not self._fusable or not all_loads:
            if obs._ENABLED:
                obs.inc("kernel/plan_cache/fallback")
            return self._step_per_node(offered, dt_s)
        if self._plan_key == key:
            if obs._ENABLED:
                obs.inc("kernel/plan_cache/hit")
            return self._step_fused(all_loads, dt_s)
        if self._plan_candidate == key:
            if obs._ENABLED:
                obs.inc("kernel/plan_cache/promote")
                with obs.span("kernel/compile", rows=len(all_pkts)):
                    self._compile(key)
            else:
                self._compile(key)
            return self._step_fused(all_loads, dt_s)
        if obs._ENABLED:
            obs.inc("kernel/plan_cache/miss")
        self._plan_candidate = key
        return self._step_per_node(offered, dt_s)

    def _step_per_node(self, offered, dt_s) -> dict[str, TelemetrySample]:
        """Cold path: each node steps through its own ``step_all``."""
        samples: dict[str, TelemetrySample] = {}
        for node in self.nodes:
            node_offered = {
                name: offered[name] for name in node.chains if name in offered
            }
            samples.update(node.step_all(node_offered, dt_s))
        return samples

    # -- the fused path ----------------------------------------------------

    def _compile(self, key) -> None:
        """Build the cluster-wide plan: one super-stack over all nodes.

        Alongside the compiled physics, every knob/deployment-static
        quantity the per-interval fold needs (each node's
        :meth:`~repro.nfv.node.Node.fold_inputs`, ring/meter handles) is
        collected here.
        """
        _gens, all_pkts = key
        chains: list = []
        pkts: list[float] = []
        knobs: list[KnobSettings] = []
        grants: list[float] = []
        contention = np.empty(len(all_pkts), dtype=np.float64)
        names: list[str] = []
        slices: list[tuple[int, int]] = []
        hosted_rows: list = []
        n_nodes = len(self.nodes)
        counts = np.empty(n_nodes, dtype=np.intp)
        infra_busy: list[float] = []
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
            row += len(node.chains)
            pkts_t = all_pkts[start:row]
            pkts.extend(pkts_t)
            contention[start:row] = (
                node.contention_for(pkts_t) if node.chains else 1.0
            )
            slices.append((start, row))
            counts[j] = row - start
            node_infra, allocated_totals[j], freq_means[j] = node.fold_inputs()
            infra_busy.append(node_infra)
        engine = self.nodes[0].engine
        stack = chain_stack(tuple(chains), tuple(pkts), engine.server.llc.line_bytes)
        self._plan = engine.compile_chains(
            stack, knobs, llc_bytes=grants, contention=contention
        )
        self._plan_key = key
        self._plan_meta = _FusedMeta(
            names=tuple(names),
            slices=tuple(slices),
            counts=counts,
            hosted_rows=tuple(hosted_rows),
            rings=tuple(h.rx_ring for h in hosted_rows),
            infra_busy=tuple(infra_busy),
            infra_rows=np.repeat(np.asarray(infra_busy, dtype=np.float64), counts),
            allocated_totals=allocated_totals,
            freq_means=freq_means,
        )

    def _step_fused(self, all_loads, dt_s) -> dict[str, TelemetrySample]:
        """Warm path: price all rows at once, then fold per node.

        The fold replays ``step_all``'s scalar bookkeeping — same
        accumulation order, same float arithmetic — with the elementwise
        parts batched into array ops (elementwise numpy matches the
        scalar operations bit-for-bit) and the order-sensitive per-node
        reductions kept as sequential Python-float sums.  The per-node
        Fan-model evaluations run as one batched array call (also
        elementwise, hence bit-identical to the scalar calls).
        """
        plan = self._plan
        meta = self._plan_meta
        multi = plan.step(all_loads, dt_s, include_power=False)

        busy = multi.cpu_cores_busy
        achieved_dt = multi.achieved_pps * dt_s
        achieved_dt_l = achieved_dt.tolist()

        # Per-node union of busy cores: step_all folds
        # ``infra + max(0, busy_r - infra) + ...`` sequentially in
        # deployment order; np.maximum is elementwise-identical to the
        # scalar max and ``sum(slice, start)`` is the same left fold.
        contrib = np.maximum(0.0, busy - meta.infra_rows).tolist()
        weights = np.maximum(busy, 1e-9)
        weights_l = weights.tolist()
        n_nodes = len(self.nodes)
        busy_totals = np.empty(n_nodes, dtype=np.float64)
        wsums = np.empty(n_nodes, dtype=np.float64)
        # repro-lint: allow[KRN002] order-sensitive scalar folds kept sequential for 0-ulp bit-compat with step_all
        for j, (start, stop) in enumerate(meta.slices):
            busy_totals[j] = sum(contrib[start:stop], meta.infra_busy[j])
            wsums[j] = sum(weights_l[start:stop])

        # One batched Fan-model evaluation across the nodes.
        engine = self.nodes[0].engine
        power_nodes = np.asarray(
            engine.node_power(busy_totals, meta.allocated_totals, meta.freq_means)
        )
        energy_nodes = power_nodes * dt_s
        power_list = power_nodes.tolist()

        # Cycle-proportional attribution: share_r = w_r / wsum_node, then
        # power * share and (power * dt) * share exactly as step_all
        # computes them (weights >= 1e-9, so wsum is always positive).
        shares = weights / np.repeat(wsums, meta.counts)
        rows_power = np.repeat(power_nodes, meta.counts) * shares
        rows_energy = np.repeat(energy_nodes, meta.counts) * shares
        multi.power_w = rows_power
        multi.energy_j = rows_energy
        rows_power_l = rows_power.tolist()

        # Rx-ring integration for every chain in one array pass.
        loads_arr = np.asarray(all_loads, dtype=np.float64)
        offer_many(
            meta.rings,
            np.minimum(loads_arr, multi.achieved_pps + multi.dropped_pps),
            np.maximum(multi.achieved_pps, 1.0),
            dt_s,
        )

        # Node meters.
        # repro-lint: allow[KRN002] per-node meter side effects; scalar folds stay sequential for bit-compat
        for j, node in enumerate(self.nodes):
            start, stop = meta.slices[j]
            node.meter.record(
                power_list[j], dt_s, sum(achieved_dt_l[start:stop])
            )

        chain_samples = multi.samples()
        samples: dict[str, TelemetrySample] = {}
        # repro-lint: allow[KRN002] per-chain meter/sample handoff mutates hosted objects; inherently per-object
        for r, name in enumerate(meta.names):
            hosted = meta.hosted_rows[r]
            hosted.meter.record(rows_power_l[r], dt_s, achieved_dt_l[r])
            hosted.last_sample = chain_samples[r]
            samples[name] = chain_samples[r]
        return samples
