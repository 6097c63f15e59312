"""Cluster-wide stepping kernel: one vectorized pass over all nodes.

The SDN steering loop and the multi-node ``Cluster`` scenarios step many
nodes in lockstep, each node hosting several chain replicas.  PR 3
collapsed the per-*chain* Python loop into one
:class:`~repro.nfv.engine.ChainKernelPlan` pass per node; this module
collapses the per-*node* loop the same way: every hosted chain across
the whole cluster becomes one row of a single padded super-stack, the
load-independent half compiles once per cluster-wide (knobs, deployment)
generation, and an interval is priced for all replicas in one
vectorized evaluation.

The dispatch mirrors :meth:`~repro.nfv.node.Node.step_all` exactly:

* a configuration on first sight runs the per-node ``step_all`` loop
  (bit-identical, and cheaper for knob-churning RL that never revisits
  a setting);
* on second sight the cluster-wide :class:`ClusterKernelPlan` compiles
  and prices every subsequent interval until a knob/deployment change
  (or new frame sizes) invalidates it;
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
from repro.nfv.engine import (
    ChainKernelPlan,
    MultiChainTelemetry,
    TelemetrySample,
    chain_stack,
)
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
    rebuild ``step_all`` performs each interval.  The accumulated values
    (``allocated_totals``, ``freq_means``) are produced by the *same*
    sequential Python-float arithmetic as ``step_all``, preserving
    bit-compatibility.
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


@dataclass
class ClusterTelemetry:
    """Array view of one cluster interval for array-native consumers.

    ``multi`` is the fused :class:`~repro.nfv.engine.MultiChainTelemetry`
    over all rows (power already attributed); ``names`` maps rows to
    chain names, ``node_slices`` gives each node's contiguous row range,
    and ``bottleneck_utilization`` is the per-row binding-stage
    utilization (the SDN steering signal) computed in one vectorized
    reduction.
    """

    multi: MultiChainTelemetry
    names: tuple[str, ...]
    node_slices: tuple[tuple[int, int], ...]
    node_power_w: np.ndarray  # (N,)
    bottleneck_utilization: np.ndarray  # (R,)

    @property
    def rows(self) -> int:
        """Chains priced in this interval."""
        return len(self.names)


class ClusterKernel:
    """Steps a fixed set of nodes through one fused kernel pass.

    Owns the cluster-wide compiled-plan cache.  ``step`` is a drop-in
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
        #: Array telemetry of the most recent interval, ``None`` whenever
        #: the interval ran the per-node fallback (every first sight of a
        #: configuration) — callers must handle the cold path.
        self.last_telemetry: ClusterTelemetry | None = None

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
        if knobs:
            for name, settings in knobs.items():
                if name not in owners:
                    raise KeyError(f"no chain {name!r} on this cluster")
                owners[name].apply_knobs(name, settings)
            gens = tuple(node._config_gen for node in self.nodes)
            self._owners_gens = gens
        unknown = set(offered) - owners.keys()
        if unknown:
            raise KeyError(f"offered traffic for unknown chains: {sorted(unknown)}")

        # Flat load/frame columns in node-major deployment order (the
        # exact per-node ordering step_all uses).
        all_loads: list[float] = []
        all_pkts: list[float] = []
        for node in self.nodes:
            for name in node.chains:
                pps, pkt = offered.get(name, (0.0, 1518.0))
                all_loads.append(pps)
                all_pkts.append(pkt)

        self.last_telemetry = None
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
        quantity the per-interval fold needs (allocated cores, mean
        frequency, infra-thread busy share, ring/meter handles) is
        precomputed here with ``step_all``'s exact scalar arithmetic.
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
            params = node.engine.params
            infra_util = (
                params.infra_util_poll
                if node.engine.polling.value == "poll"
                else params.infra_util_adaptive
            )
            node_infra = params.infra_cores * infra_util
            allocated_total = params.infra_cores
            for name, hosted in node.chains.items():
                chains.append(hosted.chain)
                knobs.append(hosted.knobs)
                grants.append(node.cache.allocated_bytes(name))
                names.append(name)
                hosted_rows.append(hosted)
                allocated_total += hosted.knobs.cpu_share * len(hosted.chain)
            row += len(node.chains)
            pkts_t = all_pkts[start:row]
            pkts.extend(pkts_t)
            contention[start:row] = (
                node.contention_for(pkts_t) if node.chains else 1.0
            )
            slices.append((start, row))
            counts[j] = row - start
            infra_busy.append(node_infra)
            allocated_totals[j] = allocated_total
            freqs = [h.knobs.cpu_freq_ghz for h in node.chains.values()]
            freq_means[j] = (
                sum(freqs) / len(freqs) if freqs else node.server.cpu.base_freq_ghz
            )
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

        # repro-lint: allow[KRN001] telemetry handoff is the fused pass's one sanctioned output slot
        self.last_telemetry = ClusterTelemetry(
            multi=multi,
            names=meta.names,
            node_slices=meta.slices,
            node_power_w=power_nodes,
            bottleneck_utilization=np.max(multi.nf_utilization, axis=1),
        )
        return samples
