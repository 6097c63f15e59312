"""Scalar/loop reference implementations for speedup measurement.

These reproduce the pre-vectorization shape of the hot paths — a Python
loop per NF in the engine, one tree walk per leaf in the replay stack,
a rebuilt platform per episode — so the benchmark can report honest
in-run speedups (vectorized vs. loop) on the same machine and workload.
They are measurement fixtures, not production code.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.env import NFVEnv
from repro.fleet.shard import LocalShard
from repro.hw.cache import capacity_miss_ratio, prefetch_efficiency
from repro.nfv.engine import PacketEngine
from repro.rl.replay import Transition, TransitionBatch
from repro.utils.rng import RngLike, as_generator


# -- engine: per-NF Python loop ------------------------------------------------


def reference_chain_step(
    engine: PacketEngine,
    chain,
    knobs,
    offered_pps: float,
    packet_bytes: float,
) -> float:
    """Achieved rate via the scalar per-NF loop (the seed implementation)."""
    llc = engine.server.llc
    p = engine.params
    llc_bytes = knobs.llc_fraction * llc.way_bytes * llc.allocatable_ways
    eff_llc, contention = engine.effective_llc_bytes(llc_bytes)

    pf = prefetch_efficiency(knobs.batch_size)
    pen_eff = llc.miss_penalty_cycles * (1.0 - pf)
    hit_eff = llc.hit_cycles * (1.0 - pf)
    ws = chain.total_state_bytes + knobs.batch_size * packet_bytes
    base_miss = capacity_miss_ratio(ws, eff_llc, locality=p.cache_locality)
    p_miss = float(min(1.0, base_miss * contention))

    cpps = []
    for i, nf in enumerate(chain.nfs):
        state_cycles = nf.state_lines_touched * p_miss * pen_eff
        touched = nf.touched_lines(packet_bytes, llc.line_bytes)
        if i == 0:
            p_hit = engine.dma_model.llc_spill_hit_ratio(knobs.dma_bytes, eff_llc)
            p_hit = float(max(0.0, p_hit * (1.0 - p_miss * 0.5)))
        else:
            p_hit = 1.0 - p_miss
        payload = touched * p.mem_factor * (p_hit * hit_eff + (1.0 - p_hit) * pen_eff)
        cold = p.cold_lines_per_batch * pen_eff / knobs.batch_size
        overhead = p.ring_call_cycles / knobs.batch_size + p.mbuf_cycles / math.sqrt(
            knobs.batch_size
        )
        cycles = nf.cycles_for_packet(packet_bytes) + overhead + state_cycles
        cycles += payload + cold
        if i > 0:
            cycles += p.inter_nf_handoff_cycles
        cpps.append(cycles)

    freq_hz = knobs.cpu_freq_ghz * 1e9
    rates = [knobs.cpu_share * freq_hz / c for c in cpps]
    nic_cap = engine.server.nic.max_pps(packet_bytes)
    admitted = min(offered_pps, nic_cap)
    delivery = engine.dma_model.delivery_ratio(knobs.dma_bytes, packet_bytes, admitted)
    return min(admitted * delivery, min(rates))


# -- nn: per-parameter-array networks and optimizer loops ----------------------


class _RefDenseLayer:
    """Seed dense layer: independently-allocated weight/bias arrays."""

    def __init__(self, weights, bias, activation):
        self.weights = weights
        self.bias = bias
        self.activation = activation

    @property
    def in_dim(self):
        return self.weights.shape[0]

    @property
    def out_dim(self):
        return self.weights.shape[1]


class ReferenceMLP:
    """The seed MLP: per-layer arrays, temporaries in forward/backward."""

    def __init__(self, layer_sizes, activations=None, *, rng=None, final_init_scale=3e-3):
        n_layers = len(layer_sizes) - 1
        if activations is None:
            activations = ["relu"] * (n_layers - 1) + ["linear"]
        gen = as_generator(rng)
        self.layers = []
        for i in range(n_layers):
            fan_in, fan_out = layer_sizes[i], layer_sizes[i + 1]
            bound = final_init_scale if i == n_layers - 1 else 1.0 / np.sqrt(fan_in)
            w = gen.uniform(-bound, bound, size=(fan_in, fan_out))
            b = gen.uniform(-bound, bound, size=(fan_out,))
            self.layers.append(_RefDenseLayer(w, b, activations[i]))
        self._cache = None

    @property
    def in_dim(self):
        return self.layers[0].in_dim

    @property
    def out_dim(self):
        return self.layers[-1].out_dim

    def forward(self, x, *, cache=True):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        cache_list = []
        a = x
        for layer in self.layers:
            z = a @ layer.weights + layer.bias
            if layer.activation == "relu":
                out = np.maximum(z, 0.0)
            elif layer.activation == "tanh":
                out = np.tanh(z)
            else:
                out = z
            cache_list.append((a, z, out))
            a = out
        self._cache = cache_list if cache else None
        return a

    def __call__(self, x):
        return self.forward(x)

    def backward(self, grad_out):
        grad = np.atleast_2d(np.asarray(grad_out, dtype=np.float64))
        param_grads = [None] * len(self.layers)
        for i in reversed(range(len(self.layers))):
            layer = self.layers[i]
            a_in, z, a_out = self._cache[i]
            if layer.activation == "relu":
                act_grad = (z > 0.0).astype(z.dtype)
            elif layer.activation == "tanh":
                act_grad = 1.0 - a_out * a_out
            else:
                act_grad = np.ones_like(z)
            dz = grad * act_grad
            dw = a_in.T @ dz
            db = dz.sum(axis=0)
            grad = dz @ layer.weights.T
            param_grads[i] = (dw, db)
        return param_grads, grad

    def get_params(self):
        out = []
        for layer in self.layers:
            out.append(layer.weights)
            out.append(layer.bias)
        return out

    def set_params(self, params):
        for i, layer in enumerate(self.layers):
            layer.weights = params[2 * i].copy()
            layer.bias = params[2 * i + 1].copy()

    def copy_params(self):
        return [p.copy() for p in self.get_params()]

    def soft_update_from(self, source, tau):
        for mine, theirs in zip(self.get_params(), source.get_params()):
            mine *= 1.0 - tau
            mine += tau * theirs

    def clone(self):
        sizes = [self.in_dim] + [layer.out_dim for layer in self.layers]
        acts = [layer.activation for layer in self.layers]
        out = ReferenceMLP(sizes, acts, rng=0)
        out.set_params(self.copy_params())
        return out


class ReferenceAdam:
    """The seed Adam: a Python loop over per-layer parameter arrays."""

    def __init__(self, net, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8, *, grad_clip=10.0):
        self.net = net
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.grad_clip = grad_clip
        self._m = [np.zeros_like(p) for p in net.get_params()]
        self._v = [np.zeros_like(p) for p in net.get_params()]
        self._t = 0

    def step(self, param_grads) -> None:
        flat = []
        for dw, db in param_grads:
            flat.append(dw)
            flat.append(db)
        params = self.net.get_params()
        if self.grad_clip is not None:
            norm = np.sqrt(sum(float(np.sum(g * g)) for g in flat))
            if norm > self.grad_clip:
                scale = self.grad_clip / (norm + 1e-12)
                flat = [g * scale for g in flat]
        self._t += 1
        b1t = 1.0 - self.beta1**self._t
        b2t = 1.0 - self.beta2**self._t
        for p, g, m, v in zip(params, flat, self._m, self._v):
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            v += (1 - self.beta2) * (g * g)
            p -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)


# -- replay: list storage + per-leaf tree walks --------------------------------


class ReferenceSumTree:
    """The seed sum tree: one Python walk per set / per sampled mass."""

    def __init__(self, capacity: int):
        self.capacity = int(capacity)
        self._nodes = np.zeros(2 * self.capacity - 1, dtype=np.float64)

    @property
    def total(self) -> float:
        return float(self._nodes[0])

    def set(self, slot: int, priority: float) -> None:
        idx = slot + self.capacity - 1
        delta = priority - self._nodes[idx]
        self._nodes[idx] = priority
        while idx > 0:
            idx = (idx - 1) // 2
            self._nodes[idx] += delta

    def get(self, slot: int) -> float:
        return float(self._nodes[slot + self.capacity - 1])

    def find_prefix(self, mass: float) -> int:
        mass = float(np.clip(mass, 0.0, np.nextafter(self.total, 0.0)))
        idx = 0
        while idx < self.capacity - 1:
            left = 2 * idx + 1
            if mass < self._nodes[left] or self._nodes[2 * idx + 2] == 0.0:
                idx = left
            else:
                mass -= self._nodes[left]
                idx = left + 1
        return idx - (self.capacity - 1)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        bounds = np.linspace(0.0, self.total, n + 1)
        out = np.empty(n, dtype=np.int64)
        for i in range(n):
            out[i] = self.find_prefix(rng.uniform(bounds[i], bounds[i + 1]))
        return out


class ReferencePrioritizedReplayBuffer:
    """The seed PER buffer: list-of-Transition storage, np.stack per batch."""

    def __init__(
        self,
        capacity: int,
        *,
        alpha: float = 0.6,
        beta0: float = 0.4,
        beta_steps: int = 100_000,
        eps: float = 1e-3,
        rng: RngLike = None,
    ):
        self.capacity = int(capacity)
        self.alpha = alpha
        self.beta0 = beta0
        self.beta_steps = beta_steps
        self.eps = eps
        self._tree = ReferenceSumTree(self.capacity)
        self._storage: list[Transition | None] = [None] * self.capacity
        self._next = 0
        self._size = 0
        self._max_priority = 1.0
        self._samples_drawn = 0
        self._rng = as_generator(rng)

    def __len__(self) -> int:
        return self._size

    @property
    def beta(self) -> float:
        frac = min(1.0, self._samples_drawn / self.beta_steps)
        return self.beta0 + (1.0 - self.beta0) * frac

    def add(self, transition: Transition, priority: float | None = None) -> int:
        raw = self._max_priority if priority is None else abs(float(priority))
        raw = max(raw, self.eps)
        self._max_priority = max(self._max_priority, raw)
        slot = self._next
        self._storage[slot] = transition
        self._tree.set(slot, raw**self.alpha)
        self._next = (self._next + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)
        return slot

    def extend(self, transitions, priorities=None):
        slots = []
        for i, t in enumerate(transitions):
            slots.append(self.add(t, None if priorities is None else priorities[i]))
        return slots

    def sample(self, batch_size: int) -> TransitionBatch:
        idx = self._tree.sample(batch_size, self._rng)
        self._samples_drawn += batch_size
        total = self._tree.total
        probs = np.asarray([self._tree.get(int(i)) for i in idx]) / total
        weights = np.power(self._size * np.maximum(probs, 1e-12), -self.beta)
        weights /= weights.max()
        items = [self._storage[int(i)] for i in idx]
        return TransitionBatch(
            states=np.stack([t.state for t in items]),
            actions=np.stack([t.action for t in items]),
            rewards=np.asarray([t.reward for t in items], dtype=np.float64),
            next_states=np.stack([t.next_state for t in items]),
            dones=np.asarray([t.done for t in items], dtype=np.float64),
            indices=np.asarray(idx, dtype=np.int64),
            weights=weights,
        )

    def update_priorities(self, indices, td_errors) -> None:
        for slot, err in zip(np.asarray(indices), np.asarray(td_errors)):
            raw = max(abs(float(err)), self.eps)
            self._max_priority = max(self._max_priority, raw)
            self._tree.set(int(slot), raw**self.alpha)


# -- rl: one Ape-X actor collecting alone ---------------------------------------


def reference_collect(actor, n_steps: int) -> list[tuple[Transition, float]]:
    """One actor's own collection loop: a policy forward per actor per
    step, the schedule ``ApexActor.collect_lockstep`` batches across
    the fleet.  Returns the flushed (transition, priority) pairs."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    flushed: list[tuple[Transition, float]] = []
    if actor._obs is None:
        actor._obs = actor.env.reset()
        actor.agent.reset_noise()
    for _ in range(n_steps):
        action = actor.agent.act(actor._obs, explore=True)
        actor._record(actor.env.step(action), action)
        if len(actor._local) >= actor.local_buffer_size:
            flushed.extend(actor._flush())
    flushed.extend(actor._flush())
    return flushed


def reference_step_batch(
    engine,
    chain,
    knobs_grid,
    offered_grid,
    packet_bytes,
    dt_s: float = 1.0,
    *,
    llc_bytes=None,
    contention=None,
    include_power: bool = True,
):
    """The pre-plan ``PacketEngine.step_batch``: a dedicated grid body.

    Restates the NIC, ring, livelock, utilization, power and latency
    math with explicit ``(K, L, P)`` axis indexing instead of pricing
    through a compiled ``ChainKernelPlan``.  ``tests/test_grid_plan.py``
    holds the plan-backed ``step_batch`` to 0 ulp against it.  Its sums
    over the NF axis are left folds (``left_sums``), the order of the
    scalar ``PacketEngine.step``, at every chain length.
    """
    from repro.nfv.engine import BatchTelemetry, PollingMode, _knob_arrays, chain_stack
    from repro.utils.stats import left_sums
    from repro.utils.units import pps_to_gbps

    packet_axis = not (np.isscalar(packet_bytes) or np.ndim(packet_bytes) == 0)
    pkt = np.atleast_1d(np.asarray(packet_bytes, dtype=np.float64))
    offered = np.atleast_1d(np.asarray(offered_grid, dtype=np.float64))
    share, freq, llc_frac, dma_bytes, batch = _knob_arrays(knobs_grid)
    eff_llc, eff_contention = engine._resolve_llc_contention(
        share, llc_frac, llc_bytes, contention
    )
    stack = chain_stack(
        (chain,) * pkt.size, tuple(float(p) for p in pkt), engine.server.llc.line_bytes
    )
    n = len(stack)
    cpps, misses_pp = engine._chain_costs(
        stack,
        batch[:, None, None],
        dma_bytes[:, None, None],
        np.asarray(eff_llc, dtype=np.float64)[:, None, None],
        eff_contention[:, None, None],
    )  # (K, P, n)

    nic_cap = engine.server.nic.max_pps(pkt)  # (P,)
    admitted = np.minimum(offered[:, None], nic_cap[None, :])  # (L, P)
    delivery = engine.dma_model.delivery_ratio(
        dma_bytes[:, None, None], pkt, admitted[None, :, :]
    )  # (K, L, P)
    delivered = admitted[None, :, :] * delivery

    freq_hz = freq * 1e9
    capacity = share * freq_hz  # (K,)
    rates = capacity[:, None, None] / cpps  # (K, P, n)
    chain_rate = rates.min(axis=2)  # (K, P)
    achieved = np.minimum(delivered, chain_rate[:, None, :])  # (K, L, P)

    rx = engine.params.rx_drop_cycles
    cpp0 = cpps[:, :, 0]
    livelock = (delivered * cpp0[:, None, :] > capacity[:, None, None]) & (
        cpp0 > rx
    )[:, None, :]
    denom = np.where(cpp0 > rx, cpp0 - rx, 1.0)
    nf0_rate = np.maximum(
        0.0, (capacity[:, None, None] - delivered * rx) / denom[:, None, :]
    )
    achieved = np.where(livelock, np.minimum(achieved, nf0_rate), achieved)

    if engine.polling == PollingMode.POLL:
        util = np.broadcast_to(
            np.where(share > 0, 1.0, 0.0)[:, None, None, None],
            achieved.shape + (n,),
        ).copy()
        infra_util = engine.params.infra_util_poll
    else:
        work = achieved[:, :, :, None] * cpps[:, None, :, :]  # (K, L, P, n)
        work[:, :, :, 0] = work[:, :, :, 0] + np.maximum(
            0.0, delivered - achieved
        ) * rx
        cap4 = capacity[:, None, None, None]
        util = np.where(
            cap4 > 0, np.minimum(1.0, work / np.where(cap4 > 0, cap4, 1.0)), 0.0
        )
        util = np.minimum(1.0, util + engine.params.adaptive_poll_overhead)
        infra_util = engine.params.infra_util_adaptive
    busy_cores = left_sums(share[:, None, None, None] * util)  # (K, L, P)
    allocated_cores = share * n + engine.params.infra_cores  # (K,)
    total_busy = busy_cores + engine.params.infra_cores * infra_util

    cpu_utilization = np.minimum(1.0, total_busy / allocated_cores[:, None, None])
    if include_power:
        power_w = engine.node_power(
            total_busy,
            np.broadcast_to(allocated_cores[:, None, None], total_busy.shape),
            np.broadcast_to(freq[:, None, None], total_busy.shape),
        )
        energy_j = power_w * dt_s
    else:
        power_w = np.zeros_like(total_busy)
        energy_j = np.zeros_like(total_busy)

    total_misses_pp = left_sums(misses_pp)  # (K, P)
    miss_rate = achieved * total_misses_pp[:, None, :]
    dropped = np.maximum(0.0, offered[None, :, None] - achieved)
    fcol = freq_hz[:, None]
    proc_s = np.where(
        fcol > 0, left_sums(cpps) / np.where(fcol > 0, fcol, 1.0), np.inf
    )  # (K, P)
    fill_s = batch[:, None, None] / np.maximum(achieved, 1.0)
    cr = chain_rate[:, None, :]
    utilization_peak = np.where(
        cr > 0, np.minimum(1.0, achieved / np.where(cr > 0, cr, 1.0)), 1.0
    )
    queue_s = proc_s[:, None, :] * utilization_peak / np.maximum(
        1e-6, 1.0 - np.minimum(utilization_peak, 0.999)
    )
    latency_s = fill_s + proc_s[:, None, :] + queue_s

    if packet_axis:
        grid, knob, nf = np.s_[...], np.s_[...], np.s_[...]
    else:
        grid, knob, nf = np.s_[:, :, 0], np.s_[:, 0], np.s_[:, :, 0]
    return BatchTelemetry(
        dt_s=dt_s,
        packet_bytes=pkt if packet_axis else float(pkt[0]),
        offered_pps=offered,
        achieved_pps=achieved[grid],
        throughput_gbps=pps_to_gbps(achieved, pkt[None, None, :])[grid],
        llc_miss_rate_per_s=miss_rate[grid],
        cpu_utilization=cpu_utilization[grid],
        cpu_cores_busy=total_busy[grid],
        power_w=power_w[grid],
        energy_j=energy_j[grid],
        dropped_pps=dropped[grid],
        latency_s=latency_s[grid],
        chain_rate_pps=chain_rate[knob],
        cycles_per_packet=cpps[knob],
        misses_per_packet=misses_pp[knob],
        service_rate_pps=rates[knob],
        nf_utilization=util[nf],
        nf_names=stack.profiles[0].names,
    )


# -- engine: expression-form plan step and Fan power model -----------------------


def reference_plan_step(plan, offered_grid, dt_s: float = 1.0, *, include_power=True):
    """The expression-form ``ChainKernelPlan.step``.

    Each array expression allocates a fresh result, so a grid plan's
    step holds many grid-sized temporaries at once.  The in-place body
    that replaced it performs the same IEEE operations in the same
    order; ``tests/test_plan_in_place.py`` holds the two to 0 ulp.  Busy
    cores sum the NF lanes as a left fold (``left_sums``), the order of
    the scalar ``PacketEngine.step``, at every lane width.
    """
    from repro.nfv.engine import MultiChainTelemetry
    from repro.utils.stats import left_sums
    from repro.utils.units import pps_to_gbps

    if not dt_s > 0:
        raise ValueError("dt must be positive")
    offered = np.atleast_1d(np.asarray(offered_grid, dtype=np.float64))
    rows = plan.chain_rate.shape
    if len(rows) == 1:
        shape_ok = offered.ndim <= 2 and offered.shape[-1:] == rows
    else:
        shape_ok = offered.shape == (offered.shape[0], 1)
    if not shape_ok:
        raise ValueError("need one offered rate per plan row")
    if not np.all(offered >= 0):
        raise ValueError("offered rates must be non-negative")
    rx = plan.engine.params.rx_drop_cycles
    cpps = plan.cpps
    capacity = plan.capacity

    admitted = np.minimum(offered, plan.nic_cap)
    delivery = np.minimum(
        1.0, plan.absorb_pps / np.where(admitted > 0, admitted, 1.0)
    )
    delivered = admitted * np.where(admitted == 0, 1.0, delivery)
    achieved = np.minimum(delivered, plan.chain_rate)

    cpp0 = cpps[..., 0]
    livelock = (delivered * cpp0 > capacity) & plan.livelock_able
    nf0_rate = np.maximum(0.0, (capacity - delivered * rx) / plan.livelock_denom)
    achieved = np.where(livelock, np.minimum(achieved, nf0_rate), achieved)

    if plan.util_poll is not None:
        util = np.broadcast_to(plan.util_poll, achieved.shape + cpps.shape[-1:]).copy()
        busy_cores = np.broadcast_to(plan.busy_poll, achieved.shape)
    else:
        work = achieved[..., None] * cpps
        work[..., 0] = work[..., 0] + np.maximum(0.0, delivered - achieved) * rx
        cap = capacity[..., None]
        util = np.where(
            cap > 0, np.minimum(1.0, work / np.where(cap > 0, cap, 1.0)), 0.0
        )
        util = np.minimum(1.0, util + plan.engine.params.adaptive_poll_overhead)
        if plan.stack.valid is not None:
            util = np.where(plan.stack.valid, util, 0.0)
        busy_cores = left_sums(plan.share[..., None] * util)
    total_busy = busy_cores + plan.infra_busy

    cpu_utilization = np.minimum(1.0, total_busy / plan.allocated_cores)
    if include_power:
        power_w = np.asarray(
            reference_node_power(plan.engine, total_busy, plan.allocated_cores, plan.freq)
        )
        energy_j = power_w * dt_s
    else:
        power_w = np.zeros_like(total_busy)
        energy_j = np.zeros_like(total_busy)

    miss_rate = achieved * plan.total_misses_pp
    dropped = np.maximum(0.0, offered - achieved)
    fill_s = plan.batch / np.maximum(achieved, 1.0)
    cr = plan.chain_rate
    utilization_peak = np.where(
        cr > 0, np.minimum(1.0, achieved / np.where(cr > 0, cr, 1.0)), 1.0
    )
    queue_s = plan.proc_s * utilization_peak / np.maximum(
        1e-6, 1.0 - np.minimum(utilization_peak, 0.999)
    )
    latency_s = fill_s + plan.proc_s + queue_s
    pkt = plan.stack.packet_bytes[:, 0]
    return MultiChainTelemetry(
        dt_s=dt_s,
        offered_pps=offered,
        packet_bytes=pkt,
        achieved_pps=achieved,
        throughput_gbps=pps_to_gbps(achieved, pkt),
        llc_miss_rate_per_s=miss_rate,
        cpu_utilization=cpu_utilization,
        cpu_cores_busy=total_busy,
        power_w=power_w,
        energy_j=energy_j,
        dropped_pps=dropped,
        latency_s=latency_s,
        chain_rate_pps=plan.chain_rate,
        cycles_per_packet=cpps,
        misses_per_packet=plan.misses_pp,
        service_rate_pps=plan.rates,
        nf_utilization=util,
    )


def reference_node_power(engine, busy_cores, allocated_cores, freq_ghz):
    """The expression-form ``PacketEngine.node_power``."""
    total = float(engine.server.cpu.total_cores)
    if np.isscalar(busy_cores) and np.isscalar(allocated_cores) and np.isscalar(freq_ghz):
        allocated = float(min(total, max(allocated_cores, 0.0)))
        busy = float(min(max(busy_cores, 0.0), total))
        u = busy / total
        parked = total - allocated
        if engine.park_idle_cores:
            idle_fraction = (allocated + 0.08 * parked) / total
        else:
            idle_fraction = 1.0
        return float(
            reference_power(engine.power_model, u, freq_ghz, idle_fraction=idle_fraction)
        )
    allocated = np.minimum(total, np.maximum(allocated_cores, 0.0))
    busy = np.clip(busy_cores, 0.0, total)
    u = busy / total
    parked = total - allocated
    if engine.park_idle_cores:
        idle_fraction = (allocated + 0.08 * parked) / total
    else:
        idle_fraction = np.ones_like(np.asarray(u, dtype=np.float64))
    out = reference_power(engine.power_model, u, freq_ghz, idle_fraction=idle_fraction)
    return np.asarray(out)


def reference_power(model, utilization, freq_ghz=None, *, idle_fraction=1.0):
    """The expression-form ``ServerPowerModel.power``."""
    p = model.params
    scalar = (
        np.isscalar(utilization)
        and (freq_ghz is None or np.isscalar(freq_ghz))
        and np.isscalar(idle_fraction)
    )
    if scalar:
        u = np.float64(min(max(utilization, 0.0), 1.0))
        p_max = model.p_max_at(freq_ghz if freq_ghz is not None else p.base_freq_ghz)
        p_idle = p.p_idle_w * np.float64(min(max(idle_fraction, 0.0), 1.0))
        shape = 2.0 * u - np.power(u, p.h)
        return float((p_max - p_idle) * shape + p_idle)
    u = np.clip(np.asarray(utilization, dtype=np.float64), 0.0, 1.0)
    p_max = model.p_max_at(freq_ghz if freq_ghz is not None else p.base_freq_ghz)
    p_idle = p.p_idle_w * np.clip(np.asarray(idle_fraction, dtype=np.float64), 0.0, 1.0)
    shape = 2.0 * u - np.power(u, p.h)
    return (np.asarray(p_max) - p_idle) * shape + p_idle


def reference_efficiency_grid(throughput_gbps, energy_j):
    """The expression-form ``efficiency_grid``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(
            energy_j > 0, throughput_gbps / (np.asarray(energy_j) / 1e3), 0.0
        )


def reference_cluster_step(nodes, per_node_offered, dt_s: float = 1.0):
    """The pre-cluster-kernel interval: a Python loop over nodes.

    One ``Node.step_all`` call per node — the scalar per-node fold, the
    loop ``SdnController.run_interval`` runs — so the ``cluster_grid``
    bench reports an honest kernel-vs-per-node-loop speedup.
    """
    samples = {}
    for node, offered in zip(nodes, per_node_offered):
        samples.update(node.step_all(offered, dt_s))
    return samples


def reference_clamped(self, ranges=None, cpu=None):
    """Seed ``KnobSettings.clamped``: scalar np.clip per knob."""
    from repro.nfv.knobs import DEFAULT_RANGES, KnobSettings

    ranges = ranges or DEFAULT_RANGES
    freq = float(np.clip(self.cpu_freq_ghz, ranges.min_freq_ghz, ranges.max_freq_ghz))
    if cpu is not None:
        freq = reference_clamp_frequency(cpu, freq)
    return KnobSettings(
        cpu_share=float(np.clip(self.cpu_share, ranges.min_cpu_share, ranges.max_cpu_share)),
        cpu_freq_ghz=freq,
        llc_fraction=float(
            np.clip(self.llc_fraction, ranges.min_llc_fraction, ranges.max_llc_fraction)
        ),
        dma_mb=float(np.clip(self.dma_mb, ranges.min_dma_mb, ranges.max_dma_mb)),
        batch_size=int(np.clip(round(self.batch_size), ranges.min_batch, ranges.max_batch)),
    )


def reference_clamp_frequency(spec, freq_ghz: float) -> float:
    """Seed ``CpuSpec.clamp_frequency``: ndarray argmin over the ladder."""
    ladder = np.asarray(spec.freq_ladder_ghz)
    return float(ladder[int(np.argmin(np.abs(ladder - freq_ghz)))])


class RebuildingEnv(NFVEnv):
    """An environment that rebuilds the platform every episode.

    Reproduces the pre-reuse reset cost so the training-slice benchmark
    can price the rebuild-free episodes against the seed behaviour.
    """

    def reset(self, **kwargs):
        self.controller = None
        return super().reset(**kwargs)


# -- fleet: pickled shard transport --------------------------------------------


def reference_shard_worker(config, conn) -> None:
    """The pre-arena shard worker loop: each ``run`` reply pickles the
    complete :class:`~repro.fleet.shard.ShardReport` through the pipe
    (the seed transport the shared-memory arenas replaced)."""
    from repro.fleet.shard import ShardSim, _error_payload

    try:
        sim = ShardSim(config)
    except Exception as exc:
        try:
            conn.send(_error_payload(exc))
        except (BrokenPipeError, OSError):
            pass
        return
    conn.send(("ready", config.name))
    try:
        while True:
            msg = conn.recv()
            kind = msg[0]
            if kind == "stop":
                conn.send(("stopped", config.name))
                return
            try:
                if kind == "run":
                    conn.send(("report", sim.run(msg[1])))
                elif kind == "deploy":
                    sim.deploy(msg[1])
                    conn.send(("ok",))
                elif kind == "undeploy":
                    conn.send(("ticket", sim.undeploy(msg[1])))
                elif kind == "knobs":
                    sim.set_knobs(msg[1])
                    conn.send(("ok",))
                else:
                    conn.send(("error", f"unknown message {kind!r}"))
            except Exception as exc:
                conn.send(_error_payload(exc))
    except (EOFError, KeyboardInterrupt):
        return


class ReferenceShardWorker:
    """The seed process-backed shard handle: pickled reports, no arena.

    Drop-in for :class:`~repro.fleet.shard.ShardWorker` (monkeypatched
    into the coordinator by the ``fleet_throughput`` bench) so the
    measured ratio isolates the transport: zero-copy shared-memory
    telemetry vs. pickling every report through the pipe.
    """

    backend = "process"

    def __init__(self, config, *, mp_context=None):
        import multiprocessing as mp

        ctx = mp.get_context(mp_context) if mp_context else mp.get_context()
        self.name = config.name
        parent_conn, child_conn = ctx.Pipe()
        self._conn = parent_conn
        self._proc = ctx.Process(
            target=reference_shard_worker, args=(config, child_conn), daemon=True
        )
        self._proc.start()
        #: The worker's chains in deployment order: a run's load rows.
        self._hosted = [ticket.name for ticket in config.initial_chains]
        self._in_flight = False
        self._closed = False
        try:
            self._recv("ready")
        except BaseException:
            self.close()
            raise

    def _recv(self, expect: str):
        try:
            msg = self._conn.recv()
        except EOFError:
            raise RuntimeError(
                f"shard {self.name!r} worker died without replying"
            ) from None
        if msg[0] == "error":
            detail = msg[1]
            if len(msg) > 2 and msg[2]:
                detail = f"{detail}\n--- worker traceback ---\n{msg[2]}"
            raise RuntimeError(f"shard {self.name!r} worker: {detail}")
        if msg[0] != expect:
            raise RuntimeError(
                f"shard {self.name!r}: expected {expect!r}, got {msg[0]!r}"
            )
        return msg[1] if len(msg) > 1 else None

    @property
    def load_rows(self) -> tuple[str, ...]:
        return tuple(self._hosted)

    def begin_run(self, block) -> None:
        if self._in_flight:
            raise RuntimeError("previous run not collected")
        self._conn.send(("run", block))
        self._in_flight = True

    def finish_run(self):
        if not self._in_flight:
            raise RuntimeError("no run in flight")
        self._in_flight = False
        return self._recv("report")

    def deploy(self, ticket) -> None:
        self._conn.send(("deploy", ticket))
        self._recv("ok")
        self._hosted.append(ticket.name)

    def undeploy(self, name: str):
        self._conn.send(("undeploy", name))
        ticket = self._recv("ticket")
        self._hosted.remove(name)
        return ticket

    def set_knobs(self, updates) -> None:
        self._conn.send(("knobs", dict(updates)))
        self._recv("ok")

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        else:
            try:
                if self._conn.poll(2.0):
                    self._conn.recv()
            except (EOFError, OSError):
                pass
        self._proc.join(timeout=5.0)
        if self._proc.is_alive():
            self._proc.terminate()


# -- fleet: one kernel per in-process shard ------------------------------------


class ReferenceLocalShard(LocalShard):
    """The pre-group local backend: every shard steps its own kernel.

    Each handle is a group of one, so ``begin_run`` steps its shard at
    once through ``ShardSim.run``: s shards make s kernel steps per
    cycle, where the grouped :class:`~repro.fleet.shard.LocalShard`
    makes one.  Drop-in for ``LocalShard``, monkeypatched into the
    coordinator as the ``fleet_scale`` bench's single-process side: its
    per-shard runs are the same work the process backend spreads over
    its workers.
    """

    @classmethod
    def group(cls, configs):
        return [cls(config) for config in configs]


# -- fleet: lockstep cycle schedule --------------------------------------------


def reference_lockstep_cycles(coordinator, n: int) -> None:
    """The seed fleet schedule: step, gather, decide, scatter, in lockstep.

    Drives ``coordinator`` through ``n`` cycles with its own
    ``_merge_records``, ``_plan_cycle`` and ``_apply_cycle``, applying
    each cycle's decisions before the shards step again — so every
    decision lands one interval boundary earlier than under the
    pipelined :meth:`~repro.fleet.coordinator.FleetCoordinator.run_cycles`.
    The ``fleet_throughput`` bench times it and ``TestPipelining`` uses
    it as the oracle for that one-boundary lag.
    """
    handles = list(coordinator.handles.values())
    step = coordinator.fleet.sync_every
    for _ in range(n):
        block = coordinator._draw_loads(
            list(coordinator._placement), coordinator._interval
        )
        for handle in handles:
            handle.begin_run(block.take(handle.load_rows))
        reports = [handle.finish_run() for handle in handles]
        coordinator._merge_records(reports)
        coordinator._interval += step
        plan = coordinator._plan_cycle(
            reports, coordinator._cycle, coordinator._interval
        )
        coordinator._apply_cycle(plan)


# -- fleet: per-interval shard run ---------------------------------------------


def reference_shard_run(sim, block):
    """A shard run stepped one interval at a time, node by node.

    The pre-block body of ``ShardSim._run_inner`` without the cluster
    kernel: every interval is one :func:`reference_cluster_step` (each
    node's scalar ``Node.step_all``), with per-interval
    ``TelemetrySample`` dicts and the interval totals folded in Python;
    the chain and node rows read the last interval's samples.  Advances
    ``sim`` exactly as ``sim.run(block)`` does; the block path must
    match it at 0 ulp.  Totals use explicit ``+=`` folds (the builtin
    ``sum`` compensates on Python >= 3.12).  Returns the report, whose
    tables are built row by row in the arena's column order, and the
    last interval's samples.
    """
    from repro.fleet.arena import CHAIN_FIELDS
    from repro.fleet.shard import ShardReport

    start, n = block.start, block.pps.shape[1]
    if n < 1:
        raise ValueError("must run at least one interval")
    if start != sim._interval:
        raise ValueError(f"shard is at interval {sim._interval}, asked for {start}")
    names = list(sim._tickets)
    if list(block.names) != names:
        raise ValueError(f"load rows {block.names} are not the hosted chains {names}")
    cfg = sim.config
    dt = cfg.interval_s
    pkt = sim.workload.packet_bytes
    loads = block.pps.T.tolist()
    intervals = []
    node_power = [0.0] * len(sim.nodes)
    for column in loads:
        offered = {name: (pps, pkt) for name, pps in zip(names, column)}
        samples = reference_cluster_step(
            sim.nodes,
            [{name: offered[name] for name in node.chains} for node in sim.nodes],
            dt,
        )
        energy = 0.0
        for j, node in enumerate(sim.nodes):
            delta = node.meter.total_joules - sim._node_energy[j]
            sim._node_energy[j] = node.meter.total_joules
            node_j = delta if node.chains else cfg.parked_power_w * dt
            node_power[j] = node_j / dt
            energy += node_j
        throughput = 0.0
        violations = 0
        for s in samples.values():
            throughput += s.throughput_gbps
            violations += 0 if sim.sla.satisfied(s) else 1
        offered_total = 0.0
        for pps in column:
            offered_total += pps
        intervals.append(
            [energy, throughput, offered_total, violations, len(samples)]
        )
        sim._interval += 1
    chains = []
    for name, ticket in sim._tickets.items():
        hosted = sim.nodes[ticket.node].chains[name]
        sample = samples[name]
        chains.append(
            [
                ticket.node,
                max(nf.utilization for nf in sample.per_nf),
                sample.power_w,
                hosted.chain.total_state_bytes,
                hosted.knobs.dma_bytes,
                hosted.knobs.cpu_share,
                hosted.knobs.cpu_freq_ghz,
            ]
        )
    report = ShardReport(
        shard=cfg.name,
        start=start,
        names=tuple(names),
        flows=tuple(ticket.flow for ticket in sim._tickets.values()),
        intervals=np.array(intervals, dtype=np.float64),
        chains=np.array(chains, dtype=np.float64).reshape(
            len(chains), len(CHAIN_FIELDS)
        ),
        nodes=np.array(
            [
                [power, max((c[1] for c in chains if c[0] == j), default=0.0)]
                for j, power in enumerate(node_power)
            ],
            dtype=np.float64,
        ),
    )
    return report, samples


# -- fleet: per-key workload draws ---------------------------------------------


def reference_offered(workload, seed: int, chain_name: str, index: int, dt_s: float):
    """One chain's offered pps at one interval, drawn per key.

    The pre-block body of ``WorkloadConfig.offered``: a fresh
    ``SeedSequence``-seeded generator for the load, and one more for
    every start interval in the trailing flash-crowd window.  Each entry
    of the block ``offered`` returns must equal this at 0 ulp.
    """
    from repro.fleet.workload import interval_stream
    from repro.traffic.generators import ConstantRateGenerator, DiurnalGenerator

    if workload.profile == "diurnal":
        base = DiurnalGenerator(
            peak_rate_pps=workload.peak_rate_pps,
            trough_fraction=workload.trough_fraction,
            period_s=workload.period_s,
            noise_std=workload.noise_std,
        )
    else:
        base = ConstantRateGenerator(workload.peak_rate_pps)
    rng = interval_stream(seed, f"fleet/load/{chain_name}", index)
    rate = base.rate_at(index * dt_s, dt_s, rng)
    flash = workload.flash
    multiplier = 1.0
    if flash.probability > 0.0:
        for start in range(max(0, index - flash.duration_intervals + 1), index + 1):
            rng = interval_stream(seed, f"fleet/flash/{chain_name}", start)
            if rng.random() < flash.probability:
                multiplier = flash.multiplier
                break
    return float(rate * multiplier)


# -- fleet: scalar routing -----------------------------------------------------


def reference_route_tables(topology):
    """Scalar routing: one heap Dijkstra per source shard.

    The pre-``RoutingTable`` shape: every source shard runs its own
    heap-based Dijkstra over a neighbor dict.  Returns the shortest-path
    latencies as nested dicts keyed by shard name, matching what the
    vectorized tables hold so the tests can cross-check them.
    """
    import heapq

    names = [s.name for s in topology.shards]
    neighbors: dict[str, list[tuple[str, float]]] = {n: [] for n in names}
    for link in topology.edges():
        neighbors[link.a].append((link.b, link.latency_s))
        neighbors[link.b].append((link.a, link.latency_s))
    dist: dict[str, dict[str, float]] = {}
    for src in names:
        best = {src: 0.0}
        heap = [(0.0, src)]
        while heap:
            d, cur = heapq.heappop(heap)
            if d > best.get(cur, math.inf):
                continue
            for nxt, w in neighbors[cur]:
                alt = d + w
                if alt < best.get(nxt, math.inf):
                    best[nxt] = alt
                    heapq.heappush(heap, (alt, nxt))
        dist[src] = {dst: best.get(dst, math.inf) for dst in names}
    return dist
