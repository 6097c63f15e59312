"""The platform physics: knobs + offered load -> throughput, misses, power.

This module is the simulator's substitute for the paper's physical
testbed.  Given a service chain, its knob settings, and the offered
traffic for one control interval, :class:`PacketEngine` computes

* the chain's achievable packet rate (pipeline bottleneck analysis over
  the NFs, Rx-ring delivery, receive livelock under overload, NIC line
  rate),
* the LLC miss rate,
* per-NF and aggregate CPU utilization,
* node power (Fan et al. model) and interval energy.

Per-packet cost of NF *i* (cycles)::

    cpp_i = compute(nf, pkt)                        # base + per_byte * pkt
          + ring_call_cycles / batch                # batching amortization
          + mbuf_cycles / sqrt(batch)               # bulk mbuf alloc/free
          + state_lines * p_miss * pen_eff          # table walks
          + touched_lines * mem_factor *
              (p_hit * hit_eff + p_miss' * pen_eff) # payload access
          + inter_nf_handoff  (i > 0)

where ``pen_eff = miss_penalty * (1 - prefetch_efficiency(batch))`` —
batching lets the prefetchers hide DRAM latency — and the payload
hit probability comes from DDIO for the first NF (DMA ring vs. DDIO
capacity) and from LLC residency of the in-flight batch for later NFs.
State-walk and residency miss probabilities derive from the chain's
working set vs. its CAT allocation (``capacity_miss_ratio``).

Service rate of NF *i* = ``cpu_share * f / cpp_i``; the chain rate is the
pipeline minimum; achieved rate additionally respects the Rx-ring
delivery ratio (DMA too small => ring overflow drops), receive livelock
(dropping packets still costs rx cycles), and NIC line rate.  These are
the mechanisms §3 measures in isolation, so the micro-benchmark figures
(Figs. 1-4) fall out of the same code path the RL environment uses.

CPU utilization depends on the polling mode: the Baseline's DPDK
poll-mode driver "uses complete cycles of dedicated cores" (util = 100%
on allocated cores); GreenNFV's "mix of callback and polling" lets
utilization track actual work with a small polling overhead.

The implementation is array-native: the per-NF cost model is evaluated
over whole chains at once from an immutable, cached :class:`ChainProfile`
(the NF catalog constants of a chain laid out as NumPy arrays).  Every
vectorized evaluation — stacked chains on a node or cluster, and the
K-knob x L-load grids of :meth:`PacketEngine.step_batch` — prices
through one compiled :class:`ChainKernelPlan`.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.hw.cache import (
    capacity_miss_ratio,
    ddio_hit_ratio,
    prefetch_efficiency,
)
from repro.hw.dma import DmaBufferModel
from repro.hw.power import ServerPowerModel
from repro.hw.server import ServerSpec
from repro.nfv.chain import ServiceChain
from repro.nfv.knobs import KnobSettings, knob_row
from repro.utils.stats import left_sum, left_sums
from repro.utils.units import pps_to_gbps


class PollingMode(enum.Enum):
    """How NF cores wait for packets."""

    #: DPDK poll-mode driver: allocated cores busy-spin at 100%.
    POLL = "poll"
    #: GreenNFV's mix of callback and polling: cores sleep when idle,
    #: utilization tracks work plus a small polling overhead.
    ADAPTIVE = "adaptive"


@dataclass(frozen=True)
class EngineParams:
    """Calibration constants of the physics model.

    These place the simulator's response surface in the same regime as
    the paper's testbed measurements.  They are pinned by
    ``tests/test_calibration.py``, which asserts the §3 micro-benchmark
    shapes and the §5 ordering (who wins, by roughly what factor); none
    of the orderings depend on their exact values.
    """

    #: Cycles per ring dequeue/enqueue call, amortized over a batch.
    ring_call_cycles: float = 420.0
    #: mbuf alloc/free cost; bulk operations amortize as 1/sqrt(batch).
    mbuf_cycles: float = 80.0
    #: Cycles to hand a packet between NFs through a shared ring.
    inter_nf_handoff_cycles: float = 60.0
    #: Cycles the first NF spends on a packet that is received and then
    #: dropped under overload (receive livelock).
    rx_drop_cycles: float = 120.0
    #: Latency-bound fraction of payload line accesses (the rest pipeline
    #: behind them).
    mem_factor: float = 0.55
    #: Cold misses per batch (descriptor ring, NF code/stack warmup).
    cold_lines_per_batch: float = 48.0
    #: Fraction of polling-loop overhead under ADAPTIVE mode.
    adaptive_poll_overhead: float = 0.04
    #: Infrastructure cores (ONVM Rx/Tx threads) always running.
    infra_cores: float = 2.0
    #: Utilization of the infra cores under POLL / ADAPTIVE modes.
    infra_util_poll: float = 1.0
    infra_util_adaptive: float = 0.35
    #: Locality exponent of the capacity miss model.
    cache_locality: float = 2.0
    #: Extra LLC demand (bytes) from co-tenants when CAT is disabled,
    #: in units of the allocatable region (the Baseline shares the cache
    #: with everything else on the socket).
    no_cat_background_share: float = 3.0
    #: Miss-ratio multiplier from uncontrolled sharing when CAT is off.
    no_cat_contention: float = 1.35


@dataclass(frozen=True)
class ChainProfile:
    """A chain's per-NF cost constants laid out as immutable arrays.

    The arrays depend only on the chain and the packet size, so profiles
    are cached per ``(chain, packet_bytes, line_bytes)`` and shared by
    every engine evaluation — the scalar :meth:`PacketEngine.step` and
    the grid :meth:`PacketEngine.step_batch` both start from here.
    """

    names: tuple[str, ...]
    #: Pure compute cycles per packet per NF (base + per_byte * pkt).
    compute_cycles: np.ndarray
    #: State-table cache lines dereferenced per packet per NF.
    state_lines: np.ndarray
    #: Frame cache lines each NF reads per packet.
    touched_lines: np.ndarray
    total_state_bytes: float
    packet_bytes: float

    def __len__(self) -> int:
        return len(self.names)


@lru_cache(maxsize=1024)
def chain_profile(
    chain: ServiceChain, packet_bytes: float, line_bytes: float = 64.0
) -> ChainProfile:
    """Build (or fetch the cached) :class:`ChainProfile` for a chain.

    ``ServiceChain`` is a frozen value type, so profiles are memoized on
    the (chain, packet size, cache-line size) triple.
    """
    if packet_bytes <= 0:
        raise ValueError("packet size must be positive")
    compute = np.asarray(
        [nf.cycles_for_packet(packet_bytes) for nf in chain.nfs], dtype=np.float64
    )
    state_lines = np.asarray(
        [nf.state_lines_touched for nf in chain.nfs], dtype=np.float64
    )
    touched = np.asarray(
        [nf.touched_lines(packet_bytes, line_bytes) for nf in chain.nfs],
        dtype=np.float64,
    )
    for arr in (compute, state_lines, touched):
        arr.flags.writeable = False
    return ChainProfile(
        names=tuple(nf.name for nf in chain.nfs),
        compute_cycles=compute,
        state_lines=state_lines,
        touched_lines=touched,
        total_state_bytes=chain.total_state_bytes,
        packet_bytes=float(packet_bytes),
    )


@dataclass(frozen=True)
class ChainStack:
    """Several :class:`ChainProfile` rows stacked for one kernel pass.

    Rows may mix chains and packet sizes — a multi-chain node (one row
    per hosted chain), a packet-size sweep (one row per frame size of
    the same chain), or both.  Per-NF arrays have shape ``(R, n_max)``;
    rows whose chain has fewer than ``n_max`` NFs are zero-padded, with
    ``valid`` masking the live lanes (``None`` when every row has the
    same NF count).  ``total_state_bytes`` and ``packet_bytes`` are
    ``(R, 1)`` columns so they broadcast against knob columns inside
    :meth:`PacketEngine._chain_costs`.
    """

    profiles: tuple[ChainProfile, ...]
    compute_cycles: np.ndarray  # (R, n_max)
    state_lines: np.ndarray  # (R, n_max)
    touched_lines: np.ndarray  # (R, n_max)
    total_state_bytes: np.ndarray  # (R, 1)
    packet_bytes: np.ndarray  # (R, 1)
    n_nfs: np.ndarray  # (R,) per-row NF counts (float64 for broadcasting)
    valid: np.ndarray | None  # (R, n_max) bool lane mask, None if homogeneous

    def __len__(self) -> int:
        """Padded NF-axis length (matches ``len(profile)`` semantics)."""
        return self.compute_cycles.shape[1]

    @property
    def rows(self) -> int:
        """Number of stacked profiles."""
        return self.compute_cycles.shape[0]


def stack_profiles(profiles) -> ChainStack:
    """Stack :class:`ChainProfile` rows into one padded :class:`ChainStack`."""
    profiles = tuple(profiles)
    if not profiles:
        raise ValueError("need at least one profile to stack")
    n_nfs = [len(p) for p in profiles]
    n_max = max(n_nfs)
    lanes = np.arange(n_max)[None, :] < np.asarray(n_nfs)[:, None]
    # A mask assignment fills the live lanes row by row, in the order of
    # the profiles' arrays concatenated.
    compute, state, touched = np.zeros((3, len(profiles), n_max))
    compute[lanes] = np.concatenate([p.compute_cycles for p in profiles])
    state[lanes] = np.concatenate([p.state_lines for p in profiles])
    touched[lanes] = np.concatenate([p.touched_lines for p in profiles])
    if min(n_nfs) == n_max:
        valid = None
    else:
        valid = lanes
        valid.flags.writeable = False
    total_state = np.asarray(
        [p.total_state_bytes for p in profiles], dtype=np.float64
    )[:, None]
    pkt = np.asarray([p.packet_bytes for p in profiles], dtype=np.float64)[:, None]
    for arr in (compute, state, touched, total_state, pkt):
        arr.flags.writeable = False
    return ChainStack(
        profiles=profiles,
        compute_cycles=compute,
        state_lines=state,
        touched_lines=touched,
        total_state_bytes=total_state,
        packet_bytes=pkt,
        n_nfs=np.asarray(n_nfs, dtype=np.float64),
        valid=valid,
    )


@lru_cache(maxsize=512)
def chain_stack(chains, packet_bytes, line_bytes: float = 64.0) -> ChainStack:
    """Build (or fetch the cached) stack for chains at their packet sizes.

    ``chains`` and ``packet_bytes`` are same-length tuples — one row per
    (chain, frame size) pair.  Like :func:`chain_profile`, stacks are
    memoized: a node stepping the same resident chains every interval
    reuses one stack for the whole run.
    """
    if len(chains) != len(packet_bytes):
        raise ValueError("need one packet size per chain")
    return stack_profiles(
        chain_profile(c, p, line_bytes) for c, p in zip(chains, packet_bytes)
    )


@dataclass
class NFTelemetry:
    """Per-NF interval measurements."""

    name: str
    cycles_per_packet: float
    service_rate_pps: float
    utilization: float
    misses_per_packet: float


@dataclass
class TelemetrySample:
    """Everything the controller reads back after one interval.

    This is the simulator's equivalent of the state-collection step in
    Algorithm 3: throughput ``T``, energy ``E``, CPU utilization ``xi``
    and packet arrival rate ``Omega``, plus diagnostics.
    """

    dt_s: float
    offered_pps: float
    achieved_pps: float
    packet_bytes: float
    throughput_gbps: float
    llc_miss_rate_per_s: float
    cpu_utilization: float  # fraction of provisioned cores busy, 0..1
    cpu_cores_busy: float  # absolute busy-core count ("CPU usage %" / 100)
    power_w: float
    energy_j: float
    dropped_pps: float
    latency_s: float
    arrival_rate_pps: float
    per_nf: list[NFTelemetry] = field(default_factory=list)

    @property
    def energy_per_mpacket(self) -> float:
        """Energy per million processed packets (Fig. 1(c)/4(b) metric)."""
        packets = self.achieved_pps * self.dt_s
        if packets <= 0:
            return float("inf")
        return self.energy_j / (packets / 1e6)

    @property
    def energy_efficiency(self) -> float:
        """Throughput per unit energy, lambda = T / E (Eq. 3), Gbps/kJ."""
        if self.energy_j <= 0:
            return 0.0
        return self.throughput_gbps / (self.energy_j / 1e3)


def efficiency_grid(throughput_gbps, energy_j) -> np.ndarray:
    """Eq. 3's lambda = T / E in Gbps per kJ, elementwise over a grid.

    Zero-energy points score 0 (not inf/nan) — the one definition every
    grid telemetry and grid search shares, so scorers cannot diverge on
    the convention.
    """
    energy = np.asarray(energy_j)
    # kJ, then Gbps per kJ, in the one output array.
    out = np.empty(np.broadcast_shapes(np.shape(throughput_gbps), energy.shape))
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(energy, 1e3, out=out)
        np.divide(throughput_gbps, out, out=out)
    np.copyto(out, 0.0, where=~(energy > 0))
    return out


@dataclass
class BatchTelemetry:
    """Telemetry of a K-knob x L-load grid evaluated in one call.

    Grid quantities have shape ``(K, L)``; per-NF quantities depend only
    on the knobs and have shape ``(K, n_nfs)``.  Row ``k`` corresponds to
    ``knobs[k]``; column ``l`` to ``offered_pps[l]``.

    When the grid was evaluated over a packet-size axis of P frame
    sizes, ``packet_bytes`` is the ``(P,)`` axis, grid quantities have
    shape ``(K, L, P)``, and per-knob quantities gain the packet axis
    too: ``chain_rate_pps`` is ``(K, P)`` and per-NF quantities are
    ``(K, P, n_nfs)`` (``nf_utilization``: ``(K, L, P, n_nfs)``).
    """

    dt_s: float
    packet_bytes: float | np.ndarray
    offered_pps: np.ndarray  # (L,)
    achieved_pps: np.ndarray  # (K, L)
    throughput_gbps: np.ndarray  # (K, L)
    llc_miss_rate_per_s: np.ndarray  # (K, L)
    cpu_utilization: np.ndarray  # (K, L)
    cpu_cores_busy: np.ndarray  # (K, L)
    power_w: np.ndarray  # (K, L)
    energy_j: np.ndarray  # (K, L)
    dropped_pps: np.ndarray  # (K, L)
    latency_s: np.ndarray  # (K, L)
    chain_rate_pps: np.ndarray  # (K,)
    cycles_per_packet: np.ndarray  # (K, n)
    misses_per_packet: np.ndarray  # (K, n)
    service_rate_pps: np.ndarray  # (K, n)
    nf_utilization: np.ndarray  # (K, L, n)
    nf_names: tuple[str, ...] = ()

    @property
    def shape(self) -> tuple[int, ...]:
        """(K knob settings, L offered loads[, P packet sizes])."""
        return self.achieved_pps.shape

    @property
    def energy_per_mpacket(self) -> np.ndarray:
        """Energy per million processed packets across the grid."""
        packets = self.achieved_pps * self.dt_s
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(
                packets > 0, self.energy_j / (packets / 1e6), np.inf
            )
        return out

    @property
    def energy_efficiency(self) -> np.ndarray:
        """Gbps per kJ across the grid (Eq. 3's lambda)."""
        return efficiency_grid(self.throughput_gbps, self.energy_j)

    def sample(self, k: int, l: int, p: int | None = None) -> TelemetrySample:
        """Materialize one grid point as a full :class:`TelemetrySample`.

        For telemetry carrying a packet-size axis, ``p`` selects the
        frame size (required then, rejected otherwise).
        """
        if self.achieved_pps.ndim == 3:
            if p is None:
                raise ValueError(
                    "this telemetry has a packet-size axis; pass sample(k, l, p)"
                )
            grid = (k, l, p)
            knob = (k, p)
            pkt = float(self.packet_bytes[p])
        else:
            if p is not None:
                raise ValueError("no packet-size axis on this telemetry")
            grid = (k, l)
            knob = (k,)
            pkt = self.packet_bytes
        per_nf = [
            NFTelemetry(
                name=name,
                cycles_per_packet=float(self.cycles_per_packet[knob + (i,)]),
                service_rate_pps=float(self.service_rate_pps[knob + (i,)]),
                utilization=float(self.nf_utilization[grid + (i,)]),
                misses_per_packet=float(self.misses_per_packet[knob + (i,)]),
            )
            for i, name in enumerate(self.nf_names)
        ]
        return TelemetrySample(
            dt_s=self.dt_s,
            offered_pps=float(self.offered_pps[l]),
            achieved_pps=float(self.achieved_pps[grid]),
            packet_bytes=pkt,
            throughput_gbps=float(self.throughput_gbps[grid]),
            llc_miss_rate_per_s=float(self.llc_miss_rate_per_s[grid]),
            cpu_utilization=float(self.cpu_utilization[grid]),
            cpu_cores_busy=float(self.cpu_cores_busy[grid]),
            power_w=float(self.power_w[grid]),
            energy_j=float(self.energy_j[grid]),
            dropped_pps=float(self.dropped_pps[grid]),
            latency_s=float(self.latency_s[grid]),
            arrival_rate_pps=float(self.offered_pps[l]),
            per_nf=per_nf,
        )


@dataclass
class MultiChainTelemetry:
    """Telemetry of one :meth:`ChainKernelPlan.step` call.

    For a diagonal plan each row is a *different* chain evaluated at its
    own knob setting, offered load and packet size — the multi-chain
    node's per-interval workload.  Per-chain quantities have shape
    ``(R,)``; per-NF quantities ``(R, n_max)`` with padded lanes zeroed.
    A block of n intervals puts a leading ``n`` axis on every
    load-dependent quantity (``offered_pps`` through ``latency_s`` and
    ``nf_utilization``).
    Row ``r``'s values match the scalar :meth:`PacketEngine.step` call
    for that chain to <= 1 ulp.  A grid plan's call carries the grid
    shapes instead (see :meth:`PacketEngine.step_batch`, which repacks
    them into a :class:`BatchTelemetry`).
    """

    dt_s: float
    offered_pps: np.ndarray  # (R,)
    packet_bytes: np.ndarray  # (R,)
    achieved_pps: np.ndarray  # (R,)
    throughput_gbps: np.ndarray  # (R,)
    llc_miss_rate_per_s: np.ndarray  # (R,)
    cpu_utilization: np.ndarray  # (R,)
    cpu_cores_busy: np.ndarray  # (R,)
    power_w: np.ndarray  # (R,)
    energy_j: np.ndarray  # (R,)
    dropped_pps: np.ndarray  # (R,)
    latency_s: np.ndarray  # (R,)
    chain_rate_pps: np.ndarray  # (R,)
    cycles_per_packet: np.ndarray  # (R, n_max)
    misses_per_packet: np.ndarray  # (R, n_max)
    service_rate_pps: np.ndarray  # (R, n_max)
    nf_utilization: np.ndarray  # (R, n_max)


def aggregate_samples(samples) -> TelemetrySample:
    """Fold per-chain telemetry into one Eq. 1/2-style node aggregate.

    Throughput/energy/misses/drops sum over chains (``psi_T = sum_i
    T_{f_i}``, ``psi_E = sum_i E_{f_i}``); utilization and latency take
    the worst chain; packet size is the achieved-rate-weighted mean.
    The aggregate of one chain is that chain's own sample.  The sums
    are left folds (:func:`~repro.utils.stats.left_sum`), the same on
    every Python.  This is the only implementation of the fold, so the
    result does not depend on which stepping path produced the samples.
    """
    items = list(samples)
    if not items:
        raise ValueError("need at least one sample to aggregate")
    if len(items) == 1:
        return items[0]
    total_pps = left_sum([s.achieved_pps for s in items])
    total_offered = left_sum([s.offered_pps for s in items])
    mean_pkt = (
        left_sum([s.packet_bytes * s.achieved_pps for s in items]) / total_pps
        if total_pps > 0
        else items[0].packet_bytes
    )
    return TelemetrySample(
        dt_s=items[0].dt_s,
        offered_pps=total_offered,
        achieved_pps=total_pps,
        packet_bytes=mean_pkt,
        throughput_gbps=left_sum([s.throughput_gbps for s in items]),
        llc_miss_rate_per_s=left_sum([s.llc_miss_rate_per_s for s in items]),
        cpu_utilization=max(s.cpu_utilization for s in items),
        cpu_cores_busy=left_sum([s.cpu_cores_busy for s in items]),
        power_w=left_sum([s.power_w for s in items]),
        energy_j=left_sum([s.energy_j for s in items]),
        dropped_pps=left_sum([s.dropped_pps for s in items]),
        latency_s=max(s.latency_s for s in items),
        arrival_rate_pps=total_offered,
    )


@dataclass
class ChainKernelPlan:
    """A compiled stepping kernel for fixed knob settings.

    Holds every load-independent quantity (per-NF costs, service rates,
    livelock constants, NIC/ring caps, allocated cores) so :meth:`step`
    only has to price the offered loads.  :meth:`step` is the one
    vectorized pricing body, written with ``...``/``[..., None]``
    broadcasting so it serves two plan shapes:

    * a *diagonal* plan (:meth:`PacketEngine.compile_chains`) — rows
      ``(R,)``, per-NF arrays ``(R, n)``, one offered load per row; row
      ``r`` matches the scalar :meth:`PacketEngine.step` call for that
      chain to <= 1 ulp;
    * a *grid* plan (:meth:`PacketEngine.step_batch`) — knob columns
      ``(K, 1, 1)`` against P stacked frame sizes, so rows are
      ``(K, 1, P)``, per-NF arrays ``(K, 1, P, n)``, and an ``(L, 1)``
      load column broadcasts every priced array to ``(K, L, P)``.
    """

    engine: "PacketEngine"
    stack: ChainStack
    share: np.ndarray  # knob column: (R,) or (K, 1, 1)
    freq: np.ndarray  # knob column, GHz
    batch: np.ndarray  # knob column
    capacity: np.ndarray  # knob column: cycles/s granted per NF
    cpps: np.ndarray  # per-NF cycles/packet (padded lanes zeroed)
    misses_pp: np.ndarray  # per-NF
    rates: np.ndarray  # per-NF service rates
    chain_rate: np.ndarray  # rows: pipeline bottleneck rate
    livelock_able: np.ndarray  # rows, bool: NF0 cpp exceeds the rx-drop cost
    livelock_denom: np.ndarray  # rows
    nic_cap: np.ndarray  # (R,) or (P,): line-rate pps at each frame size
    absorb_pps: np.ndarray  # rows: rx-ring burst absorption cap
    proc_s: np.ndarray  # rows: pipeline walk time
    total_misses_pp: np.ndarray  # rows
    allocated_cores: np.ndarray  # rows
    infra_busy: float
    util_poll: np.ndarray | None  # per-NF fixed utilization under POLL
    busy_poll: np.ndarray | None  # rows

    def step(
        self,
        offered_grid,
        dt_s: float = 1.0,
        *,
        include_power: bool = True,
    ) -> MultiChainTelemetry:
        """Price offered loads through the plan.

        A diagonal plan takes one offered rate per row, ``(R,)``, or an
        ``(n, R)`` block of n intervals priced at once (every output
        gains the leading interval axis); a grid plan takes an
        ``(L, 1)`` load column.  Loads must be non-negative (``inf`` is
        legal: the NIC line rate clamps it); NaN is rejected.

        The body prices in place: every grid-sized quantity it computes
        is written into the output array it becomes or into one of two
        scratch buffers, which end as ``dropped_pps`` and
        ``llc_miss_rate_per_s``; the watts and the throughput come from
        :meth:`PacketEngine.node_power` and :func:`pps_to_gbps`.  Each
        operation is the IEEE operation of the expression form, in the
        same order, so the outputs are bit-identical to it; each
        load-dependent output is a fresh C-contiguous array that shares
        memory with no other output and with no plan array.  Every sum
        over the NF lanes adds them one at a time from the left, as the
        scalar :meth:`PacketEngine.step` does, so a row prices the same
        however wide the lanes its stack pads it to.
        """
        if not dt_s > 0:
            raise ValueError("dt must be positive")
        offered = np.atleast_1d(np.asarray(offered_grid, dtype=np.float64))
        rows = self.chain_rate.shape
        if len(rows) == 1:
            shape_ok = offered.ndim <= 2 and offered.shape[-1:] == rows
        else:
            shape_ok = offered.shape == (offered.shape[0], 1)
        if not shape_ok:
            raise ValueError("need one offered rate per plan row")
        if not np.all(offered >= 0):
            raise ValueError("offered rates must be non-negative")
        rx = self.engine.params.rx_drop_cycles
        cpps = self.cpps
        capacity = self.capacity

        # 1. NIC admission (line rate, per chain's frame size).
        admitted = np.minimum(offered, self.nic_cap)

        # 2. Rx-ring delivery (DMA buffer absorption): the delivery ratio,
        #    then the delivered rate, in the first scratch buffer.
        delivered = np.divide(self.absorb_pps, np.where(admitted > 0, admitted, 1.0))
        np.minimum(1.0, delivered, out=delivered)
        np.copyto(delivered, 1.0, where=admitted == 0)
        np.multiply(admitted, delivered, out=delivered)

        # 3. Pipeline bottleneck.
        achieved = np.minimum(delivered, self.chain_rate)

        # 4. Receive livelock: NF 0's rate in the second scratch buffer.
        scratch = np.multiply(delivered, cpps[..., 0])
        livelock = np.greater(scratch, capacity)
        livelock &= self.livelock_able
        np.multiply(delivered, rx, out=scratch)
        np.subtract(capacity, scratch, out=scratch)
        np.divide(scratch, self.livelock_denom, out=scratch)
        np.maximum(0.0, scratch, out=scratch)
        np.minimum(achieved, scratch, out=scratch)
        np.copyto(achieved, scratch, where=livelock)

        # 5. Per-NF utilization and busy cores.
        if self.util_poll is not None:
            util = np.broadcast_to(
                self.util_poll, achieved.shape + cpps.shape[-1:]
            ).copy()
            total_busy = np.broadcast_to(self.busy_poll, achieved.shape) + self.infra_busy
        else:
            # Work per NF; NF 0 also spends rx cycles on what it drops.
            util = np.multiply(achieved[..., None], cpps)
            np.subtract(delivered, achieved, out=delivered)
            np.maximum(0.0, delivered, out=delivered)
            np.multiply(delivered, rx, out=delivered)
            np.add(util[..., 0], delivered, out=util[..., 0])
            cap = capacity[..., None]
            np.divide(util, np.where(cap > 0, cap, 1.0), out=util)
            np.minimum(1.0, util, out=util)
            np.copyto(util, 0.0, where=~(cap > 0))
            np.add(util, self.engine.params.adaptive_poll_overhead, out=util)
            np.minimum(1.0, util, out=util)
            if self.stack.valid is not None:
                np.copyto(util, 0.0, where=~self.stack.valid)
            total_busy = np.multiply(self.share, util[..., 0])
            # repro-lint: allow[KRN002] a left fold over the NF lanes, in place: the scalar step's order, exact under any lane padding
            for lane in range(1, cpps.shape[-1]):
                total_busy += np.multiply(self.share, util[..., lane], out=scratch)
            total_busy += self.infra_busy

        # 6. CPU utilization of the allocated cores.
        cpu_utilization = np.divide(total_busy, self.allocated_cores)
        np.minimum(1.0, cpu_utilization, out=cpu_utilization)

        # 7. Latency: batch fill + pipeline walk + queueing, the peak
        #    utilization and the queueing term in the scratch buffers.
        cr = self.chain_rate
        np.divide(achieved, np.where(cr > 0, cr, 1.0), out=scratch)
        np.minimum(1.0, scratch, out=scratch)
        np.copyto(scratch, 1.0, where=~(cr > 0))
        np.minimum(scratch, 0.999, out=delivered)
        np.subtract(1.0, delivered, out=delivered)
        np.maximum(1e-6, delivered, out=delivered)
        np.multiply(self.proc_s, scratch, out=scratch)
        np.divide(scratch, delivered, out=scratch)
        latency_s = np.maximum(achieved, 1.0)
        np.divide(self.batch, latency_s, out=latency_s)
        latency_s += self.proc_s
        latency_s += scratch

        # 8. Drops and LLC misses take over the scratch buffers.
        dropped = np.subtract(offered, achieved, out=delivered)
        np.maximum(0.0, dropped, out=dropped)
        miss_rate = np.multiply(achieved, self.total_misses_pp, out=scratch)

        # 9. Node power (or zeros when the node prices power itself).
        if include_power:
            power_w = self.engine.node_power(total_busy, self.allocated_cores, self.freq)
            energy_j = np.multiply(power_w, dt_s)
        else:
            power_w = np.zeros_like(total_busy)
            energy_j = np.zeros_like(total_busy)

        pkt = self.stack.packet_bytes[:, 0]

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
            chain_rate_pps=self.chain_rate,
            cycles_per_packet=cpps,
            misses_per_packet=self.misses_pp,
            service_rate_pps=self.rates,
            nf_utilization=util,
        )


def _knob_arrays(
    knobs_grid,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(cpu_share, freq_ghz, llc_fraction, dma_bytes, batch) columns.

    Accepts a sequence of :class:`KnobSettings`, read as its
    :func:`~repro.nfv.knobs.knob_row` table, or an ``(K, 5)`` array in
    :meth:`KnobSettings.as_array` layout (dma in MB).  Every value is
    priced as given, a fractional batch too, as :meth:`PacketEngine.step`
    prices it.  The one knob validation every plan shares: empty grids
    and non-finite or out-of-range columns are rejected.
    """
    if not isinstance(knobs_grid, np.ndarray):
        rows = itertools.chain.from_iterable(map(knob_row, knobs_grid))
        knobs_grid = np.fromiter(rows, dtype=np.float64).reshape(-1, 5)
    arr = np.asarray(knobs_grid, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 5:
        raise ValueError(f"knob grid array must have shape (K, 5), got {arr.shape}")
    share, freq, llc_frac, batch = arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 4]
    dma_bytes = arr[:, 3] * 1e6
    if share.size == 0:
        raise ValueError("knob grid must contain at least one setting")
    columns = (share, freq, llc_frac, dma_bytes, batch)
    if not all(np.all(np.isfinite(c)) for c in columns):
        raise ValueError("knob grid contains non-finite values")
    if np.any(share <= 0) or np.any(freq <= 0) or np.any(batch < 1):
        raise ValueError("knob grid contains invalid cpu_share/freq/batch values")
    if np.any(llc_frac <= 0) or np.any(llc_frac > 1.0) or np.any(dma_bytes <= 0):
        raise ValueError("knob grid contains invalid llc_fraction/dma values")
    return columns


class PacketEngine:
    """Computes one chain's interval telemetry on one node's hardware."""

    def __init__(
        self,
        server: ServerSpec | None = None,
        params: EngineParams | None = None,
        polling: PollingMode = PollingMode.ADAPTIVE,
        *,
        cat_enabled: bool = True,
        park_idle_cores: bool = True,
    ):
        self.server = server or ServerSpec()
        self.params = params or EngineParams()
        self.polling = polling
        self.cat_enabled = cat_enabled
        self.park_idle_cores = park_idle_cores
        self.power_model = ServerPowerModel(self.server.power)
        self.dma_model = DmaBufferModel(self.server.dma, self.server.llc)
        #: Busy cores of the ONVM Rx/Tx infra threads under this polling
        #: mode (every sample and every node fold includes them).
        self.infra_busy = self.params.infra_cores * (
            self.params.infra_util_poll
            if polling == PollingMode.POLL
            else self.params.infra_util_adaptive
        )

    # -- cache environment ---------------------------------------------------

    def _resolve_llc_contention(self, share, llc_frac, llc_bytes, contention):
        """(effective LLC bytes, effective contention) knob columns.

        The shared preamble of every grid kernel: derive the requested
        capacity from the ``llc_fraction`` column unless an explicit
        per-knob grant override is given, apply the CAT-disabled
        environment, and floor the cross-chain contention at the no-CAT
        multiplier.  All outputs broadcast to ``share``'s shape.
        """
        llc = self.server.llc
        if llc_bytes is None:
            llc_req = llc_frac * llc.way_bytes * llc.allocatable_ways
        else:
            llc_req = np.broadcast_to(
                np.asarray(llc_bytes, dtype=np.float64), share.shape
            )
        eff_llc, cat_contention = self.effective_llc_bytes(llc_req)
        if contention is None:
            eff_contention = np.broadcast_to(
                np.asarray(cat_contention, dtype=np.float64), share.shape
            )
        else:
            eff_contention = np.maximum(
                np.broadcast_to(np.asarray(contention, dtype=np.float64), share.shape),
                cat_contention,
            )
        return np.asarray(eff_llc, dtype=np.float64), eff_contention

    def effective_llc_bytes(self, requested_bytes):
        """(effective allocation, contention multiplier) for a chain.

        With CAT the chain keeps its CLOS grant exclusively.  Without CAT
        ("all other components set to default values" — the Baseline and
        EE-Pstate do not manage the cache) the chain competes with
        background tenants for the whole allocatable region, shrinking its
        effective share and adding conflict misses.  Accepts a scalar or
        an array of requested capacities.
        """
        if self.cat_enabled:
            if np.isscalar(requested_bytes):
                return requested_bytes, 1.0
            return np.asarray(requested_bytes, dtype=np.float64), 1.0
        llc = self.server.llc
        allocatable = llc.way_bytes * llc.allocatable_ways
        bg = self.params.no_cat_background_share * allocatable
        share = allocatable * requested_bytes / (requested_bytes + bg)
        return share, self.params.no_cat_contention

    # -- per-NF cost -------------------------------------------------------

    def _chain_costs(
        self,
        profile: ChainProfile,
        batch,
        dma_bytes,
        llc_bytes,
        contention,
    ) -> tuple[np.ndarray, np.ndarray]:
        """(cycles/packet, misses/packet) for every NF of a chain at once.

        ``batch``/``dma_bytes``/``llc_bytes``/``contention`` are scalars
        (shape ``()``) or knob columns with a trailing length-1 NF axis
        (``(R, 1)`` for a diagonal plan, ``(K, 1, 1, 1)`` for a grid);
        the NF axis is last, so results have shape ``(n,)`` or the
        columns' shape broadcast against the stack's ``(rows, n)``.
        One body serves both: a scalar knob prices as the same knob in
        a ``(1, 1)`` column, bit for bit.
        """
        llc = self.server.llc
        p = self.params

        pf = prefetch_efficiency(batch)
        pen_eff = llc.miss_penalty_cycles * (1.0 - pf)
        hit_eff = llc.hit_cycles * (1.0 - pf)

        # Working set the chain keeps live in its allocation.
        ws = profile.total_state_bytes + batch * profile.packet_bytes
        base_miss = capacity_miss_ratio(ws, llc_bytes, locality=p.cache_locality)

        # Payload access: DDIO landing for the first NF, LLC residency of
        # the in-flight batch for the rest.
        p_hit0 = self.dma_model.llc_spill_hit_ratio(dma_bytes, llc_bytes)
        p_miss = np.minimum(1.0, base_miss * contention)
        p_hit0 = np.maximum(0.0, p_hit0 * (1.0 - p_miss * 0.5))
        p_hit = np.empty(np.shape(p_miss)[:-1] + (len(profile),))
        np.subtract(1.0, p_miss, out=p_hit)
        p_hit[..., :1] = p_hit0

        # State-table walks.
        state_cycles = profile.state_lines * p_miss * pen_eff
        misses = profile.state_lines * p_miss

        payload_cycles = profile.touched_lines * p.mem_factor * (
            p_hit * hit_eff + (1.0 - p_hit) * pen_eff
        )
        misses = misses + profile.touched_lines * (1.0 - p_hit)

        # Cold misses + per-call overheads amortized over the batch.
        cold_cycles = p.cold_lines_per_batch * pen_eff / batch
        misses = misses + p.cold_lines_per_batch / batch
        overhead = p.ring_call_cycles / batch + p.mbuf_cycles / np.sqrt(batch)

        cycles = profile.compute_cycles + overhead + state_cycles
        cycles = cycles + (payload_cycles + cold_cycles)
        cycles[..., 1:] = cycles[..., 1:] + p.inter_nf_handoff_cycles
        return cycles, misses

    # -- power ---------------------------------------------------------------

    def node_power(self, busy_cores, allocated_cores, freq_ghz):
        """Node power for a given busy/allocated core split.

        Utilization for the Fan model is the busy fraction of the whole
        socket.  Unallocated cores are parked in C6 (8% residual idle
        power) when ``park_idle_cores`` is set; otherwise they idle at
        full C0/C1 power, as on the untuned Baseline.  All three inputs
        broadcast, so grid evaluations price power in one call.
        """
        total = float(self.server.cpu.total_cores)
        if (
            np.isscalar(busy_cores)
            and np.isscalar(allocated_cores)
            and np.isscalar(freq_ghz)
        ):
            allocated = float(min(total, max(allocated_cores, 0.0)))
            busy = float(min(max(busy_cores, 0.0), total))
            u = busy / total
            parked = total - allocated
            if self.park_idle_cores:
                idle_fraction = (allocated + 0.08 * parked) / total
            else:
                idle_fraction = 1.0
            return float(
                self.power_model.power(u, freq_ghz, idle_fraction=idle_fraction)
            )
        allocated = np.minimum(total, np.maximum(allocated_cores, 0.0))
        parked = total - allocated
        if self.park_idle_cores:
            idle_fraction = (allocated + 0.08 * parked) / total
        else:
            idle_fraction = 1.0
        u = np.clip(busy_cores, 0.0, total)
        u /= total
        out = self.power_model.power(u, freq_ghz, idle_fraction=idle_fraction)
        return np.asarray(out)

    # -- chain-level -------------------------------------------------------

    def step(
        self,
        chain: ServiceChain,
        knobs: KnobSettings,
        offered_pps: float,
        packet_bytes: float,
        dt_s: float = 1.0,
        *,
        llc_bytes: float | None = None,
        contention: float | None = None,
        include_power: bool = True,
    ) -> TelemetrySample:
        """Simulate one control interval for a single chain.

        Parameters
        ----------
        llc_bytes:
            Chain's requested LLC capacity; default derives it from the
            ``llc_fraction`` knob against the allocatable region.  The
            effective capacity additionally reflects CAT being disabled.
        contention:
            Cross-chain miss-ratio multiplier (>= 1) computed by the node
            when several chains share the socket; default 1 (or the
            no-CAT contention when CAT is disabled).
        """
        if not offered_pps >= 0 or not 0 < packet_bytes < np.inf or not dt_s > 0:
            raise ValueError("offered rate/packet size/dt must be valid")
        llc = self.server.llc
        if llc_bytes is None:
            llc_bytes = knobs.llc_fraction * llc.way_bytes * llc.allocatable_ways
        eff_llc, cat_contention = self.effective_llc_bytes(llc_bytes)
        eff_contention = cat_contention if contention is None else max(contention, cat_contention)

        profile = chain_profile(chain, packet_bytes, llc.line_bytes)
        cpps, misses_pp = self._chain_costs(
            profile, float(knobs.batch_size), knobs.dma_bytes, eff_llc, eff_contention
        )

        # 1. NIC admission (line rate).
        nic_cap = self.server.nic.max_pps(packet_bytes)
        admitted = min(offered_pps, nic_cap)

        # 2. Rx-ring delivery (DMA buffer absorption).
        delivery = self.dma_model.delivery_ratio(knobs.dma_bytes, packet_bytes, admitted)
        delivered = admitted * delivery

        # 3. Pipeline bottleneck.
        freq_hz = knobs.cpu_freq_ghz * 1e9
        rates = knobs.cpu_share * freq_hz / cpps
        chain_rate = float(rates.min())
        achieved = min(delivered, chain_rate)

        # 4. Receive livelock: when the first NF cannot keep up, the
        #    packets it receives and drops still cost rx cycles, eating
        #    into its packet-processing budget.
        c0_capacity = knobs.cpu_share * freq_hz
        rx = self.params.rx_drop_cycles
        cpp0 = float(cpps[0])
        if delivered * cpp0 > c0_capacity and cpp0 > rx:
            nf0_rate = max(0.0, (c0_capacity - delivered * rx) / (cpp0 - rx))
            achieved = min(achieved, nf0_rate)

        # 5. Per-NF utilization.
        capacity = knobs.cpu_share * freq_hz
        work = achieved * cpps
        work[0] = work[0] + max(0.0, delivered - achieved) * rx
        if capacity > 0:
            util = np.minimum(1.0, work / capacity)
        else:
            util = np.zeros_like(work)
        if self.polling == PollingMode.POLL:
            util = np.full_like(util, 1.0 if knobs.cpu_share > 0 else 0.0)
        else:
            util = np.minimum(1.0, util + self.params.adaptive_poll_overhead)
        busy_cores = left_sum((knobs.cpu_share * util).tolist())
        per_nf = [
            NFTelemetry(
                name=profile.names[i],
                cycles_per_packet=float(cpps[i]),
                service_rate_pps=float(rates[i]),
                utilization=float(util[i]),
                misses_per_packet=float(misses_pp[i]),
            )
            for i in range(len(profile))
        ]

        # Infrastructure (Rx/Tx) threads.
        allocated_cores = knobs.cpu_share * len(chain) + self.params.infra_cores
        total_busy = busy_cores + self.infra_busy

        # 6. Node power via the Fan et al. model.  Power utilization is
        #    node-level (busy fraction of all cores), so consuming more
        #    cycles always costs more energy; cores the chain did not
        #    allocate sit parked in C6 (GreenNFV "turn[s] off idle CPU
        #    cores"), shrinking idle power, unless parking is disabled
        #    (the Baseline leaves every core online).
        cpu_utilization = min(1.0, total_busy / allocated_cores)
        if include_power:
            power_w = self.node_power(
                total_busy, allocated_cores, knobs.cpu_freq_ghz
            )
            energy_j = power_w * dt_s
        else:
            power_w = 0.0
            energy_j = 0.0

        # 7. Diagnostics.
        total_misses_pp = left_sum(misses_pp.tolist())
        miss_rate = achieved * total_misses_pp
        dropped = max(0.0, offered_pps - achieved)
        # Latency: batch fill time + per-NF processing + queueing headroom.
        proc_s = left_sum(cpps.tolist()) / freq_hz if freq_hz > 0 else float("inf")
        fill_s = knobs.batch_size / max(achieved, 1.0)
        utilization_peak = (
            min(1.0, achieved / chain_rate) if chain_rate > 0 else 1.0
        )
        queue_s = proc_s * utilization_peak / max(1e-6, 1.0 - min(utilization_peak, 0.999))
        latency_s = fill_s + proc_s + queue_s

        return TelemetrySample(
            dt_s=dt_s,
            offered_pps=offered_pps,
            achieved_pps=achieved,
            packet_bytes=packet_bytes,
            throughput_gbps=pps_to_gbps(achieved, packet_bytes),
            llc_miss_rate_per_s=miss_rate,
            cpu_utilization=cpu_utilization,
            cpu_cores_busy=total_busy,
            power_w=power_w,
            energy_j=energy_j,
            dropped_pps=dropped,
            latency_s=latency_s,
            arrival_rate_pps=offered_pps,
            per_nf=per_nf,
        )

    def step_batch(
        self,
        chain: ServiceChain,
        knobs_grid,
        offered_grid,
        packet_bytes: float,
        dt_s: float = 1.0,
        *,
        llc_bytes=None,
        contention=None,
        include_power: bool = True,
    ) -> BatchTelemetry:
        """Evaluate K knob settings x L offered loads in one call.

        Parameters
        ----------
        knobs_grid:
            Sequence of :class:`KnobSettings` or a ``(K, 5)`` array in
            :meth:`KnobSettings.as_array` layout.
        offered_grid:
            Offered packet rates, shape ``(L,)`` (scalars are promoted).
        packet_bytes:
            One frame size (grid arrays come back ``(K, L)``) or a
            one-dimensional axis of P frame sizes — then the whole
            K x L x P grid is evaluated in this one call and grid arrays
            come back ``(K, L, P)`` (per-knob/per-NF quantities gain the
            packet axis too: ``(K, P)`` / ``(K, P, n)``).
        llc_bytes:
            Requested LLC capacity override — scalar or per-knob ``(K,)``
            array; default derives it from each setting's
            ``llc_fraction``.
        contention:
            Cross-chain miss multiplier — scalar or per-knob ``(K,)``.

        The grid is a :class:`ChainKernelPlan`: knob columns ``(K, 1, 1)``
        against one stack row per frame size, priced with an ``(L, 1)``
        load column, so every point is numerically equivalent to the
        corresponding :meth:`step` call and grid arrays come out
        C-contiguous in ``(K, L, P)`` order.
        """
        packet_axis = not (np.isscalar(packet_bytes) or np.ndim(packet_bytes) == 0)
        pkt = np.atleast_1d(np.asarray(packet_bytes, dtype=np.float64))
        if pkt.ndim != 1 or pkt.size == 0:
            raise ValueError("packet-size grid must be a non-empty 1-D axis")
        if not np.all((pkt > 0) & (pkt < np.inf)) or not dt_s > 0:
            raise ValueError("packet size must be finite and positive, dt positive")
        offered = np.atleast_1d(np.asarray(offered_grid, dtype=np.float64))
        if offered.ndim != 1:
            raise ValueError("offered grid must be one-dimensional")
        share, freq, llc_frac, dma_bytes, batch = _knob_arrays(knobs_grid)
        eff_llc, eff_contention = self._resolve_llc_contention(
            share, llc_frac, llc_bytes, contention
        )
        # One stack row per packet size (same chain throughout, so lanes
        # are homogeneous — no padding mask).
        stack = chain_stack(
            (chain,) * pkt.size, tuple(float(p) for p in pkt), self.server.llc.line_bytes
        )
        plan = self._compile(
            stack,
            *(c[:, None, None] for c in (share, freq, dma_bytes, batch, eff_llc, eff_contention)),
        )
        t = plan.step(offered[:, None], dt_s, include_power=include_power)
        if packet_axis:
            grid, knob, nf = np.s_[...], np.s_[:, 0], np.s_[...]
        else:
            grid, knob, nf = np.s_[..., 0], np.s_[:, 0, 0], np.s_[:, :, 0]
        return BatchTelemetry(
            dt_s=dt_s,
            packet_bytes=pkt if packet_axis else float(pkt[0]),
            offered_pps=offered,
            achieved_pps=t.achieved_pps[grid],
            throughput_gbps=t.throughput_gbps[grid],
            llc_miss_rate_per_s=t.llc_miss_rate_per_s[grid],
            cpu_utilization=t.cpu_utilization[grid],
            cpu_cores_busy=t.cpu_cores_busy[grid],
            power_w=t.power_w[grid],
            energy_j=t.energy_j[grid],
            dropped_pps=t.dropped_pps[grid],
            latency_s=t.latency_s[grid],
            chain_rate_pps=t.chain_rate_pps[knob],
            cycles_per_packet=t.cycles_per_packet[knob],
            misses_per_packet=t.misses_per_packet[knob],
            service_rate_pps=t.service_rate_pps[knob],
            nf_utilization=t.nf_utilization[nf],
            nf_names=stack.profiles[0].names,
        )

    def compile_chains(
        self,
        stack: ChainStack,
        knobs_grid,
        *,
        llc_bytes=None,
        contention=None,
    ) -> ChainKernelPlan:
        """Compile a diagonal plan: one knob setting per stacked chain.

        Per-NF costs, service rates, ring absorb rates and NIC caps
        depend only on (chains, knobs, LLC grants, contention) — not on
        the interval's offered load — so they are evaluated once here;
        :meth:`ChainKernelPlan.step` then prices each interval with a
        handful of vectorized ops.  The cluster kernel caches one plan
        per knob/deployment generation, which is what makes steady-state
        multi-chain stepping cheap.

        ``llc_bytes`` is the per-chain granted LLC capacity ``(R,)``
        (default: derived from each setting's ``llc_fraction``);
        ``contention`` the cross-chain miss multiplier, scalar or
        ``(R,)``.
        """
        share, freq, llc_frac, dma_bytes, batch = _knob_arrays(knobs_grid)
        if share.shape[0] != stack.rows:
            raise ValueError("need one knob setting per stacked chain")
        eff_llc, eff_contention = self._resolve_llc_contention(
            share, llc_frac, llc_bytes, contention
        )
        return self._compile(
            stack, share, freq, dma_bytes, batch, eff_llc, eff_contention
        )

    def _compile(
        self, stack, share, freq, dma_bytes, batch, eff_llc, eff_contention
    ) -> ChainKernelPlan:
        """Build a plan from knob columns that broadcast against the stack rows.

        ``(R,)`` columns over an R-row stack give the diagonal plan;
        ``(K, 1, 1)`` columns over a P-row stack give the grid plan.  The
        NF axis is always last (``[..., None]``).
        """
        cpps, misses_pp = self._chain_costs(
            stack,
            batch[..., None],
            dma_bytes[..., None],
            eff_llc[..., None],
            eff_contention[..., None],
        )
        valid = stack.valid
        if valid is not None:
            # Padded lanes carry the per-call overhead terms; zero them so
            # sums and mins see only real NFs.
            cpps = np.where(valid, cpps, 0.0)
            misses_pp = np.where(valid, misses_pp, 0.0)
        pkt = stack.packet_bytes[:, 0]

        # Pipeline service rates.
        freq_hz = freq * 1e9
        capacity = share * freq_hz
        if valid is None:
            rates = capacity[..., None] / cpps
            chain_rate = rates.min(axis=-1)
        else:
            rates = capacity[..., None] / np.where(valid, cpps, 1.0)
            chain_rate = np.where(valid, rates, np.inf).min(axis=-1)
            rates = np.where(valid, rates, 0.0)

        # Receive-livelock constants of NF 0.
        rx = self.params.rx_drop_cycles
        cpp0 = cpps[..., 0]
        livelock_able = cpp0 > rx
        livelock_denom = np.where(livelock_able, cpp0 - rx, 1.0)

        # NIC line rate and rx-ring absorb rate per frame size.
        nic_cap = self.server.nic.max_pps(pkt)
        absorb_pps = self.dma_model.absorb_rate_pps(dma_bytes, pkt)

        # NF-axis sums are left folds, as in the scalar step.
        proc_s = np.where(
            freq_hz > 0,
            left_sums(cpps) / np.where(freq_hz > 0, freq_hz, 1.0),
            np.inf,
        )
        total_misses_pp = left_sums(misses_pp)
        allocated_cores = share * stack.n_nfs + self.params.infra_cores
        if self.polling == PollingMode.POLL:
            util_poll = np.broadcast_to(
                np.where(share > 0, 1.0, 0.0)[..., None], cpps.shape
            ).copy()
            if valid is not None:
                util_poll = np.where(valid, util_poll, 0.0)
            busy_poll = left_sums(share[..., None] * util_poll)
        else:
            util_poll = None
            busy_poll = None

        # The cached arrays are aliased into every telemetry object the
        # plan produces; freeze them so an in-place write on a telemetry
        # object cannot corrupt the plan for later intervals.
        for arr in (cpps, misses_pp, rates, chain_rate, nic_cap,
                    absorb_pps, proc_s, total_misses_pp):
            if arr.flags.writeable:
                arr.flags.writeable = False
        return ChainKernelPlan(
            engine=self,
            stack=stack,
            share=share,
            freq=freq,
            batch=batch,
            capacity=capacity,
            cpps=cpps,
            misses_pp=misses_pp,
            rates=rates,
            chain_rate=chain_rate,
            livelock_able=livelock_able,
            livelock_denom=livelock_denom,
            nic_cap=nic_cap,
            absorb_pps=absorb_pps,
            proc_s=proc_s,
            total_misses_pp=total_misses_pp,
            allocated_cores=allocated_cores,
            infra_busy=self.infra_busy,
            util_poll=util_poll,
            busy_poll=busy_poll,
        )
