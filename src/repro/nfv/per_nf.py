"""Per-NF knob control — the paper's full Eq. (7) action space.

Eq. (7) defines the action set *per NF*: ``A_i = {c_i, cf_i, llc_i, b_i,
bs_i}`` — every network function in a chain gets its own CPU share, core
frequency (per-core DVFS), LLC share, DMA buffer and batch size.  The
chain-level controller (one knob vector per chain) is the common
deployment mode and what the §5 experiments sweep, but the fine-grained
space matters for heterogeneous chains: a NAT needs neither the IDS's
cores nor its cache.

:class:`PerNFEngine` extends the physics to a list of knob settings (one
per NF):

* each NF runs at its own share and DVFS frequency;
* each NF has its own CLOS: LLC fractions are normalized if the chain
  oversubscribes the allocatable ways (the controller's conflict rule);
* the DMA buffer is physically the chain's rx ring, so only the first
  NF's ``dma_mb`` is meaningful and is used for delivery/DDIO;
* per-NF batch sizes set each stage's amortization independently;
* node power uses the busy-weighted mean frequency.
"""

from __future__ import annotations

import math

import numpy as np

from repro.hw.cache import capacity_miss_ratio, prefetch_efficiency
from repro.nfv.chain import ServiceChain
from repro.nfv.engine import NFTelemetry, PacketEngine, PollingMode, TelemetrySample
from repro.nfv.knobs import KnobSettings
from repro.utils.stats import left_sum
from repro.utils.units import pps_to_gbps


class PerNFEngine(PacketEngine):
    """Physics for chains whose NFs carry individual knob settings."""

    def per_nf_llc_bytes(self, chain: ServiceChain, knobs: list[KnobSettings]) -> list[float]:
        """Per-NF CLOS capacities from the llc_fraction knobs.

        Fractions are normalized down proportionally when their sum
        exceeds 1.0 (the CAT allocator cannot oversubscribe ways).
        """
        if len(knobs) != len(chain):
            raise ValueError(
                f"need one KnobSettings per NF: {len(knobs)} != {len(chain)}"
            )
        llc = self.server.llc
        allocatable = llc.way_bytes * llc.allocatable_ways
        fracs = np.asarray([k.llc_fraction for k in knobs], dtype=np.float64)
        total = fracs.sum()
        if total > 1.0:
            fracs = fracs / total
        return [float(f * allocatable) for f in fracs]

    def nf_cost(
        self,
        chain: ServiceChain,
        nf_index: int,
        knobs: KnobSettings,
        packet_bytes: float,
        *,
        llc_bytes: float,
        contention: float = 1.0,
    ) -> tuple[float, float]:
        """(cycles/packet, misses/packet) for one NF with its own knobs.

        Unlike the chain-level model, the working set here is *this NF's*
        state plus its in-flight batch — each NF owns a CLOS, so it no
        longer competes with its siblings' state.
        """
        nf = chain.nfs[nf_index]
        llc = self.server.llc
        p = self.params

        pf = prefetch_efficiency(knobs.batch_size)
        pen_eff = llc.miss_penalty_cycles * (1.0 - pf)
        hit_eff = llc.hit_cycles * (1.0 - pf)

        ws = nf.state_bytes + knobs.batch_size * packet_bytes
        base_miss = capacity_miss_ratio(ws, llc_bytes, locality=p.cache_locality)
        p_miss = float(min(1.0, base_miss * contention))

        cycles = nf.cycles_for_packet(packet_bytes)
        cycles += p.ring_call_cycles / knobs.batch_size
        cycles += p.mbuf_cycles / math.sqrt(knobs.batch_size)
        cycles += nf.state_lines_touched * p_miss * pen_eff
        misses = nf.state_lines_touched * p_miss

        touched = nf.touched_lines(packet_bytes, llc.line_bytes)
        if nf_index == 0:
            p_hit = self.dma_model.llc_spill_hit_ratio(knobs.dma_bytes, llc_bytes)
            p_hit = float(max(0.0, p_hit * (1.0 - p_miss * 0.5)))
        else:
            p_hit = 1.0 - p_miss
        cycles += touched * p.mem_factor * (p_hit * hit_eff + (1.0 - p_hit) * pen_eff)
        misses += touched * (1.0 - p_hit)

        cycles += p.cold_lines_per_batch * pen_eff / knobs.batch_size
        misses += p.cold_lines_per_batch / knobs.batch_size
        if nf_index > 0:
            cycles += p.inter_nf_handoff_cycles
        return float(cycles), float(misses)

    def step_per_nf(
        self,
        chain: ServiceChain,
        knobs: list[KnobSettings],
        offered_pps: float,
        packet_bytes: float,
        dt_s: float = 1.0,
        *,
        contention: float | None = None,
    ) -> TelemetrySample:
        """One control interval with a knob vector per NF."""
        if not offered_pps >= 0 or not 0 < packet_bytes < np.inf or not dt_s > 0:
            raise ValueError("offered rate/packet size/dt must be valid")
        llc_alloc = self.per_nf_llc_bytes(chain, knobs)
        eff_contention = contention if contention is not None else (
            1.0 if self.cat_enabled else self.params.no_cat_contention
        )

        nic_cap = self.server.nic.max_pps(packet_bytes)
        admitted = min(offered_pps, nic_cap)
        delivery = self.dma_model.delivery_ratio(
            knobs[0].dma_bytes, packet_bytes, admitted
        )
        delivered = admitted * delivery

        cpps: list[float] = []
        misses: list[float] = []
        rates: list[float] = []
        for i in range(len(chain)):
            cpp, m = self.nf_cost(
                chain, i, knobs[i], packet_bytes,
                llc_bytes=llc_alloc[i], contention=eff_contention,
            )
            cpps.append(cpp)
            misses.append(m)
            rates.append(knobs[i].cpu_share * knobs[i].cpu_freq_ghz * 1e9 / cpp)
        achieved = min(delivered, min(rates))

        # Receive livelock on the first NF.
        f0 = knobs[0].cpu_freq_ghz * 1e9
        c0 = knobs[0].cpu_share * f0
        rx = self.params.rx_drop_cycles
        if delivered * cpps[0] > c0 and cpps[0] > rx:
            achieved = min(achieved, max(0.0, (c0 - delivered * rx) / (cpps[0] - rx)))

        per_nf: list[NFTelemetry] = []
        busy = 0.0
        busy_freq = 0.0
        for i, nf in enumerate(chain.nfs):
            cap = knobs[i].cpu_share * knobs[i].cpu_freq_ghz * 1e9
            work = achieved * cpps[i]
            if i == 0:
                work += max(0.0, delivered - achieved) * rx
            util = min(1.0, work / cap) if cap > 0 else 0.0
            if self.polling == PollingMode.POLL:
                util = 1.0
            else:
                util = min(1.0, util + self.params.adaptive_poll_overhead)
            per_nf.append(
                NFTelemetry(nf.name, cpps[i], rates[i], util, misses[i])
            )
            busy += knobs[i].cpu_share * util
            busy_freq += knobs[i].cpu_share * util * knobs[i].cpu_freq_ghz

        allocated = left_sum([k.cpu_share for k in knobs]) + self.params.infra_cores
        total_busy = busy + self.infra_busy
        mean_freq = busy_freq / busy if busy > 0 else float(
            np.mean([k.cpu_freq_ghz for k in knobs])
        )
        power_w = self.node_power(total_busy, allocated, mean_freq)
        energy_j = power_w * dt_s

        total_misses = achieved * left_sum(misses)
        freq_hz = np.asarray([k.cpu_freq_ghz for k in knobs]) * 1e9
        proc_s = left_sum((np.asarray(cpps) / freq_hz).tolist())
        fill_s = knobs[0].batch_size / max(achieved, 1.0)
        peak = min(1.0, achieved / min(rates)) if min(rates) > 0 else 1.0
        queue_s = proc_s * peak / max(1e-6, 1.0 - min(peak, 0.999))

        return TelemetrySample(
            dt_s=dt_s,
            offered_pps=offered_pps,
            achieved_pps=achieved,
            packet_bytes=packet_bytes,
            throughput_gbps=pps_to_gbps(achieved, packet_bytes),
            llc_miss_rate_per_s=total_misses,
            cpu_utilization=min(1.0, total_busy / allocated),
            cpu_cores_busy=total_busy,
            power_w=power_w,
            energy_j=energy_j,
            dropped_pps=max(0.0, offered_pps - achieved),
            latency_s=fill_s + proc_s + queue_s,
            arrival_rate_pps=offered_pps,
            per_nf=per_nf,
        )
