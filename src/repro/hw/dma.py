"""DMA buffer model.

The DMA buffer (the NIC's descriptor/mbuf ring memory) is one of
GreenNFV's five knobs.  Its size trades off two failure modes the paper's
Fig. 4 exhibits:

* **Too small** — the ring cannot absorb arrival bursts while the CPU is
  busy processing a batch; the NIC drops packets and achieved throughput
  is capped well below line rate.  Throughput therefore *rises steadily*
  with buffer size.
* **Too large** — the ring stops fitting in the DDIO slice (+ spare LLC),
  packet writes spill to DRAM, per-packet cycles grow and Energy/MP turns
  back up (the 64 B curve in Fig. 4(b)).

:class:`DmaBufferModel` computes the burst-absorption throughput cap and
delegates the cache-spill effect to :func:`repro.hw.cache.ddio_hit_ratio`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hw.cache import LlcSpec, ddio_hit_ratio
from repro.utils.units import mb_to_bytes


@dataclass(frozen=True)
class DmaSpec:
    """DMA/NIC ring parameters.

    ``drain_latency_s`` is the worst-case time the CPU spends away from the
    rx ring (a batch-processing quantum plus scheduling stalls on shared
    cores); the ring must hold the packets arriving in that window to
    avoid drops.  ``burstiness`` scales arrival bursts above the mean rate
    (MoonGen's line-rate bursts).  The defaults make the Fig. 4 sweep
    rise through the paper's 0-40 MB x-axis: small rings cap delivery
    well below line rate, and the cap clears in the 5-15 MB region.
    """

    min_bytes: float = mb_to_bytes(0.25)
    max_bytes: float = mb_to_bytes(40.0)
    drain_latency_s: float = 3e-3
    burstiness: float = 2.0

    def __post_init__(self) -> None:
        if self.min_bytes <= 0 or self.max_bytes <= self.min_bytes:
            raise ValueError("need 0 < min_bytes < max_bytes")
        if self.drain_latency_s <= 0:
            raise ValueError("drain latency must be positive")
        if self.burstiness < 1.0:
            raise ValueError("burstiness must be >= 1")


class DmaBufferModel:
    """Maps (DMA buffer size, packet size, arrival rate) to rx behaviour."""

    def __init__(self, spec: DmaSpec | None = None, llc: LlcSpec | None = None):
        self.spec = spec or DmaSpec()
        self.llc = llc or LlcSpec()

    def clamp(self, dma_bytes):
        """Clamp a requested buffer size into the supported range.

        Accepts a scalar or array; scalar inputs return a plain float.
        """
        if np.isscalar(dma_bytes):
            return float(min(max(dma_bytes, self.spec.min_bytes), self.spec.max_bytes))
        return np.clip(dma_bytes, self.spec.min_bytes, self.spec.max_bytes)

    def ring_capacity_packets(self, dma_bytes, packet_bytes):
        """How many packets the ring holds (each slot stores a full mbuf).

        ``packet_bytes`` may be an array (multi-chain kernels pass one
        frame size per chain); it broadcasts against ``dma_bytes``.
        """
        if np.isscalar(packet_bytes):
            if packet_bytes <= 0:
                raise ValueError("packet size must be positive")
        elif np.any(np.asarray(packet_bytes) <= 0):
            raise ValueError("packet size must be positive")
        # DPDK mbufs are fixed-size (2 KB data room) regardless of frame
        # size, but small frames can be batched into the same segment via
        # rx scatter; we charge the actual frame plus descriptor overhead.
        slot = packet_bytes + 128.0  # 128 B descriptor + metadata
        return self.clamp(dma_bytes) / slot

    def absorb_rate_pps(self, dma_bytes, packet_bytes: float):
        """Max sustainable arrival rate without drops (packets/s).

        The ring must absorb a burst of ``burstiness * rate *
        drain_latency`` packets while the CPU drains a batch, so the cap is
        ``capacity / (burstiness * drain_latency)``.
        """
        cap = self.ring_capacity_packets(dma_bytes, packet_bytes)
        return cap / (self.spec.burstiness * self.spec.drain_latency_s)

    def delivery_ratio(self, dma_bytes, packet_bytes: float, arrival_pps):
        """Fraction of offered packets that survive the rx ring.

        1.0 while the absorb rate covers the arrival rate; beyond that the
        ring overflows and excess packets are tail-dropped, so delivery
        decays as ``absorb / arrival``.  ``dma_bytes`` and ``arrival_pps``
        may be broadcast-compatible arrays; scalar inputs return a float.
        """
        if np.isscalar(dma_bytes) and np.isscalar(arrival_pps):
            if arrival_pps < 0:
                raise ValueError("arrival rate must be non-negative")
            if arrival_pps == 0:
                return 1.0
            absorb = self.absorb_rate_pps(dma_bytes, packet_bytes)
            return float(min(1.0, absorb / arrival_pps))
        if np.any(np.asarray(arrival_pps) < 0):
            raise ValueError("arrival rate must be non-negative")
        absorb = self.absorb_rate_pps(dma_bytes, packet_bytes)
        arrival = np.asarray(arrival_pps, dtype=np.float64)
        ratio = np.minimum(1.0, absorb / np.where(arrival > 0, arrival, 1.0))
        return np.where(arrival == 0, 1.0, ratio)

    def llc_spill_hit_ratio(self, dma_bytes, allocated_bytes):
        """DDIO hit ratio for this ring size against a chain's allocation."""
        return ddio_hit_ratio(
            self.clamp(dma_bytes), self.llc.ddio_bytes, allocated_bytes
        )
