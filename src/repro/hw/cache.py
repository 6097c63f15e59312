"""Last-level-cache model with Intel CAT-style allocation and DDIO.

GreenNFV partitions the shared LLC between NF chains using Intel Cache
Allocation Technology (CAT).  CAT exposes *Classes of Service* (CLOS) and
per-CLOS *capacity bitmasks* (CBM) over the cache ways; a CLOS may only
use ways whose bit is set, and real hardware requires the set bits to be
contiguous.  Intel Data Direct I/O (DDIO) reserves a slice of the LLC
(2 of 20 ways, i.e. 10%, on the paper's Broadwell Xeons) into which the
NIC DMA-writes arriving packets directly, skipping main memory.

The E5-2620 v4 has a 20 MB, 20-way LLC per socket.  The paper's LLC knob
is a *percentage* of LLC allocated to a chain; :class:`CacheAllocator`
translates percentages into way masks exactly the way ``pqos`` would.

The analytic miss-ratio model below drives the simulator physics.  It has
to reproduce the qualitative behaviours the paper measures:

* Fig. 1 — shrinking a chain's LLC share below its working set inflates
  its miss rate, collapsing throughput and inflating Energy/MP;
* Fig. 3(b) — misses vs. batch size are U-shaped: tiny batches pay cold
  per-packet misses, oversized batches overflow the allocation;
* Fig. 4 — DMA buffers larger than the DDIO+spare capacity evict packet
  data and re-introduce memory round-trips.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.stats import left_sum
from repro.utils.units import mb_to_bytes


@dataclass(frozen=True)
class LlcSpec:
    """Static LLC geometry (defaults: one E5-2620 v4 socket)."""

    size_bytes: float = mb_to_bytes(20.0)
    n_ways: int = 20
    line_bytes: int = 64
    #: Fraction of ways reserved for DDIO packet landing (2/20 on Broadwell).
    ddio_fraction: float = 0.10
    #: Cycles to service an LLC miss from DRAM (folded into cycles/packet;
    #: ~125 ns loaded latency at the base 2.1 GHz).
    miss_penalty_cycles: float = 260.0
    #: Cycles for an LLC hit (DDIO-resident packet access).
    hit_cycles: float = 40.0

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.n_ways <= 0:
            raise ValueError("cache size and ways must be positive")
        if not 0.0 <= self.ddio_fraction < 1.0:
            raise ValueError("ddio_fraction must be in [0, 1)")
        if self.miss_penalty_cycles <= self.hit_cycles:
            raise ValueError("a miss must cost more than a hit")

    @property
    def way_bytes(self) -> float:
        """Capacity of a single way."""
        return self.size_bytes / self.n_ways

    @property
    def ddio_ways(self) -> int:
        """Ways reserved for DDIO (at least 1 when the fraction is > 0)."""
        if self.ddio_fraction == 0:
            return 0
        return max(1, round(self.n_ways * self.ddio_fraction))

    @property
    def ddio_bytes(self) -> float:
        """Capacity of the DDIO slice."""
        return self.ddio_ways * self.way_bytes

    @property
    def allocatable_ways(self) -> int:
        """Ways CAT can hand to CLOS groups (everything outside DDIO)."""
        return self.n_ways - self.ddio_ways


def contiguous_mask(start_way: int, n_ways: int) -> int:
    """Build a contiguous capacity bitmask, as Intel CAT requires."""
    if n_ways <= 0:
        raise ValueError("a CBM must contain at least one way")
    if start_way < 0:
        raise ValueError("start_way must be non-negative")
    return ((1 << n_ways) - 1) << start_way


def mask_ways(mask: int) -> int:
    """Number of ways set in a capacity bitmask."""
    return bin(mask).count("1")


def is_contiguous(mask: int) -> bool:
    """Check the Intel CAT contiguity requirement on a CBM."""
    if mask <= 0:
        return False
    b = bin(mask)[2:]
    return "01" not in b.strip("0") and b.strip("0").count("0") == 0


@dataclass
class ClassOfService:
    """One CAT CLOS: an id, its way bitmask, and attached chain ids."""

    clos_id: int
    mask: int
    members: list[str] = field(default_factory=list)

    @property
    def n_ways(self) -> int:
        """Ways granted to this CLOS."""
        return mask_ways(self.mask)


class CacheAllocator:
    """CAT-style LLC partitioning between named NF chains.

    Percent requests are rounded to whole ways (minimum one way — CAT
    cannot grant zero ways to an active CLOS), and masks are laid out
    contiguously from way 0 upward, after the DDIO reserve.  Requests that
    exceed the allocatable capacity raise, mirroring ``pqos`` failures.
    """

    def __init__(self, spec: LlcSpec | None = None):
        self.spec = spec or LlcSpec()
        self._clos: dict[str, ClassOfService] = {}
        self._next_id = 1  # CLOS 0 is the default/catch-all class.

    @property
    def allocations(self) -> dict[str, ClassOfService]:
        """Mapping of chain name -> CLOS."""
        return dict(self._clos)

    def clear(self) -> None:
        """Drop all CLOS assignments (back to the post-construction state)."""
        self._clos.clear()
        self._next_id = 1

    def ways_for_fraction(self, fraction: float) -> int:
        """Convert an LLC share in [0,1] to a way count (>= 1)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"LLC fraction must be in [0, 1], got {fraction}")
        return max(1, round(fraction * self.spec.allocatable_ways))

    def allocate(self, shares: dict[str, float]) -> dict[str, ClassOfService]:
        """(Re)partition the allocatable ways according to ``shares``.

        ``shares`` maps chain name -> requested fraction of the LLC.  The
        sum of granted ways must fit in the allocatable region; fractions
        are applied independently (CAT allows overlap, but GreenNFV uses
        disjoint partitions to isolate chains, so we lay them out
        disjointly and fail loudly on oversubscription).
        """
        if not shares:
            raise ValueError("need at least one chain share")
        grants = {name: self.ways_for_fraction(frac) for name, frac in shares.items()}
        total = left_sum(grants.values())
        if total > self.spec.allocatable_ways:
            raise ValueError(
                f"requested {total} ways but only {self.spec.allocatable_ways} are allocatable"
            )
        self._clos.clear()
        self._next_id = 1
        start = self.spec.ddio_ways  # lay out after the DDIO reserve
        for name in sorted(grants):
            n = grants[name]
            clos = ClassOfService(self._next_id, contiguous_mask(start, n), [name])
            self._clos[name] = clos
            self._next_id += 1
            start += n
        return dict(self._clos)

    def allocated_bytes(self, name: str) -> float:
        """Capacity currently granted to a chain."""
        if name not in self._clos:
            raise KeyError(f"no CLOS for chain {name!r}")
        return self._clos[name].n_ways * self.spec.way_bytes

    def allocated_fraction(self, name: str) -> float:
        """Granted share of the *allocatable* region for a chain."""
        if name not in self._clos:
            raise KeyError(f"no CLOS for chain {name!r}")
        return self._clos[name].n_ways / self.spec.allocatable_ways


# ---------------------------------------------------------------------------
# Analytic miss-ratio model
# ---------------------------------------------------------------------------


def capacity_miss_ratio(
    working_set_bytes,
    capacity_bytes,
    *,
    locality: float = 2.0,
    floor: float = 0.02,
):
    """Steady-state miss ratio of a working set in a capacity.

    Power-law cache model: when the working set fits, only the compulsory
    ``floor`` remains; past capacity the hit ratio decays as
    ``(capacity / ws)^locality`` (higher ``locality`` = steeper knee,
    typical of streaming packet workloads with modest reuse).  Output is
    clipped to [floor, 1].

    Accepts scalars or same-shape arrays for the sizes; scalar inputs
    return a plain float.
    """
    if not 0.0 <= floor <= 1.0:
        raise ValueError("floor must be in [0, 1]")
    scalar = np.isscalar(working_set_bytes) and np.isscalar(capacity_bytes)
    if scalar:
        if working_set_bytes < 0 or capacity_bytes < 0:
            raise ValueError("sizes must be non-negative")
        if working_set_bytes == 0:
            return floor
        if capacity_bytes == 0:
            return 1.0
        ratio = capacity_bytes / working_set_bytes
        if ratio >= 1.0:
            return floor
        hit = ratio**locality * (1.0 - floor)
        return float(np.clip(1.0 - hit, floor, 1.0))
    if np.any(np.asarray(working_set_bytes) < 0) or np.any(np.asarray(capacity_bytes) < 0):
        raise ValueError("sizes must be non-negative")
    ws = np.asarray(working_set_bytes, dtype=np.float64)
    cap = np.asarray(capacity_bytes, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(ws > 0, cap / np.where(ws > 0, ws, 1.0), np.inf)
    hit = np.where(ratio < 1.0, ratio, 0.0) ** locality * (1.0 - floor)
    return np.where(
        ws == 0,
        floor,
        np.where(
            cap == 0,
            1.0,
            np.where(ratio >= 1.0, floor, np.clip(1.0 - hit, floor, 1.0)),
        ),
    )


def ddio_hit_ratio(
    dma_buffer_bytes,
    ddio_bytes,
    allocated_bytes,
    *,
    spill_sharpness: float = 2.0,
):
    """Fraction of NIC writes landing in the LLC instead of DRAM.

    DDIO writes into its reserved slice; as long as the DMA ring fits in
    (DDIO slice + a fraction of the chain's own allocation) the packets
    stay cache-resident.  Larger rings wrap before the CPU consumes the
    data, so writes spill to memory ("DDIO miss") with a sharpness set by
    ``spill_sharpness``.  Returns a value in (0, 1].

    ``dma_buffer_bytes`` / ``allocated_bytes`` may be arrays; scalar
    inputs return a plain float.
    """
    scalar = np.isscalar(dma_buffer_bytes) and np.isscalar(allocated_bytes)
    if scalar:
        if dma_buffer_bytes < 0:
            raise ValueError("DMA buffer size must be non-negative")
        if dma_buffer_bytes == 0:
            return 1.0
        eff = ddio_bytes + 0.5 * allocated_bytes
        if eff <= 0:
            return 0.0
        x = dma_buffer_bytes / eff
        if x <= 1.0:
            return 1.0
        # Compute in log space to avoid overflow for degenerate capacities.
        log_hit = -spill_sharpness * np.log(x)
        if log_hit < -700.0:
            return 0.0
        return float(np.exp(log_hit))
    if np.any(np.asarray(dma_buffer_bytes) < 0):
        raise ValueError("DMA buffer size must be non-negative")
    dma = np.asarray(dma_buffer_bytes, dtype=np.float64)
    effective = ddio_bytes + 0.5 * np.asarray(allocated_bytes, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.where(effective > 0, dma / np.where(effective > 0, effective, 1.0), np.inf)
        # Compute in log space to avoid overflow for degenerate capacities.
        log_hit = -spill_sharpness * np.log(np.where(x > 1.0, x, 1.0))
    hit = np.where(log_hit < -700.0, 0.0, np.exp(np.maximum(log_hit, -745.0)))
    return np.where(
        dma == 0, 1.0, np.where(effective <= 0, 0.0, np.where(x <= 1.0, 1.0, hit))
    )


def prefetch_efficiency(
    batch_size, *, max_efficiency: float = 0.85, ramp_batch: float = 96.0
):
    """Fraction of memory latency hidden by prefetching at a batch size.

    Batching is what lets DPDK's software prefetcher (and the hardware
    streamer) run ahead of the computation: with a large batch the next
    packets' lines are requested while the current packet is processed.
    With batch = 1 almost nothing is hidden; the benefit saturates at
    ``max_efficiency`` with an exponential ramp.  This is the mechanism
    behind the throughput rise on the left side of the paper's Fig. 3.

    ``batch_size`` may be an array; scalar inputs return a plain float.
    """
    if not 0.0 <= max_efficiency < 1.0:
        raise ValueError("max_efficiency must be in [0, 1)")
    if ramp_batch <= 0:
        raise ValueError("ramp_batch must be positive")
    if np.isscalar(batch_size):
        if batch_size < 1:
            raise ValueError("batch size must be >= 1")
        return float(max_efficiency * (1.0 - np.exp(-(batch_size - 1) / ramp_batch)))
    if np.any(np.asarray(batch_size) < 1):
        raise ValueError("batch size must be >= 1")
    return max_efficiency * (
        1.0 - np.exp(-(np.asarray(batch_size, dtype=np.float64) - 1) / ramp_batch)
    )


def contention_factor(total_demand_bytes: float, size_bytes: float) -> float:
    """Extra miss multiplier when co-located chains oversubscribe the LLC.

    Disjoint CAT partitions remove most interference, but memory bandwidth
    and the directory are still shared; we apply a mild super-linear
    penalty once aggregate demand exceeds the cache size.
    """
    if size_bytes <= 0:
        raise ValueError("cache size must be positive")
    x = max(0.0, total_demand_bytes / size_bytes - 1.0)
    return 1.0 + 0.5 * x
