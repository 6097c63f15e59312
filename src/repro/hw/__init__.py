"""Hardware models: CPU/DVFS, LLC with CAT+DDIO, DMA rings, NIC, power."""

from repro.hw.cache import (
    CacheAllocator,
    ClassOfService,
    LlcSpec,
    capacity_miss_ratio,
    contention_factor,
    contiguous_mask,
    ddio_hit_ratio,
    is_contiguous,
    mask_ways,
)
from repro.hw.cpu import XEON_E5_2620V4_FREQS_GHZ, CpuSpec
from repro.hw.dma import DmaBufferModel, DmaSpec
from repro.hw.nic import NicSpec
from repro.hw.power import EnergyMeter, PowerModelParams, ServerPowerModel
from repro.hw.server import ServerSpec

__all__ = [
    "CacheAllocator",
    "ClassOfService",
    "LlcSpec",
    "capacity_miss_ratio",
    "contention_factor",
    "contiguous_mask",
    "ddio_hit_ratio",
    "is_contiguous",
    "mask_ways",
    "XEON_E5_2620V4_FREQS_GHZ",
    "CpuSpec",
    "DmaBufferModel",
    "DmaSpec",
    "NicSpec",
    "EnergyMeter",
    "PowerModelParams",
    "ServerPowerModel",
    "ServerSpec",
]
