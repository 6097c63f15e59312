"""Server composition: CPU + LLC + NIC + power model = one testbed node.

The paper's evaluation uses six identical nodes (Xeon E5-2620 v4, 64 GB
RAM, X540-AT2 NIC): three generate traffic with MoonGen, three host the NF
chains.  :class:`ServerSpec` bundles the hardware specs; its defaults
are that node profile, so every harness agrees on the hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hw.cache import LlcSpec
from repro.hw.cpu import CpuSpec
from repro.hw.dma import DmaSpec
from repro.hw.nic import NicSpec
from repro.hw.power import PowerModelParams


@dataclass(frozen=True)
class ServerSpec:
    """Static hardware description of one node."""

    name: str = "node"
    cpu: CpuSpec = field(default_factory=CpuSpec)
    llc: LlcSpec = field(default_factory=LlcSpec)
    nic: NicSpec = field(default_factory=NicSpec)
    dma: DmaSpec = field(default_factory=DmaSpec)
    power: PowerModelParams = field(default_factory=PowerModelParams)
    memory_gb: float = 64.0
    os: str = "Ubuntu SMP, Linux 4.4.0-177-generic"

    def __post_init__(self) -> None:
        if self.memory_gb <= 0:
            raise ValueError("memory must be positive")
