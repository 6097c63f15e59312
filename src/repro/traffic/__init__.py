"""Traffic substrate: MoonGen-like generators, size models, flow analysis."""

from repro.traffic.analysis import FlowAnalyzer
from repro.traffic.generators import (
    CompositeGenerator,
    ConstantRateGenerator,
    DiurnalGenerator,
    MMPPGenerator,
    PoissonGenerator,
    TraceReplayGenerator,
    TrafficGenerator,
    paper_flows,
)
from repro.traffic.packet import IMIX, LARGE_PACKETS, SMALL_PACKETS, PacketSizeDistribution

__all__ = [
    "FlowAnalyzer",
    "CompositeGenerator",
    "ConstantRateGenerator",
    "DiurnalGenerator",
    "MMPPGenerator",
    "PoissonGenerator",
    "TraceReplayGenerator",
    "TrafficGenerator",
    "paper_flows",
    "IMIX",
    "LARGE_PACKETS",
    "SMALL_PACKETS",
    "PacketSizeDistribution",
]
