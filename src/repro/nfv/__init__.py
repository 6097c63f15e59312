"""NFV platform substrate: NFs, chains, engine, nodes, controller."""

from repro.nfv.chain import (
    ServiceChain,
    default_chain,
    heavy_chain,
    light_chain,
    microbench_chains,
)
from repro.nfv.cluster import consolidation_plan
from repro.nfv.cluster_kernel import ClusterKernel, engines_compatible
from repro.nfv.controller import ChainBinding, ChainObservation, OnvmController
from repro.nfv.engine import (
    EngineParams,
    NFTelemetry,
    PacketEngine,
    PollingMode,
    TelemetrySample,
)
from repro.nfv.knobs import (
    DEFAULT_RANGES,
    KnobRanges,
    KnobSettings,
    baseline_settings,
)
from repro.nfv.nf import (
    CATALOG,
    CDN_CACHE,
    EPC,
    FIREWALL,
    IDS,
    MONITOR,
    NAT,
    NFSpec,
    ROUTER,
    TUNNEL_GW,
    get_nf,
)
from repro.nfv.node import HostedChain, Node
from repro.nfv.per_nf import PerNFEngine

__all__ = [
    "ServiceChain",
    "default_chain",
    "heavy_chain",
    "light_chain",
    "microbench_chains",
    "ClusterKernel",
    "consolidation_plan",
    "engines_compatible",
    "ChainBinding",
    "ChainObservation",
    "OnvmController",
    "EngineParams",
    "NFTelemetry",
    "PacketEngine",
    "PollingMode",
    "TelemetrySample",
    "DEFAULT_RANGES",
    "KnobRanges",
    "KnobSettings",
    "baseline_settings",
    "CATALOG",
    "CDN_CACHE",
    "EPC",
    "FIREWALL",
    "IDS",
    "MONITOR",
    "NAT",
    "NFSpec",
    "ROUTER",
    "TUNNEL_GW",
    "get_nf",
    "HostedChain",
    "Node",
    "PerNFEngine",
]
