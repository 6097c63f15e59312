"""Service chains.

A service chain is a series connection of NFs that every packet of the
chain's flows traverses in order ("Network functions are chained with a
series connection", §5).  The chain is the unit GreenNFV schedules: one
LLC CLOS, one knob vector, one SLA.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.nfv.nf import FIREWALL, IDS, MONITOR, NAT, NFSpec, ROUTER, get_nf
from repro.utils.stats import left_sum


@dataclass(frozen=True)
class ServiceChain:
    """An ordered series of NFs processing one traffic aggregate."""

    name: str
    nfs: tuple[NFSpec, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("chain needs a name")
        if not self.nfs:
            raise ValueError("chain needs at least one NF")

    def __len__(self) -> int:
        return len(self.nfs)

    def __iter__(self):
        return iter(self.nfs)

    @property
    def total_state_bytes(self) -> float:
        """Aggregate resident state of the chain's NFs (LLC demand)."""
        return left_sum([nf.state_bytes for nf in self.nfs])

    def cycles_for_packet(self, packet_bytes: float) -> float:
        """Pure compute cycles for one packet through the whole chain."""
        return left_sum([nf.cycles_for_packet(packet_bytes) for nf in self.nfs])

    @staticmethod
    def from_names(name: str, nf_names: list[str] | tuple[str, ...]) -> "ServiceChain":
        """Build a chain from catalog NF names (config-file style)."""
        return ServiceChain(name, tuple(get_nf(n) for n in nf_names))


def default_chain(name: str = "chain0") -> ServiceChain:
    """The paper's canonical 3-NF chain (Figs. 2, 6-10 use 3 NFs)."""
    return ServiceChain(name, (NAT, ROUTER, IDS))


def light_chain(name: str = "light") -> ServiceChain:
    """A lightweight NAT+firewall chain (the paper's 'lightweight' class)."""
    return ServiceChain(name, (NAT, FIREWALL))


def heavy_chain(name: str = "heavy") -> ServiceChain:
    """A heavyweight monitoring+IDS chain."""
    return ServiceChain(name, (FIREWALL, MONITOR, IDS))


def microbench_chains() -> tuple[ServiceChain, ServiceChain]:
    """The two chains C1/C2 of the Fig. 1 LLC micro-benchmark.

    C1 carries the 13 Mpps small-packet flow (light, fast NFs so the LLC
    is the binding resource); C2 carries the 1 Mpps flow.
    """
    c1 = ServiceChain("C1", (NAT, FIREWALL, ROUTER))
    c2 = ServiceChain("C2", (NAT, MONITOR))
    return c1, c2
