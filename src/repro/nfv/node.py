"""A node hosting one or more NF chains.

The node owns the shared hardware — the LLC partitioned with
:class:`~repro.hw.cache.CacheAllocator`, the CPU, the NIC — and steps
all resident chains through each control interval, accounting for
cross-chain LLC contention and producing both per-chain telemetry and
node-level power.

The Fig. 1 micro-benchmark (two chains C1/C2 sharing one socket under
different LLC splits) runs directly on this class.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.cache import CacheAllocator, contention_factor
from repro.hw.power import EnergyMeter
from repro.hw.server import ServerSpec
from repro.nfv.chain import ServiceChain
from repro.nfv.engine import (
    EngineParams,
    PacketEngine,
    PollingMode,
    TelemetrySample,
)
from repro.nfv.knobs import DEFAULT_RANGES, KnobRanges, KnobSettings
from repro.utils.stats import left_sum


@dataclass
class HostedChain:
    """A chain deployed on a node with its current knob settings."""

    chain: ServiceChain
    knobs: KnobSettings
    last_sample: TelemetrySample | None = None


class Node:
    """One NF-hosting server running an ONVM-style data plane."""

    def __init__(
        self,
        server: ServerSpec | None = None,
        *,
        params: EngineParams | None = None,
        polling: PollingMode = PollingMode.ADAPTIVE,
        ranges: KnobRanges = DEFAULT_RANGES,
        park_idle_cores: bool = True,
        cat_enabled: bool = True,
    ):
        self.server = server or ServerSpec()
        self.engine = PacketEngine(
            self.server,
            params,
            polling,
            cat_enabled=cat_enabled,
            park_idle_cores=park_idle_cores,
        )
        self.cache = CacheAllocator(self.server.llc)
        self.ranges = ranges
        self.park_idle_cores = park_idle_cores
        self.meter = EnergyMeter()
        self._chains: dict[str, HostedChain] = {}
        self._last_grants: dict[str, int] | None = None
        # Deployment/knob generation, bumped on every change: the
        # contention factor here and the cluster kernel's compiled plan
        # are cached per generation.
        self._config_gen = 0
        self._demand_key: tuple | None = None
        self._contention = 1.0

    # -- deployment --------------------------------------------------------

    def reset(self) -> None:
        """Return to the freshly-constructed state without reallocating.

        Undeploys every chain, clears the CAT partitioning and zeroes the
        energy meter, but keeps the (comparatively expensive) engine and
        its power/DMA models.  Environments call this between episodes
        instead of building a new :class:`Node`.
        """
        self._chains.clear()
        self.cache.clear()
        self.meter.reset()
        self._last_grants = None
        self._config_gen += 1

    @property
    def chains(self) -> dict[str, HostedChain]:
        """Chains currently hosted on this node."""
        return self._chains

    def deploy(self, chain: ServiceChain, knobs: KnobSettings | None = None) -> HostedChain:
        """Deploy a chain (idempotent per name) with initial knobs."""
        if chain.name in self._chains:
            raise ValueError(f"chain {chain.name!r} already deployed")
        hosted = HostedChain(chain=chain, knobs=(knobs or KnobSettings()).clamped(self.ranges, self.server.cpu))
        self._chains[chain.name] = hosted
        self._repartition_llc()
        self._config_gen += 1
        return hosted

    def undeploy(self, name: str) -> None:
        """Remove a chain from the node."""
        if name not in self._chains:
            raise KeyError(f"no chain {name!r} on this node")
        del self._chains[name]
        if self._chains:
            self._repartition_llc()
        self._config_gen += 1

    def apply_knobs(self, name: str, knobs: KnobSettings) -> KnobSettings:
        """Apply (clamped) knob settings to a chain; returns what stuck.

        Mirrors the real control path: frequency snaps to the DVFS
        ladder, LLC share becomes whole CAT ways, batch becomes integer.
        """
        if name not in self._chains:
            raise KeyError(f"no chain {name!r} on this node")
        applied = knobs.clamped(self.ranges, self.server.cpu)
        if applied != self._chains[name].knobs:
            self._chains[name].knobs = applied
            self._repartition_llc()
            self._config_gen += 1
        return applied

    def _repartition_llc(self) -> None:
        """Re-run CAT allocation from the chains' llc_fraction knobs.

        When the requested fractions oversubscribe the allocatable ways,
        grants are scaled down proportionally — the controller's policy
        for resolving conflicting chain requests.
        """
        if not self._chains:
            return
        shares = {n: h.knobs.llc_fraction for n, h in self._chains.items()}
        grants = {n: self.cache.ways_for_fraction(f) for n, f in shares.items()}
        total_ways = left_sum(grants.values())
        if total_ways <= self.server.llc.allocatable_ways:
            # CAT grants whole ways, so nearby fractions collapse onto the
            # same way split; skip the CLOS rebuild when nothing moves.
            if grants == self._last_grants:
                return
            self._last_grants = grants
        else:
            self._last_grants = None
        if total_ways > self.server.llc.allocatable_ways:
            scale = self.server.llc.allocatable_ways / total_ways
            shares = {n: max(1e-6, f * scale) for n, f in shares.items()}
            # Rounding can still overshoot by a way; shave the largest.
            while (
                left_sum(self.cache.ways_for_fraction(f) for f in shares.values())
                > self.server.llc.allocatable_ways
            ):
                biggest = max(shares, key=lambda n: shares[n])
                shares[biggest] = max(1e-6, shares[biggest] * 0.9)
        self.cache.allocate(shares)

    def llc_bytes_for(self, name: str) -> float:
        """LLC capacity currently granted to a chain by CAT."""
        return self.cache.allocated_bytes(name)

    def contention_for(self, pkts: tuple[float, ...]) -> float:
        """Cross-chain contention from aggregate LLC demand at these frames.

        ``pkts`` holds one frame size per hosted chain, in deployment
        order.  The demand depends only on knobs, resident state and
        frame sizes — not on offered rates — so the factor is cached per
        (knob/deployment generation, frame sizes); :meth:`step_all` and
        the cluster kernel both price contention through this one path.
        """
        demand_key = (self._config_gen, pkts)
        if self._demand_key != demand_key:
            total_demand = 0.0
            for pkt, hosted in zip(pkts, self._chains.values()):
                total_demand += (
                    hosted.knobs.batch_size * pkt
                    + hosted.chain.total_state_bytes
                    + hosted.knobs.dma_bytes * 0.25
                )
            self._demand_key = demand_key
            self._contention = contention_factor(
                total_demand, self.server.llc.size_bytes
            )
        return self._contention

    def fold_inputs(self) -> tuple[float, float, float]:
        """The knob/deployment-static inputs of the node power fold.

        Returns ``(infra_busy, allocated_cores, freq_ghz)``: the busy
        cores of the ONVM Rx/Tx infra threads, which run once per node
        although every engine sample includes them; the infra cores plus
        every hosted chain's allocated cores; and the chains' mean
        frequency (the base frequency on an empty node).
        :meth:`step_all` and the cluster kernel's compile both read them
        here, which keeps their power folds bit-identical.
        """
        params = self.engine.params
        infra_util = (
            params.infra_util_poll
            if self.engine.polling.value == "poll"
            else params.infra_util_adaptive
        )
        allocated = params.infra_cores
        freq_total = 0.0
        for hosted in self._chains.values():
            allocated += hosted.knobs.cpu_share * len(hosted.chain)
            freq_total += hosted.knobs.cpu_freq_ghz
        n = len(self._chains)
        freq = freq_total / n if n else self.server.cpu.base_freq_ghz
        return params.infra_cores * infra_util, allocated, freq

    # -- simulation --------------------------------------------------------

    def step_all(
        self, offered: dict[str, tuple[float, float]], dt_s: float = 1.0
    ) -> dict[str, TelemetrySample]:
        """Advance one control interval over every hosted chain.

        Each chain is priced by the scalar engine at the node's shared
        cross-chain LLC contention; node power is then computed once
        from the union of busy cores and attributed to chains in
        proportion to the cycles they consumed.  This scalar fold is the
        reference
        :meth:`ClusterKernel.step <repro.nfv.cluster_kernel.ClusterKernel.step>`
        replays bit-exactly with its compiled plan.  Its sums are
        left-to-right ``+=`` folds, the order the fused fold replays.

        Parameters
        ----------
        offered:
            Mapping chain name -> (offered_pps, packet_bytes) for this
            interval; chains without an entry idle at (0, 1518).
        dt_s:
            Interval length in seconds.

        A call that raises ``KeyError`` (offered traffic for a chain the
        node does not host) leaves the node unchanged.  The interval
        advances the node's energy meter and each hosted chain's
        ``last_sample``, nothing else.  Returns per-chain telemetry.
        """
        if not dt_s > 0:
            raise ValueError("dt must be positive")
        unknown = set(offered) - set(self._chains)
        if unknown:
            raise KeyError(f"offered traffic for unknown chains: {sorted(unknown)}")

        loads: list[float] = []
        pkts: list[float] = []
        for name in self._chains:
            pps, pkt = offered.get(name, (0.0, 1518.0))
            loads.append(pps)
            pkts.append(pkt)
        contention = self.contention_for(tuple(pkts))
        infra_busy, allocated_total, freq = self.fold_inputs()

        samples: dict[str, TelemetrySample] = {}
        busy_cores_total = infra_busy
        for load, pkt, (name, hosted) in zip(loads, pkts, self._chains.items()):
            sample = self.engine.step(
                hosted.chain,
                hosted.knobs,
                load,
                pkt,
                dt_s,
                llc_bytes=self.cache.allocated_bytes(name),
                contention=contention,
                include_power=False,
            )
            samples[name] = sample
            # Every sample includes the infra threads; count them once.
            busy_cores_total += max(0.0, sample.cpu_cores_busy - infra_busy)

        # Node power: one Fan-model evaluation over the union of chains.
        power_w = self.engine.node_power(busy_cores_total, allocated_total, freq)
        energy_j = power_w * dt_s
        packets = 0.0
        for sample in samples.values():
            packets += sample.achieved_pps * dt_s
        self.meter.record(power_w, dt_s, packets)

        # Attribute power to chains by consumed cycles.
        weights = {
            name: max(s.cpu_cores_busy, 1e-9) for name, s in samples.items()
        }
        wsum = 0.0
        for weight in weights.values():
            wsum += weight
        for name, sample in samples.items():
            share = weights[name] / wsum if wsum > 0 else 1.0 / len(samples)
            sample.power_w = power_w * share
            sample.energy_j = energy_j * share
            self._chains[name].last_sample = sample
        return samples

    def node_power_w(self) -> float:
        """Most recent node-level average power (0 before any step)."""
        return self.meter.average_power()
