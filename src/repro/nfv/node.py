"""A node hosting one or more NF chains.

The node owns the shared hardware — the LLC partitioned with
:class:`~repro.hw.cache.CacheAllocator`, the CPU, the NIC — and steps
all resident chains through each control interval, accounting for
cross-chain LLC contention and producing both per-chain telemetry and
node-level power.

Its chains live in one float64 table, a row per chain in deployment
order (:data:`TABLE_COLUMNS`): the knobs in ``KnobSettings.as_array``
layout, the CAT grant, the resident state and the NF count.  Knob
writes move the node's generation only when a value moves, and re-grant
CAT only when an ``llc_fraction`` moved.  :func:`node_folds` is the one
definition of a node's knob-static interval inputs: :meth:`Node.step_all`
folds the node's rows in every interval, and the cluster kernel every
node's rows at once, once per compiled plan.

The Fig. 1 micro-benchmark (two chains C1/C2 sharing one socket under
different LLC splits) runs directly on this class.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.hw.cache import CacheAllocator, contention_factor
from repro.hw.power import EnergyMeter
from repro.hw.server import ServerSpec
from repro.nfv.chain import ServiceChain
from repro.nfv.engine import EngineParams, PacketEngine, PollingMode, TelemetrySample
from repro.nfv.engine import ChainProfile, chain_profile
from repro.nfv.knobs import DEFAULT_RANGES, KNOB_NAMES, KnobRanges, KnobSettings
from repro.nfv.knobs import knob_row
from repro.utils.stats import left_sum
from repro.utils.units import mb_to_bytes

#: A node table's columns: the knobs, the chain's CAT grant (bytes), its
#: resident state (bytes) and its NF count.
TABLE_COLUMNS = (*KNOB_NAMES, "grant_bytes", "state_bytes", "n_nfs")
GRANT, STATE, NFS = 5, 6, 7


class HostedChain:
    """A chain deployed on a node; its knobs are the node's table row."""

    def __init__(self, chain: ServiceChain, node: "Node"):
        self.chain = chain
        self._node = weakref.ref(node)
        self._profiles: dict[tuple[float, float], ChainProfile] = {}

    @property
    def knobs(self) -> KnobSettings:
        """The chain's current (clamped) knob settings."""
        node = self._node()
        share, freq, llc, dma, batch = node.table[node.row_of(self.chain.name), :5].tolist()
        return KnobSettings(share, freq, llc, dma, int(batch))

    def profile(self, packet_bytes: float, line_bytes: float) -> ChainProfile:
        """:func:`~repro.nfv.engine.chain_profile`, memoized per hosted
        chain: the shared cache hashes the whole chain on every lookup,
        and a deploy's compile looks up every hosted chain."""
        key = (packet_bytes, line_bytes)
        if key not in self._profiles:
            self._profiles[key] = chain_profile(self.chain, packet_bytes, line_bytes)
        return self._profiles[key]


def node_folds(slots, pkts, counts, engine: PacketEngine):
    """``(contention, allocated_cores, freq_ghz)`` of nodes, as left folds
    over their rows: the LLC contention factor of the demand ``batch *
    pkt + state + dma_bytes * 0.25``, the infra plus the chains' cores,
    and the mean frequency (the base frequency without chains).

    ``slots[k]`` is row ``k`` of each node and ``pkts[k]`` its frame size:
    one node's rows and floats, or ``(columns, N)`` and ``(N,)`` arrays,
    zero past a node's last chain; ``counts`` holds the chain counts.
    """
    demand, allocated, freq = 0.0, engine.params.infra_cores, 0.0
    for row, pkt in zip(slots, pkts):
        demand += row[4] * pkt + row[STATE] + mb_to_bytes(row[3]) * 0.25
        allocated += row[0] * row[NFS]
        freq += row[1]
    contention = contention_factor(demand, engine.server.llc.size_bytes)
    base = engine.server.cpu.base_freq_ghz
    if np.ndim(counts):
        return contention, allocated, np.where(counts > 0, freq / np.maximum(counts, 1), base)
    return contention, allocated, freq / counts if counts else base


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
        store: np.ndarray | None = None,
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
        self._rows: dict[str, int] = {}
        self._ways: list[int] = []  # the CAT ways last granted, per row
        # A row per allocatable way, the table its head: ``store``, when a
        # shard shares one table of them among its nodes.
        shape = (self.server.llc.allocatable_ways, len(TABLE_COLUMNS))
        self._store = np.empty(shape) if store is None else store
        if self._store.shape != shape:
            raise ValueError(f"a node's store must have shape {shape}")
        self._table = self._store[:0]
        # ``_config_gen`` moves on every deployment or knob change,
        # ``_deploy_gen`` only with the chain set: the cluster kernel's
        # two plan halves are cached per generation.
        self._config_gen = 0
        self._deploy_gen = 0

    # -- deployment --------------------------------------------------------

    def reset(self) -> None:
        """Return to the freshly-constructed state without reallocating.

        Undeploys every chain, clears the CAT partitioning and zeroes the
        energy meter, but keeps the (comparatively expensive) engine and
        its power/DMA models.  Environments call this between episodes
        instead of building a new :class:`Node`.
        """
        self._chains.clear()
        self._rows.clear()
        self.cache.clear()
        self.meter.reset()
        self._deployed()

    @property
    def chains(self) -> dict[str, HostedChain]:
        """Chains currently hosted on this node."""
        return self._chains

    @property
    def table(self) -> np.ndarray:
        """The ``(R, len(TABLE_COLUMNS))`` chain table (do not write it)."""
        return self._table

    def row_of(self, name: str) -> int:
        """A hosted chain's row in :attr:`table`."""
        if name not in self._rows:
            raise KeyError(f"no chain {name!r} on this node")
        return self._rows[name]

    def deploy(self, chain: ServiceChain, knobs: KnobSettings | None = None) -> HostedChain:
        """Deploy a chain (idempotent per name) with initial knobs.

        CAT grants every chain at least one way, so a node hosts at most
        as many chains as it has allocatable LLC ways.
        """
        if chain.name in self._chains:
            raise ValueError(f"chain {chain.name!r} already deployed")
        if len(self._chains) >= self.server.llc.allocatable_ways:
            raise ValueError(
                f"cannot deploy {chain.name!r}: the node already hosts "
                f"{len(self._chains)} chains, one per allocatable LLC way"
            )
        row = knob_row((knobs or KnobSettings()).clamped(self.ranges, self.server.cpu))
        r = self._rows[chain.name] = len(self._chains)
        self._chains[chain.name] = hosted = HostedChain(chain, self)
        self._store[r] = (*row, 0.0, chain.total_state_bytes, len(chain))
        self._deployed()
        return hosted

    def undeploy(self, name: str) -> None:
        """Remove a chain from the node."""
        r = self.row_of(name)
        del self._chains[name]
        self._rows = {n: i for i, n in enumerate(self._chains)}
        self._store[r : len(self._chains)] = self._store[r + 1 : len(self._chains) + 1]
        self._deployed()

    def _deployed(self) -> None:
        """The chain set moved: re-grant CAT, move both generations."""
        self._table = self._store[: len(self._chains)]
        if self._chains:
            self._grant(relayout=True)
        self._config_gen += 1
        self._deploy_gen += 1

    def apply_knobs(self, name: str, knobs: KnobSettings) -> KnobSettings:
        """Apply (clamped) knob settings to one chain; returns what stuck.

        Mirrors the real control path: frequency snaps to the DVFS
        ladder, LLC share becomes whole CAT ways, batch becomes integer.
        The setting clamps as an object (:meth:`KnobSettings.clamped`):
        the environments and controllers apply one chain at a time, which
        a one-row table clamps in more time; a shard's knob command
        clamps its table (:func:`~repro.nfv.knobs.clamp_table`).
        """
        r = self.row_of(name)
        applied = knobs.clamped(self.ranges, self.server.cpu)
        row, current = knob_row(applied), self._table[r, :5].tolist()
        if current != row:
            self._table[r, :5] = row
            self.knobs_written(current[2] != row[2])
        return applied

    def knobs_written(self, llc_moved: bool) -> None:
        """Account for knob values that moved in :attr:`table` (written
        here, or by a shard into the store it shares): move the
        generation, and re-grant CAT if an ``llc_fraction`` moved."""
        if llc_moved:
            self._grant(relayout=False)
        self._config_gen += 1

    def _grant(self, *, relayout: bool) -> None:
        """Grant CAT ways from the ``llc_fraction`` column into the grant
        column, laying the CLOS masks out again only if the chain set
        changed (``relayout``) or a grant moved.

        When the requested fractions oversubscribe the allocatable ways,
        grants are scaled down proportionally — the controller's policy
        for resolving conflicting chain requests.
        """
        llc = self.server.llc
        ways = self.cache.ways_for_fraction
        shares = self._table[:, 2].tolist()
        granted = [ways(f) for f in shares]
        if left_sum(granted) > llc.allocatable_ways:
            scale = llc.allocatable_ways / left_sum(granted)
            shares = [max(1e-6, f * scale) for f in shares]
            granted = [ways(f) for f in shares]
            # Rounding can still overshoot by a way; shave the largest.
            while left_sum(granted) > llc.allocatable_ways:
                biggest = max(range(len(shares)), key=shares.__getitem__)
                shares[biggest] = max(1e-6, shares[biggest] * 0.9)
                granted = [ways(f) for f in shares]
        if relayout or granted != self._ways:
            self._ways = granted
            self.cache.allocate(dict(zip(self._chains, shares)))
            self._table[:, GRANT] = [self.cache.allocated_bytes(n) for n in self._chains]

    def llc_bytes_for(self, name: str) -> float:
        """LLC capacity currently granted to a chain by CAT."""
        return float(self._table[self.row_of(name), GRANT])

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
        replays with its compiled plan for the fleet (power within the
        ulps its module notes, every other field bit-exactly), and
        the single-cluster loops (the environments, ``run_controller``,
        the SDN controller) step through it directly.  Its sums are
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
        advances the node's energy meter, nothing else.  Returns
        per-chain telemetry, per-NF rows included.
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
        rows = self._table.tolist()
        contention, allocated_total, freq = node_folds(rows, pkts, len(pkts), self.engine)
        infra_busy = self.engine.infra_busy

        samples: dict[str, TelemetrySample] = {}
        busy_cores_total = infra_busy
        for load, pkt, row, (name, hosted) in zip(loads, pkts, rows, self._chains.items()):
            sample = self.engine.step(
                hosted.chain,
                KnobSettings(*row[:4], int(row[4])),
                load,
                pkt,
                dt_s,
                llc_bytes=row[GRANT],
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
        return samples

    def node_power_w(self) -> float:
        """Most recent node-level average power (0 before any step)."""
        return self.meter.average_power()
