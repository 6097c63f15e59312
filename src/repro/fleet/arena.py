"""Zero-copy shard telemetry: preallocated shared-memory arenas.

The lockstep fleet paid one pickled :class:`~repro.fleet.shard.ShardReport`
per shard per cycle — nested dataclasses serialized through the pipe on
the gather critical path.  A :class:`TelemetryArena` replaces that body
with a fixed-layout ``multiprocessing.shared_memory`` segment of float64
rows: the worker writes telemetry in place after each run and the pipe
carries only a tiny ack, so gather on the coordinator side is an array
view + scalar copy instead of unpickling.

Layout
------
Every value is a float64 (the integer fields — counts, violations, batch
sizes — stay far below 2**53, so the round trip through float64 is
exact).  The segment holds :data:`BANKS` identical banks, double-buffered
for the pipelined cycle (the coordinator may still be reading cycle *t*'s
bank while the worker writes cycle *t+1*'s)::

    bank b:
      header    : generation, start, n_intervals, n_chains
      intervals : max_intervals x len(INTERVAL_FIELDS)
      chains    : max_chains    x (len(CHAIN_FIELDS) + len(KNOB_NAMES))
      nodes     : n_nodes       x len(NODE_FIELDS)

A chain row's trailing columns are its summary's ``knobs`` mapping, in
:data:`~repro.nfv.knobs.KNOB_NAMES` order.
Chain rows are ordered by sorted chain name — the same order
``ShardSim._chain_summaries`` emits — so the coordinator-side handle can
map rows back to names from its own ticket mirror without any name data
crossing the arena.  The ``generation`` header slot is the deploy/
undeploy counter: both pipe ends bump their copy on every deployment
command, and a mismatch in the ack means the row map desynced.

Lifecycle
---------
The creating side (the :class:`~repro.fleet.shard.ShardWorker` handle)
owns the segment: it creates, and later closes *and unlinks* it, so no
``/dev/shm`` segment outlives the handle even when the worker crashed.
The worker side only attaches and closes; the owner's explicit unlink is
the single point of reclamation (and the shared ``resource_tracker`` is
the backstop if the owning process itself dies first).
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.nfv.knobs import KNOB_NAMES

#: Banks per arena (double-buffered: one being written, one being read).
BANKS = 2

#: Per-bank header slots.
HEADER_FIELDS = ("generation", "start", "n_intervals", "n_chains")

#: Columns of one per-interval telemetry row (attributes of
#: :class:`~repro.fleet.shard.IntervalRecord`; ``index`` is implicit as
#: ``start + row``).
INTERVAL_FIELDS = (
    "energy_j",
    "throughput_gbps",
    "offered_pps",
    "sla_violations",
    "chains",
)

#: Leading columns of one per-chain row (attributes of
#: :class:`~repro.fleet.shard.ChainSummary`).
CHAIN_FIELDS = (
    "node",
    "utilization",
    "throughput_gbps",
    "power_w",
    "offered_pps",
    "sla_ok",
    "state_bytes",
    "dma_bytes",
)

#: Columns of one per-node row (attributes of
#: :class:`~repro.fleet.shard.NodeSummary`).
NODE_FIELDS = ("chains", "power_w", "utilization")

_CHAIN_WIDTH = len(CHAIN_FIELDS) + len(KNOB_NAMES)
_ITEMSIZE = np.dtype(np.float64).itemsize


@dataclass(frozen=True)
class ArenaLayout:
    """Static shape of one shard's arena.

    Both pipe ends derive the layout from the same
    :class:`~repro.fleet.shard.ShardConfig` (see
    :func:`~repro.fleet.shard.arena_layout_for`), so no shape information
    ever crosses the pipe.
    """

    max_intervals: int
    max_chains: int
    n_nodes: int

    def __post_init__(self) -> None:
        if self.max_intervals < 1:
            raise ValueError("arena needs room for at least one interval row")
        if self.max_chains < 1:
            raise ValueError("arena needs room for at least one chain row")
        if self.n_nodes < 1:
            raise ValueError("arena needs at least one node row")

    @property
    def bank_floats(self) -> int:
        """float64 slots per bank."""
        return (
            len(HEADER_FIELDS)
            + self.max_intervals * len(INTERVAL_FIELDS)
            + self.max_chains * _CHAIN_WIDTH
            + self.n_nodes * len(NODE_FIELDS)
        )

    @property
    def nbytes(self) -> int:
        """Total segment size across all banks."""
        return BANKS * self.bank_floats * _ITEMSIZE


class TelemetryArena:
    """One shard's shared-memory telemetry segment, viewed as numpy banks.

    Use :meth:`create` on the owning (coordinator) side and
    :meth:`attach` on the worker side; never the constructor directly.
    """

    def __init__(
        self,
        layout: ArenaLayout,
        segment: shared_memory.SharedMemory,
        *,
        owner: bool,
    ):
        self.layout = layout
        self._segment = segment
        self._owner = owner
        self._closed = False
        flat = np.ndarray(
            (BANKS * layout.bank_floats,), dtype=np.float64, buffer=segment.buf
        )
        n_header = len(HEADER_FIELDS)
        n_ivals = layout.max_intervals * len(INTERVAL_FIELDS)
        n_chains = layout.max_chains * _CHAIN_WIDTH
        n_nodes = layout.n_nodes * len(NODE_FIELDS)
        self._banks: list[tuple[np.ndarray, ...]] = []
        for b in range(BANKS):
            o = b * layout.bank_floats
            header = flat[o : o + n_header]
            o += n_header
            intervals = flat[o : o + n_ivals].reshape(
                layout.max_intervals, len(INTERVAL_FIELDS)
            )
            o += n_ivals
            chains = flat[o : o + n_chains].reshape(layout.max_chains, _CHAIN_WIDTH)
            o += n_chains
            nodes = flat[o : o + n_nodes].reshape(layout.n_nodes, len(NODE_FIELDS))
            self._banks.append((header, intervals, chains, nodes))

    # -- lifecycle ---------------------------------------------------------

    @property
    def name(self) -> str:
        """The OS-level segment name (what the worker attaches by)."""
        return self._segment.name

    @classmethod
    def create(cls, layout: ArenaLayout) -> "TelemetryArena":
        """Allocate a fresh (zero-filled) arena; the caller owns it."""
        segment = shared_memory.SharedMemory(create=True, size=layout.nbytes)
        return cls(layout, segment, owner=True)

    @classmethod
    def attach(cls, name: str, layout: ArenaLayout) -> "TelemetryArena":
        """Map an existing arena by name (worker side; does not own it).

        On Python < 3.13 attaching re-registers the segment with the
        resource tracker, but workers share the parent's tracker (its fd
        travels in the fork/spawn preparation data), whose cache is a
        set — so the duplicate registration is a no-op and the owner's
        single ``unlink`` still retires the name exactly once.
        """
        return cls(layout, shared_memory.SharedMemory(name=name), owner=False)

    def close(self) -> None:
        """Drop the numpy views and unmap the segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._banks = []
        self._segment.close()

    def unlink(self) -> None:
        """Reclaim the OS segment (owner side; tolerates a prior unlink)."""
        try:
            self._segment.unlink()
        except FileNotFoundError:
            pass

    # -- bank views --------------------------------------------------------

    def header(self, bank: int) -> np.ndarray:
        """The ``(generation, start, n_intervals, n_chains)`` header row."""
        return self._banks[bank][0]

    def intervals(self, bank: int) -> np.ndarray:
        """``(max_intervals, len(INTERVAL_FIELDS))`` view of one bank."""
        return self._banks[bank][1]

    def chains(self, bank: int) -> np.ndarray:
        """``(max_chains, CHAIN+KNOB columns)`` view of one bank."""
        return self._banks[bank][2]

    def nodes(self, bank: int) -> np.ndarray:
        """``(n_nodes, len(NODE_FIELDS))`` view of one bank."""
        return self._banks[bank][3]

    # -- the write path (worker side) --------------------------------------

    def store_report(self, bank: int, generation: int, report) -> None:
        """Write one shard report into a bank.

        ``report`` is duck-typed (any object shaped like
        :class:`~repro.fleet.shard.ShardReport`) so this module never
        imports the shard module it feeds.  Chain rows land in the order
        ``report.chains`` arrives in — sorted by name, per
        ``ShardSim._chain_summaries`` — which is the contract the
        coordinator-side row map relies on.
        """
        if not 0 <= bank < BANKS:
            raise ValueError(f"bank must be in [0, {BANKS}), got {bank}")
        layout = self.layout
        if len(report.intervals) > layout.max_intervals:
            raise ValueError(
                f"arena is sized for {layout.max_intervals} interval rows "
                f"per run, got {len(report.intervals)}"
            )
        if len(report.chains) > layout.max_chains:
            raise ValueError(
                f"arena is sized for {layout.max_chains} chain rows, "
                f"shard hosts {len(report.chains)}"
            )
        if len(report.nodes) != layout.n_nodes:
            raise ValueError(
                f"arena expects {layout.n_nodes} node rows, "
                f"got {len(report.nodes)}"
            )
        header, intervals, chains, nodes = self._banks[bank]
        for j, row in enumerate(report.intervals):
            for k, fieldname in enumerate(INTERVAL_FIELDS):
                intervals[j, k] = float(getattr(row, fieldname))
        for i, chain in enumerate(report.chains):
            for k, fieldname in enumerate(CHAIN_FIELDS):
                chains[i, k] = float(getattr(chain, fieldname))
            for k, fieldname in enumerate(KNOB_NAMES):
                chains[i, len(CHAIN_FIELDS) + k] = float(chain.knobs[fieldname])
        for j, node in enumerate(report.nodes):
            for k, fieldname in enumerate(NODE_FIELDS):
                nodes[j, k] = float(getattr(node, fieldname))
        header[0] = float(generation)
        header[1] = float(report.intervals[0].index) if report.intervals else 0.0
        header[2] = float(len(report.intervals))
        header[3] = float(len(report.chains))
