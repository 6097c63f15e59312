"""Zero-copy shard telemetry: preallocated shared-memory arenas.

The lockstep fleet paid one pickled :class:`~repro.fleet.shard.ShardReport`
per shard per cycle — nested dataclasses serialized through the pipe on
the gather critical path.  A :class:`TelemetryArena` replaces that body
with a fixed-layout ``multiprocessing.shared_memory`` segment of float64
rows: the worker writes telemetry in place after each run and the pipe
carries only a tiny ack, so gather on the coordinator side is one block
copy per table instead of unpickling.

Layout
------
Every value is a float64 (the integer fields — node indices, counts,
violations — stay far below 2**53, so the round trip through float64 is
exact).  The segment holds one run's tables::

    intervals : max_intervals x len(INTERVAL_FIELDS)
    chains    : max_chains    x len(CHAIN_FIELDS)
    nodes     : n_nodes       x len(NODE_FIELDS)

These are the three tables of a :class:`~repro.fleet.shard.ShardReport`
as they are.  Chain rows follow the shard's deployment order (its load
rows), so the coordinator-side handle maps rows back to names from its
own ticket mirror without any name data crossing the arena.  Which run
the tables hold, and how many rows of them are live, travel in the
worker's ``("telemetry", ...)`` ack.

One set of tables is enough: every read is a copy, and the handle copies
a run's tables out before it sends the next run (it refuses to begin a
run while one is in flight), so the worker never writes over tables the
coordinator still reads.

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

#: Columns of one per-interval row of a shard report (the row's interval
#: index is implicit as ``start + row``).
INTERVAL_FIELDS = (
    "energy_j",
    "throughput_gbps",
    "offered_pps",
    "sla_violations",
    "chains",
)

#: Columns of one per-chain row: the chain's node, its last-interval
#: state and the two knobs the coordinator steers.
CHAIN_FIELDS = (
    "node",
    "utilization",
    "power_w",
    "state_bytes",
    "dma_bytes",
    "cpu_share",
    "cpu_freq_ghz",
)

#: Columns of one per-node row.
NODE_FIELDS = ("power_w", "utilization")

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
    def nbytes(self) -> int:
        """Segment size: one run's three tables."""
        floats = (
            self.max_intervals * len(INTERVAL_FIELDS)
            + self.max_chains * len(CHAIN_FIELDS)
            + self.n_nodes * len(NODE_FIELDS)
        )
        return floats * _ITEMSIZE


class TelemetryArena:
    """One shard's shared-memory telemetry segment, viewed as three tables.

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
            (layout.nbytes // _ITEMSIZE,), dtype=np.float64, buffer=segment.buf
        )
        n_ivals = layout.max_intervals * len(INTERVAL_FIELDS)
        n_chains = layout.max_chains * len(CHAIN_FIELDS)
        intervals = flat[:n_ivals].reshape(layout.max_intervals, len(INTERVAL_FIELDS))
        o = n_ivals + n_chains
        chains = flat[n_ivals:o].reshape(layout.max_chains, len(CHAIN_FIELDS))
        nodes = flat[o:].reshape(layout.n_nodes, len(NODE_FIELDS))
        self._tables = (intervals, chains, nodes)

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
        self._tables = ()
        self._segment.close()

    def unlink(self) -> None:
        """Reclaim the OS segment (owner side; tolerates a prior unlink)."""
        try:
            self._segment.unlink()
        except FileNotFoundError:
            pass

    # -- reads -------------------------------------------------------------
    #
    # Each read is a copy: a view into the segment would outlive close(),
    # and reading it then would touch unmapped memory.

    def _table(self, which: int) -> np.ndarray:
        if self._closed:
            raise ValueError("telemetry arena is closed")
        return self._tables[which].copy()

    def intervals(self) -> np.ndarray:
        """``(max_intervals, len(INTERVAL_FIELDS))`` copy of the interval table."""
        return self._table(0)

    def chains(self) -> np.ndarray:
        """``(max_chains, len(CHAIN_FIELDS))`` copy of the chain table."""
        return self._table(1)

    def nodes(self) -> np.ndarray:
        """``(n_nodes, len(NODE_FIELDS))`` copy of the node table."""
        return self._table(2)

    # -- the write path (worker side) --------------------------------------

    def store_report(self, report) -> None:
        """Write one shard report's three tables, one block copy each.

        ``report`` is duck-typed (any object shaped like
        :class:`~repro.fleet.shard.ShardReport`) so this module never
        imports the shard module it feeds.  Chain rows land in the
        report's row order, the shard's deployment order, which is the
        contract the coordinator-side row map relies on.
        """
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
        intervals, chains, nodes = self._tables
        intervals[: len(report.intervals)] = report.intervals
        chains[: len(report.chains)] = report.chains
        nodes[:] = report.nodes
