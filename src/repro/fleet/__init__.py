"""Fleet subsystem: sharded multi-cluster simulation at datacenter scale.

One :class:`~repro.nfv.cluster_kernel.ClusterKernel` prices a whole
cluster per interval; this package scales *out*: a fleet is a set of
**shards** (clusters) joined by inter-shard links — stepped in-process
(:class:`~repro.fleet.shard.LocalShard`, one kernel pass per cycle for
every shard) or each in a real worker process with its own kernel
(:class:`~repro.fleet.shard.ShardWorker`) — and
a :class:`~repro.fleet.coordinator.FleetCoordinator` running the global
gather / decide / scatter loop: per-shard telemetry tables in, SDN
knob steering and **cross-shard chain migration** decisions out.  The
loop has one schedule: the coordinator decides on cycle *t*'s telemetry
while the shards step cycle *t+1*, and the decisions land at the next
interval boundary.

Determinism is the design center: all stochastic inputs (traffic draws,
flash crowds, churn) come from counter-based RNG streams keyed on
``(seed, name, interval)``, so a seeded fleet run is bit-identical
regardless of the worker count and between the local and process
backends (``tests/test_fleet.py`` pins it).

Entry points::

    from repro.fleet import run_fleet
    result = run_fleet(spec)            # spec.fleet holds the fleet section

    python -m repro fleet fleet-small --backend process --out fleet.json
"""

from repro.fleet.arena import ArenaLayout, TelemetryArena
from repro.fleet.coordinator import FleetCoordinator, FleetResult, run_fleet
from repro.fleet.placement import (
    PLACEMENTS,
    GeneticPlacement,
    GreedyPlacement,
    PlacementModel,
    WatermarkPlacement,
)
from repro.fleet.routing import RoutingTable
from repro.fleet.shard import (
    ChainTicket,
    LocalShard,
    ShardConfig,
    ShardSim,
    ShardWorker,
    arena_layout_for,
)
from repro.fleet.spec import FLEETS, FleetSpec, MigrationConfig, SteeringConfig
from repro.fleet.topology import (
    TOPOLOGY_PRESETS,
    FleetTopology,
    InterShardLink,
    ShardSpec,
)
from repro.fleet.workload import (
    ChurnConfig,
    FlashCrowdConfig,
    LoadBlock,
    WorkloadConfig,
    interval_stream,
    stream_hashes,
)

__all__ = [
    "FLEETS",
    "PLACEMENTS",
    "TOPOLOGY_PRESETS",
    "ArenaLayout",
    "ChainTicket",
    "ChurnConfig",
    "FlashCrowdConfig",
    "FleetCoordinator",
    "FleetResult",
    "FleetSpec",
    "FleetTopology",
    "GeneticPlacement",
    "GreedyPlacement",
    "InterShardLink",
    "LoadBlock",
    "LocalShard",
    "MigrationConfig",
    "PlacementModel",
    "RoutingTable",
    "ShardConfig",
    "ShardSim",
    "ShardSpec",
    "ShardWorker",
    "SteeringConfig",
    "TelemetryArena",
    "WatermarkPlacement",
    "WorkloadConfig",
    "arena_layout_for",
    "interval_stream",
    "run_fleet",
    "stream_hashes",
]
