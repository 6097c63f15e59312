"""The declarative ``fleet:`` section of a scenario spec.

A :class:`FleetSpec` bundles everything beyond the single-cluster
scenario fields that a fleet run needs: the :class:`~repro.fleet.topology.FleetTopology`,
the :class:`~repro.fleet.workload.WorkloadConfig`, the migration and
knob-steering policies, and the coordinator cadence.  The SLA, interval
length and seed stay on the owning :class:`~repro.scenario.spec.ScenarioSpec`
so a fleet spec cannot disagree with its scenario about them.

:data:`FLEETS` is the fleet-preset registry: named, ready-to-run fleet
sections (``{"preset": "small"}`` in a spec's ``fleet:`` dict resolves
through it, with any sibling keys overriding the preset's values;
nested sections like ``migration`` deep-merge field-by-field, so a
partial override keeps the preset's other fields).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from repro.fleet.topology import FleetTopology
from repro.fleet.workload import ChurnConfig, FlashCrowdConfig, WorkloadConfig
from repro.scenario.registry import Registry

#: Shard execution backends.
BACKENDS = ("local", "process")


@dataclass(frozen=True)
class MigrationConfig:
    """The cross-shard consolidation policy and its cost model.

    A migration is applied when its estimated energy gain over
    ``amortize_intervals`` control intervals exceeds its cost:

    * **gain** — vacating a node drops it to ``parked_power_w`` (cores
      park, paper §2's consolidation motivation) minus the dynamic power
      the chain adds at its target (``dynamic_fraction`` of its current
      attributed power); joining its flow group adds the flat
      ``colocation_gain_j`` LLC-affinity bonus.
    * **cost** — shipping the chain's resident state + DMA buffer over
      the inter-shard link (``link_power_w`` while transferring) plus a
      fixed ``setup_j`` redeploy overhead; same-shard moves pay only the
      setup.
    * **SLA headroom** — a move is vetoed when the target node's
      bottleneck utilization plus the incoming chain's would exceed
      ``headroom``, or the target is at ``capacity_per_node``.
    """

    budget_per_cycle: int = 2
    headroom: float = 0.85
    low_watermark: float = 0.35
    capacity_per_node: int = 8
    parked_power_w: float = 12.0
    dynamic_fraction: float = 0.6
    colocation_gain_j: float = 2.0
    amortize_intervals: int = 32
    link_power_w: float = 25.0
    setup_j: float = 5.0
    #: Routed-path SLA bound: veto any migration whose shortest-path
    #: latency exceeds this (0 = unbounded, the pre-graph behavior).
    max_path_latency_s: float = 0.0

    def __post_init__(self) -> None:
        if self.budget_per_cycle < 0:
            raise ValueError("migration budget must be >= 0")
        if not 0.0 < self.headroom <= 1.0:
            raise ValueError("headroom must be in (0, 1]")
        if not 0.0 <= self.low_watermark < self.headroom:
            raise ValueError("need 0 <= low_watermark < headroom")
        if self.capacity_per_node < 1:
            raise ValueError("capacity_per_node must be >= 1")
        # Written ``not 0 <= x < inf``: an ordered guard such as ``x < 0``
        # is False for NaN, and a NaN power or energy fails every
        # comparison the migration scoring makes.
        if not 0 <= self.parked_power_w < math.inf:
            raise ValueError("parked power must be finite and >= 0")
        if not 0.0 <= self.dynamic_fraction <= 1.0:
            raise ValueError("dynamic_fraction must be in [0, 1]")
        if not 0 <= self.colocation_gain_j < math.inf:
            raise ValueError("colocation gain must be finite and >= 0")
        if self.amortize_intervals < 1:
            raise ValueError("amortize_intervals must be >= 1")
        if not 0 <= self.link_power_w < math.inf:
            raise ValueError("link power must be finite and >= 0")
        if not 0 <= self.setup_j < math.inf:
            raise ValueError("setup energy must be finite and >= 0")
        if not 0 <= self.max_path_latency_s < math.inf:
            raise ValueError(
                "max path latency must be finite and >= 0 (0 = unbounded)"
            )


@dataclass(frozen=True)
class SteeringConfig:
    """The coordinator's global knob-steering policy.

    Watermark rules on each chain's bottleneck utilization: overloaded
    chains get more compute (share x ``share_step``, frequency up one
    notch), cold chains shed it.  The per-node clamping still happens on
    the owning node (DVFS ladder, CAT ways), exactly as for the
    single-cluster controllers.
    """

    enabled: bool = True
    high_watermark: float = 0.9
    low_watermark: float = 0.25
    share_step: float = 1.25
    freq_step_ghz: float = 0.15
    share_min: float = 0.25
    share_max: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 < self.low_watermark < self.high_watermark <= 1.0:
            raise ValueError("need 0 < low_watermark < high_watermark <= 1")
        if not 1.0 < self.share_step < math.inf:
            raise ValueError("share_step must be finite and > 1")
        if not 0 < self.freq_step_ghz < math.inf:
            raise ValueError("freq_step_ghz must be finite and positive")
        if not 0.0 < self.share_min <= self.share_max < math.inf:
            raise ValueError("need 0 < share_min <= share_max < inf")


def _config_dict(obj) -> dict[str, Any]:
    """Frozen-config dataclass -> plain dict (flat fields only)."""
    return {k: getattr(obj, k) for k in obj.__dataclass_fields__}


#: Nested config sections that deep-merge field-by-field over a preset.
_NESTED_SECTIONS = ("workload", "migration", "steering", "topology")


def _merge_section(base: Mapping[str, Any], override: Mapping[str, Any]) -> dict:
    """Recursive field-by-field merge of one nested config section.

    Mapping values merge recursively (``workload.churn`` overrides keep
    the preset's other churn fields); anything else replaces.
    """
    merged = dict(base)
    for key, value in override.items():
        if isinstance(value, Mapping) and isinstance(merged.get(key), Mapping):
            merged[key] = _merge_section(merged[key], value)
        else:
            merged[key] = value
    return merged


@dataclass(frozen=True)
class FleetSpec:
    """One complete, serializable fleet-run description."""

    topology: FleetTopology
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    migration: MigrationConfig = field(default_factory=MigrationConfig)
    steering: SteeringConfig = field(default_factory=SteeringConfig)
    #: Coordinator cycles to run; each cycle is ``sync_every`` intervals.
    cycles: int = 8
    sync_every: int = 4
    backend: str = "local"
    #: Which :data:`~repro.fleet.placement.PLACEMENTS` policy proposes
    #: the fleet-wide desired placement each cycle.
    placement: str = "watermark"

    def __post_init__(self) -> None:
        if self.cycles < 1:
            raise ValueError("fleet needs at least one coordinator cycle")
        if self.sync_every < 1:
            raise ValueError("sync_every must be >= 1")
        # The initial layout must fit the per-node bound that sizes each
        # shard's telemetry arena; admission and migration respect it.
        capacity = self.migration.capacity_per_node
        for shard in self.topology.shards:
            if shard.chains_per_node > capacity:
                raise ValueError(
                    f"shard {shard.name!r} starts with "
                    f"{shard.chains_per_node} chains per node, above "
                    f"migration.capacity_per_node={capacity}"
                )
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown fleet backend {self.backend!r}; options: {BACKENDS}"
            )
        # Imported here: the placement module depends on the routing /
        # workload layers, not the other way around.
        from repro.fleet.placement import PLACEMENTS

        if self.placement not in PLACEMENTS:
            raise ValueError(
                f"unknown placement policy {self.placement!r}; "
                f"options: {PLACEMENTS.names()}"
            )

    @property
    def intervals(self) -> int:
        """Total control intervals of the run."""
        return self.cycles * self.sync_every

    def with_updates(self, **changes: Any) -> "FleetSpec":
        """A copy with the given fields replaced (re-validated)."""
        return replace(self, **changes)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form; ``from_mapping(to_dict())`` is the identity."""
        return {
            "topology": self.topology.to_dict(),
            "workload": self.workload.to_dict(),
            "migration": _config_dict(self.migration),
            "steering": _config_dict(self.steering),
            "cycles": self.cycles,
            "sync_every": self.sync_every,
            "backend": self.backend,
            "placement": self.placement,
        }

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> "FleetSpec":
        """Build (and validate) a fleet spec from a ``fleet:`` dict.

        ``{"preset": "small", ...}`` resolves the named :data:`FLEETS`
        preset first; any sibling keys override the preset's values.
        The nested config sections (:data:`_NESTED_SECTIONS`) merge
        **field-by-field** over the preset's: ``{"preset": "small",
        "migration": {"budget_per_cycle": 1}}`` keeps the small preset's
        ``capacity_per_node=4`` and only overrides the budget.  (A
        shallow ``dict.update`` here used to silently reset every
        sibling field of a partially-overridden section to the dataclass
        defaults.)  A ``topology`` override carrying its own ``preset``
        key replaces the section wholesale — a named topology supersedes
        whatever graph the fleet preset shipped.
        """
        if not isinstance(data, Mapping):
            raise ValueError(
                f"fleet section must be a mapping, got {type(data).__name__}"
            )
        data = dict(data)
        preset = data.pop("preset", None)
        if preset is not None:
            try:
                base = dict(FLEETS.get(preset)())
            except KeyError as exc:
                raise ValueError(str(exc).strip('"')) from None
            for key, value in data.items():
                if (
                    key in _NESTED_SECTIONS
                    and isinstance(value, Mapping)
                    and isinstance(base.get(key), Mapping)
                    and "preset" not in value
                ):
                    base[key] = _merge_section(base[key], value)
                else:
                    base[key] = value
            data = base
        known = set(cls.__dataclass_fields__)
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown fleet fields {unknown!r}; known: {sorted(known)} + ['preset']"
            )
        if "topology" not in data:
            raise ValueError("fleet section needs a 'topology' (or a 'preset')")
        kwargs: dict[str, Any] = {
            "topology": FleetTopology.from_dict(data.pop("topology"))
        }
        if "workload" in data:
            kwargs["workload"] = WorkloadConfig.from_dict(data.pop("workload"))
        if "migration" in data:
            kwargs["migration"] = MigrationConfig(**dict(data.pop("migration")))
        if "steering" in data:
            kwargs["steering"] = SteeringConfig(**dict(data.pop("steering")))
        kwargs.update(data)
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ValueError(f"invalid fleet section: {exc}") from exc


# -- presets -------------------------------------------------------------------

FLEETS = Registry("fleet preset")


@FLEETS.register("small")
def _small() -> dict[str, Any]:
    """2 shards x 2 nodes x 2 chains — the smoke/differential-test fleet."""
    return {
        "topology": FleetTopology.uniform(2, nodes=2, chains_per_node=2).to_dict(),
        "workload": WorkloadConfig(
            peak_rate_pps=1.2e6,
            period_s=64.0,
            flash=FlashCrowdConfig(probability=0.05, multiplier=2.5),
            churn=ChurnConfig(
                arrivals_per_cycle=0.5, departure_prob=0.1, max_chains=16
            ),
        ).to_dict(),
        "migration": _config_dict(MigrationConfig(capacity_per_node=4)),
        "cycles": 6,
        "sync_every": 4,
    }


@FLEETS.register("medium")
def _medium() -> dict[str, Any]:
    """3 shards x 4 nodes x 2 chains with diurnal load and churn."""
    return {
        "topology": FleetTopology.uniform(3, nodes=4, chains_per_node=2).to_dict(),
        "workload": WorkloadConfig(
            peak_rate_pps=1.5e6,
            period_s=128.0,
            flash=FlashCrowdConfig(probability=0.03, multiplier=3.0),
            churn=ChurnConfig(
                arrivals_per_cycle=1.0, departure_prob=0.08, max_chains=48
            ),
        ).to_dict(),
        "cycles": 8,
        "sync_every": 4,
    }


@FLEETS.register("wan")
def _wan() -> dict[str, Any]:
    """4 WAN sites on a ring + express chord — routed multi-hop migrations.

    Thin, long-haul links make cross-site transfers expensive and most
    site pairs non-adjacent, so migration costs are dominated by the
    routed path (hop count, bottleneck bandwidth) rather than the flat
    full-mesh link — the shape the topology-aware placement baselines
    are measured on.
    """
    return {
        "topology": FleetTopology.wan(4, nodes=2, chains_per_node=2).to_dict(),
        "workload": WorkloadConfig(
            peak_rate_pps=1.2e6,
            period_s=64.0,
            flash=FlashCrowdConfig(probability=0.05, multiplier=2.5),
            churn=ChurnConfig(
                arrivals_per_cycle=0.5, departure_prob=0.1, max_chains=24
            ),
        ).to_dict(),
        "migration": _config_dict(MigrationConfig(capacity_per_node=4)),
        "cycles": 6,
        "sync_every": 4,
    }


@FLEETS.register("datacenter")
def _datacenter() -> dict[str, Any]:
    """4 shards x 8 nodes x 4 chains — the ``fleet_scale`` bench shape."""
    return {
        "topology": FleetTopology.uniform(4, nodes=8, chains_per_node=4).to_dict(),
        "workload": WorkloadConfig(
            peak_rate_pps=1.8e6,
            period_s=256.0,
            flash=FlashCrowdConfig(probability=0.02, multiplier=3.0),
        ).to_dict(),
        "migration": _config_dict(MigrationConfig(budget_per_cycle=4)),
        "cycles": 8,
        "sync_every": 8,
    }
