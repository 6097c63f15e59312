"""Non-finite intervals and SLA bounds are refused where they enter.

An ordered guard such as ``dt_s <= 0`` is False for NaN, so a NaN
interval used to pass every check in the stepping stack: it priced NaN
energy, and one such interval left a node meter's ``total_joules`` NaN
for good.  Each guard is written ``not dt_s > 0`` instead.  The first
table feeds NaN to every public constructor and stepping method that
takes an interval length and expects ``ValueError``.

The same held for the SLAs: a NaN latency bound made every comparison
False, so a fleet under ``LatencySLA(nan)`` counted every chain-interval
as a violation.  Every float parameter of the SLAs and their reward
scales must be finite (and positive, or >= 0 for a violation slope);
the second table feeds NaN, +inf and -inf to each.

And for the fleet configs: a NaN parked power made every interval
energy of a shard NaN, and a ``fleet-churn`` section with it ran all
its cycles without error while the migration scoring, whose every
comparison was False, made no move.  The third table feeds NaN, +inf
and -inf to each float field of the migration, shard, link, topology
and steering configs.
"""

import numpy as np
import pytest

from repro.core.sla import LatencySLA, MaxThroughputSLA, MinEnergySLA, RewardScales
from repro.fleet import (
    FLEETS,
    FleetCoordinator,
    FleetSpec,
    FleetTopology,
    InterShardLink,
    MigrationConfig,
    ShardConfig,
    ShardSpec,
    SteeringConfig,
)
from repro.nfv.chain import default_chain
from repro.nfv.cluster_kernel import ClusterKernel
from repro.nfv.controller import OnvmController
from repro.nfv.engine import PacketEngine, chain_stack
from repro.nfv.knobs import KnobSettings
from repro.nfv.node import Node
from repro.nfv.per_nf import PerNFEngine
from repro.rl.noise import OUNoise
from repro.scenario import ScenarioSpec
from repro.sdn.controller import SdnController
from repro.traffic.analysis import FlowAnalyzer
from repro.traffic.generators import PoissonGenerator, TraceReplayGenerator

NAN = float("nan")
KNOBS = KnobSettings()


def _node():
    node = Node()
    node.deploy(default_chain())
    return node


def _cluster_step():
    node = _node()
    names = list(node.chains)
    ClusterKernel([node]).step(names, np.full((len(names), 2), 1e5), 1518.0, NAN)


def _plan_step():
    plan = PacketEngine().compile_chains(
        chain_stack((default_chain(),), (1518.0,)), [KNOBS]
    )
    plan.step([1e5], NAN)


def _shard_config():
    ShardConfig(
        name="s",
        n_nodes=1,
        interval_s=NAN,
        sla="energy_efficiency",
        sla_params={},
        workload={},
        parked_power_w=0.0,
    )


ENTRY_POINTS = {
    "ScenarioSpec": lambda: ScenarioSpec(name="x", interval_s=NAN),
    "OnvmController": lambda: OnvmController(interval_s=NAN),
    "SdnController": lambda: SdnController(interval_s=NAN),
    "Node.step_all": lambda: _node().step_all(
        {default_chain().name: (1e5, 1518.0)}, NAN
    ),
    "ClusterKernel.step": _cluster_step,
    "ChainKernelPlan.step": _plan_step,
    "PacketEngine.step": lambda: PacketEngine().step(
        default_chain(), KNOBS, 1e5, 1518.0, NAN
    ),
    "PacketEngine.step_batch": lambda: PacketEngine().step_batch(
        default_chain(), [KNOBS], [1e5], 1518.0, NAN
    ),
    "PerNFEngine.step_per_nf": lambda: PerNFEngine().step_per_nf(
        default_chain(), [KNOBS] * len(default_chain()), 1e5, 1518.0, NAN
    ),
    "ShardConfig": _shard_config,
    "FleetCoordinator": lambda: FleetCoordinator(
        FleetSpec.from_mapping(FLEETS.get("small")()), interval_s=NAN
    ),
    "OUNoise": lambda: OUNoise(2, dt=NAN),
    "PoissonGenerator.rate_at": lambda: PoissonGenerator(1e5).rate_at(0.0, NAN, 0),
    "TraceReplayGenerator": lambda: TraceReplayGenerator([1e5], trace_dt_s=NAN),
    "FlowAnalyzer.observe": lambda: FlowAnalyzer().observe(1e5, NAN),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_nan_interval_is_refused(entry):
    with pytest.raises(ValueError):
        ENTRY_POINTS[entry]()


#: Every float parameter of the SLAs and their reward scales, each with a
#: valid value; the test swaps one at a time for a non-finite one.
SLA_PARAMETERS = {
    MaxThroughputSLA: {"energy_cap_j": 45.0, "violation_slope": 0.5},
    MinEnergySLA: {
        "throughput_floor_gbps": 5.0,
        "violation_slope": 0.5,
        "headroom_gain": 3.0,
    },
    LatencySLA: {"latency_bound_s": 1e-3, "violation_slope": 0.5},
    RewardScales: {"throughput_gbps": 10.0, "energy_j": 85.0},
}
SLA_CASES = [
    pytest.param(cls, name, id=f"{cls.__name__}.{name}")
    for cls, params in SLA_PARAMETERS.items()
    for name in params
]


@pytest.mark.parametrize("cls", SLA_PARAMETERS)
def test_valid_sla_parameters_construct(cls):
    cls(**SLA_PARAMETERS[cls])


@pytest.mark.parametrize("value", [NAN, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("cls,name", SLA_CASES)
def test_non_finite_sla_parameter_is_refused(cls, name, value):
    params = {**SLA_PARAMETERS[cls], name: value}
    with pytest.raises(ValueError):
        cls(**params)


def test_fleet_refuses_a_nan_latency_bound():
    with pytest.raises(ValueError, match="latency bound"):
        FleetCoordinator(
            FleetSpec.from_mapping(FLEETS.get("small")()),
            sla="latency",
            sla_params={"latency_bound_s": NAN},
        )


def _shard_config_with(**fields):
    return ShardConfig(
        name="s",
        n_nodes=2,
        interval_s=1.0,
        sla="energy_efficiency",
        sla_params={},
        workload={},
        **fields,
    )


def _topology_with(**fields):
    return FleetTopology(shards=(ShardSpec("s0"), ShardSpec("s1")), **fields)


#: Every float field of the fleet configs, each with a valid value and the
#: constructor that takes it; the test swaps one at a time for a
#: non-finite one.
FLEET_PARAMETERS = {
    "MigrationConfig": (
        MigrationConfig,
        {
            "parked_power_w": 12.0,
            "colocation_gain_j": 2.0,
            "link_power_w": 25.0,
            "setup_j": 5.0,
            "max_path_latency_s": 0.0,
        },
    ),
    "ShardConfig": (_shard_config_with, {"parked_power_w": 0.0}),
    "InterShardLink": (
        lambda **f: InterShardLink("s0", "s1", **f),
        {"gbps": 40.0, "latency_s": 2e-3},
    ),
    "FleetTopology": (
        _topology_with,
        {"default_link_gbps": 40.0, "default_link_latency_s": 2e-3},
    ),
    "SteeringConfig": (
        SteeringConfig,
        {"share_step": 1.25, "freq_step_ghz": 0.15, "share_max": 2.0},
    ),
}
FLEET_CASES = [
    pytest.param(config, name, id=f"{config}.{name}")
    for config, (_, params) in FLEET_PARAMETERS.items()
    for name in params
]


@pytest.mark.parametrize("config", sorted(FLEET_PARAMETERS))
def test_valid_fleet_parameters_construct(config):
    build, params = FLEET_PARAMETERS[config]
    build(**params)


@pytest.mark.parametrize("value", [NAN, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("config,name", FLEET_CASES)
def test_non_finite_fleet_parameter_is_refused(config, name, value):
    build, params = FLEET_PARAMETERS[config]
    with pytest.raises(ValueError):
        build(**{**params, name: value})


def test_fleet_section_refuses_a_nan_parked_power():
    with pytest.raises(ValueError, match="parked power"):
        FleetSpec.from_mapping(
            {"preset": "small", "migration": {"parked_power_w": NAN}}
        )
