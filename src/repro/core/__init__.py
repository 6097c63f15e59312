"""GreenNFV core: SLAs, RL environment, training, and the scheduler API."""

from repro.core.env import NFVEnv, StepResult
from repro.core.per_nf_env import PerNFEnv
from repro.core.knobs import KNOB_NAMES, KnobSpace
from repro.core.scheduler import GreenNFVScheduler, OnlineSample
from repro.core.sla import (
    SLA,
    EnergyEfficiencySLA,
    LatencySLA,
    MaxThroughputSLA,
    MinEnergySLA,
    RewardScales,
)
from repro.core.state import STATE_NAMES, StateEncoder, StateScales
from repro.core.training import (
    EvalRecord,
    TrainingHistory,
    evaluate_policy,
    train_apex,
    train_ddpg,
    train_qlearning,
)

__all__ = [
    "NFVEnv",
    "StepResult",
    "PerNFEnv",
    "LatencySLA",
    "KNOB_NAMES",
    "KnobSpace",
    "GreenNFVScheduler",
    "OnlineSample",
    "SLA",
    "EnergyEfficiencySLA",
    "MaxThroughputSLA",
    "MinEnergySLA",
    "RewardScales",
    "STATE_NAMES",
    "StateEncoder",
    "StateScales",
    "EvalRecord",
    "TrainingHistory",
    "evaluate_policy",
    "train_apex",
    "train_ddpg",
    "train_qlearning",
]
