"""GreenNFV reproduction — energy-efficient NFV resource scheduling with SLAs.

A full-system reproduction of *GreenNFV: Energy-Efficient Network
Function Virtualization with Service Level Agreement Constraints*
(Zulkar Nine, Kosar, Bulut, Hwang — SC 2023), built on a simulated NFV
testbed: an OpenNetVM-style platform, hardware models for DVFS / Intel
CAT / DDIO / DMA rings / the Fan-et-al. power model, MoonGen-style
traffic generation, and a from-scratch numpy RL stack (DDPG, prioritized
replay, Ape-X distributed learning, tabular Q-learning) plus the paper's
Heuristics and EE-Pstate baselines.

Quickstart — declarative (specs are JSON-round-trippable and sweepable)::

    from repro import ScenarioSpec, run

    spec = ScenarioSpec(
        name="demo",
        sla="max_throughput",
        sla_params={"energy_cap_j": 45.0},
        controller="ddpg",
        episodes=60,
        seed=7,
    )
    result = run(spec)
    print(result.mean_throughput_gbps, result.total_energy_j)

or imperative, through the scheduler the facade is built on::

    from repro import GreenNFVScheduler, MaxThroughputSLA

    sched = GreenNFVScheduler(sla=MaxThroughputSLA(energy_cap_j=45.0), seed=7)
    history = sched.train(episodes=60)
    print(history.final.throughput_gbps, history.final.energy_j)
"""

from repro.core import (
    EnergyEfficiencySLA,
    GreenNFVScheduler,
    MaxThroughputSLA,
    MinEnergySLA,
    NFVEnv,
    RewardScales,
)
from repro.nfv import KnobSettings, ServiceChain, default_chain
from repro.scenario import (
    RunResult,
    ScenarioSpec,
    SweepRunner,
    expand_grid,
    run,
    run_sweep,
)

__version__ = "1.1.0"

__all__ = [
    "EnergyEfficiencySLA",
    "GreenNFVScheduler",
    "MaxThroughputSLA",
    "MinEnergySLA",
    "NFVEnv",
    "RewardScales",
    "KnobSettings",
    "ServiceChain",
    "default_chain",
    "RunResult",
    "ScenarioSpec",
    "SweepRunner",
    "expand_grid",
    "run",
    "run_sweep",
    "__version__",
]
