"""Ablation studies on GreenNFV's design choices.

DESIGN.md calls out three choices worth ablating:

* **Prioritized vs. uniform experience replay** — Ape-X's core claim is
  that prioritization accelerates learning from the shared buffer.
* **Number of Ape-X actors** — more actors gather more experience per
  coordinator cycle; the distributed design should convert that into
  faster convergence per cycle.
* **Knob ablation** — freeze one of the five knobs at its Baseline
  default and train with the remaining four, measuring how much of the
  final reward each control dimension contributes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.env import NFVEnv
from repro.core.knobs import KNOB_NAMES, KnobSpace
from repro.core.training import evaluate_policy, train_apex, train_ddpg
from repro.experiments.common import (
    DEFAULT_SCALE,
    ExperimentScale,
    experiment_chain,
    experiment_generator,
)
from repro.nfv.knobs import KnobSettings
from repro.rl.apex import ApexConfig
from repro.utils.rng import StreamFactory
from repro.utils.tables import ExperimentReport


@dataclass(frozen=True)
class AblationRow:
    """One ablation variant's outcome."""

    variant: str
    final_reward: float
    final_throughput_gbps: float
    final_energy_j: float
    auc_reward: float  # mean of periodic test rewards: convergence speed


def _env(scale: ExperimentScale, rng, env_cls=NFVEnv, **kwargs) -> NFVEnv:
    return env_cls(
        scale.max_throughput_sla(),
        chains=[experiment_chain()],
        generators=[experiment_generator()],
        episode_len=16,
        rng=rng,
        **kwargs,
    )


def _row(variant: str, history) -> AblationRow:
    rewards = [r.reward for r in history.records]
    return AblationRow(
        variant=variant,
        final_reward=history.final.reward,
        final_throughput_gbps=history.final.throughput_gbps,
        final_energy_j=history.final.energy_j,
        auc_reward=float(np.mean(rewards)),
    )


def ablation_per(
    *, episodes: int = 60, test_every: int = 10, seed: int = 31,
    scale: ExperimentScale = DEFAULT_SCALE,
) -> tuple[list[AblationRow], ExperimentReport]:
    """Prioritized vs. uniform replay under the MaxThroughput SLA."""
    streams = StreamFactory(seed)
    rows = []
    for use_per, name in ((True, "prioritized"), (False, "uniform")):
        _, history = train_ddpg(
            _env(scale, streams.stream(f"train-{name}")),
            _env(scale, streams.stream(f"eval-{name}")),
            episodes=episodes,
            test_every=test_every,
            use_per=use_per,
            rng=streams.stream(f"agent-{name}"),
        )
        rows.append(_row(name, history))
    report = ExperimentReport(
        "ablation-per", "Prioritized vs. uniform experience replay (MaxT SLA)."
    )
    report.add_table(
        ["replay", "final reward", "final T (Gbps)", "mean test reward (AUC)"],
        [[r.variant, r.final_reward, r.final_throughput_gbps, r.auc_reward] for r in rows],
    )
    return rows, report


def ablation_apex_actors(
    *, actor_counts: tuple[int, ...] = (1, 2, 4), cycles: int = 30,
    test_every: int = 10, seed: int = 37, scale: ExperimentScale = DEFAULT_SCALE,
) -> tuple[list[AblationRow], ExperimentReport]:
    """Ape-X scaling: convergence per coordinator cycle vs. actor count."""
    rows = []
    for n in actor_counts:
        if n < 1:
            raise ValueError("actor counts must be >= 1")
        streams = StreamFactory(seed + n)
        # Learner throughput scales with the fleet, as in the real Ape-X
        # deployment (the learner consumes experience as fast as the
        # actors produce it); otherwise extra actors only dilute updates.
        cfg = ApexConfig(
            n_actors=n,
            local_buffer_size=32,
            sync_every_steps=64,
            replay_capacity=20_000,
            warmup_transitions=128,
            learner_steps_per_cycle=16 * n,
            actor_steps_per_cycle=32,
            evict_every_cycles=0,
        )
        _, history = train_apex(
            lambda i, rng: _env(scale, streams.stream(f"actor{i}")),
            _env(scale, streams.stream("eval")),
            state_dim=4,
            action_dim=5,
            cycles=cycles,
            test_every=test_every,
            apex_config=cfg,
            rng=streams.stream("apex"),
        )
        rows.append(_row(f"{n} actor(s)", history))
    report = ExperimentReport(
        "ablation-apex",
        "Ape-X actor-count scaling: equal coordinator cycles, more actors "
        "gather proportionally more experience.",
    )
    report.add_table(
        ["actors", "final reward", "final T (Gbps)", "mean test reward (AUC)"],
        [[r.variant, r.final_reward, r.final_throughput_gbps, r.auc_reward] for r in rows],
    )
    return rows, report


def ablation_discretization(
    *, levels: tuple[int, ...] = (2, 3, 4), episodes: int = 120,
    test_every: int = 40, seed: int = 47, scale: ExperimentScale = DEFAULT_SCALE,
) -> tuple[list[AblationRow], ExperimentReport]:
    """Q-learning action-discretization sweep — §4.3's O(k^5) argument.

    "When we choose k discrete levels for each action, the number of
    actions becomes O(k^5)": finer grids can represent better settings
    but the table grows as k^5 and per-entry visitation collapses.  This
    ablation trains the tabular baseline at several ``k`` and reports the
    performance / table-size trade-off that motivates DDPG's continuous
    action space.
    """
    from repro.core.training import train_qlearning
    from repro.rl.qlearning import QLearningConfig

    streams = StreamFactory(seed)
    rows: list[AblationRow] = []
    sizes: list[int] = []
    for k in levels:
        if k < 2:
            raise ValueError("discretization levels must be >= 2")
        agent, history = train_qlearning(
            _env(scale, streams.stream(f"k{k}-train")),
            _env(scale, streams.stream(f"k{k}-eval")),
            episodes=episodes,
            test_every=test_every,
            config=QLearningConfig(action_levels=k),
            rng=streams.stream(f"k{k}-agent"),
        )
        rows.append(_row(f"k={k} ({k**5} actions)", history))
        sizes.append(agent.table_entries)

    report = ExperimentReport(
        "ablation-discretization",
        "Tabular Q-learning at k discretization levels per knob: the "
        "O(k^5) action blow-up that motivates DDPG (§4.3).",
    )
    report.add_table(
        ["variant", "final reward", "final T (Gbps)", "visited Q entries"],
        [
            [r.variant, r.final_reward, r.final_throughput_gbps, n]
            for r, n in zip(rows, sizes)
        ],
    )
    return rows, report


def ablation_granularity(
    *, episodes: int = 60, test_every: int = 20, seed: int = 43,
    scale: ExperimentScale = DEFAULT_SCALE,
) -> tuple[list[AblationRow], ExperimentReport]:
    """Per-chain (5 knobs) vs. per-NF (5 x n knobs) action spaces.

    Eq. (7) defines the action space per NF; the deployment in §5 tunes
    per chain.  This ablation trains both granularities under the MaxT
    SLA at equal episode budgets: the per-NF space can in principle beat
    per-chain (it can starve the NAT to feed the IDS) at the cost of a
    3x larger action space to explore.
    """
    from repro.core.per_nf_env import PerNFEnv

    streams = StreamFactory(seed)
    rows = []

    _, hist_chain = train_ddpg(
        _env(scale, streams.stream("chain-train")),
        _env(scale, streams.stream("chain-eval")),
        episodes=episodes,
        test_every=test_every,
        rng=streams.stream("chain-agent"),
    )
    rows.append(_row("per-chain (5 knobs)", hist_chain))

    def per_nf_env(tag: str) -> PerNFEnv:
        return PerNFEnv(
            scale.max_throughput_sla(),
            chain=experiment_chain(),
            generator=experiment_generator(),
            episode_len=16,
            rng=streams.stream(f"pernf-{tag}"),
        )

    _, hist_nf = train_ddpg(
        per_nf_env("train"),
        per_nf_env("eval"),
        episodes=episodes,
        test_every=test_every,
        rng=streams.stream("pernf-agent"),
    )
    rows.append(_row("per-NF (15 knobs)", hist_nf))

    report = ExperimentReport(
        "ablation-granularity",
        "Action-space granularity: chain-level vs. per-NF knob control "
        "at equal training budget (MaxT SLA).",
    )
    report.add_table(
        ["granularity", "final reward", "final T (Gbps)", "final E (J)", "mean test reward"],
        [
            [r.variant, r.final_reward, r.final_throughput_gbps, r.final_energy_j, r.auc_reward]
            for r in rows
        ],
    )
    return rows, report


class _FrozenKnobEnv(NFVEnv):
    """Environment wrapper pinning one action dimension to a fixed value."""

    def __init__(self, *args, frozen_dim: int, frozen_value: float, **kwargs):
        super().__init__(*args, **kwargs)
        if not 0 <= frozen_dim < self.action_dim:
            raise ValueError("frozen_dim out of range")
        self.frozen_dim = frozen_dim
        self.frozen_value = float(frozen_value)

    def step(self, action):
        action = np.asarray(action, dtype=np.float64).copy()
        action[self.frozen_dim] = self.frozen_value
        return super().step(action)


def ablation_knobs(
    *, episodes: int = 40, test_every: int = 20, seed: int = 41,
    scale: ExperimentScale = DEFAULT_SCALE,
) -> tuple[list[AblationRow], ExperimentReport]:
    """Freeze each knob at the Baseline default; train with the rest.

    The gap between 'all knobs' and each frozen variant measures that
    knob's contribution to the learned policy's reward.
    """
    streams = StreamFactory(seed)
    space = KnobSpace()
    default_action = space.to_action(KnobSettings())
    rows = []

    def run(name: str, frozen_dim: int | None):
        def build(tag: str):
            rng = streams.stream(f"{name}-{tag}")
            if frozen_dim is None:
                return _env(scale, rng)
            return _env(
                scale,
                rng,
                _FrozenKnobEnv,
                frozen_dim=frozen_dim,
                frozen_value=default_action[frozen_dim],
            )

        _, history = train_ddpg(
            build("train"),
            build("eval"),
            episodes=episodes,
            test_every=test_every,
            rng=streams.stream(f"{name}-agent"),
        )
        rows.append(_row(name, history))

    run("all-knobs", None)
    for dim, knob in enumerate(KNOB_NAMES):
        run(f"frozen:{knob}", dim)

    report = ExperimentReport(
        "ablation-knobs",
        "Per-knob contribution: train the MaxT policy with one knob frozen "
        "at its Baseline default.",
    )
    report.add_table(
        ["variant", "final reward", "final T (Gbps)", "final E (J)"],
        [[r.variant, r.final_reward, r.final_throughput_gbps, r.final_energy_j] for r in rows],
    )
    return rows, report
