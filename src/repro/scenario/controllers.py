"""The unified controller protocol of the scenario layer.

The paper's Fig. 9 compares seven controllers, but the legacy API gives
them three different calling conventions: ``GreenNFVScheduler`` for the
DDPG/Ape-X policies, ``train_qlearning`` + ``run_policy_episode`` for the
tabular baseline, and ``run_controller`` for the rule-based baselines.
This module collapses all of them onto one two-phase protocol:

* :meth:`ScenarioController.fit` — learn whatever needs learning (rule
  controllers return immediately);
* :meth:`ScenarioController.rollout` — deploy for the measurement
  horizon, producing a uniform per-interval timeline.

``run(spec)`` drives any registered controller through these two calls,
so adding a controller means registering one class::

    from repro.scenario import CONTROLLERS
    from repro.scenario.controllers import ScenarioController

    @CONTROLLERS.register("my-controller")
    class MyController(ScenarioController):
        def rollout(self, ctx, intervals):
            ...

The built-in ids are ``ddpg``, ``apex``, ``qlearning`` (learned) and
``static``, ``heuristic``, ``ee-pstate``, ``oracle-static`` (rule-based).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.baselines import (
    EEPstateController,
    HeuristicController,
    OracleStaticController,
    StaticBaseline,
    run_controller,
)
from repro.core.env import NFVEnv
from repro.core.scheduler import GreenNFVScheduler
from repro.core.sla import SLA
from repro.core.training import TrainingHistory, train_qlearning
from repro.nfv.chain import ServiceChain
from repro.nfv.engine import EngineParams
from repro.rl.apex import ApexConfig
from repro.rl.ddpg import DDPGConfig
from repro.rl.qlearning import QLearningConfig
from repro.scenario.catalog import CONTROLLERS
from repro.scenario.spec import ScenarioSpec
from repro.utils.rng import StreamFactory


@dataclass(frozen=True)
class RunContext:
    """Everything a controller needs, materialized once from a spec."""

    spec: ScenarioSpec
    sla: SLA
    chain: ServiceChain
    generator_factory: Callable  # rng -> TrafficGenerator
    engine_params: EngineParams | None
    streams: StreamFactory


@dataclass(frozen=True)
class TimelinePoint:
    """One control interval of a deployed controller (the Fig. 10 rows)."""

    t_s: float
    throughput_gbps: float
    energy_j: float
    power_w: float
    sla_satisfied: bool
    knobs: dict[str, float] | None = None

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form."""
        return {
            "t_s": self.t_s,
            "throughput_gbps": self.throughput_gbps,
            "energy_j": self.energy_j,
            "power_w": self.power_w,
            "sla_satisfied": bool(self.sla_satisfied),
            "knobs": dict(self.knobs) if self.knobs is not None else None,
        }


class ScenarioController(abc.ABC):
    """Uniform two-phase controller: optional ``fit``, mandatory ``rollout``."""

    #: Registry id; set by the concrete class.
    id: str = "controller"

    def fit(self, ctx: RunContext) -> TrainingHistory | None:
        """Train on the scenario's workload; rule-based controllers no-op."""
        return None

    @abc.abstractmethod
    def rollout(self, ctx: RunContext, intervals: int) -> list[TimelinePoint]:
        """Deploy for ``intervals`` control intervals; returns the timeline."""


# -- learned controllers -------------------------------------------------------


class _SchedulerController(ScenarioController):
    """Shared base of the DDPG and Ape-X controllers.

    Both train through :class:`GreenNFVScheduler` (the Algorithm 2/3
    pipeline) and deploy via its closed-loop ``run_online``.  Options:

    ``hidden`` / ``batch_size`` / ``gamma``
        DDPG network overrides (defaults: :class:`DDPGConfig`).
    ``policy_path``
        Load a saved checkpoint instead of training — the paper's
        "train once, deploy many times" path; ``repro run
        --save-policy`` writes one.
    """

    distributed = False
    #: Option names accepted beyond the shared DDPG/network ones;
    #: anything else is a spec typo and must fail loudly.
    extra_options: frozenset[str] = frozenset()

    def __init__(
        self,
        *,
        hidden: tuple[int, ...] | list[int] | None = None,
        batch_size: int | None = None,
        gamma: float | None = None,
        policy_path: str | None = None,
        **extra: Any,
    ):
        unknown = sorted(set(extra) - type(self).extra_options)
        if unknown:
            raise TypeError(
                f"{type(self).id!r} controller got unexpected options {unknown}; "
                f"accepted: hidden, batch_size, gamma, policy_path"
                + (f", {', '.join(sorted(type(self).extra_options))}"
                   if type(self).extra_options else "")
            )
        self._ddpg_overrides = {
            k: v
            for k, v in (
                ("hidden", tuple(hidden) if hidden is not None else None),
                ("batch_size", batch_size),
                ("gamma", gamma),
            )
            if v is not None
        }
        self.policy_path = policy_path
        self.extra = extra
        self.scheduler: GreenNFVScheduler | None = None

    def _ddpg_config(self) -> DDPGConfig | None:
        if not self._ddpg_overrides:
            return None
        return DDPGConfig(**self._ddpg_overrides)

    def _apex_config(self) -> ApexConfig | None:
        return None

    def fit(self, ctx: RunContext) -> TrainingHistory | None:
        spec = ctx.spec
        self.scheduler = GreenNFVScheduler(
            sla=ctx.sla,
            chain=ctx.chain,
            generator_factory=ctx.generator_factory,
            episode_len=spec.episode_len,
            interval_s=spec.interval_s,
            engine_params=ctx.engine_params,
            ddpg_config=self._ddpg_config(),
            seed=spec.seed,
        )
        if self.policy_path is not None:
            self.scheduler.load_policy(self.policy_path)
            return None
        return self.scheduler.train(
            episodes=spec.episodes,
            test_every=spec.test_every,
            distributed=self.distributed,
            apex_config=self._apex_config(),
        )

    def save_policy(self, path) -> Path:
        """Checkpoint the fitted policy where a spec's ``policy_path`` loads it.

        Returns the path written (``.npz`` appended if missing).
        """
        if self.scheduler is None:
            raise RuntimeError("fit() must run before save_policy()")
        return self.scheduler.save_policy(path)

    def rollout(self, ctx: RunContext, intervals: int) -> list[TimelinePoint]:
        if self.scheduler is None:
            raise RuntimeError("fit() must run before rollout()")
        samples = self.scheduler.run_online(
            duration_s=intervals * ctx.spec.interval_s
        )
        dt = ctx.spec.interval_s
        return [
            TimelinePoint(
                t_s=s.t_s,
                throughput_gbps=s.throughput_gbps,
                energy_j=s.energy_j,
                power_w=s.energy_j / dt,
                sla_satisfied=s.sla_satisfied,
                knobs=s.knobs.to_dict(),
            )
            for s in samples
        ]


@CONTROLLERS.register("ddpg")
class DDPGController(_SchedulerController):
    """GreenNFV's single-agent DDPG (Algorithm 2)."""

    id = "ddpg"
    distributed = False


@CONTROLLERS.register("apex")
class ApexController(_SchedulerController):
    """Distributed Ape-X training; ``episodes`` counts coordinator cycles.

    Extra option ``actors`` sets the actor-fleet size (default:
    :class:`ApexConfig`'s).
    """

    id = "apex"
    distributed = True
    extra_options = frozenset({"actors", "apex"})

    def _apex_config(self) -> ApexConfig | None:
        apex_kwargs = dict(self.extra.get("apex", {}))
        actors = self.extra.get("actors")
        if actors is not None:
            apex_kwargs["n_actors"] = int(actors)
        return ApexConfig(**apex_kwargs) if apex_kwargs else None


@CONTROLLERS.register("qlearning")
class QLearningController(ScenarioController):
    """The tabular Q-learning baseline over discretized knob levels.

    Options ``action_levels`` and ``state_bins`` map onto
    :class:`QLearningConfig`.
    """

    id = "qlearning"

    def __init__(
        self,
        *,
        action_levels: int | None = None,
        state_bins: int | None = None,
    ):
        overrides = {
            k: v
            for k, v in (("action_levels", action_levels), ("state_bins", state_bins))
            if v is not None
        }
        self._config = QLearningConfig(**overrides) if overrides else None
        self.agent = None

    def _env(self, ctx: RunContext, stream: str, episode_len: int) -> NFVEnv:
        rng = ctx.streams.stream(stream)
        return NFVEnv(
            ctx.sla,
            chains=[ctx.chain],
            generators=[ctx.generator_factory(rng)],
            episode_len=episode_len,
            interval_s=ctx.spec.interval_s,
            engine_params=ctx.engine_params,
            rng=rng,
        )

    def fit(self, ctx: RunContext) -> TrainingHistory:
        spec = ctx.spec
        self.agent, history = train_qlearning(
            self._env(ctx, "ql-train", spec.episode_len),
            self._env(ctx, "ql-eval", spec.episode_len),
            episodes=spec.episodes,
            test_every=spec.test_every,
            config=self._config,
            rng=ctx.streams.stream("ql-agent"),
        )
        return history

    def rollout(self, ctx: RunContext, intervals: int) -> list[TimelinePoint]:
        if self.agent is None:
            raise RuntimeError("fit() must run before rollout()")
        env = self._env(ctx, "ql-measure", intervals)
        results = env.run_policy_episode(self.agent, explore=False)
        dt = ctx.spec.interval_s
        return [
            TimelinePoint(
                t_s=(i + 1) * dt,
                throughput_gbps=r.sample.throughput_gbps,
                energy_j=r.sample.energy_j,
                power_w=r.sample.power_w,
                sla_satisfied=bool(r.info["sla_satisfied"]),
                knobs=r.knobs.to_dict(),
            )
            for i, r in enumerate(results)
        ]


# -- rule-based controllers ---------------------------------------------------


class RuleController(ScenarioController):
    """Adapter: a per-interval knob policy from :mod:`repro.baselines`.

    Subclasses pin ``factory`` to one of the baseline classes; construction
    keywords pass straight through (e.g. the heuristic's thresholds).
    """

    factory: Callable = None  # type: ignore[assignment]

    def __init__(self, **params: Any):
        self.params = params
        self.inner = None

    def fit(self, ctx: RunContext) -> None:
        """Rule controllers have no training phase; just instantiate."""
        self.inner = type(self).factory(**self.params)
        return None

    def rollout(self, ctx: RunContext, intervals: int) -> list[TimelinePoint]:
        if self.inner is None:
            self.inner = type(self).factory(**self.params)
        run = run_controller(
            self.inner,
            ctx.chain,
            ctx.generator_factory(ctx.streams.stream("traffic")),
            intervals=intervals,
            interval_s=ctx.spec.interval_s,
            engine_params=ctx.engine_params,
            rng=ctx.streams.stream(f"ctrl-{self.inner.name}"),
        )
        dt = ctx.spec.interval_s
        return [
            TimelinePoint(
                t_s=(i + 1) * dt,
                throughput_gbps=s.throughput_gbps,
                energy_j=s.energy_j,
                power_w=s.power_w,
                sla_satisfied=ctx.sla.satisfied(s),
            )
            for i, s in enumerate(run.samples)
        ]


@CONTROLLERS.register("static")
class StaticController(RuleController):
    """The untuned Baseline: performance governor, defaults, no adaptation."""

    id = "static"
    factory = StaticBaseline


@CONTROLLERS.register("heuristic")
class HeuristicScenarioController(RuleController):
    """Algorithm 1's static-rule frequency/batch stepping."""

    id = "heuristic"
    factory = HeuristicController


@CONTROLLERS.register("ee-pstate")
class EEPstateScenarioController(RuleController):
    """Iqbal & John's DES-predicted threshold P-state manager."""

    id = "ee-pstate"
    factory = EEPstateController


@CONTROLLERS.register("oracle-static")
class OracleStaticScenarioController(RuleController):
    """Vectorized grid-search upper bound for static configurations.

    One ``step_batch`` sweep over the knob grid picks the best fixed
    setting for the observed workload (options: ``objective``, ``grid``,
    ``min_delivery``; see :class:`OracleStaticController`).
    """

    id = "oracle-static"
    factory = OracleStaticController
