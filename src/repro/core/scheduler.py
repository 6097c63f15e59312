"""GreenNFV public API: train an SLA policy, deploy it on a controller.

:class:`GreenNFVScheduler` is the top-level object a user of the library
interacts with (the examples and benchmark harnesses are built on it):

>>> sched = GreenNFVScheduler(sla=MaxThroughputSLA(energy_cap_j=45.0), seed=7)
>>> history = sched.train(episodes=60)
>>> timeline = sched.run_online(duration_s=120)      # Fig. 10-style series

Training can be single-agent DDPG or distributed Ape-X; deployment runs
the greedy policy in closed loop against the platform: collect state ->
actor network -> knob settings -> apply, once per control interval —
exactly the online decision procedure of Algorithm 3's NF_CONTROLLER
after convergence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.env import NFVEnv
from repro.core.knobs import KnobSpace
from repro.core.sla import SLA
from repro.core.state import StateEncoder
from repro.core.training import (
    TrainingHistory,
    evaluate_policy,
    train_apex,
    train_ddpg,
)
from repro.nfv.chain import ServiceChain, default_chain
from repro.nfv.engine import EngineParams, PollingMode
from repro.nfv.knobs import KnobSettings
from repro.rl.apex import ApexConfig
from repro.rl.ddpg import DDPGAgent, DDPGConfig
from repro.traffic.generators import ConstantRateGenerator, TrafficGenerator
from repro.utils.rng import StreamFactory


@dataclass
class OnlineSample:
    """One interval of an online (deployed) run — the Fig. 10 series rows."""

    t_s: float
    throughput_gbps: float
    energy_j: float
    knobs: KnobSettings
    sla_satisfied: bool


class GreenNFVScheduler:
    """End-to-end GreenNFV: SLA-driven training and online knob control."""

    def __init__(
        self,
        sla: SLA,
        *,
        chain: ServiceChain | None = None,
        generator_factory=None,
        episode_len: int = 24,
        interval_s: float = 1.0,
        engine_params: EngineParams | None = None,
        ddpg_config: DDPGConfig | None = None,
        seed: int = 0,
    ):
        self.sla = sla
        self.chain = chain or default_chain()
        self.generator_factory = generator_factory or (
            lambda rng: ConstantRateGenerator.line_rate()
        )
        self.episode_len = episode_len
        self.interval_s = interval_s
        self.engine_params = engine_params
        self.ddpg_config = ddpg_config or DDPGConfig()
        self.streams = StreamFactory(seed)
        self.knob_space = KnobSpace()
        self.encoder = StateEncoder()
        self.agent: DDPGAgent | None = None
        self.history: TrainingHistory | None = None

    # -- environments -----------------------------------------------------------

    def make_env(self, stream_name: str, *, episode_len: int | None = None) -> NFVEnv:
        """Build one environment bound to a named RNG stream.

        ``episode_len`` overrides the scheduler's training episode length
        (deployment rollouts run one episode spanning the whole horizon).
        """
        rng = self.streams.stream(stream_name)
        return NFVEnv(
            self.sla,
            chains=[self.chain],
            generators=[self.generator_factory(rng)],
            episode_len=self.episode_len if episode_len is None else episode_len,
            interval_s=self.interval_s,
            knob_space=self.knob_space,
            encoder=self.encoder,
            engine_params=self.engine_params,
            polling=PollingMode.ADAPTIVE,
            rng=rng,
        )

    # -- training -----------------------------------------------------------------

    def train(
        self,
        *,
        episodes: int = 120,
        test_every: int = 10,
        distributed: bool = False,
        apex_config: ApexConfig | None = None,
    ) -> TrainingHistory:
        """Learn the SLA policy; returns the periodic-test history.

        With ``distributed=True`` the Ape-X coordinator runs multiple
        actor environments against a central learner (``episodes`` then
        counts coordinator cycles).
        """
        eval_env = self.make_env("eval")
        if distributed:
            coordinator, history = train_apex(
                lambda i, rng: self.make_env(f"actor{i}"),
                eval_env,
                state_dim=self.encoder.dim,
                action_dim=self.knob_space.dim,
                cycles=episodes,
                test_every=test_every,
                apex_config=apex_config,
                ddpg_config=self.ddpg_config,
                rng=self.streams.stream("apex"),
            )
            self.agent = coordinator.policy
        else:
            agent, history = train_ddpg(
                self.make_env("train"),
                eval_env,
                episodes=episodes,
                test_every=test_every,
                ddpg_config=self.ddpg_config,
                rng=self.streams.stream("ddpg"),
            )
            self.agent = agent
        self.history = history
        return history

    # -- deployment ------------------------------------------------------------------

    def recommend(self, observation: np.ndarray) -> KnobSettings:
        """Greedy knob recommendation for a normalized observation."""
        if self.agent is None:
            raise RuntimeError("train() must run before recommend()")
        action = self.agent.act(observation, explore=False)
        return self.knob_space.to_settings(action)

    def run_online(
        self,
        duration_s: float,
        *,
        stream_name: str = "online",
        knobs0: KnobSettings | None = None,
    ) -> list[OnlineSample]:
        """Deploy the trained policy in closed loop for ``duration_s``.

        This produces the Fig. 10 time series: per-interval throughput and
        energy while the policy reacts to live telemetry.
        """
        if self.agent is None:
            raise RuntimeError("train() must run before run_online()")
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        env = self.make_env(
            stream_name,
            episode_len=max(1, int(round(duration_s / self.interval_s))),
        )
        results = env.run_policy_episode(self.agent, explore=False, knobs0=knobs0)
        out: list[OnlineSample] = []
        t = 0.0
        for result in results:
            t += self.interval_s
            out.append(
                OnlineSample(
                    t_s=t,
                    throughput_gbps=result.sample.throughput_gbps,
                    energy_j=result.sample.energy_j,
                    knobs=result.knobs,
                    sla_satisfied=result.info["sla_satisfied"],
                )
            )
        return out

    def final_evaluation(self, episodes: int = 3):
        """Greedy evaluation of the trained policy (fresh eval stream)."""
        if self.agent is None:
            raise RuntimeError("train() must run before final_evaluation()")
        env = self.make_env("final-eval")
        return evaluate_policy(env, self.agent, episodes=episodes)

    # -- persistence --------------------------------------------------------------

    def save_policy(self, path):
        """Checkpoint the trained networks to a ``.npz`` file.

        "The GreenNFV model needs to be trained only once before
        deployment and is run many times" — persist once, deploy
        anywhere.  Returns the written path.
        """
        from repro.rl.checkpoint import save_agent

        if self.agent is None:
            raise RuntimeError("train() must run before save_policy()")
        return save_agent(self.agent, path)

    def load_policy(self, path) -> None:
        """Install a previously saved policy (skips training)."""
        from repro.rl.checkpoint import load_agent

        self.agent = load_agent(path, rng=self.streams.stream("loaded-agent"))
