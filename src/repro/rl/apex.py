"""Ape-X style distributed learning (Horgan et al. 2018), Algorithm 3.

"Actors run on servers and generate data according to the current
policy.  A single learner samples the new experience and updates the
policy parameters.  These updated parameters are sent periodically to
the actors.  This framework implements a centralized replay memory with
prioritized experience replay."

The roles map onto the paper's Algorithm 3:

* :class:`ApexActor` — ``NF_CONTROLLER``: pulls the latest policy
  parameters from the learner (``REMOTE_CALL``), collects state from its
  own environment, acts, stores experiences in a *local* buffer and
  periodically flushes them (with locally-computed initial priorities,
  the Ape-X refinement) into the central replay buffer.
* :class:`ApexLearner` — ``CENTRAL_LEARNER``: samples prioritized
  minibatches, computes the DDPG loss, updates parameters, refreshes the
  sampled priorities, and periodically evicts old experiences.
* :class:`ApexCoordinator` — drives actors and learner.  Execution is
  cooperative (round-robin) rather than OS-parallel so that runs are
  bit-for-bit reproducible; the data flow — per-actor local buffers,
  parameter staleness between syncs, shared prioritized replay — is the
  distributed architecture's, and the actor/learner interfaces contain
  no shared mutable state beyond the replay buffer and the parameter
  mailbox, so swapping in process-based transport changes no algorithm
  code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.env import NFVEnv
from repro.rl.ddpg import DDPGAgent, DDPGConfig, act_batch
from repro.rl.per import PrioritizedReplayBuffer
from repro.rl.replay import Transition, TransitionBatch
from repro.utils.rng import RngLike, as_generator, spawn


@dataclass(frozen=True)
class ApexConfig:
    """Knobs of the distributed training architecture."""

    n_actors: int = 4
    local_buffer_size: int = 64
    sync_every_steps: int = 128
    replay_capacity: int = 50_000
    warmup_transitions: int = 256
    learner_steps_per_cycle: int = 16
    actor_steps_per_cycle: int = 32
    evict_every_cycles: int = 50
    evict_fraction: float = 0.10

    def __post_init__(self) -> None:
        if self.n_actors < 1:
            raise ValueError("need at least one actor")
        if self.local_buffer_size < 1 or self.sync_every_steps < 1:
            raise ValueError("buffer/sync sizes must be >= 1")
        if not 0.0 <= self.evict_fraction < 1.0:
            raise ValueError("evict fraction must be in [0, 1)")


class ApexActor:
    """One NF_CONTROLLER worker: environment + behavior policy + local buffer."""

    def __init__(
        self,
        actor_id: int,
        env: NFVEnv,
        agent: DDPGAgent,
        *,
        local_buffer_size: int = 64,
    ):
        self.actor_id = actor_id
        self.env = env
        self.agent = agent  # private copy; params come from the learner
        self.local_buffer_size = local_buffer_size
        self._local: list[Transition] = []
        self._obs: np.ndarray | None = None
        self.steps_done = 0
        self.episodes_done = 0
        self.reward_history: list[float] = []

    def sync_params(self, params: dict[str, list[np.ndarray]]) -> None:
        """Install the learner's latest parameters (REMOTE_CALL line 2/9)."""
        self.agent.set_all_params(params)

    def collect(self, n_steps: int) -> list[tuple[Transition, float]]:
        """Act for ``n_steps``, returning flushed (transition, priority) pairs.

        Initial priorities are local TD errors under the actor's current
        parameter copy — the Ape-X trick that lets fresh experience enter
        the central buffer already prioritized.
        """
        if n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        flushed: list[tuple[Transition, float]] = []
        if self._obs is None:
            self._obs = self.env.reset()
            self.agent.reset_noise()
        for _ in range(n_steps):
            action = self.agent.act(self._obs, explore=True)
            self._record(self.env.step(action), action)
            if len(self._local) >= self.local_buffer_size:
                flushed.extend(self._flush())
        flushed.extend(self._flush())
        return flushed

    def _record(self, result, action) -> None:
        """Book one environment step (shared by solo and lockstep paths)."""
        self.reward_history.append(result.reward)
        self._local.append(
            Transition(
                state=self._obs.copy(),
                action=np.asarray(action, dtype=np.float64),
                reward=float(result.reward),
                next_state=result.observation.copy(),
                done=bool(result.done),
            )
        )
        self.steps_done += 1
        if result.done:
            self._obs = self.env.reset()
            self.agent.reset_noise()
            self.episodes_done += 1
        else:
            self._obs = result.observation

    @staticmethod
    def collect_lockstep(
        actors: list["ApexActor"], n_steps: int
    ) -> list[list[tuple[Transition, float]]]:
        """Act all actors for ``n_steps`` with one batched forward per step.

        Equivalent to ``[a.collect(n_steps) for a in actors]`` — every
        actor owns its environment, parameter copy and noise process, so
        trajectories, flush boundaries and initial priorities are
        unchanged — but each step evaluates the whole fleet's policies
        in a single :func:`~repro.rl.ddpg.act_batch` inference (Ape-X's
        amortize-the-actors trick).  Returns each actor's flushed
        (transition, priority) pairs, in actor order.
        """
        if n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        flushed: list[list[tuple[Transition, float]]] = [[] for _ in actors]
        for actor in actors:
            if actor._obs is None:
                actor._obs = actor.env.reset()
                actor.agent.reset_noise()
        for _ in range(n_steps):
            actions = act_batch(
                [a.agent for a in actors], [a._obs for a in actors], explore=True
            )
            for i, (actor, action) in enumerate(zip(actors, actions)):
                actor._record(actor.env.step(action), action)
                if len(actor._local) >= actor.local_buffer_size:
                    flushed[i].extend(actor._flush())
        for i, actor in enumerate(actors):
            flushed[i].extend(actor._flush())
        return flushed

    def _flush(self) -> list[tuple[Transition, float]]:
        if not self._local:
            return []
        batch = TransitionBatch(
            states=np.stack([t.state for t in self._local]),
            actions=np.stack([t.action for t in self._local]),
            rewards=np.asarray([t.reward for t in self._local]),
            next_states=np.stack([t.next_state for t in self._local]),
            dones=np.asarray([float(t.done) for t in self._local]),
            indices=np.arange(len(self._local)),
            weights=np.ones(len(self._local)),
        )
        priorities = np.abs(self.agent.td_errors(batch))
        out = list(zip(self._local, priorities.tolist()))
        self._local = []
        return out


class ApexLearner:
    """The CENTRAL_LEARNER process: prioritized sampling + DDPG updates."""

    def __init__(
        self,
        agent: DDPGAgent,
        replay: PrioritizedReplayBuffer,
        *,
        batch_size: int | None = None,
    ):
        self.agent = agent
        self.replay = replay
        self.batch_size = batch_size or agent.config.batch_size
        self.updates_done = 0
        self.critic_losses: list[float] = []

    def ingest(self, experiences: list[tuple[Transition, float]]) -> None:
        """Store actor-shipped experiences with their initial priorities."""
        if not experiences:
            return
        transitions = [t for t, _ in experiences]
        priorities = [p for _, p in experiences]
        self.replay.extend(transitions, priorities)

    def learn(self, n_steps: int) -> None:
        """Run ``n_steps`` prioritized updates (Algorithm 3 lines 14-18)."""
        for _ in range(n_steps):
            if len(self.replay) < self.batch_size:
                return
            batch = self.replay.sample(self.batch_size)
            metrics = self.agent.update(batch)
            self.replay.update_priorities(batch.indices, metrics.td_errors)
            self.critic_losses.append(metrics.critic_loss)
            self.updates_done += 1

    def params(self) -> dict[str, list[np.ndarray]]:
        """Current parameters for actor sync."""
        return self.agent.get_all_params()


@dataclass
class ApexStats:
    """Progress counters from a coordinator run."""

    actor_steps: int = 0
    learner_updates: int = 0
    episodes: int = 0
    param_syncs: int = 0
    evictions: int = 0
    mean_recent_reward: float = 0.0
    per_actor_rewards: list[float] = field(default_factory=list)


class ApexCoordinator:
    """Drives N actors and one learner over a shared prioritized replay."""

    def __init__(
        self,
        env_factory,
        *,
        state_dim: int,
        action_dim: int,
        config: ApexConfig | None = None,
        ddpg_config: DDPGConfig | None = None,
        rng: RngLike = None,
    ):
        self.config = config or ApexConfig()
        gen = as_generator(rng)
        streams = spawn(gen, self.config.n_actors + 2)
        self.learner_agent = DDPGAgent(
            state_dim, action_dim, ddpg_config, rng=streams[0]
        )
        self.replay = PrioritizedReplayBuffer(
            self.config.replay_capacity, rng=streams[1]
        )
        self.learner = ApexLearner(self.learner_agent, self.replay)
        self.actors: list[ApexActor] = []
        for i in range(self.config.n_actors):
            actor_agent = DDPGAgent(state_dim, action_dim, ddpg_config, rng=streams[2 + i])
            actor_agent.set_all_params(self.learner_agent.get_all_params())
            env = env_factory(i, streams[2 + i])
            self.actors.append(
                ApexActor(
                    i,
                    env,
                    actor_agent,
                    local_buffer_size=self.config.local_buffer_size,
                )
            )
        self._cycles = 0
        self._steps_since_sync = 0
        self.stats = ApexStats()

    def run_cycles(self, n_cycles: int) -> ApexStats:
        """Run the cooperative actor/learner schedule for ``n_cycles``."""
        if n_cycles < 1:
            raise ValueError("n_cycles must be >= 1")
        cfg = self.config
        for _ in range(n_cycles):
            # One stacked policy inference per step across the fleet;
            # experience still ingests in actor order, so the replay
            # stream is identical to per-actor ``collect`` calls.
            collected = ApexActor.collect_lockstep(
                self.actors, cfg.actor_steps_per_cycle
            )
            for experiences in collected:
                self.learner.ingest(experiences)
                self.stats.actor_steps += cfg.actor_steps_per_cycle
                self._steps_since_sync += cfg.actor_steps_per_cycle
            if len(self.replay) >= cfg.warmup_transitions:
                self.learner.learn(cfg.learner_steps_per_cycle)
            if self._steps_since_sync >= cfg.sync_every_steps:
                params = self.learner.params()
                for actor in self.actors:
                    actor.sync_params(params)
                self.stats.param_syncs += 1
                self._steps_since_sync = 0
            self._cycles += 1
            if (
                cfg.evict_every_cycles > 0
                and self._cycles % cfg.evict_every_cycles == 0
                and self.replay.capacity > 0
            ):
                n = int(len(self.replay) * cfg.evict_fraction)
                if n > 0:
                    self.stats.evictions += self.replay.evict_oldest(n)
        self._refresh_stats()
        return self.stats

    def _refresh_stats(self) -> None:
        self.stats.learner_updates = self.learner.updates_done
        self.stats.episodes = sum(a.episodes_done for a in self.actors)
        recents = []
        per_actor = []
        for a in self.actors:
            tail = a.reward_history[-64:]
            if tail:
                per_actor.append(float(np.mean(tail)))
                recents.extend(tail)
        self.stats.per_actor_rewards = per_actor
        self.stats.mean_recent_reward = float(np.mean(recents)) if recents else 0.0

    @property
    def policy(self) -> DDPGAgent:
        """The learner's agent (greedy policy for evaluation/deployment)."""
        return self.learner_agent
