"""Ape-X distributed-learning architecture tests."""

import numpy as np
import pytest

from repro.core.sla import EnergyEfficiencySLA
from repro.core.env import NFVEnv
from repro.rl.apex import ApexActor, ApexConfig, ApexCoordinator, ApexLearner
from repro.rl.ddpg import DDPGAgent, DDPGConfig
from repro.rl.per import PrioritizedReplayBuffer
from repro.utils.rng import spawn


def make_env(rng):
    return NFVEnv(EnergyEfficiencySLA(), episode_len=4, rng=rng)


def env_factory(actor_id, rng):
    return make_env(rng)


SMALL_DDPG = DDPGConfig(hidden=(16, 16), batch_size=16)
SMALL_APEX = ApexConfig(
    n_actors=2,
    local_buffer_size=8,
    sync_every_steps=16,
    replay_capacity=512,
    warmup_transitions=16,
    learner_steps_per_cycle=2,
    actor_steps_per_cycle=8,
    evict_every_cycles=0,
)


class TestApexActor:
    def test_collect_returns_prioritized_experience(self):
        agent = DDPGAgent(4, 5, SMALL_DDPG, rng=0)
        actor = ApexActor(0, make_env(1), agent, local_buffer_size=4)
        (out,) = ApexActor.collect_lockstep([actor], 8)
        assert len(out) == 8
        for t, p in out:
            assert p >= 0.0
            assert t.state.shape == (4,)
            assert t.action.shape == (5,)

    def test_episode_boundaries_counted(self):
        agent = DDPGAgent(4, 5, SMALL_DDPG, rng=0)
        actor = ApexActor(0, make_env(1), agent)
        ApexActor.collect_lockstep([actor], 9)  # episode_len=4 -> >= 2 episodes
        assert actor.episodes_done >= 2

    def test_sync_params_changes_policy(self):
        a1 = DDPGAgent(4, 5, SMALL_DDPG, rng=0)
        a2 = DDPGAgent(4, 5, SMALL_DDPG, rng=9)
        actor = ApexActor(0, make_env(1), a1)
        actor.sync_params(a2.get_all_params())
        s = np.zeros(4)
        assert np.allclose(
            actor.agent.act(s, explore=False), a2.act(s, explore=False)
        )

    def test_collect_validation(self):
        agent = DDPGAgent(4, 5, SMALL_DDPG, rng=0)
        actor = ApexActor(0, make_env(1), agent)
        with pytest.raises(ValueError):
            ApexActor.collect_lockstep([actor], 0)


class TestApexLearner:
    def test_ingest_and_learn(self):
        agent = DDPGAgent(4, 5, SMALL_DDPG, rng=0)
        replay = PrioritizedReplayBuffer(128, rng=0)
        learner = ApexLearner(agent, replay)
        actor = ApexActor(0, make_env(1), DDPGAgent(4, 5, SMALL_DDPG, rng=1))
        learner.ingest(ApexActor.collect_lockstep([actor], 32)[0])
        assert len(replay) == 32
        learner.learn(3)
        assert learner.updates_done == 3
        assert len(learner.critic_losses) == 3

    def test_learn_waits_for_warmup(self):
        agent = DDPGAgent(4, 5, SMALL_DDPG, rng=0)
        learner = ApexLearner(agent, PrioritizedReplayBuffer(128, rng=0))
        learner.learn(5)  # empty buffer: no-op
        assert learner.updates_done == 0


class TestCoordinator:
    def test_run_cycles_progresses(self):
        coord = ApexCoordinator(
            env_factory, state_dim=4, action_dim=5, config=SMALL_APEX,
            ddpg_config=SMALL_DDPG, rng=0,
        )
        stats = coord.run_cycles(4)
        assert stats.actor_steps == 4 * 2 * 8  # cycles x actors x steps
        assert stats.learner_updates > 0
        assert stats.episodes > 0
        assert len(stats.per_actor_rewards) == 2

    def test_param_syncs_happen(self):
        coord = ApexCoordinator(
            env_factory, state_dim=4, action_dim=5, config=SMALL_APEX,
            ddpg_config=SMALL_DDPG, rng=0,
        )
        stats = coord.run_cycles(4)
        assert stats.param_syncs >= 2  # 16 steps per sync, 16 steps/cycle

    def test_actors_adopt_learner_policy_after_sync(self):
        coord = ApexCoordinator(
            env_factory, state_dim=4, action_dim=5, config=SMALL_APEX,
            ddpg_config=SMALL_DDPG, rng=0,
        )
        coord.run_cycles(4)
        s = np.zeros(4)
        learner_action = coord.policy.act(s, explore=False)
        for actor in coord.actors:
            assert np.allclose(
                actor.agent.act(s, explore=False), learner_action
            )

    def test_eviction(self):
        cfg = ApexConfig(
            n_actors=1,
            local_buffer_size=8,
            sync_every_steps=64,
            replay_capacity=256,
            warmup_transitions=8,
            learner_steps_per_cycle=1,
            actor_steps_per_cycle=8,
            evict_every_cycles=2,
            evict_fraction=0.25,
        )
        coord = ApexCoordinator(
            env_factory, state_dim=4, action_dim=5, config=cfg,
            ddpg_config=SMALL_DDPG, rng=0,
        )
        stats = coord.run_cycles(4)
        assert stats.evictions > 0

    def test_deterministic_given_seed(self):
        def run():
            coord = ApexCoordinator(
                env_factory, state_dim=4, action_dim=5, config=SMALL_APEX,
                ddpg_config=SMALL_DDPG, rng=42,
            )
            coord.run_cycles(2)
            return coord.policy.act(np.zeros(4), explore=False)

        assert np.allclose(run(), run())

    def test_validation(self):
        with pytest.raises(ValueError):
            ApexConfig(n_actors=0)
        with pytest.raises(ValueError):
            ApexConfig(evict_fraction=1.0)
        coord = ApexCoordinator(
            env_factory, state_dim=4, action_dim=5, config=SMALL_APEX,
            ddpg_config=SMALL_DDPG, rng=0,
        )
        with pytest.raises(ValueError):
            coord.run_cycles(0)
