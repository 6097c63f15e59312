"""DDPG, Q-learning and noise-process tests."""

import numpy as np
import pytest

from repro.rl.ddpg import DDPGAgent, DDPGConfig
from repro.rl.noise import OUNoise
from repro.rl.qlearning import QLearningAgent, QLearningConfig
from repro.rl.replay import Transition, TransitionBatch


def batch_from(transitions):
    return TransitionBatch(
        states=np.stack([t.state for t in transitions]),
        actions=np.stack([t.action for t in transitions]),
        rewards=np.asarray([t.reward for t in transitions]),
        next_states=np.stack([t.next_state for t in transitions]),
        dones=np.asarray([float(t.done) for t in transitions]),
        indices=np.arange(len(transitions)),
        weights=np.ones(len(transitions)),
    )


class TestNoise:
    def test_ou_mean_reverts(self):
        n = OUNoise(2, theta=0.5, sigma=0.0, rng=0)
        n._state[:] = 5.0
        for _ in range(50):
            x = n.sample()
        assert np.all(np.abs(x) < 0.5)

    def test_ou_reset(self):
        n = OUNoise(3, rng=0)
        n.sample()
        n.reset()
        assert np.allclose(n._state, 0.0)

    def test_ou_validation(self):
        with pytest.raises(ValueError):
            OUNoise(0)
        with pytest.raises(ValueError):
            OUNoise(2, theta=-1.0)


class TestDDPGAgent:
    def test_action_bounded(self):
        agent = DDPGAgent(4, 5, rng=0)
        for _ in range(20):
            a = agent.act(np.random.default_rng(0).normal(size=4), explore=True)
            assert np.all(np.abs(a) <= 1.0)
            assert a.shape == (5,)

    def test_greedy_is_deterministic(self):
        agent = DDPGAgent(4, 5, rng=0)
        s = np.ones(4)
        a1 = agent.act(s, explore=False)
        a2 = agent.act(s, explore=False)
        assert np.array_equal(a1, a2)

    def test_explore_adds_noise(self):
        agent = DDPGAgent(4, 5, rng=0)
        s = np.ones(4)
        a1 = agent.act(s, explore=True)
        a2 = agent.act(s, explore=True)
        assert not np.array_equal(a1, a2)

    def test_update_reduces_td_error_on_fixed_batch(self):
        rng = np.random.default_rng(0)
        agent = DDPGAgent(3, 2, DDPGConfig(batch_size=16), rng=1)
        transitions = [
            Transition(
                state=rng.normal(size=3),
                action=rng.uniform(-1, 1, size=2),
                reward=rng.normal(),
                next_state=rng.normal(size=3),
                done=False,
            )
            for _ in range(16)
        ]
        batch = batch_from(transitions)
        before = float(np.mean(agent.td_errors(batch) ** 2))
        for _ in range(200):
            agent.update(batch)
        after = float(np.mean(agent.td_errors(batch) ** 2))
        assert after < before

    def test_actor_moves_toward_higher_q(self):
        # Reward = -|a - 0.5| (bandit): after training, the actor should
        # output actions near 0.5 for every state.
        rng = np.random.default_rng(3)
        agent = DDPGAgent(2, 1, DDPGConfig(batch_size=32, gamma=0.9), rng=2)
        for _ in range(400):
            states = rng.normal(size=(32, 2))
            actions = rng.uniform(-1, 1, size=(32, 1))
            rewards = -np.abs(actions[:, 0] - 0.5)
            batch = TransitionBatch(
                states=states,
                actions=actions,
                rewards=rewards,
                next_states=states,
                dones=np.ones(32),  # bandit: episode ends immediately
                indices=np.arange(32),
                weights=np.ones(32),
            )
            agent.update(batch)
        out = agent.act(rng.normal(size=2), explore=False)
        assert out[0] == pytest.approx(0.5, abs=0.2)

    def test_target_networks_track_slowly(self):
        agent = DDPGAgent(3, 2, DDPGConfig(tau=0.01, batch_size=8), rng=0)
        before = agent.target_actor.copy_params()[0].copy()
        rng = np.random.default_rng(0)
        batch = batch_from(
            [
                Transition(rng.normal(size=3), rng.uniform(-1, 1, 2), 1.0, rng.normal(size=3))
                for _ in range(8)
            ]
        )
        agent.update(batch)
        after = agent.target_actor.copy_params()[0]
        delta = np.abs(after - before).max()
        main_delta = np.abs(agent.actor.copy_params()[0] - before).max()
        assert 0 < delta < main_delta  # target moved, but less than main

    def test_param_checkpoint_roundtrip(self):
        a = DDPGAgent(3, 2, rng=0)
        b = DDPGAgent(3, 2, rng=9)
        b.set_all_params(a.get_all_params())
        s = np.ones(3)
        assert np.allclose(a.act(s, explore=False), b.act(s, explore=False))

    def test_policy_params_sync(self):
        a = DDPGAgent(3, 2, rng=0)
        b = DDPGAgent(3, 2, rng=9)
        b.set_policy_params(a.get_policy_params())
        s = np.zeros(3)
        assert np.allclose(a.act(s, explore=False), b.act(s, explore=False))

    def test_q_values_shape(self):
        agent = DDPGAgent(3, 2, rng=0)
        q = agent.q_values(np.zeros((5, 3)), np.zeros((5, 2)))
        assert q.shape == (5,)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DDPGConfig(gamma=1.0)
        with pytest.raises(ValueError):
            DDPGConfig(tau=0.0)
        with pytest.raises(ValueError):
            DDPGAgent(0, 2)


class TestQLearning:
    def test_action_space_size(self):
        agent = QLearningAgent(4, 5, QLearningConfig(action_levels=3), rng=0)
        assert agent.n_actions == 3**5

    def test_actions_are_discrete_levels(self):
        agent = QLearningAgent(2, 2, QLearningConfig(action_levels=3), rng=0)
        a = agent.act(np.zeros(2), explore=False)
        assert set(np.unique(a)) <= {-1.0, 0.0, 1.0}

    def test_discretization_bins(self):
        agent = QLearningAgent(
            2, 2, QLearningConfig(state_bins=4), state_low=np.zeros(2), state_high=np.ones(2), rng=0
        )
        assert agent.discretize(np.array([0.0, 0.99])) == (0, 3)
        # Out-of-range states clip into the edge bins.
        assert agent.discretize(np.array([-5.0, 5.0])) == (0, 3)

    def test_learns_bandit(self):
        # Single state, reward = 1 for action index of all-ones, else 0.
        agent = QLearningAgent(
            1,
            2,
            QLearningConfig(action_levels=3, epsilon_decay=0.995, lr=0.5),
            state_low=np.zeros(1),
            state_high=np.ones(1),
            rng=0,
        )
        s = np.array([0.5])
        best = np.array([1.0, 1.0])
        for _ in range(600):
            a = agent.act(s, explore=True)
            r = 1.0 if np.allclose(a, best) else 0.0
            agent.update(s, a, r, s, done=True)
        assert np.allclose(agent.act(s, explore=False), best)

    def test_epsilon_decays(self):
        agent = QLearningAgent(1, 1, QLearningConfig(epsilon_decay=0.5), rng=0)
        s = np.zeros(1)
        agent.update(s, np.zeros(1), 0.0, s)
        assert agent.epsilon < 1.0

    def test_td_error_returned(self):
        agent = QLearningAgent(1, 1, rng=0)
        s = np.zeros(1)
        td = agent.update(s, np.zeros(1), 5.0, s, done=True)
        assert td == pytest.approx(5.0)

    def test_table_grows_lazily(self):
        agent = QLearningAgent(2, 1, rng=0)
        assert agent.table_entries == 0
        agent.act(np.zeros(2))
        assert agent.table_entries == agent.n_actions

    def test_action_index_nearest(self):
        agent = QLearningAgent(1, 1, QLearningConfig(action_levels=3), rng=0)
        assert agent.action_index(np.array([0.9])) == agent.action_index(np.array([1.0]))

    def test_validation(self):
        with pytest.raises(ValueError):
            QLearningConfig(action_levels=1)
        with pytest.raises(ValueError):
            QLearningConfig(state_bins=1)
        with pytest.raises(ValueError):
            QLearningAgent(2, 1, state_low=np.ones(2), state_high=np.zeros(2))
        agent = QLearningAgent(2, 1, rng=0)
        with pytest.raises(ValueError):
            agent.discretize(np.zeros(3))
