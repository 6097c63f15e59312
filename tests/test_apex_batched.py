"""Batched Ape-X actor inference: bit-identity and schedule equivalence.

The actor fleet's per-step policy forwards collapse into one stacked
:func:`~repro.rl.nn.forward_many` evaluation.  These tests pin the
contract the tentpole requires: the stacked forward is *bit-identical*
to per-network ``forward`` calls (both the synced-parameter fast path
and the per-actor stacked-parameter path), ``act_batch`` consumes each
agent's warmup/noise RNG exactly like sequential ``act`` calls, and the
lockstep coordinator schedule reproduces the sequential coordinator's
replay stream, learner parameters and statistics exactly.
"""

import copy

import numpy as np
import pytest

from repro.core.env import NFVEnv
from repro.core.sla import EnergyEfficiencySLA
from repro.rl.apex import ApexActor, ApexConfig, ApexCoordinator
from repro.rl.ddpg import DDPGAgent, DDPGConfig, act_batch
from repro.rl.nn import MLP, forward_many

SMALL = DDPGConfig(hidden=(16, 16), batch_size=16, random_warmup_steps=10)


def _agents(n, *, seed=0, synced=True):
    agents = [
        DDPGAgent(4, 5, SMALL, rng=seed if synced else seed + i)
        for i in range(n)
    ]
    if synced:
        params = agents[0].get_all_params()
        for a in agents[1:]:
            a.set_all_params(params)
    return agents


class TestForwardMany:
    @pytest.mark.parametrize("synced", [True, False])
    def test_bit_identical_to_per_net_forward(self, synced):
        rng = np.random.default_rng(3)
        nets = [MLP([6, 32, 32, 3], rng=i if not synced else 7) for i in range(5)]
        if synced:
            ref = nets[0].copy_params()
            for net in nets[1:]:
                net.set_params(ref)
        xs = rng.standard_normal((5, 6))
        batched = forward_many(nets, xs)
        for i, net in enumerate(nets):
            single = net.forward(xs[i], cache=False)[0]
            np.testing.assert_array_equal(batched[i], single)

    def test_tanh_output_layer_matches(self):
        # The DDPG actor's tanh head is the layer that actually matters.
        nets = [
            MLP([4, 16, 5], ["relu", "tanh"], rng=i) for i in range(4)
        ]
        xs = np.random.default_rng(0).standard_normal((4, 4))
        batched = forward_many(nets, xs)
        for i, net in enumerate(nets):
            np.testing.assert_array_equal(
                batched[i], net.forward(xs[i], cache=False)[0]
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            forward_many([], np.zeros((0, 4)))
        nets = [MLP([4, 8, 2], rng=0), MLP([4, 9, 2], rng=1)]
        with pytest.raises(ValueError):
            forward_many(nets, np.zeros((2, 4)))
        same = [MLP([4, 8, 2], rng=0), MLP([4, 8, 2], rng=1)]
        with pytest.raises(ValueError):
            forward_many(same, np.zeros((3, 4)))  # wrong row count


class TestActBatch:
    def test_matches_sequential_act_through_warmup_and_noise(self):
        # Two identical fleets; one acts sequentially, one batched.  The
        # warmup draws, noise samples and clipping must line up exactly,
        # across the warmup -> policy transition.
        seq = _agents(3, seed=11)
        bat = copy.deepcopy(seq)
        rng = np.random.default_rng(2)
        for _ in range(SMALL.random_warmup_steps + 5):
            states = [rng.standard_normal(4) for _ in range(3)]
            a_seq = [agent.act(s, explore=True) for agent, s in zip(seq, states)]
            a_bat = act_batch(bat, states, explore=True)
            for x, y in zip(a_seq, a_bat):
                np.testing.assert_array_equal(x, y)
        assert all(a._explore_calls == b._explore_calls for a, b in zip(seq, bat))

    def test_greedy_mode_has_no_rng_side_effects(self):
        agents = _agents(2, seed=4)
        states = [np.zeros(4), np.ones(4)]
        before = [a.noise.sample() for a in _agents(2, seed=4)]  # fresh twins
        out = act_batch(agents, states, explore=False)
        for i, agent in enumerate(agents):
            np.testing.assert_array_equal(
                out[i], agent.act(states[i], explore=False)
            )
        # explore=False consumed neither warmup nor noise state.
        assert all(a._explore_calls == 0 for a in agents)
        after = [a.noise.sample() for a in agents]
        for x, y in zip(before, after):
            np.testing.assert_array_equal(x, y)

    def test_validation(self):
        agents = _agents(2)
        with pytest.raises(ValueError):
            act_batch(agents, [np.zeros(4)])


class TestLockstepCollect:
    def _factory(self, i, rng):
        return NFVEnv(EnergyEfficiencySLA(), episode_len=8, rng=rng)

    def _coordinator(self, n_actors: int) -> ApexCoordinator:
        cfg = ApexConfig(
            n_actors=n_actors,
            local_buffer_size=16,
            sync_every_steps=32,
            replay_capacity=2048,
            warmup_transitions=32,
            learner_steps_per_cycle=4,
            actor_steps_per_cycle=16,
            evict_every_cycles=0,
        )
        return ApexCoordinator(
            self._factory,
            state_dim=4,
            action_dim=5,
            config=cfg,
            ddpg_config=SMALL,
            rng=9,
        )

    @pytest.mark.parametrize("n_actors", [1, 3])
    def test_coordinator_bit_identical_to_sequential(self, n_actors, monkeypatch):
        ca = self._coordinator(n_actors)
        sa = ca.run_cycles(5)
        # The reference coordinator collects with one per-actor
        # ``collect`` call each, the schedule lockstep batching replaced.
        monkeypatch.setattr(
            ApexActor,
            "collect_lockstep",
            staticmethod(lambda actors, n: [a.collect(n) for a in actors]),
        )
        cb = self._coordinator(n_actors)
        sb = cb.run_cycles(5)
        assert sa.actor_steps == sb.actor_steps
        assert sa.learner_updates == sb.learner_updates
        assert sa.episodes == sb.episodes
        assert sa.param_syncs == sb.param_syncs
        assert sa.per_actor_rewards == sb.per_actor_rewards
        assert sa.mean_recent_reward == sb.mean_recent_reward
        pa, pb = ca.learner.params(), cb.learner.params()
        for key in pa:
            for x, y in zip(pa[key], pb[key]):
                np.testing.assert_array_equal(x, y)
        assert len(ca.replay) == len(cb.replay)
        batch_a = ca.replay.sample(32)
        batch_b = cb.replay.sample(32)
        np.testing.assert_array_equal(batch_a.states, batch_b.states)
        np.testing.assert_array_equal(batch_a.actions, batch_b.actions)
        np.testing.assert_array_equal(batch_a.rewards, batch_b.rewards)
        np.testing.assert_array_equal(batch_a.weights, batch_b.weights)

    def test_collect_lockstep_matches_collect(self):
        a_seq = ApexActor(
            0,
            NFVEnv(EnergyEfficiencySLA(), episode_len=8, rng=1),
            DDPGAgent(4, 5, SMALL, rng=2),
            local_buffer_size=8,
        )
        fleet = [
            ApexActor(
                i,
                NFVEnv(EnergyEfficiencySLA(), episode_len=8, rng=1 if i == 0 else 10 + i),
                DDPGAgent(4, 5, SMALL, rng=2 if i == 0 else 20 + i),
                local_buffer_size=8,
            )
            for i in range(3)
        ]
        seq_out = a_seq.collect(20)
        lock_out = ApexActor.collect_lockstep(fleet, 20)
        # Actor 0 of the fleet mirrors the solo actor exactly: same env
        # seed, same agent seed -> same transitions, same priorities,
        # same flush boundaries.
        assert len(lock_out[0]) == len(seq_out)
        for (t_seq, p_seq), (t_lock, p_lock) in zip(seq_out, lock_out[0]):
            np.testing.assert_array_equal(t_seq.state, t_lock.state)
            np.testing.assert_array_equal(t_seq.action, t_lock.action)
            assert t_seq.reward == t_lock.reward
            assert t_seq.done == t_lock.done
            assert p_seq == p_lock
        with pytest.raises(ValueError):
            ApexActor.collect_lockstep(fleet, 0)
