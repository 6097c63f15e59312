"""Environment, training protocol and scheduler tests."""

import numpy as np
import pytest

from repro.core.env import NFVEnv
from repro.core.scheduler import GreenNFVScheduler
from repro.core.sla import EnergyEfficiencySLA, MaxThroughputSLA, MinEnergySLA
from repro.core.training import evaluate_policy, train_ddpg, train_qlearning
from repro.nfv.knobs import KnobSettings
from repro.rl.ddpg import DDPGAgent, DDPGConfig
from repro.traffic.generators import ConstantRateGenerator

FAST_DDPG = DDPGConfig(hidden=(24, 24), batch_size=24)


def make_env(episode_len=6, rng=0, sla=None):
    return NFVEnv(
        sla or EnergyEfficiencySLA(),
        generators=[ConstantRateGenerator.line_rate()],
        episode_len=episode_len,
        rng=rng,
    )


class RandomPolicy:
    def __init__(self, dim=5, rng=0):
        self._rng = np.random.default_rng(rng)
        self.dim = dim

    def act(self, obs, explore=False):
        return self._rng.uniform(-1, 1, self.dim)


class TestNFVEnv:
    def test_reset_returns_observation(self):
        env = make_env()
        obs = env.reset()
        assert obs.shape == (4,)
        assert np.all(np.isfinite(obs))

    def test_step_before_reset_raises(self):
        env = make_env()
        with pytest.raises(RuntimeError):
            env.step(np.zeros(5))

    def test_episode_terminates(self):
        env = make_env(episode_len=3)
        env.reset()
        dones = [env.step(np.zeros(5)).done for _ in range(3)]
        assert dones == [False, False, True]

    def test_step_result_fields(self):
        env = make_env()
        env.reset()
        r = env.step(np.zeros(5))
        assert isinstance(r.knobs, KnobSettings)
        assert np.isfinite(r.reward)
        assert "sla_satisfied" in r.info

    def test_one_chain_step_reports_that_chain(self):
        # A one-chain step's aggregate is the chain's own sample, and its
        # mean knobs are the chain's applied knobs.
        env = make_env()
        env.reset()
        r = env.step(np.asarray([0.3, -0.2, 0.5, 0.1, 0.7]))
        (name,) = r.samples
        assert r.sample is r.samples[name]
        assert r.knobs == r.per_chain_knobs[name]
        assert r.observation.tolist() == env.encoder.encode(r.sample).tolist()

    def test_actions_change_outcome(self):
        env = make_env()
        env.reset()
        weak = env.step(-np.ones(5)).sample.throughput_gbps
        env.reset()
        strong = env.step(np.asarray([1.0, 1.0, 1.0, 0.5, 0.5])).sample.throughput_gbps
        assert strong > weak

    def test_reset_gives_pristine_platform(self):
        # The controller/node are recycled across episodes (no expensive
        # reallocation), but every reset must wipe platform state: clock,
        # deployed chains, meters.
        env = make_env()
        env.reset()
        first = env.controller
        env.step(np.zeros(5))
        t_after = first.time_s
        env.reset()
        assert env.controller is first
        assert env.controller.time_s < t_after
        names = {chain.name for chain in env.chains}
        assert set(env.controller.bindings) == names
        assert set(env.controller.node.chains) == names

    def test_reset_reuse_matches_fresh_env(self):
        # Telemetry from a recycled platform must match a freshly built
        # environment driven identically (state never leaks across
        # episodes).
        env_a = make_env()
        env_b = make_env()
        for _ in range(2):
            obs_a = env_a.reset()
        obs_b = env_b.reset()
        # Different generator trajectories may differ; drive both with the
        # same action and compare platform-derived fields per unit load.
        ra = env_a.step(np.zeros(5))
        rb = env_b.step(np.zeros(5))
        assert ra.knobs == rb.knobs
        assert ra.sample.per_nf[0].cycles_per_packet == pytest.approx(
            rb.sample.per_nf[0].cycles_per_packet
        )

    def test_run_policy_episode(self):
        env = make_env(episode_len=4)
        results = env.run_policy_episode(RandomPolicy(), explore=False)
        assert len(results) == 4
        assert results[-1].done

    def test_reward_matches_sla(self):
        sla = MaxThroughputSLA(45.0)
        env = make_env(sla=sla)
        env.reset()
        r = env.step(np.zeros(5))
        assert r.reward == pytest.approx(sla.reward(r.sample))

    def test_validation(self):
        with pytest.raises(ValueError):
            make_env(episode_len=0)


class TestEvaluatePolicy:
    def test_record_fields(self):
        env = make_env(episode_len=4)
        rec = evaluate_policy(env, RandomPolicy(), episodes=2, episode_tag=7)
        assert rec.episode == 7
        assert rec.throughput_gbps > 0
        assert rec.energy_j > 0
        assert 0 <= rec.sla_satisfied_frac <= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            evaluate_policy(make_env(), RandomPolicy(), episodes=0)


class TestTrainDDPG:
    def test_learning_improves_reward(self):
        train_env = make_env(episode_len=8, rng=1)
        eval_env = make_env(episode_len=8, rng=2)
        agent, history = train_ddpg(
            train_env,
            eval_env,
            episodes=25,
            test_every=5,
            ddpg_config=FAST_DDPG,
            warmup_transitions=32,
            rng=3,
        )
        first, last = history.records[0], history.records[-1]
        assert last.reward > first.reward
        assert agent.updates_done > 0

    def test_history_series(self):
        train_env = make_env(episode_len=4, rng=1)
        eval_env = make_env(episode_len=4, rng=2)
        _, history = train_ddpg(
            train_env, eval_env, episodes=6, test_every=2,
            ddpg_config=FAST_DDPG, warmup_transitions=8, rng=3,
        )
        xs, ys = history.series("throughput_gbps")
        assert xs.shape == ys.shape
        assert xs[0] == 0  # pre-training evaluation point
        assert history.final.episode == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            train_ddpg(make_env(), make_env(), episodes=0)


class TestTrainQLearning:
    def test_runs_and_records(self):
        train_env = make_env(episode_len=4, rng=1)
        eval_env = make_env(episode_len=4, rng=2)
        agent, history = train_qlearning(
            train_env, eval_env, episodes=10, test_every=5, rng=0
        )
        assert len(history.records) >= 3
        assert agent.table_entries > 0


class TestScheduler:
    def test_train_then_recommend(self):
        sched = GreenNFVScheduler(
            sla=EnergyEfficiencySLA(), episode_len=6, seed=5, ddpg_config=FAST_DDPG
        )
        history = sched.train(episodes=10, test_every=5)
        assert sched.agent is not None
        knobs = sched.recommend(np.zeros(4))
        assert isinstance(knobs, KnobSettings)
        assert history.final.episode == 10

    def test_recommend_before_train_raises(self):
        sched = GreenNFVScheduler(sla=EnergyEfficiencySLA())
        with pytest.raises(RuntimeError):
            sched.recommend(np.zeros(4))
        with pytest.raises(RuntimeError):
            sched.run_online(10.0)

    def test_run_online_length(self):
        sched = GreenNFVScheduler(
            sla=MinEnergySLA(5.0), episode_len=6, seed=5, ddpg_config=FAST_DDPG
        )
        sched.train(episodes=8, test_every=4)
        timeline = sched.run_online(duration_s=12.0)
        assert len(timeline) == 12
        assert timeline[-1].t_s == pytest.approx(12.0)

    def test_run_online_validation(self):
        sched = GreenNFVScheduler(
            sla=EnergyEfficiencySLA(), episode_len=4, seed=0, ddpg_config=FAST_DDPG
        )
        sched.train(episodes=4, test_every=2)
        with pytest.raises(ValueError):
            sched.run_online(0.0)

    def test_distributed_training_path(self):
        from repro.rl.apex import ApexConfig

        sched = GreenNFVScheduler(
            sla=EnergyEfficiencySLA(), episode_len=4, seed=3, ddpg_config=FAST_DDPG
        )
        history = sched.train(
            episodes=4,
            test_every=2,
            distributed=True,
            apex_config=ApexConfig(
                n_actors=2,
                local_buffer_size=8,
                sync_every_steps=16,
                replay_capacity=256,
                warmup_transitions=16,
                learner_steps_per_cycle=2,
                actor_steps_per_cycle=8,
            ),
        )
        assert sched.agent is not None
        assert len(history.records) >= 2

    def test_final_evaluation(self):
        sched = GreenNFVScheduler(
            sla=EnergyEfficiencySLA(), episode_len=4, seed=0, ddpg_config=FAST_DDPG
        )
        sched.train(episodes=4, test_every=2)
        rec = sched.final_evaluation(episodes=1)
        assert rec.throughput_gbps > 0

    def test_determinism(self):
        def run():
            sched = GreenNFVScheduler(
                sla=EnergyEfficiencySLA(), episode_len=4, seed=123, ddpg_config=FAST_DDPG
            )
            sched.train(episodes=5, test_every=5)
            return sched.history.final.throughput_gbps

        assert run() == pytest.approx(run())
