"""Joint control of several chains on one node through ``NFVEnv``."""

import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest

from repro.core.env import NFVEnv
from repro.core.sla import EnergyEfficiencySLA, MaxThroughputSLA, RewardScales
from repro.experiments.microbench import fig1_chains
from repro.nfv.chain import light_chain, microbench_chains
from repro.traffic.generators import ConstantRateGenerator
from repro.traffic.packet import SMALL_PACKETS


def make_env(episode_len=4, rng=0, sla=None):
    """The Fig. 1 scenario as a joint-control problem: a big 64 B flow
    through the cache-hungry C1 next to a small flow through C2."""
    c1, c2 = fig1_chains()
    return NFVEnv(
        sla or EnergyEfficiencySLA(RewardScales(energy_j=81.5)),
        chains=[c1, c2],
        generators=[
            ConstantRateGenerator(8e6, SMALL_PACKETS),
            ConstantRateGenerator(1e6, SMALL_PACKETS),
        ],
        episode_len=episode_len,
        rng=rng,
    )


class TestConstruction:
    def test_dims_scale_with_chains(self):
        env = make_env()
        assert env.n_chains == 2
        assert env.state_dim == 8
        assert env.action_dim == 10

    def test_validation(self):
        c1, c2 = microbench_chains()
        with pytest.raises(ValueError):
            NFVEnv(EnergyEfficiencySLA(), chains=[], generators=[])
        with pytest.raises(ValueError):
            NFVEnv(EnergyEfficiencySLA(), chains=[c1], generators=[])
        with pytest.raises(ValueError):
            NFVEnv(
                EnergyEfficiencySLA(),
                chains=[light_chain("x"), light_chain("x")],
                generators=[ConstantRateGenerator(1.0), ConstantRateGenerator(1.0)],
            )
        with pytest.raises(ValueError):
            make_env(episode_len=0)

    def test_more_chains_than_llc_ways_refused_at_reset(self):
        # One CAT way per chain at least: 19 chains on the default 18
        # allocatable ways used to hang in reset.
        n = 19
        env = NFVEnv(
            EnergyEfficiencySLA(),
            chains=[light_chain(f"c{i}") for i in range(n)],
            generators=[ConstantRateGenerator(1e5) for _ in range(n)],
        )
        with pytest.raises(ValueError, match="'c18'"):
            env.reset()


class TestStepping:
    def test_episode_lifecycle(self):
        env = make_env(episode_len=3)
        obs = env.reset()
        assert obs.shape == (8,)
        dones = [env.step(np.zeros(10)).done for _ in range(3)]
        assert dones == [False, False, True]

    def test_step_before_reset(self):
        env = make_env()
        with pytest.raises(RuntimeError):
            env.step(np.zeros(10))

    def test_action_shape_check(self):
        env = make_env()
        env.reset()
        with pytest.raises(ValueError):
            env.step(np.zeros(5))

    def test_per_chain_knobs_applied(self):
        env = make_env()
        env.reset()
        action = np.concatenate([np.ones(5), -np.ones(5)])
        r = env.step(action)
        k1 = r.per_chain_knobs["C1"]
        k2 = r.per_chain_knobs["C2"]
        assert k1.cpu_share > k2.cpu_share
        assert k1.batch_size > k2.batch_size

    def test_aggregate_telemetry(self):
        env = make_env()
        env.reset()
        r = env.step(np.zeros(10))
        agg = r.sample
        assert agg.throughput_gbps == pytest.approx(
            sum(s.throughput_gbps for s in r.samples.values())
        )
        assert agg.energy_j == pytest.approx(
            sum(s.energy_j for s in r.samples.values())
        )

    def test_llc_partitioning_couples_chains(self):
        # Giving C1 almost all LLC must change both chains' outcomes
        # relative to the inverse split, with C1 the winner (Fig. 1).
        env = make_env()
        env.reset()
        favor_c1 = np.zeros(10)
        favor_c1[2] = 1.0  # C1 llc action max
        favor_c1[7] = -1.0  # C2 llc action min
        r1 = env.step(favor_c1)

        env.reset()
        favor_c2 = np.zeros(10)
        favor_c2[2] = -1.0
        favor_c2[7] = 1.0
        r2 = env.step(favor_c2)
        assert (
            r1.samples["C1"].throughput_gbps
            > r2.samples["C1"].throughput_gbps
        )

    def test_run_policy_episode(self):
        class Mid:
            def act(self, obs, explore=False):
                return np.zeros(10)

        env = make_env(episode_len=3)
        results = env.run_policy_episode(Mid())
        assert len(results) == 3


#: The MaxT SLA the joint agent learns under: a 60 J cap per interval.
MAXT = MaxThroughputSLA(60.0, RewardScales(energy_j=81.5))


@pytest.fixture(scope="module")
def joint_history():
    """The 30-episode joint DDPG run on the Fig. 1 pair under MaxT."""
    from repro.core.training import train_ddpg
    from repro.rl.ddpg import DDPGConfig

    def env(rng):
        return make_env(episode_len=8, rng=rng, sla=MAXT)

    _, history = train_ddpg(
        env(1),
        env(2),
        episodes=30,
        test_every=30,
        ddpg_config=DDPGConfig(hidden=(48, 48), batch_size=32),
        warmup_transitions=64,
        rng=9,
    )
    return history


class TestJointLearning:
    def test_agent_learns_joint_allocation(self, joint_history):
        # The agent controls both chains; aggregate throughput under the
        # MaxT SLA must improve substantially over the untrained policy.
        assert (
            joint_history.final.throughput_gbps
            > 1.3 * joint_history.records[0].throughput_gbps
        )


#: SHA-256 prefix of the joint-control golden payload (Python 3.11).
GOLDEN_DIGEST = "65f0727ea1ad540a"


def _knob_row(k):
    return [k.cpu_share, k.cpu_freq_ghz, k.llc_fraction, k.dma_mb, k.batch_size]


def _sample_row(s):
    return [s.throughput_gbps, s.energy_j]


def golden_payload(history):
    """Four seeded random-action episodes on one recycled env, then the
    joint training history: every value the joint environment reports."""
    # A 40 J cap splits the random actions' intervals into met and missed.
    env = make_env(
        episode_len=5, rng=3, sla=MaxThroughputSLA(40.0, RewardScales(energy_j=81.5))
    )
    actions = np.random.default_rng(11)
    episodes = []
    for _ in range(4):
        steps = [env.reset().tolist()]
        for _ in range(env.episode_len):
            r = env.step(actions.uniform(-1.0, 1.0, env.action_dim))
            steps.append(
                {
                    "obs": r.observation.tolist(),
                    "reward": r.reward,
                    "done": r.done,
                    "sla": bool(r.info["sla_satisfied"]),
                    "knobs": {n: _knob_row(k) for n, k in r.per_chain_knobs.items()},
                    "mean_knobs": _knob_row(r.knobs),
                    "chains": {n: _sample_row(s) for n, s in r.samples.items()},
                    "aggregate": _sample_row(r.sample),
                }
            )
        episodes.append(steps)
    return {
        "episodes": episodes,
        "history": {
            "records": [asdict(rec) for rec in history.records],
            "episode_rewards": history.episode_rewards,
        },
    }


def test_joint_golden(joint_history):
    blob = json.dumps(
        golden_payload(joint_history), sort_keys=True, separators=(",", ":")
    )
    assert hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16] == GOLDEN_DIGEST
