"""End-to-end integration tests across traffic -> platform -> RL -> SLAs."""

import numpy as np
import pytest

from repro.core.scheduler import GreenNFVScheduler
from repro.core.sla import MaxThroughputSLA, MinEnergySLA
from repro.experiments.common import DEFAULT_SCALE
from repro.rl.ddpg import DDPGConfig

# Use the library's tuned default DDPG configuration; cross-SLA ordering
# at these small training budgets is sensitive to ad-hoc network sizes.
CFG = DDPGConfig()


@pytest.fixture(scope="module")
def maxt_sched():
    sched = GreenNFVScheduler(
        sla=DEFAULT_SCALE.sla("max_throughput"),
        episode_len=16,
        seed=7,
        ddpg_config=CFG,
    )
    sched.train(episodes=80, test_every=20)
    return sched


@pytest.fixture(scope="module")
def mine_sched():
    sched = GreenNFVScheduler(
        sla=DEFAULT_SCALE.sla("min_energy"),
        episode_len=16,
        seed=23,
        ddpg_config=CFG,
    )
    sched.train(episodes=80, test_every=20)
    return sched


class TestMaxThroughputEndToEnd:
    def test_throughput_improves_substantially(self, maxt_sched):
        hist = maxt_sched.history
        assert hist.final.throughput_gbps > 1.8 * hist.records[0].throughput_gbps

    def test_final_policy_beats_untrained_significantly(self, maxt_sched):
        assert maxt_sched.history.final.throughput_gbps > 6.0

    def test_energy_cap_respected_at_convergence(self, maxt_sched):
        assert maxt_sched.history.final.sla_satisfied_frac > 0.9

    def test_online_deployment_consistent_with_training(self, maxt_sched):
        timeline = maxt_sched.run_online(duration_s=20.0)
        mean_t = float(np.mean([s.throughput_gbps for s in timeline]))
        assert mean_t > 0.7 * maxt_sched.history.final.throughput_gbps


class TestMinEnergyEndToEnd:
    def test_energy_reduced_while_floor_held(self, mine_sched):
        hist = mine_sched.history
        # Of the test points that satisfy the floor, energy at the end is
        # no worse than the first satisfying point.
        sat = [r for r in hist.records if r.sla_satisfied_frac > 0.5]
        assert len(sat) >= 2
        assert sat[-1].energy_j <= sat[0].energy_j * 1.15

    def test_floor_mostly_met_at_convergence(self, mine_sched):
        assert mine_sched.history.final.sla_satisfied_frac > 0.8

    def test_beats_baseline_energy(self, mine_sched):
        # Baseline draws ~81.5 W; the MinE policy must be far below that.
        rec = mine_sched.history.final
        per_interval = rec.energy_j / mine_sched.episode_len
        assert per_interval < 0.7 * DEFAULT_SCALE.baseline_power_w


class TestCrossSlaOrdering:
    def test_maxt_throughput_geq_mine(self, maxt_sched, mine_sched):
        assert (
            maxt_sched.history.final.throughput_gbps
            >= 0.75 * mine_sched.history.final.throughput_gbps
        )

    def test_mine_energy_leq_maxt(self, maxt_sched, mine_sched):
        assert (
            mine_sched.history.final.energy_j
            <= 1.25 * maxt_sched.history.final.energy_j
        )
