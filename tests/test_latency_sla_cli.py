"""Latency SLA and CLI tests."""

import numpy as np
import pytest

from repro.__main__ import main as cli_main
from repro.core.sla import LatencySLA, RewardScales
from repro.nfv.engine import TelemetrySample
from repro.scenario.catalog import SLAS


def sample(throughput=5.0, latency_s=1e-3, achieved=5e5):
    return TelemetrySample(
        dt_s=1.0,
        offered_pps=achieved,
        achieved_pps=achieved,
        packet_bytes=1518.0,
        throughput_gbps=throughput,
        llc_miss_rate_per_s=0.0,
        cpu_utilization=0.5,
        cpu_cores_busy=2.0,
        power_w=50.0,
        energy_j=50.0,
        dropped_pps=0.0,
        latency_s=latency_s,
        arrival_rate_pps=achieved,
    )


class TestLatencySLA:
    def test_reward_is_throughput_when_bound_met(self):
        sla = LatencySLA(2e-3, RewardScales(throughput_gbps=10.0))
        assert sla.reward(sample(throughput=5.0, latency_s=1e-3)) == pytest.approx(0.5)

    def test_violation_penalized(self):
        sla = LatencySLA(1e-3, violation_slope=0.5)
        s = sample(latency_s=2e-3)
        assert not sla.satisfied(s)
        assert sla.reward(s) == pytest.approx(-0.5)

    def test_penalty_capped(self):
        sla = LatencySLA(1e-3, violation_slope=0.5)
        assert sla.reward(sample(latency_s=1.0)) == pytest.approx(-0.5)

    def test_zero_throughput_not_satisfied(self):
        sla = LatencySLA(1e-3)
        s = sample(latency_s=1e-6, achieved=0.0)
        assert not sla.satisfied(s)
        assert sla.reward(s) < 0

    def test_factory(self):
        sla = SLAS.get("latency")(latency_bound_s=5e-3)
        assert isinstance(sla, LatencySLA)
        assert "ms" in sla.describe()

    def test_validation(self):
        with pytest.raises(ValueError):
            LatencySLA(0.0)
        with pytest.raises(ValueError):
            LatencySLA(1e-3, violation_slope=-1.0)

    def test_trainable(self):
        # The latency SLA must be learnable: final policy holds the bound.
        from repro.core.env import NFVEnv
        from repro.core.training import train_ddpg
        from repro.rl.ddpg import DDPGConfig

        # At line-rate saturation the chain's queueing floor is ~2.7 ms;
        # a 4.5 ms bound is feasible across a learnable region while still
        # excluding slow-frequency / tiny-batch configurations.
        sla = LatencySLA(4.5e-3, RewardScales(energy_j=81.5))

        def env(rng):
            return NFVEnv(sla, episode_len=8, rng=rng)

        _, history = train_ddpg(
            env(1), env(2), episodes=25, test_every=25,
            ddpg_config=DDPGConfig(hidden=(32, 32), batch_size=32),
            warmup_transitions=64, rng=7,
        )
        assert history.final.sla_satisfied_frac > 0.7
        assert history.final.throughput_gbps > history.records[0].throughput_gbps


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig9" in out and "ablation-per" in out

    def test_unknown_experiment(self, capsys):
        assert cli_main(["fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_microbench(self, capsys):
        assert cli_main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 2" in out

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.txt"
        assert cli_main(["fig3", "--out", str(target)]) == 0
        assert target.exists()
        assert "Fig. 3" in target.read_text()

    def test_quick_training_run(self, capsys):
        assert cli_main(["fig6", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "fig6" in out
