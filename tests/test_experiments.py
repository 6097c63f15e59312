"""Experiment-harness smoke tests (fast parameters)."""

import numpy as np
import pytest

from repro.core.sla import EnergyEfficiencySLA, MaxThroughputSLA, MinEnergySLA
from repro.experiments import (
    DEFAULT_SCALE,
    EXPERIMENTS,
    fig10_fixed_sla,
    fig11_energy_saving,
    fig9_comparison,
    measure_baseline,
    run_experiment,
)
from repro.experiments.training_curves import fig6_max_throughput
from repro.utils.tables import ExperimentReport


class TestScale:
    def test_pinned_baseline_matches_measurement(self):
        run = measure_baseline(intervals=10, rng=0)
        assert run.mean_power_w == pytest.approx(DEFAULT_SCALE.baseline_power_w, rel=0.05)
        assert run.mean_throughput_gbps == pytest.approx(
            DEFAULT_SCALE.baseline_throughput_gbps, rel=0.15
        )

    def test_sla_factory(self):
        for name in ("max_throughput", "min_energy", "energy_efficiency"):
            assert DEFAULT_SCALE.sla(name).describe()
        with pytest.raises(ValueError):
            DEFAULT_SCALE.sla("nope")

    def test_sla_is_the_paper_sla_at_this_scale(self):
        # Built through the spec registry, field for field the §5 SLAs.
        s = DEFAULT_SCALE
        expected = {
            "max_throughput": MaxThroughputSLA(s.maxt_cap_j_per_s, s.reward_scales),
            "min_energy": MinEnergySLA(s.mine_floor_gbps, s.reward_scales),
            "energy_efficiency": EnergyEfficiencySLA(s.reward_scales),
        }
        for name, sla in expected.items():
            built = s.sla(name)
            assert type(built) is type(sla)
            assert vars(built) == vars(sla)

    def test_cap_is_fraction_of_baseline(self):
        assert DEFAULT_SCALE.maxt_cap_j_per_s == pytest.approx(
            DEFAULT_SCALE.maxt_cap_fraction * DEFAULT_SCALE.baseline_power_w
        )


class TestRegistry:
    def test_all_figures_registered(self):
        for fig in ("fig1", "fig2", "fig3", "fig4", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11"):
            assert fig in EXPERIMENTS

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_microbench_through_registry(self):
        rows, report = run_experiment("fig2")
        assert isinstance(report, ExperimentReport)
        assert "fig2" in report.render()


class TestTrainingCurveHarness:
    def test_fig6_quick(self):
        result, report = fig6_max_throughput(episodes=8, test_every=4, episode_len=8)
        assert result.sla_name == "max_throughput"
        assert len(result.history.records) >= 3
        text = report.render()
        assert "CPU usage" in text
        assert "Packet batch size" in text


class TestFig9Harness:
    @pytest.fixture(scope="class")
    def result(self):
        res, _ = fig9_comparison(intervals=16, train_episodes=25, qlearning_episodes=40, seed=3)
        return res

    def test_seven_entries(self, result):
        assert len(result.entries) == 7
        names = [e.name for e in result.entries]
        assert names[0] == "Baseline"
        assert "GreenNFV(MaxT)" in names

    def test_greennfv_beats_baseline(self, result):
        base = result.baseline
        for sla in ("MinE", "MaxT", "EE"):
            entry = result.entry(f"GreenNFV({sla})")
            t_ratio, e_ratio = entry.relative_to(base)
            assert t_ratio > 2.0
            assert e_ratio < 0.8

    def test_entry_lookup(self, result):
        with pytest.raises(KeyError):
            result.entry("GreenNFV(Quantum)")


class TestFig10Harness:
    def test_series_structure(self):
        series, report = fig10_fixed_sla(duration_s=30.0, train_episodes=12, seed=5)
        assert [s.label for s in series] == ["MaxTh", "MinE"]
        for s in series:
            assert len(s.t_s) == 30
            assert s.window_energy_j.shape == s.throughput_gbps.shape
            assert 0.0 <= s.satisfied_frac <= 1.0
        assert "MaxTh" in report.render()


class TestFig11Harness:
    def test_saving_grows_with_hours(self):
        result, report = fig11_energy_saving(train_episodes=20, measure_intervals=16, seed=5)
        assert np.all(np.diff(result.saving_pct) > 0)
        assert result.saving_pct[-1] > result.saving_pct[0]
        # Paper band: positive within the first hours, climbing toward the
        # steady-state saving.
        assert result.saving_pct[-1] <= result.steady_state_saving_pct + 1e-9
        assert result.steady_state_saving_pct > 30.0
        assert "saving" in report.render()

    def test_hours_validation(self):
        with pytest.raises(ValueError):
            fig11_energy_saving(hours=np.array([0.0]), train_episodes=5)
