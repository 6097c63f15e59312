"""The run(spec) facade, the unified controller protocol, and SweepRunner."""

import json

import numpy as np
import pytest

from repro.core.scheduler import GreenNFVScheduler
from repro.core.sla import EnergyEfficiencySLA, RewardScales
from repro.rl.ddpg import DDPGConfig
from repro.scenario import (
    RunResult,
    ScenarioSpec,
    SweepRunner,
    expand_grid,
    run,
    run_sweep,
)
from repro.scenario.runner import artifact_name

#: Small DDPG so learned-controller tests stay fast.
FAST_NET = {"hidden": [16, 16], "batch_size": 16}


def tiny_spec(controller: str, **overrides) -> ScenarioSpec:
    params = dict(FAST_NET) if controller in ("ddpg", "apex") else {}
    if controller == "apex":
        params["actors"] = 2
    base = dict(
        name=f"tiny-{controller}",
        controller=controller,
        controller_params=params,
        episodes=2,
        test_every=2,
        episode_len=3,
        intervals=4,
        seed=9,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


LEARNED = ("ddpg", "apex", "qlearning")
RULES = ("static", "heuristic", "ee-pstate")


class TestRunFacade:
    @pytest.mark.parametrize("controller", LEARNED + RULES)
    def test_all_six_controllers_share_the_protocol(self, controller):
        result = run(tiny_spec(controller))
        assert len(result.timeline) == 4
        assert set(result.metrics) == {
            "mean_throughput_gbps",
            "total_energy_j",
            "mean_power_w",
            "energy_efficiency",
            "sla_satisfied_frac",
        }
        assert result.mean_throughput_gbps > 0
        assert result.total_energy_j > 0
        # Learned controllers report a training history; rules do not.
        if controller in LEARNED:
            assert result.training is not None
            assert len(result.training["records"]) >= 2
        else:
            assert result.training is None
        # The whole result is JSON-native.
        payload = json.loads(result.to_json())
        assert RunResult.from_dict(payload).spec == result.spec

    def test_deterministic_per_seed(self):
        a = run(tiny_spec("heuristic"))
        b = run(tiny_spec("heuristic"))
        assert a.metrics == b.metrics
        assert a.timeline == b.timeline

    def test_seed_changes_the_run(self):
        a = run(tiny_spec("ddpg"))
        b = run(tiny_spec("ddpg", seed=10))
        assert a.metrics != b.metrics

    def test_matches_hand_wired_scheduler(self):
        # The facade must be a faithful re-expression of the legacy API:
        # same seed, same budgets -> bit-for-bit the same rollout.
        spec = tiny_spec("ddpg", episodes=3, intervals=5)
        via_spec = run(spec)

        sched = GreenNFVScheduler(
            sla=EnergyEfficiencySLA(),
            episode_len=spec.episode_len,
            ddpg_config=DDPGConfig(hidden=(16, 16), batch_size=16),
            seed=spec.seed,
        )
        sched.train(episodes=spec.episodes, test_every=spec.test_every)
        timeline = sched.run_online(duration_s=float(spec.intervals))
        assert via_spec.series("throughput_gbps") == pytest.approx(
            np.asarray([s.throughput_gbps for s in timeline])
        )
        assert via_spec.series("energy_j") == pytest.approx(
            np.asarray([s.energy_j for s in timeline])
        )

    def test_inline_chain_and_custom_traffic(self):
        spec = tiny_spec(
            "static",
            nfs=["nat", "firewall"],
            traffic="mmpp",
            traffic_params={"low_rate_pps": 1e5, "high_rate_pps": 8e5},
        )
        result = run(spec)
        assert len(result.timeline) == 4

    def test_out_path_writes_artifact(self, tmp_path):
        target = tmp_path / "result.json"
        result = run(tiny_spec("static"), out_path=target)
        assert target.exists()
        loaded = RunResult.load(target)
        assert loaded.metrics == result.metrics

    def test_bad_component_params_fail_fast_with_context(self):
        # Typo'd params must not be swallowed (ddpg) or crash with a bare
        # TypeError deep in a factory (SLA/traffic): run() names the
        # offending component before any training compute is spent.
        with pytest.raises(ValueError, match="controller 'ddpg'"):
            run(tiny_spec("ddpg", controller_params={"hiden": [8, 8]}))
        with pytest.raises(ValueError, match="SLA 'energy_efficiency'"):
            run(tiny_spec("static", sla_params={"energy_cap_j": 45.0}))
        with pytest.raises(ValueError, match="traffic model 'line_rate'"):
            run(tiny_spec("static", traffic_params={"warp_factor": 9}))

    def test_timeline_series_accessor(self):
        result = run(tiny_spec("ee-pstate"))
        ts = result.series("throughput_gbps")
        assert ts.shape == (4,)
        assert np.all(ts >= 0)

    def test_fitted_controller_redeploys_without_retraining(self):
        from repro.scenario import CONTROLLERS

        spec = tiny_spec("qlearning")
        controller = CONTROLLERS.get("qlearning")()
        first = run(spec, controller=controller)
        assert first.training is not None
        agent = controller.agent
        # Same fitted controller on a longer horizon: rollout only.
        again = run(
            spec.with_updates(intervals=6), controller=controller, fit=False
        )
        assert controller.agent is agent  # not retrained
        assert again.training is None
        assert len(again.timeline) == 6

    def test_fit_false_requires_a_controller(self):
        with pytest.raises(ValueError, match="explicit controller"):
            run(tiny_spec("static"), fit=False)


class TestPolicyPersistenceEndToEnd:
    def test_spec_driven_deploy_of_saved_policy(self, tmp_path):
        # Train once through the facade's scheduler, save, then run a new
        # spec that loads the checkpoint: no retraining, valid timeline.
        train_spec = tiny_spec("ddpg", episodes=3)
        sched = GreenNFVScheduler(
            sla=EnergyEfficiencySLA(),
            episode_len=train_spec.episode_len,
            ddpg_config=DDPGConfig(hidden=(16, 16), batch_size=16),
            seed=train_spec.seed,
        )
        sched.train(episodes=3, test_every=3)
        path = sched.save_policy(tmp_path / "policy")

        deploy_spec = tiny_spec(
            "ddpg",
            name="deploy",
            controller_params={**FAST_NET, "policy_path": str(path)},
            intervals=6,
        )
        result = run(deploy_spec)
        assert result.training is None  # loaded, not retrained
        assert len(result.timeline) == 6
        assert all(p["throughput_gbps"] > 0 for p in result.timeline)
        assert all(p["knobs"] is not None for p in result.timeline)

    def test_cli_save_policy_then_policy_path_deploys_it(self, tmp_path, capsys):
        from repro.__main__ import main as cli_main
        from repro.rl.checkpoint import load_agent
        from repro.scenario import CONTROLLERS, SCENARIOS, quick_spec

        path = tmp_path / "maxt.npz"
        trained_out = tmp_path / "trained.json"
        argv = ["run", "greennfv-maxt", "--quick", "--save-policy", str(path),
                "--out", str(trained_out)]
        assert cli_main(argv) == 0
        assert f"policy written to {path}" in capsys.readouterr().out
        saved = load_agent(path)

        spec = quick_spec(SCENARIOS.get("greennfv-maxt")())
        params = {**spec.controller_params, "policy_path": str(path)}
        controller = CONTROLLERS.get("ddpg")(**params)
        deployed = run(spec.with_updates(controller_params=params), controller=controller)
        assert deployed.training is None  # loaded, not retrained
        actor = controller.scheduler.agent.get_policy_params()
        assert all(map(np.array_equal, actor, saved.get_policy_params()))
        # The saved actor acts exactly as the trained one did.
        trained = RunResult.load(trained_out)
        assert deployed.timeline == trained.timeline

    def test_cli_save_policy_refuses_a_rule_controller(self, tmp_path, capsys):
        from repro.__main__ import main as cli_main

        path = tmp_path / "static.npz"
        assert cli_main(["run", "baseline", "--quick", "--save-policy", str(path)]) == 2
        assert "no policy checkpoint" in capsys.readouterr().err
        assert not path.exists()
        assert cli_main(["run", "greennfv-maxt", "--quick", "--save-policy", "p"]) == 2
        assert ".npz" in capsys.readouterr().err


class TestSweepRunner:
    def test_parallel_sweep_with_artifacts(self, tmp_path):
        specs = [tiny_spec(c) for c in RULES] + [tiny_spec("qlearning")]
        out_dir = tmp_path / "artifacts"
        runner = SweepRunner(specs, out_dir=out_dir, processes=4)
        results = runner.run()
        assert [r.spec.name for r in results] == [s.name for s in specs]
        files = sorted(p.name for p in out_dir.glob("*.json"))
        assert files == sorted(f"{artifact_name(s.name)}.json" for s in specs)
        for spec in specs:
            loaded = RunResult.load(out_dir / f"{artifact_name(spec.name)}.json")
            assert loaded.spec == spec
            assert loaded.mean_throughput_gbps > 0
        assert len(runner.summary_rows()) == 4

    def test_parallel_matches_sequential(self):
        specs = [tiny_spec(c) for c in RULES]
        parallel = run_sweep(specs, processes=3)
        sequential = run_sweep(specs, processes=1)
        for p, s in zip(parallel, sequential):
            assert p.metrics == s.metrics

    def test_grid_sweep(self, tmp_path):
        base = tiny_spec("static", name="grid")
        specs = expand_grid(base, {"controller": ["static", "heuristic"]})
        results = run_sweep(specs, out_dir=tmp_path, processes=2)
        assert len(results) == 2
        assert len(list(tmp_path.glob("grid-*.json"))) == 2

    def test_failing_spec_does_not_discard_finished_artifacts(self, tmp_path):
        # Workers save their own artifact on completion: a spec that
        # fails mid-sweep must only lose its own result.
        good = [tiny_spec("static", name="ok-a"), tiny_spec("heuristic", name="ok-b")]
        bad = tiny_spec("ddpg", name="boom", controller_params={"hiden": [8, 8]})
        with pytest.raises(ValueError, match="controller 'ddpg'"):
            SweepRunner(good + [bad], out_dir=tmp_path, processes=2).run()
        assert sorted(p.name for p in tmp_path.glob("*.json")) == [
            "ok-a.json", "ok-b.json",
        ]

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError, match="at least one spec"):
            SweepRunner([])

    def test_name_collisions_rejected(self):
        with pytest.raises(ValueError, match="collide"):
            SweepRunner([tiny_spec("static"), tiny_spec("static")])

    def test_artifact_name_sanitization(self):
        assert artifact_name("GreenNFV(MaxT)") == "GreenNFV-MaxT"
        assert artifact_name("***") == "scenario"


class TestPresets:
    def test_scenario_presets_build_valid_specs(self):
        from repro.scenario import SCENARIOS

        for name in SCENARIOS:
            spec = SCENARIOS.get(name)()
            assert isinstance(spec, ScenarioSpec)
            assert spec.name == name

    def test_comparison_sweep_preset_matches_fig9_lineup(self):
        from repro.scenario import SWEEPS

        specs = SWEEPS.get("comparison")()
        assert [s.name for s in specs] == [
            "Baseline", "Heuristics", "EE-Pstate", "Q-Learning",
            "GreenNFV(MinE)", "GreenNFV(MaxT)", "GreenNFV(EE)",
        ]
        assert {s.controller for s in specs} == {
            "static", "heuristic", "ee-pstate", "qlearning", "ddpg",
        }

    def test_quick_spec_shrinks_budgets(self):
        from repro.scenario import SCENARIOS, quick_spec

        spec = quick_spec(SCENARIOS.get("greennfv-maxt")())
        assert spec.episodes <= 8
        assert spec.intervals <= 10
