"""The subcommand CLI: run / sweep / list / fig (+ legacy figure ids)."""

import json

import pytest

from repro.__main__ import main as cli_main
from repro.scenario import RunResult, ScenarioSpec


def tiny_spec_dict(name: str, controller: str = "static") -> dict:
    return ScenarioSpec(
        name=name,
        controller=controller,
        episodes=1,
        test_every=1,
        episode_len=2,
        intervals=3,
        seed=2,
    ).to_dict()


class TestRunCommand:
    def test_run_spec_file_with_artifact(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(tiny_spec_dict("cli-run")))
        out_path = tmp_path / "result.json"
        assert cli_main(["run", str(spec_path), "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "cli-run" in out
        assert "mean throughput" in out
        result = RunResult.load(out_path)
        assert result.spec.name == "cli-run"

    def test_run_preset_quick(self, capsys):
        assert cli_main(["run", "baseline", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out
        assert "SLA satisfied" in out

    def test_run_seed_override(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(tiny_spec_dict("seeded", "heuristic")))
        out_path = tmp_path / "r.json"
        assert cli_main(
            ["run", str(spec_path), "--seed", "77", "--out", str(out_path)]
        ) == 0
        assert RunResult.load(out_path).spec.seed == 77

    def test_run_unknown_source(self):
        with pytest.raises(SystemExit, match="neither a spec file"):
            cli_main(["run", "no-such-preset"])

    def test_run_invalid_spec_is_a_clean_error(self, tmp_path, capsys):
        # Validation failures are user errors: message + exit 2, no
        # traceback escaping the CLI.
        bad = dict(tiny_spec_dict("bad"), sla="five_nines")
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps(bad))
        assert cli_main(["run", str(spec_path)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "unknown SLA" in err

    def test_run_negative_seed_is_a_clean_error(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(tiny_spec_dict("seeded")))
        assert cli_main(["run", str(spec_path), "--seed", "-3"]) == 2
        assert "non-negative" in capsys.readouterr().err


class TestSweepCommand:
    def test_sweep_specs_file_parallel(self, tmp_path, capsys):
        specs_path = tmp_path / "specs.json"
        specs_path.write_text(
            json.dumps(
                [
                    tiny_spec_dict("s-a", "static"),
                    tiny_spec_dict("s-b", "heuristic"),
                    tiny_spec_dict("s-c", "ee-pstate"),
                    tiny_spec_dict("s-d", "qlearning"),
                ]
            )
        )
        out_dir = tmp_path / "artifacts"
        assert cli_main(
            ["sweep", str(specs_path), "--jobs", "4", "--out-dir", str(out_dir)]
        ) == 0
        out = capsys.readouterr().out
        assert "4 scenarios" in out
        assert sorted(p.name for p in out_dir.glob("*.json")) == [
            "s-a.json", "s-b.json", "s-c.json", "s-d.json",
        ]

    def test_sweep_unknown_source(self):
        with pytest.raises(SystemExit, match="neither a specs file"):
            cli_main(["sweep", "no-such-sweep"])

    def test_sweep_rejects_non_list(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(tiny_spec_dict("oops")))
        with pytest.raises(SystemExit, match="JSON list"):
            cli_main(["sweep", str(path)])


class TestScanCommand:
    def test_scan_preset_writes_schema_artifact(self, tmp_path, capsys):
        out_path = tmp_path / "scan.json"
        assert cli_main(
            ["scan", "baseline", "--top", "5", "--out", str(out_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "top 5 of 432 candidates" in out
        payload = json.loads(out_path.read_text())
        assert payload["format_version"] == 1
        assert payload["scenario"] == "baseline"
        assert payload["objective"] == "energy_efficiency"
        assert payload["grid_size"] == 432
        assert len(payload["offered_pps"]) == 1
        assert len(payload["results"]) == 5
        scores = [r["score"] for r in payload["results"]]
        assert scores == sorted(scores, reverse=True)
        assert [r["rank"] for r in payload["results"]] == [1, 2, 3, 4, 5]
        for r in payload["results"]:
            assert set(r["knobs"]) == {
                "cpu_share", "cpu_freq_ghz", "llc_fraction", "dma_mb", "batch_size",
            }
            assert r["mean_throughput_gbps"] > 0

    def test_scan_packet_size_axis(self, tmp_path):
        out_path = tmp_path / "scan.json"
        assert cli_main(
            [
                "scan", "baseline", "--packet-bytes", "64", "1518",
                "--loads", "200000", "800000",
                "--objective", "max_throughput",
                "--top", "3", "--out", str(out_path),
            ]
        ) == 0
        payload = json.loads(out_path.read_text())
        assert payload["packet_bytes"] == [64.0, 1518.0]
        assert payload["offered_pps"] == [200000.0, 800000.0]
        assert payload["objective"] == "max_throughput"
        assert len(payload["results"]) == 3

    def test_scan_min_energy_respects_delivery_gate(self, tmp_path):
        # Same semantics as oracle-static: the cheapest *feasible*
        # setting wins, not the weakest knob vector that drops traffic.
        out_path = tmp_path / "scan.json"
        assert cli_main(
            [
                "scan", "baseline", "--objective", "min_energy",
                "--loads", "600000", "--top", "3", "--out", str(out_path),
            ]
        ) == 0
        payload = json.loads(out_path.read_text())
        assert payload["objective"] == "min_energy"
        assert payload["min_delivery"] == 0.5
        for r in payload["results"]:
            assert r["mean_delivered_frac"] >= 0.5

    def test_scan_spec_file(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(tiny_spec_dict("scan-me")))
        assert cli_main(["scan", str(spec_path), "--top", "1"]) == 0
        assert "scan-me" in capsys.readouterr().out

    def test_scan_unknown_grid_is_a_clean_error(self, capsys):
        assert cli_main(["scan", "baseline", "--grid", "no-such-grid"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "unknown knob grid" in err

    def test_scan_bad_args_exit_codes(self, capsys):
        # Library-level validation -> message + exit 2, no traceback.
        assert cli_main(["scan", "baseline", "--top", "0"]) == 2
        assert "--top" in capsys.readouterr().err
        assert cli_main(["scan", "baseline", "--loads", "-5"]) == 2
        assert "--loads" in capsys.readouterr().err
        assert cli_main(["scan", "baseline", "--packet-bytes", "0"]) == 2
        assert "--packet-bytes" in capsys.readouterr().err
        # argparse-level validation (unknown objective) exits 2 as well.
        with pytest.raises(SystemExit) as exc:
            cli_main(["scan", "baseline", "--objective", "nope"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "flag,value", [("--loads", "nan"), ("--loads", "inf"), ("--packet-bytes", "nan")]
    )
    def test_scan_rejects_non_finite_axes(self, flag, value, tmp_path, capsys):
        out_path = tmp_path / "scan.json"
        argv = ["scan", "baseline", "--grid", "coarse", flag, value, "--out", str(out_path)]
        assert cli_main(argv) == 2
        assert flag in capsys.readouterr().err
        assert not out_path.exists()

    def test_scan_unknown_spec_source(self):
        with pytest.raises(SystemExit, match="neither a spec file"):
            cli_main(["scan", "no-such-preset"])


class TestListCommand:
    def test_list_shows_everything(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        # Experiments (including the merged-in ablations)...
        assert "fig9" in out and "ablation-per" in out
        # ...plus scenario presets and the registries.
        assert "greennfv-maxt" in out
        assert "comparison" in out
        assert "ee-pstate" in out
        # ...and the scan layer's knob-grid presets.
        assert "knob grids" in out and "coarse" in out


class TestFigCommand:
    def test_explicit_fig_subcommand(self, capsys):
        assert cli_main(["fig", "fig2"]) == 0
        assert "Fig. 2" in capsys.readouterr().out

    def test_legacy_bare_figure_id(self, capsys):
        # `python -m repro fig3 --out ...` (no subcommand) must keep working.
        assert cli_main(["fig3"]) == 0
        assert "Fig. 3" in capsys.readouterr().out

    def test_unknown_figure_exit_code(self, capsys):
        assert cli_main(["fig", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_merged_ablations_reachable_via_library(self):
        # Satellite: the CLI and the library agree on the experiment set.
        from repro.experiments import EXPERIMENTS, run_experiment

        assert "ablation-per" in EXPERIMENTS
        rows, report = run_experiment("ablation-per", episodes=4, test_every=2)
        assert {r.variant for r in rows} == {"prioritized", "uniform"}
        assert "replay" in report.render()
