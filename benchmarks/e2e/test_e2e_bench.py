"""Tests for the end-to-end benchmark (short runs, no timing claims)."""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import layers
import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _specs(entries, keys=("name", "unit", "better")):
    return [tuple(e[k] for k in keys) for e in entries]


class TestNames:
    def test_declared_names_match_benchmark_json(self):
        assert _specs(BENCHMARK["end_to_end"]) == list(run.END_TO_END)
        assert _specs(BENCHMARK["per_layer"]) == list(layers.PER_LAYER)
        assert _specs(BENCHMARK["workloads"], ("name", "why")) == [
            (w.name, w.why) for w in workloads.WORKLOADS.values()
        ]
        assert BENCHMARK["paths"] == ["benchmarks/e2e"]

    @pytest.mark.parametrize("trace", [0, 1])
    def test_printed_metrics_match_benchmark_json(self, trace, tmp_path):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "scan-fine",
             "--seed", "1", "--seconds", "0", "--trace", str(trace),
             "--out", str(tmp_path)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0
        declared = BENCHMARK["per_layer" if trace else "end_to_end"]
        assert {k: v["unit"] for k, v in line["metrics"].items()} == {
            e["name"]: e["unit"] for e in declared
        }
        assert (tmp_path / f"scan-fine.trace{trace}.json").is_file()
        if trace:
            from repro.obs import read_trace

            # Beyond the writer's own process-name event: the traced reps'.
            assert len(read_trace(tmp_path / "scan-fine.trace.jsonl")) > 1

    def test_exits_nonzero_without_program_source(self, tmp_path):
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
        shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "benchmarks/e2e/run.py", "--workload", "scan-fine",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def reps():
    """One checked repetition of every workload."""
    return {name: run.run_rep(w, 1, None) for name, w in workloads.WORKLOADS.items()}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_one_job_of_each_workload_passes_its_checks(reps, name):
    rep = reps[name]
    assert rep.ok, rep.errors
    assert rep.outcome.chain_intervals > 0
    assert all(v > 0 for v in rep.outcome.modelled().values())


def test_stop_helpers_reaps_the_arena_resource_tracker(reps):
    import multiprocessing
    from multiprocessing import resource_tracker

    # The fleet-steady repetition created an arena, which started the tracker.
    assert resource_tracker._resource_tracker._pid is not None
    run.stop_helpers()
    assert resource_tracker._resource_tracker._pid is None
    assert not multiprocessing.active_children()


class TestFailedRepetitions:
    def test_perturbed_hash_is_a_failed_repetition(self):
        class Counter:
            """A stand-in workload whose third job returns another payload."""

            name = "counter"
            jobs = 0

            def build(self, seed):
                return seed

            def warm(self, state):
                pass

            def job(self, state):
                Counter.jobs += 1
                return Counter.jobs

            def teardown(self, state):
                pass

            def outcome(self, state, n):
                return workloads.Outcome({"n": int(n == 3)}, 1, 1.0, 1.0, 1.0)

            def check(self, outcome):
                return []

        record = run.measure(Counter(), 1, 0.0, False, None, 0.0)
        assert record["attempted"] == 1 + run.MIN_REPS
        assert record["failed"] == 1
        assert "payload hash" in record["errors"][0]
        assert json.loads(run.last_line(record))["correct"] is False

    def test_broken_energy_sum_is_a_failed_repetition(self, reps):
        outcome = copy.deepcopy(reps["fleet-churn"].outcome)
        outcome.payload["totals"]["energy_j"] *= 1.01
        assert any("energy_j" in e for e in workloads.FLEET_CHURN.check(outcome))

        short = copy.copy(workloads.FLEET_CHURN)
        short.cycles = 2
        broken = copy.copy(short)

        def outcome_with_lost_joule(state, raw):
            good = short.outcome(state, raw)
            good.payload["intervals"][0]["energy_j"] += 1.0
            return good

        broken.outcome = outcome_with_lost_joule
        rep = run.run_rep(broken, 1, None)
        assert not rep.ok
        assert any("sim_energy_j" in e for e in rep.errors)


def _results(**metrics):
    """A results file with one workload and the given (value, spread) pairs."""
    return {
        "workloads": {
            "w": {
                "untraced": {
                    "hash": "h",
                    "metrics": {k: v for k, (v, _) in metrics.items()},
                    "spreads": {k: s for k, (_, s) in metrics.items()},
                }
            }
        }
    }


class TestCompare:
    END_TO_END = [
        {"name": "chain_intervals_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ]

    def verdicts(self, a, b):
        return {
            r["metric"]: r["verdict"] for r in compare.compare(a, b, self.END_TO_END)
        }

    def test_within_bound_is_same(self):
        a = _results(chain_intervals_per_s=(100.0, 0.02), setup_s=(1.0, 0.05))
        b = _results(chain_intervals_per_s=(95.0, 0.02), setup_s=(1.2, 0.05))
        assert self.verdicts(a, b) == {
            "chain_intervals_per_s": "same", "setup_s": "same", "hash": "same"
        }

    def test_worse_and_better_follow_direction(self):
        a = _results(chain_intervals_per_s=(100.0, 0.02), setup_s=(1.0, 0.05))
        b = _results(chain_intervals_per_s=(80.0, 0.02), setup_s=(0.5, 0.05))
        got = self.verdicts(a, b)
        assert got["chain_intervals_per_s"] == "worse"
        assert got["setup_s"] == "better"

    def test_spread_wider_than_bound_is_unresolved(self):
        a = _results(chain_intervals_per_s=(100.0, 0.15), setup_s=(1.0, 0.05))
        b = _results(chain_intervals_per_s=(50.0, 0.02), setup_s=(1.0, 0.05))
        assert self.verdicts(a, b)["chain_intervals_per_s"] == "unresolved"

    def test_exit_code_flags_worse(self, tmp_path):
        a = _results(chain_intervals_per_s=(100.0, 0.0), setup_s=(1.0, 0.0))
        b = _results(chain_intervals_per_s=(50.0, 0.0), setup_s=(1.0, 0.0))
        (tmp_path / "a.json").write_text(json.dumps(a))
        (tmp_path / "b.json").write_text(json.dumps(b))
        assert compare.main([str(tmp_path / "a.json"), str(tmp_path / "a.json")]) == 0
        assert compare.main([str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 1
