"""Harness tests for the benchmarks/perf suite (no timing runs).

The benchmark module itself is exercised by CI's perf-smoke job; here we
pin the regression-check logic and the committed baseline's integrity so
a malformed baseline or a broken gate fails fast in the tier-1 suite.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
BENCH_DIR = REPO / "benchmarks" / "perf"


@pytest.fixture(scope="module")
def bench_mod():
    spec = importlib.util.spec_from_file_location(
        "bench_hotpath", BENCH_DIR / "bench_hotpath.py"
    )
    mod = importlib.util.module_from_spec(spec)
    sys.modules["bench_hotpath"] = mod
    spec.loader.exec_module(mod)
    return mod


def _result(slice_speedup=2.5, grid_speedup=30.0, cluster_speedup=8.0,
            seconds=0.1, mode="quick", calib=0.05):
    return {
        "format_version": 1,
        "mode": mode,
        "calibration_seconds": calib,
        "benches": {
            "engine_batch_grid": {
                "seconds": seconds,
                "speedup": grid_speedup,
                "criterion_min_speedup": 5.0,
            },
            "cluster_grid": {
                "seconds": seconds,
                "speedup": cluster_speedup,
                "criterion_min_speedup": 3.0,
            },
            "training_slice": {
                "seconds": seconds,
                "speedup": slice_speedup,
                "criterion_min_speedup": 2.0,
            },
        },
    }


class TestCheckAgainst:
    def test_passes_within_envelope(self, bench_mod):
        assert bench_mod.check_against(_result(), _result(), 2.0) == []

    def test_fails_on_slowdown(self, bench_mod):
        slow = _result(seconds=0.5)
        problems = bench_mod.check_against(slow, _result(seconds=0.1), 2.0)
        assert len(problems) == 3
        assert all("baseline" in p for p in problems)

    def test_fails_on_missed_criterion(self, bench_mod):
        bad = _result(slice_speedup=1.0)
        problems = bench_mod.check_against(bad, _result(), 2.0)
        assert any("criterion" in p for p in problems)

    def test_fails_on_missed_cluster_criterion(self, bench_mod):
        # The fused cluster kernel gate: >= 3x over the per-node loop.
        bad = _result(cluster_speedup=2.0)
        problems = bench_mod.check_against(bad, _result(), 2.0)
        assert any("cluster_grid" in p and "3x criterion" in p for p in problems)

    def test_criterion_message_keeps_fractional_criterion(self, bench_mod):
        # fleet_throughput's criterion is 1.5x; the message must not
        # round it to "2x".
        bad = _result()
        bad["benches"]["fleet_throughput"] = {
            "seconds": 0.1,
            "speedup": 1.0,
            "criterion_min_speedup": 1.5,
        }
        problems = bench_mod.check_against(bad, _result(), 2.0)
        assert any("fleet_throughput" in p and "the 1.5x criterion" in p for p in problems)

    def test_criterion_has_noise_tolerance(self, bench_mod):
        near = _result(slice_speedup=2.0 * bench_mod.CRITERION_TOLERANCE + 0.01)
        assert bench_mod.check_against(near, _result(), 2.0) == []

    def test_waived_criterion_is_skipped(self, bench_mod):
        # fleet_scale on a single-CPU box records the run but waives the
        # parallelism criterion; the gate must honor the waiver.
        waived = _result()
        waived["benches"]["fleet_scale"] = {
            "seconds": 0.1,
            "speedup": 0.95,
            "criterion_min_speedup": 2.0,
            "criterion_waived": "process parallelism needs >= 2 CPUs (have 1)",
        }
        assert bench_mod.check_against(waived, _result(), 2.0) == []
        unwaived = _result()
        unwaived["benches"]["fleet_scale"] = {
            "seconds": 0.1,
            "speedup": 0.95,
            "criterion_min_speedup": 2.0,
        }
        problems = bench_mod.check_against(unwaived, _result(), 2.0)
        assert any("fleet_scale" in p and "criterion" in p for p in problems)

    def test_mode_mismatch_skips_seconds(self, bench_mod):
        slow = _result(seconds=0.5)
        base = _result(seconds=0.1, mode="full")
        assert bench_mod.check_against(slow, base, 2.0) == []

    def test_slow_machine_is_not_a_regression(self, bench_mod):
        # 5x slower wall clock, but the calibration workload is 5x slower
        # too -> normalized seconds unchanged -> no regression.
        slow_box = _result(seconds=0.5, calib=0.25)
        assert bench_mod.check_against(slow_box, _result(), 2.0) == []

    def test_missing_baseline_bench_ignored(self, bench_mod):
        base = _result()
        del base["benches"]["training_slice"]
        assert bench_mod.check_against(_result(seconds=0.5), base, 2.0) != []


class TestCommittedBaseline:
    def test_baseline_parses_and_meets_criteria(self, bench_mod):
        path = BENCH_DIR / "BENCH_hotpath.json"
        baseline = json.loads(path.read_text())
        assert baseline["format_version"] == bench_mod.FORMAT_VERSION
        assert set(bench_mod.BENCHES) <= set(baseline["benches"])
        for name, minimum in bench_mod.CRITERIA.items():
            record = baseline["benches"][name]
            if record.get("criterion_waived"):
                # Recorded on hardware that cannot measure the criterion
                # (e.g. fleet_scale on one CPU); CI enforces it on fresh
                # runs instead.
                continue
            assert record["speedup"] >= minimum, name


class TestHistoryRecord:
    def test_record_carries_provenance(self, bench_mod):
        result = _result()
        result.update(numpy="2.4.6", git_sha="0" * 40, cpus=2)
        record = bench_mod.history_record(result, "rev-b")
        assert record["pr"] == "rev-b"
        assert {key: record[key] for key in bench_mod.PROVENANCE} == {
            "git_sha": "0" * 40,
            "cpus": 2,
            "numpy": "2.4.6",
            "calibration_seconds": 0.05,
        }
        assert record["benches"]["cluster_grid"] == {"seconds": 0.1, "speedup": 8.0}

    def test_appended_record_is_stamped(self, bench_mod, tmp_path):
        result = _result()
        result.update(
            numpy="2.4.6", git_sha=bench_mod.git_sha(), cpus=bench_mod.usable_cpus()
        )
        path = tmp_path / "history.json"
        path.write_text(json.dumps([{"pr": "rev-a", "benches": {}}]))
        records = bench_mod.append_history(path, result, "ci")
        assert [r["pr"] for r in records] == ["rev-a", "ci"]
        assert json.loads(path.read_text()) == records
        stamped = records[-1]
        assert stamped["cpus"] >= 1
        sha = stamped["git_sha"]
        assert sha is None or (len(sha) == 40 and int(sha, 16) >= 0)
