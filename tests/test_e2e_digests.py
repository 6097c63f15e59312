"""The eight e2e payload digests: four workloads at seeds 1 and 7.

``benchmarks/e2e/run.py`` checks every repetition's payload hash against
the first repetition of the same run, so a change that moves an output
still passes there.  This test pins the hashes themselves: one
repetition of each workload at each seed must reproduce the table.  A
deliberate output change updates the table in the same change and lists
the old and new values in CHANGES.md.

The harness files are loaded read-only from ``benchmarks/e2e/``, the way
the ``perf_reference`` fixture loads ``benchmarks/perf/reference.py``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"

#: (workload, seed) -> payload digest on Python 3.11.
DIGESTS = {
    ("train-maxt", 1): "c36ea3d30a570083",
    ("train-maxt", 7): "5af3c6c8c443b182",
    ("scan-fine", 1): "e56b33932d71cf1d",
    ("scan-fine", 7): "5431714ca07c26e1",
    ("fleet-steady", 1): "59de2d8e3b2ab7e9",
    ("fleet-steady", 7): "cef56fbf3b0b929a",
    ("fleet-churn", 1): "d94b2e5ff0eadbb4",
    ("fleet-churn", 7): "7b2c430605bb1032",
}


def _load(module_name: str, file_name: str):
    spec = importlib.util.spec_from_file_location(module_name, E2E / file_name)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[module_name] = mod
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def e2e():
    """``(run, workloads)``; stops the harness's helper processes after."""
    run = _load("e2e_run", "run.py")
    workloads = _load("e2e_workloads", "workloads.py")
    try:
        yield run, workloads
    finally:
        run.stop_helpers()


@pytest.mark.parametrize(
    "workload,seed", sorted(DIGESTS), ids=[f"{w}-seed{s}" for w, s in sorted(DIGESTS)]
)
def test_payload_digest_is_pinned(e2e, workload, seed):
    run, workloads = e2e
    rep = run.run_rep(workloads.WORKLOADS[workload], seed, None)
    assert rep.ok, rep.errors
    assert rep.outcome.digest == DIGESTS[workload, seed]
