"""Shared fixtures for the tier-1 suite."""

import importlib.util
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def perf_reference():
    """``benchmarks/perf/reference.py``: the differential reference paths."""
    spec = importlib.util.spec_from_file_location(
        "perf_reference", REPO / "benchmarks" / "perf" / "reference.py"
    )
    mod = importlib.util.module_from_spec(spec)
    sys.modules["perf_reference"] = mod
    spec.loader.exec_module(mod)
    return mod
