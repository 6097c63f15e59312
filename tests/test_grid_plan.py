"""0-ulp differential: grids priced through the compiled plan.

``PacketEngine.step_batch`` compiles a grid :class:`ChainKernelPlan`
(knob columns ``(K, 1, 1)`` against one stack row per frame size) and
prices it with the same body that steps nodes, clusters and fleets.
``reference_step_batch`` in ``benchmarks/perf/reference.py`` keeps the
dedicated grid body it replaced.  For every configuration the two must
agree bit for bit on every :class:`BatchTelemetry` field, the grid must
come out C-contiguous in ``(K, L[, P])`` order (``scan_report``'s means
depend on memory layout), and the scan artifact must be byte-identical.
"""

import dataclasses
import itertools
import json

import numpy as np
import pytest

from repro.nfv.chain import ServiceChain, default_chain, heavy_chain
from repro.nfv.engine import PacketEngine, PollingMode
from repro.nfv.nf import CATALOG
from repro.scenario.catalog import GRIDS
from repro.scenario.presets import SCENARIOS
from repro.scenario.runner import scan_report
from repro.utils.units import line_rate_pps

GRID_FIELDS = (
    "achieved_pps",
    "throughput_gbps",
    "llc_miss_rate_per_s",
    "cpu_utilization",
    "cpu_cores_busy",
    "power_w",
    "energy_j",
    "dropped_pps",
    "latency_s",
)
LOADS = np.concatenate([[0.0], np.linspace(1e5, 1.3 * line_rate_pps(10.0, 64.0), 7)])
FRAMES = {"scalar": 512.0, "axis": [64.0, 512.0, 1518.0]}


@pytest.fixture(scope="module")
def knob_grid():
    return GRIDS.get("coarse")()


def _overrides(kind: str, k: int) -> dict:
    if kind == "llc_bytes":
        return {"llc_bytes": np.linspace(2e5, 2.4e7, k)}
    if kind == "contention":
        return {"llc_bytes": 6e6, "contention": 1.4}
    return {}


@pytest.mark.parametrize("frames", sorted(FRAMES))
@pytest.mark.parametrize("override", ["none", "llc_bytes", "contention"])
@pytest.mark.parametrize(
    "polling,cat,park",
    list(itertools.product(PollingMode, (True, False), (True, False))),
)
def test_grid_plan_matches_reference_bit_for_bit(
    perf_reference, knob_grid, polling, cat, park, override, frames
):
    engine = PacketEngine(polling=polling, cat_enabled=cat, park_idle_cores=park)
    chain = heavy_chain() if frames == "axis" else default_chain()
    kwargs = _overrides(override, len(knob_grid))
    got = engine.step_batch(chain, knob_grid, LOADS, FRAMES[frames], 0.5, **kwargs)
    ref = perf_reference.reference_step_batch(
        engine, chain, knob_grid, LOADS, FRAMES[frames], 0.5, **kwargs
    )

    for f in dataclasses.fields(got):
        a, b = getattr(got, f.name), getattr(ref, f.name)
        if isinstance(b, np.ndarray):
            assert a.shape == b.shape, f.name
            assert np.array_equal(a, b), f.name
        else:
            assert a == b, f.name
    for name in GRID_FIELDS:
        assert getattr(got, name).flags.c_contiguous, name
    assert got.nf_utilization.flags.c_contiguous

    spec = SCENARIOS.get("baseline")()
    for objective in ("energy_efficiency", "min_energy"):
        report_got = scan_report(spec, knob_grid, got, objective=objective)
        report_ref = scan_report(spec, knob_grid, ref, objective=objective)
        assert json.dumps(report_got) == json.dumps(report_ref)


def test_grid_without_power_matches_reference(perf_reference, knob_grid):
    engine = PacketEngine()
    got = engine.step_batch(
        default_chain(), knob_grid, LOADS, FRAMES["axis"], include_power=False
    )
    ref = perf_reference.reference_step_batch(
        engine, default_chain(), knob_grid, LOADS, FRAMES["axis"], include_power=False
    )
    for name in GRID_FIELDS:
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name
    assert not got.power_w.any()


@pytest.mark.parametrize("width", [8, 9, 12])
@pytest.mark.parametrize("polling", list(PollingMode))
def test_long_chains_match_reference(perf_reference, knob_grid, width, polling):
    # Both bodies sum the NF axis as a left fold, so chains of 8 or more
    # NFs agree too.
    catalog = sorted(CATALOG)
    chain = ServiceChain.from_names("long", [catalog[i % len(catalog)] for i in range(width)])
    engine = PacketEngine(polling=polling)
    got = engine.step_batch(chain, knob_grid, LOADS, FRAMES["axis"])
    ref = perf_reference.reference_step_batch(engine, chain, knob_grid, LOADS, FRAMES["axis"])
    for name in GRID_FIELDS:
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name
