"""0-ulp differential: the in-place plan step and power model.

``ChainKernelPlan.step`` prices every grid-sized quantity in its output
array or in one of two scratch buffers, and the array branches of
``ServerPowerModel.power`` (which ``PacketEngine.node_power`` returns)
and ``efficiency_grid`` write into the array they return.
``benchmarks/perf/reference.py`` keeps the expression forms they
replaced (``reference_plan_step``, ``reference_node_power``,
``reference_power``, ``reference_efficiency_grid``).  The two must agree
bit for bit and in type on every plan shape and input kind; no
load-dependent output may share memory with another output or with the
plan, and a step must leave every plan array as it found it.
"""

from __future__ import annotations

import dataclasses
import itertools
from unittest import mock

import numpy as np
import pytest

from repro.hw.power import ServerPowerModel
from repro.nfv.chain import ServiceChain, default_chain
from repro.nfv.engine import (
    ChainKernelPlan,
    PacketEngine,
    PollingMode,
    chain_stack,
    efficiency_grid,
)
from repro.nfv.knobs import KnobSettings
from repro.nfv.nf import CATALOG
from repro.utils.units import line_rate_pps

#: The outputs a step computes from the loads; the rest alias the plan
#: (per-NF costs, rates, chain rates) or the inputs by design.
PRICED = (
    "achieved_pps",
    "throughput_gbps",
    "llc_miss_rate_per_s",
    "cpu_utilization",
    "cpu_cores_busy",
    "power_w",
    "energy_j",
    "dropped_pps",
    "latency_s",
    "nf_utilization",
)
#: Knob settings from idle to saturated: small shares at high loads put
#: NF 0 in receive livelock.
KNOBS = [
    KnobSettings(cpu_share=s, cpu_freq_ghz=f, llc_fraction=c, dma_mb=d, batch_size=b)
    for s, f, c, d, b in itertools.product(
        (0.15, 0.6, 1.0), (1.2, 2.1), (0.1, 0.9), (0.5, 8.0), (1, 32, 256)
    )
]
LOADS = np.array([0.0, 2e5, 1.1e6, 4e6, line_rate_pps(10.0, 64.0), np.inf])


def nf_chain(width: int, name: str = "c") -> ServiceChain:
    catalog = sorted(CATALOG)
    return ServiceChain.from_names(name, [catalog[i % len(catalog)] for i in range(width)])


def grid_plan(engine, chain, frames):
    """The plan ``step_batch`` compiles for ``KNOBS`` x ``LOADS`` x frames,
    and the ``(L, 1)`` load column it prices."""
    seen = []
    step = ChainKernelPlan.step

    def capture(plan, offered, *args, **kwargs):
        seen.append((plan, offered))
        return step(plan, offered, *args, **kwargs)

    with mock.patch.object(ChainKernelPlan, "step", capture):
        engine.step_batch(chain, KNOBS, LOADS, frames)
    return seen[0]


def diagonal_plan(engine, chains, frame=512.0):
    knobs = [KNOBS[(7 * i) % len(KNOBS)] for i in range(len(chains))]
    stack = chain_stack(tuple(chains), (frame,) * len(chains), engine.server.llc.line_bytes)
    return engine.compile_chains(stack, knobs)


def diagonal_loads(plan, intervals=None):
    """``LOADS`` cycled over the rows, rotated by one per interval."""
    loads = np.resize(LOADS, plan.chain_rate.shape[0])
    if intervals is None:
        return loads
    return np.stack([np.roll(loads, i) for i in range(intervals)])


def plan_arrays(plan) -> dict[str, np.ndarray]:
    """Every array the plan and its stack hold."""
    arrays = {}
    for owner, prefix in ((plan, ""), (plan.stack, "stack.")):
        for f in dataclasses.fields(owner):
            value = getattr(owner, f.name)
            if isinstance(value, np.ndarray):
                arrays[prefix + f.name] = value
    return arrays


def same_bits(a, b) -> bool:
    """Equal type, dtype, shape and bytes (``-0.0``/NaN payloads included)."""
    if type(a) is not type(b):
        return False
    if not isinstance(a, (np.ndarray, np.generic)):
        return a == b
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def check_step(perf_reference, plan, offered, **kwargs):
    before = {name: arr.copy() for name, arr in plan_arrays(plan).items()}
    got = plan.step(offered, 0.5, **kwargs)
    after = plan_arrays(plan)
    for name, arr in before.items():
        assert same_bits(after[name], arr), f"step wrote plan array {name}"
    ref = perf_reference.reference_plan_step(plan, offered, 0.5, **kwargs)
    for f in dataclasses.fields(got):
        a, b = getattr(got, f.name), getattr(ref, f.name)
        if isinstance(b, np.ndarray):
            assert same_bits(a, b), f.name
        else:
            assert a == b, f.name

    outputs = {name: getattr(got, name) for name in PRICED}
    others = {
        f.name: getattr(got, f.name)
        for f in dataclasses.fields(got)
        if f.name not in PRICED and isinstance(getattr(got, f.name), np.ndarray)
    }
    for name, arr in outputs.items():
        assert arr.flags.c_contiguous and arr.flags.owndata, name
        for other, arr2 in outputs.items():
            if other != name:
                assert not np.shares_memory(arr, arr2), (name, other)
        for other, arr2 in {**others, **after}.items():
            assert not np.shares_memory(arr, arr2), (name, other)
    return got, ref


def livelocked(plan, offered) -> np.ndarray:
    """Where NF 0 is in receive livelock (the step's step-4 mask)."""
    admitted = np.minimum(offered, plan.nic_cap)
    delivery = np.minimum(1.0, plan.absorb_pps / np.where(admitted > 0, admitted, 1.0))
    delivered = admitted * np.where(admitted == 0, 1.0, delivery)
    return (delivered * plan.cpps[..., 0] > plan.capacity) & plan.livelock_able


ENGINES = {
    "adaptive": {},
    "poll": {"polling": PollingMode.POLL},
    "no-cat-unparked": {"cat_enabled": False, "park_idle_cores": False},
}


class TestGridPlans:
    @pytest.mark.parametrize("frames", [512.0, [64.0, 512.0, 1518.0]], ids=["scalar", "axis"])
    @pytest.mark.parametrize("kind", sorted(ENGINES))
    @pytest.mark.parametrize("power", [True, False], ids=["power", "no-power"])
    def test_matches_expression_form(self, perf_reference, frames, kind, power):
        engine = PacketEngine(**ENGINES[kind])
        plan, offered = grid_plan(engine, default_chain(), frames)
        assert plan.chain_rate.ndim == 3
        got, _ = check_step(perf_reference, plan, offered, include_power=power)
        assert livelocked(plan, offered).any()
        assert np.isinf(got.offered_pps).any() and (got.offered_pps == 0).any()
        assert got.achieved_pps.shape == (len(KNOBS), len(LOADS), np.size(frames))

    @pytest.mark.parametrize("width", range(1, 10))
    def test_every_lane_width(self, perf_reference, width):
        plan, offered = grid_plan(PacketEngine(), nf_chain(width), [64.0, 1518.0])
        assert plan.cpps.shape[-1] == width
        check_step(perf_reference, plan, offered)


class TestDiagonalPlans:
    @pytest.mark.parametrize("intervals", [None, 3], ids=["(R,)", "(n, R)"])
    @pytest.mark.parametrize("kind", sorted(ENGINES))
    @pytest.mark.parametrize("power", [True, False], ids=["power", "no-power"])
    def test_padded_stack_of_2_and_5_nf_chains(self, perf_reference, intervals, kind, power):
        engine = PacketEngine(**ENGINES[kind])
        chains = [nf_chain(2, "a"), nf_chain(5, "b"), nf_chain(2, "c"), default_chain()] * 6
        plan = diagonal_plan(engine, chains)
        assert plan.stack.valid is not None and plan.cpps.shape[-1] == 5
        offered = diagonal_loads(plan, intervals)
        got, _ = check_step(perf_reference, plan, offered, include_power=power)
        assert got.achieved_pps.shape == offered.shape
        assert livelocked(plan, offered).any()

    @pytest.mark.parametrize("width", range(1, 10))
    def test_every_lane_width(self, perf_reference, width):
        # One chain of each width up to ``width``: rows padded to it.
        chains = [nf_chain(w, f"w{w}") for w in range(1, width + 1)] * 3
        plan = diagonal_plan(PacketEngine(), chains)
        assert plan.cpps.shape[-1] == width
        check_step(perf_reference, plan, diagonal_loads(plan, 2))
        check_step(perf_reference, plan, diagonal_loads(plan))

    def test_zero_and_infinite_loads_on_every_row(self, perf_reference):
        plan = diagonal_plan(PacketEngine(), [default_chain(), nf_chain(5)] * 4)
        rows = plan.chain_rate.shape[0]
        check_step(perf_reference, plan, np.zeros(rows))
        check_step(perf_reference, plan, np.full(rows, np.inf))


# -- the power model -----------------------------------------------------------


def kinds(values):
    """One input of each kind: Python float, numpy scalar, 0-d array, and
    arrays that broadcast against each other."""
    scalar = values[0]
    return {
        "float": float(scalar),
        "np.float64": np.float64(scalar),
        "0-d": np.asarray(scalar, dtype=np.float64),
        "(4,)": np.asarray(values, dtype=np.float64),
        "(3, 1)": np.asarray(values[:3], dtype=np.float64)[:, None],
    }


UTILIZATION = kinds([0.42, -0.1, 1.3, 0.0])
FREQ = kinds([1.7, 0.9, 2.4, 2.1])
IDLE = kinds([0.6, 1.0, 1.5, -0.2])
BUSY = kinds([9.5, -1.0, 50.0, 0.0])
ALLOCATED = kinds([12.0, 30.0, -2.0, 2.0])


def test_power_matches_expression_form_on_every_input_kind(perf_reference):
    model = ServerPowerModel()
    for (uk, u), (fk, f), (ik, idle) in itertools.product(
        UTILIZATION.items(), {**FREQ, "None": None}.items(), IDLE.items()
    ):
        u_before = np.copy(u)
        got = model.power(u, f, idle_fraction=idle)
        ref = perf_reference.reference_power(model, u, f, idle_fraction=idle)
        assert same_bits(got, ref), (uk, fk, ik)
        assert same_bits(np.asarray(u), u_before), "power() wrote its input"


@pytest.mark.parametrize("park", [True, False], ids=["parked", "unparked"])
def test_node_power_matches_expression_form_on_every_input_kind(perf_reference, park):
    engine = PacketEngine(park_idle_cores=park)
    for (bk, busy), (ak, allocated), (fk, f) in itertools.product(
        BUSY.items(), ALLOCATED.items(), FREQ.items()
    ):
        busy_before = np.copy(busy)
        got = engine.node_power(busy, allocated, f)
        ref = perf_reference.reference_node_power(engine, busy, allocated, f)
        assert same_bits(got, ref), (bk, ak, fk)
        assert same_bits(np.asarray(busy), busy_before), "node_power() wrote its input"


def test_efficiency_grid_matches_expression_form(perf_reference):
    thr = np.array([[0.0, 3.5, 9.9, np.inf], [1.0, np.nan, 2.0, 4.0]])
    energy = np.array([[0.0, 12.0, -1.0, 3.0], [np.nan, 5.0, np.inf, 1e-300]])
    rng = np.random.default_rng(3)
    cases = [
        (rng.uniform(0.0, 10.0, 1000), rng.uniform(-1.0, 100.0, 1000)),
        (thr, energy),
        (thr, energy[:1]),
        (thr[0], 7.5),
        (2.0, np.float64(4.0)),
        (np.asarray(2.0), np.asarray(0.0)),
    ]
    for t, e in cases:
        got = efficiency_grid(t, e)
        assert same_bits(got, perf_reference.reference_efficiency_grid(t, e))
