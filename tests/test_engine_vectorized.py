"""Golden equivalence tests: the array-native engine vs. a scalar reference.

The reference below is a deliberately naive per-NF Python-loop port of
the cost model (the shape of the pre-vectorization implementation).  The
vectorized :meth:`PacketEngine.step` / :meth:`PacketEngine.step_batch`
must reproduce it to tight tolerance across randomized chains, knobs and
loads — any drift here means the physics changed, not just the layout.
"""

import math

import numpy as np
import pytest

from repro.hw.cache import capacity_miss_ratio, prefetch_efficiency
from repro.nfv.chain import ServiceChain, default_chain, heavy_chain, light_chain
from repro.nfv.engine import (
    BatchTelemetry,
    EngineParams,
    PacketEngine,
    PollingMode,
    chain_profile,
    chain_stack,
)
from repro.nfv.knobs import KnobSettings
from repro.nfv.nf import CATALOG
from repro.nfv.node import Node
from repro.nfv.per_nf import PerNFEngine
from repro.utils.units import line_rate_pps

ATOL = 1e-9
RTOL = 1e-9


# -- scalar reference (kept intentionally loop-based) -------------------------


def reference_nf_cycles(engine, chain, nf_index, knobs, packet_bytes, *, llc_bytes, contention):
    """Per-NF (cycles, misses): straight port of the scalar cost model."""
    nf = chain.nfs[nf_index]
    llc = engine.server.llc
    p = engine.params
    pf = prefetch_efficiency(knobs.batch_size)
    pen_eff = llc.miss_penalty_cycles * (1.0 - pf)
    hit_eff = llc.hit_cycles * (1.0 - pf)
    ws = chain.total_state_bytes + knobs.batch_size * packet_bytes
    base_miss = capacity_miss_ratio(ws, llc_bytes, locality=p.cache_locality)
    p_miss = float(min(1.0, base_miss * contention))
    state_cycles = nf.state_lines_touched * p_miss * pen_eff
    misses = nf.state_lines_touched * p_miss
    touched = nf.touched_lines(packet_bytes, llc.line_bytes)
    if nf_index == 0:
        p_hit = engine.dma_model.llc_spill_hit_ratio(knobs.dma_bytes, llc_bytes)
        p_hit = float(max(0.0, p_hit * (1.0 - p_miss * 0.5)))
    else:
        p_hit = 1.0 - p_miss
    payload_cycles = touched * p.mem_factor * (p_hit * hit_eff + (1.0 - p_hit) * pen_eff)
    misses += touched * (1.0 - p_hit)
    cold_cycles = p.cold_lines_per_batch * pen_eff / knobs.batch_size
    misses += p.cold_lines_per_batch / knobs.batch_size
    overhead = p.ring_call_cycles / knobs.batch_size + p.mbuf_cycles / math.sqrt(
        knobs.batch_size
    )
    cycles = nf.cycles_for_packet(packet_bytes) + overhead + state_cycles
    cycles += payload_cycles + cold_cycles
    if nf_index > 0:
        cycles += p.inter_nf_handoff_cycles
    return float(cycles), float(misses)


def reference_step_core(engine, chain, knobs, offered_pps, packet_bytes, *, llc_bytes=None, contention=None):
    """Achieved rate / busy cores / cycles per NF, scalar-loop reference."""
    llc = engine.server.llc
    if llc_bytes is None:
        llc_bytes = knobs.llc_fraction * llc.way_bytes * llc.allocatable_ways
    eff_llc, cat_contention = engine.effective_llc_bytes(llc_bytes)
    eff_contention = (
        cat_contention if contention is None else max(contention, cat_contention)
    )
    cpps, misses = [], []
    for i in range(len(chain)):
        c, m = reference_nf_cycles(
            engine, chain, i, knobs, packet_bytes,
            llc_bytes=eff_llc, contention=eff_contention,
        )
        cpps.append(c)
        misses.append(m)
    freq_hz = knobs.cpu_freq_ghz * 1e9
    rates = [knobs.cpu_share * freq_hz / c for c in cpps]
    chain_rate = min(rates)
    nic_cap = engine.server.nic.max_pps(packet_bytes)
    admitted = min(offered_pps, nic_cap)
    delivery = engine.dma_model.delivery_ratio(knobs.dma_bytes, packet_bytes, admitted)
    delivered = admitted * delivery
    achieved = min(delivered, chain_rate)
    c0 = knobs.cpu_share * freq_hz
    rx = engine.params.rx_drop_cycles
    if delivered * cpps[0] > c0 and cpps[0] > rx:
        achieved = min(achieved, max(0.0, (c0 - delivered * rx) / (cpps[0] - rx)))
    busy = 0.0
    utils = []
    for i in range(len(chain)):
        work = achieved * cpps[i]
        if i == 0:
            work += max(0.0, delivered - achieved) * rx
        util = min(1.0, work / c0) if c0 > 0 else 0.0
        if engine.polling == PollingMode.POLL:
            util = 1.0 if knobs.cpu_share > 0 else 0.0
        else:
            util = min(1.0, util + engine.params.adaptive_poll_overhead)
        utils.append(util)
        busy += knobs.cpu_share * util
    return achieved, busy, cpps, misses, utils


def random_knobs(rng):
    return KnobSettings(
        cpu_share=float(rng.uniform(0.1, 1.5)),
        cpu_freq_ghz=float(rng.uniform(1.2, 2.1)),
        llc_fraction=float(rng.uniform(0.05, 1.0)),
        dma_mb=float(rng.uniform(0.5, 40.0)),
        batch_size=int(rng.integers(1, 257)),
    )


def random_chain(rng):
    names = list(CATALOG)
    n = int(rng.integers(1, 5))
    picked = [names[int(i)] for i in rng.integers(0, len(names), size=n)]
    return ServiceChain.from_names(f"rand-{n}", picked)


class TestScalarEquivalence:
    def test_step_matches_scalar_reference_randomized(self):
        rng = np.random.default_rng(7)
        for trial in range(120):
            chain = random_chain(rng)
            knobs = random_knobs(rng)
            pkt = float(rng.uniform(64, 1518))
            offered = float(rng.uniform(0, line_rate_pps(10.0, pkt) * 1.3))
            engine = PacketEngine(
                polling=PollingMode.POLL if trial % 4 == 0 else PollingMode.ADAPTIVE,
                cat_enabled=trial % 3 != 0,
                park_idle_cores=trial % 5 != 0,
            )
            kw = {}
            if trial % 2 == 0:
                kw["llc_bytes"] = float(rng.uniform(1e5, 2e7))
                kw["contention"] = float(rng.uniform(1.0, 2.0))
            achieved, busy, cpps, misses, utils = reference_step_core(
                engine, chain, knobs, offered, pkt, **kw
            )
            s = engine.step(chain, knobs, offered, pkt, 1.0, **kw)
            np.testing.assert_allclose(s.achieved_pps, achieved, rtol=RTOL, atol=ATOL)
            np.testing.assert_allclose(
                s.cpu_cores_busy,
                busy + engine.params.infra_cores * (
                    engine.params.infra_util_poll
                    if engine.polling == PollingMode.POLL
                    else engine.params.infra_util_adaptive
                ),
                rtol=RTOL,
                atol=ATOL,
            )
            np.testing.assert_allclose(
                [t.cycles_per_packet for t in s.per_nf], cpps, rtol=RTOL, atol=ATOL
            )
            np.testing.assert_allclose(
                [t.misses_per_packet for t in s.per_nf], misses, rtol=RTOL, atol=ATOL
            )
            np.testing.assert_allclose(
                [t.utilization for t in s.per_nf], utils, rtol=RTOL, atol=ATOL
            )

    def test_nf_cycles_matches_reference(self):
        rng = np.random.default_rng(11)
        engine = PacketEngine()
        for _ in range(60):
            chain = random_chain(rng)
            knobs = random_knobs(rng)
            pkt = float(rng.uniform(64, 1518))
            llc_bytes = float(rng.uniform(1e5, 2e7))
            cont = float(rng.uniform(1.0, 2.0))
            mt = engine.compile_chains(
                chain_stack((chain,), (pkt,)),
                [knobs],
                llc_bytes=[llc_bytes],
                contention=cont,
            ).step([0.0])
            for i in range(len(chain)):
                ref = reference_nf_cycles(
                    engine, chain, i, knobs, pkt, llc_bytes=llc_bytes, contention=cont
                )
                got = (mt.cycles_per_packet[0, i], mt.misses_per_packet[0, i])
                np.testing.assert_allclose(got, ref, rtol=RTOL, atol=ATOL)


class TestBatchEquivalence:
    def test_step_batch_matches_step_grid(self):
        rng = np.random.default_rng(3)
        for trial in range(8):
            chain = [default_chain(), heavy_chain(), light_chain()][trial % 3]
            knobs = [random_knobs(rng) for _ in range(6)]
            pkt = float(rng.uniform(64, 1518))
            loads = rng.uniform(0, line_rate_pps(10.0, pkt) * 1.2, size=4)
            engine = PacketEngine(
                polling=PollingMode.POLL if trial % 3 == 0 else PollingMode.ADAPTIVE,
                cat_enabled=trial % 2 == 0,
            )
            bt = engine.step_batch(chain, knobs, loads, pkt, 2.0)
            assert isinstance(bt, BatchTelemetry)
            assert bt.shape == (6, 4)
            for k in range(6):
                for l in range(4):
                    s = engine.step(chain, knobs[k], float(loads[l]), pkt, 2.0)
                    b = bt.sample(k, l)
                    for f in (
                        "achieved_pps", "throughput_gbps", "llc_miss_rate_per_s",
                        "cpu_utilization", "cpu_cores_busy", "power_w", "energy_j",
                        "dropped_pps", "latency_s",
                    ):
                        np.testing.assert_allclose(
                            getattr(b, f), getattr(s, f), rtol=RTOL, atol=ATOL,
                            err_msg=f,
                        )
                    assert [t.name for t in b.per_nf] == [t.name for t in s.per_nf]
                    np.testing.assert_allclose(
                        [t.utilization for t in b.per_nf],
                        [t.utilization for t in s.per_nf],
                        rtol=RTOL, atol=ATOL,
                    )

    def test_array_grid_matches_knob_objects(self):
        engine = PacketEngine()
        chain = default_chain()
        knobs = [
            KnobSettings(cpu_share=1.0, cpu_freq_ghz=2.1, llc_fraction=0.5, dma_mb=8, batch_size=32),
            KnobSettings(cpu_share=1.5, cpu_freq_ghz=1.5, llc_fraction=0.8, dma_mb=16, batch_size=128),
        ]
        arr = np.stack([k.as_array() for k in knobs])
        a = engine.step_batch(chain, knobs, [1e5, 5e5], 1518.0)
        b = engine.step_batch(chain, arr, [1e5, 5e5], 1518.0)
        np.testing.assert_array_equal(a.achieved_pps, b.achieved_pps)
        np.testing.assert_array_equal(a.power_w, b.power_w)

    def test_fractional_batch_prices_alike_on_every_path(self):
        # KnobSettings accepts a batch of 32.5: every path must price
        # that batch, and none may round it.
        engine = PacketEngine()
        chain = default_chain()
        knobs = KnobSettings(batch_size=32.5, cpu_share=0.3)
        want = engine.step(chain, knobs, 3e6, 512.0).achieved_pps
        by_list = engine.step_batch(chain, [knobs], [3e6], 512.0)
        by_row = engine.step_batch(chain, knobs.as_array()[None], [3e6], 512.0)
        plan = engine.compile_chains(chain_stack((chain,), (512.0,)), [knobs])
        assert by_list.achieved_pps[0, 0] == want
        assert by_row.achieved_pps[0, 0] == want
        assert plan.step([3e6]).achieved_pps[0] == want

    def test_per_knob_llc_and_contention(self):
        engine = PacketEngine()
        chain = default_chain()
        knobs = [KnobSettings(), KnobSettings(batch_size=64)]
        llc = np.asarray([4e6, 12e6])
        bt = engine.step_batch(chain, knobs, [5e5], 1518.0, llc_bytes=llc, contention=1.4)
        for k in range(2):
            s = engine.step(
                chain, knobs[k], 5e5, 1518.0, llc_bytes=float(llc[k]), contention=1.4
            )
            np.testing.assert_allclose(
                bt.achieved_pps[k, 0], s.achieved_pps, rtol=RTOL, atol=ATOL
            )

    def test_batch_properties_match_sample_properties(self):
        engine = PacketEngine()
        bt = engine.step_batch(default_chain(), [KnobSettings()], [0.0, 5e5], 1518.0)
        empp = bt.energy_per_mpacket
        eff = bt.energy_efficiency
        for l in range(2):
            s = bt.sample(0, l)
            if np.isinf(s.energy_per_mpacket):
                assert np.isinf(empp[0, l])
            else:
                np.testing.assert_allclose(empp[0, l], s.energy_per_mpacket)
            np.testing.assert_allclose(eff[0, l], s.energy_efficiency)

    def test_validation(self):
        engine = PacketEngine()
        chain = default_chain()
        with pytest.raises(ValueError):
            engine.step_batch(chain, [], [1e5], 1518.0)
        with pytest.raises(ValueError):
            engine.step_batch(chain, [KnobSettings()], [-1.0], 1518.0)
        with pytest.raises(ValueError):
            engine.step_batch(chain, [KnobSettings()], [1e5], 0.0)
        with pytest.raises(ValueError):
            engine.step_batch(chain, np.zeros((2, 4)), [1e5], 1518.0)

    def test_rejects_empty_grids_alike(self):
        engine = PacketEngine()
        chain = default_chain()
        for empty in ([], np.empty((0, 5))):
            with pytest.raises(ValueError, match="at least one setting"):
                engine.step_batch(chain, empty, [1e5], 1518.0)

    def test_rejects_non_finite_inputs(self):
        engine = PacketEngine()
        chain = default_chain()
        arr = np.stack([KnobSettings().as_array()] * 3)
        for col in range(5):
            for bad in (np.nan, np.inf):
                grid = arr.copy()
                grid[1, col] = bad
                with pytest.raises(ValueError, match="knob grid"):
                    engine.step_batch(chain, grid, [1e5], 1518.0)
        with pytest.raises(ValueError, match="non-negative"):
            engine.step_batch(chain, arr, [1e5, np.nan], 1518.0)
        with pytest.raises(ValueError, match="positive"):
            engine.step_batch(chain, arr, [1e5], [64.0, np.nan])
        for bad in (np.inf, [64.0, np.inf]):
            with pytest.raises(ValueError, match="finite"):
                engine.step_batch(chain, arr, [1e5], bad)
        plan = engine.compile_chains(chain_stack((chain,), (1518.0,)), arr[:1])
        with pytest.raises(ValueError, match="non-negative"):
            plan.step([np.nan])
        # An infinite offer stays legal: the NIC line rate clamps it.
        bt = engine.step_batch(chain, arr, [np.inf], 1518.0)
        assert np.all(bt.achieved_pps == bt.achieved_pps[0, 0])
        assert plan.step([np.inf]).achieved_pps[0] == bt.achieved_pps[0, 0]


class TestPacketAxis:
    """``step_batch`` over a packet-size axis vs. per-size scalar calls."""

    @pytest.mark.parametrize("polling", [PollingMode.ADAPTIVE, PollingMode.POLL])
    @pytest.mark.parametrize("cat", [True, False])
    def test_matches_per_size_batches(self, polling, cat):
        rng = np.random.default_rng(17)
        engine = PacketEngine(polling=polling, cat_enabled=cat)
        chain = heavy_chain()
        grid = [random_knobs(rng) for _ in range(6)]
        loads = np.linspace(1e5, 2e6, 4)
        pkts = [64.0, 512.0, 1518.0]
        bt3 = engine.step_batch(chain, grid, loads, pkts, 1.0)
        assert bt3.shape == (6, 4, 3)
        for p, pkt in enumerate(pkts):
            bt2 = engine.step_batch(chain, grid, loads, pkt, 1.0)
            for field in (
                "achieved_pps",
                "throughput_gbps",
                "llc_miss_rate_per_s",
                "cpu_utilization",
                "cpu_cores_busy",
                "power_w",
                "energy_j",
                "dropped_pps",
                "latency_s",
            ):
                np.testing.assert_array_max_ulp(
                    getattr(bt3, field)[:, :, p], getattr(bt2, field), maxulp=1
                )
            np.testing.assert_array_max_ulp(
                bt3.cycles_per_packet[:, p, :], bt2.cycles_per_packet, maxulp=1
            )
            np.testing.assert_array_max_ulp(
                bt3.chain_rate_pps[:, p], bt2.chain_rate_pps, maxulp=1
            )
            np.testing.assert_array_max_ulp(
                bt3.nf_utilization[:, :, p, :], bt2.nf_utilization, maxulp=1
            )

    def test_sample_requires_packet_index(self):
        engine = PacketEngine()
        chain = default_chain()
        bt3 = engine.step_batch(chain, [KnobSettings()], [1e5], [64.0, 1518.0])
        with pytest.raises(ValueError, match="packet-size axis"):
            bt3.sample(0, 0)
        sample = bt3.sample(0, 0, 1)
        assert sample.packet_bytes == 1518.0
        bt2 = engine.step_batch(chain, [KnobSettings()], [1e5], 1518.0)
        with pytest.raises(ValueError, match="no packet-size axis"):
            bt2.sample(0, 0, 0)
        assert sample == bt2.sample(0, 0)

    def test_single_size_axis_matches_scalar(self):
        engine = PacketEngine()
        chain = default_chain()
        grid = [random_knobs(np.random.default_rng(3)) for _ in range(4)]
        loads = [2e5, 8e5]
        bt1 = engine.step_batch(chain, grid, loads, [512.0])
        bt0 = engine.step_batch(chain, grid, loads, 512.0)
        np.testing.assert_array_max_ulp(
            bt1.achieved_pps[:, :, 0], bt0.achieved_pps, maxulp=1
        )
        np.testing.assert_array_max_ulp(bt1.power_w[:, :, 0], bt0.power_w, maxulp=1)

    def test_validation(self):
        engine = PacketEngine()
        chain = default_chain()
        with pytest.raises(ValueError):
            engine.step_batch(chain, [KnobSettings()], [1e5], [64.0, -1.0])
        with pytest.raises(ValueError):
            engine.step_batch(chain, [KnobSettings()], [1e5], [])
        with pytest.raises(ValueError):
            engine.step_batch(chain, [KnobSettings()], [-1.0], [64.0])


class TestChainCosts:
    def test_scalar_knobs_price_as_one_by_one_columns(self):
        # One cost body serves the scalar step and the plans: scalar
        # knobs and the same knobs as (1, 1) columns give the same bits,
        # clamped miss and hit ratios included.
        rng = np.random.default_rng(5)
        for trial in range(80):
            engine = PacketEngine(cat_enabled=trial % 3 != 0)
            chain = random_chain(rng)
            knobs = random_knobs(rng)
            profile = chain_profile(chain, float(rng.uniform(64, 1518)), 64)
            scalar = (
                float(knobs.batch_size),
                knobs.dma_bytes,
                float(10.0 ** rng.uniform(3.0, 7.5)),
                float(rng.uniform(1.0, 3.0)),
            )
            got = engine._chain_costs(profile, *scalar)
            cols = engine._chain_costs(profile, *(np.full((1, 1), x) for x in scalar))
            for a, b in zip(got, cols):
                assert a.shape == (len(chain),) and b.shape == (1, len(chain))
                assert a.tobytes() == b[0].tobytes(), trial


class TestInfraBusy:
    """The ONVM Rx/Tx infra threads' busy cores: one product per engine."""

    @pytest.mark.parametrize("polling", list(PollingMode))
    def test_every_reader_sees_the_engine_product(self, polling):
        params = EngineParams(infra_cores=3.0, infra_util_poll=0.9, infra_util_adaptive=0.25)
        util = params.infra_util_poll if polling == PollingMode.POLL else params.infra_util_adaptive
        engine = PacketEngine(params=params, polling=polling)
        assert engine.infra_busy == params.infra_cores * util
        assert PerNFEngine(params=params, polling=polling).infra_busy == engine.infra_busy
        # An empty node's interval is its infra threads alone.
        node = Node(params=params, polling=polling)
        node.step_all({})
        base = node.server.cpu.base_freq_ghz
        assert node.meter.total_joules == engine.node_power(
            engine.infra_busy, params.infra_cores, base
        )

    def test_samples_add_it_to_the_nf_cores(self):
        # Under POLL every allocated NF core busy-spins, so a sample's busy
        # cores are exactly the NF cores plus the infra product, on the
        # scalar step, the compiled grid and the per-NF step alike.
        chain = default_chain()
        params = EngineParams(infra_cores=3.0, infra_util_poll=0.9)
        engine = PacketEngine(params=params, polling=PollingMode.POLL)
        knobs = KnobSettings(cpu_share=1.25)
        nf_cores = 1.25 * len(chain)
        s = engine.step(chain, knobs, 1e6, 1518.0, 1.0)
        assert s.cpu_cores_busy == pytest.approx(nf_cores + engine.infra_busy)
        batch = engine.step_batch(chain, [knobs], [1e6], 1518.0, 1.0)
        assert batch.cpu_cores_busy[0, 0] == pytest.approx(nf_cores + engine.infra_busy)
        per_nf = PerNFEngine(params=params, polling=PollingMode.POLL)
        shares = [0.5, 1.0, 1.5][: len(chain)]
        s = per_nf.step_per_nf(
            chain, [KnobSettings(cpu_share=x) for x in shares], 1e6, 1518.0, 1.0
        )
        assert s.cpu_cores_busy == pytest.approx(sum(shares) + per_nf.infra_busy)


class TestChainProfile:
    def test_profile_is_cached(self):
        chain = default_chain()
        a = chain_profile(chain, 1518.0, 64)
        b = chain_profile(chain, 1518.0, 64)
        assert a is b
        c = chain_profile(chain, 64.0, 64)
        assert c is not a

    def test_profile_arrays_immutable(self):
        prof = chain_profile(default_chain(), 256.0, 64)
        with pytest.raises(ValueError):
            prof.compute_cycles[0] = 1.0

    def test_profile_matches_catalog(self):
        chain = heavy_chain()
        prof = chain_profile(chain, 512.0, 64)
        assert prof.names == tuple(nf.name for nf in chain.nfs)
        np.testing.assert_allclose(
            prof.compute_cycles, [nf.cycles_for_packet(512.0) for nf in chain.nfs]
        )
        assert prof.total_state_bytes == chain.total_state_bytes
