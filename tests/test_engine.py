"""Packet-engine physics tests: invariants and qualitative behaviours."""

import numpy as np
import pytest

from repro.nfv.chain import default_chain
from repro.nfv.engine import EngineParams, PacketEngine, PollingMode, chain_stack
from repro.nfv.knobs import KnobSettings
from repro.utils.units import line_rate_pps

CHAIN = default_chain()
LINE_1518 = line_rate_pps(10.0, 1518)
TUNED = KnobSettings(
    cpu_share=1.5, cpu_freq_ghz=2.0, llc_fraction=0.9, dma_mb=16, batch_size=160
)


@pytest.fixture
def engine():
    return PacketEngine()


class TestInvariants:
    def test_throughput_never_exceeds_offered(self, engine):
        s = engine.step(CHAIN, TUNED, 1e5, 1518, 1.0)
        assert s.achieved_pps <= 1e5 + 1e-9

    def test_throughput_never_exceeds_line_rate(self, engine):
        s = engine.step(CHAIN, TUNED, 1e9, 64, 1.0)
        assert s.achieved_pps <= engine.server.nic.max_pps(64) + 1e-6

    def test_energy_is_power_times_dt(self, engine):
        s = engine.step(CHAIN, TUNED, LINE_1518, 1518, 5.0)
        assert s.energy_j == pytest.approx(s.power_w * 5.0)

    def test_power_within_model_bounds(self, engine):
        s = engine.step(CHAIN, TUNED, LINE_1518, 1518, 1.0)
        assert 0 < s.power_w <= engine.server.power.p_max_w

    def test_utilization_in_unit_interval(self, engine):
        for rate in [0.0, 1e5, LINE_1518]:
            s = engine.step(CHAIN, TUNED, rate, 1518, 1.0)
            assert 0.0 <= s.cpu_utilization <= 1.0

    def test_zero_offered_zero_achieved(self, engine):
        s = engine.step(CHAIN, TUNED, 0.0, 1518, 1.0)
        assert s.achieved_pps == 0.0
        assert s.dropped_pps == 0.0

    def test_drops_account_for_shortfall(self, engine):
        s = engine.step(CHAIN, KnobSettings(), LINE_1518, 1518, 1.0)
        assert s.dropped_pps == pytest.approx(s.offered_pps - s.achieved_pps)

    def test_miss_rate_nonnegative(self, engine):
        s = engine.step(CHAIN, TUNED, LINE_1518, 1518, 1.0)
        assert s.llc_miss_rate_per_s >= 0.0

    def test_latency_positive_and_finite(self, engine):
        s = engine.step(CHAIN, TUNED, LINE_1518, 1518, 1.0)
        assert 0.0 < s.latency_s < 10.0

    def test_per_nf_telemetry_complete(self, engine):
        s = engine.step(CHAIN, TUNED, LINE_1518, 1518, 1.0)
        assert [t.name for t in s.per_nf] == [nf.name for nf in CHAIN.nfs]

    def test_input_validation(self, engine):
        with pytest.raises(ValueError):
            engine.step(CHAIN, TUNED, -1.0, 1518, 1.0)
        with pytest.raises(ValueError):
            engine.step(CHAIN, TUNED, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            engine.step(CHAIN, TUNED, 1.0, 1518, 0.0)
        with pytest.raises(ValueError):
            engine.step(CHAIN, TUNED, float("nan"), 1518, 1.0)
        with pytest.raises(ValueError):
            engine.step(CHAIN, TUNED, 1.0, float("nan"), 1.0)
        # An infinite frame size is not: it would price NaN throughput.
        with pytest.raises(ValueError):
            engine.step(CHAIN, TUNED, 1.0, float("inf"), 1.0)
        # An infinite offer is legal: the NIC line rate clamps it.
        assert engine.step(CHAIN, TUNED, float("inf"), 1518, 1.0).achieved_pps > 0


class TestKnobEffects:
    def test_more_cores_more_throughput_when_cpu_bound(self, engine):
        lo = engine.step(CHAIN, TUNED.with_updates(cpu_share=0.5), LINE_1518, 1518, 1.0)
        hi = engine.step(CHAIN, TUNED.with_updates(cpu_share=1.5), LINE_1518, 1518, 1.0)
        assert hi.achieved_pps > lo.achieved_pps * 1.5

    def test_higher_frequency_more_throughput(self, engine):
        lo = engine.step(CHAIN, TUNED.with_updates(cpu_freq_ghz=1.2), LINE_1518, 1518, 1.0)
        hi = engine.step(CHAIN, TUNED.with_updates(cpu_freq_ghz=2.1), LINE_1518, 1518, 1.0)
        assert hi.achieved_pps > lo.achieved_pps

    def test_higher_frequency_more_power(self, engine):
        # At equal work the frequency term should dominate.
        lo = engine.step(CHAIN, TUNED.with_updates(cpu_freq_ghz=1.2), 1e5, 1518, 1.0)
        hi = engine.step(CHAIN, TUNED.with_updates(cpu_freq_ghz=2.1), 1e5, 1518, 1.0)
        assert hi.power_w > lo.power_w

    def test_small_llc_hurts(self, engine):
        small = engine.step(CHAIN, TUNED.with_updates(llc_fraction=0.06), LINE_1518, 1518, 1.0)
        big = engine.step(CHAIN, TUNED.with_updates(llc_fraction=0.9), LINE_1518, 1518, 1.0)
        assert big.achieved_pps > small.achieved_pps
        assert small.llc_miss_rate_per_s / max(small.achieved_pps, 1) > (
            big.llc_miss_rate_per_s / max(big.achieved_pps, 1)
        )

    def test_tiny_dma_caps_delivery(self, engine):
        tiny = engine.step(CHAIN, TUNED.with_updates(dma_mb=0.5), LINE_1518, 1518, 1.0)
        ok = engine.step(CHAIN, TUNED.with_updates(dma_mb=16), LINE_1518, 1518, 1.0)
        assert ok.achieved_pps > tiny.achieved_pps * 3

    def test_batch_amortizes_overheads(self, engine):
        b1 = engine.step(CHAIN, TUNED.with_updates(batch_size=1), LINE_1518, 1518, 1.0)
        b128 = engine.step(CHAIN, TUNED.with_updates(batch_size=128), LINE_1518, 1518, 1.0)
        assert b128.achieved_pps > b1.achieved_pps * 1.5

    def test_excess_batch_overflows_small_llc(self, engine):
        knobs = TUNED.with_updates(llc_fraction=0.27, cpu_share=1.2)
        mid = engine.step(CHAIN, knobs.with_updates(batch_size=150), LINE_1518, 1518, 1.0)
        over = engine.step(CHAIN, knobs.with_updates(batch_size=256), LINE_1518, 1518, 1.0)
        assert over.achieved_pps < mid.achieved_pps


class TestModes:
    def test_poll_mode_burns_full_cores(self):
        eng = PacketEngine(polling=PollingMode.POLL)
        s = eng.step(CHAIN, KnobSettings(), 1e3, 1518, 1.0)  # nearly idle
        assert s.cpu_utilization == pytest.approx(1.0)

    def test_adaptive_mode_tracks_work(self):
        eng = PacketEngine(polling=PollingMode.ADAPTIVE)
        idle = eng.step(CHAIN, KnobSettings(), 1e3, 1518, 1.0)
        busy = eng.step(CHAIN, KnobSettings(), LINE_1518, 1518, 1.0)
        assert idle.cpu_utilization < busy.cpu_utilization

    def test_poll_mode_costs_more_energy_at_idle(self):
        poll = PacketEngine(polling=PollingMode.POLL, park_idle_cores=False)
        adaptive = PacketEngine(polling=PollingMode.ADAPTIVE)
        k = KnobSettings()
        assert (
            poll.step(CHAIN, k, 1e3, 1518, 1.0).power_w
            > adaptive.step(CHAIN, k, 1e3, 1518, 1.0).power_w
        )

    def test_no_cat_shrinks_effective_llc(self):
        cat = PacketEngine(cat_enabled=True)
        nocat = PacketEngine(cat_enabled=False)
        eff_cat, cont_cat = cat.effective_llc_bytes(9e6)
        eff_no, cont_no = nocat.effective_llc_bytes(9e6)
        assert eff_no < eff_cat
        assert cont_no > cont_cat == 1.0

    def test_no_cat_lowers_throughput(self):
        cat = PacketEngine(cat_enabled=True)
        nocat = PacketEngine(cat_enabled=False)
        k = KnobSettings()
        assert (
            nocat.step(CHAIN, k, LINE_1518, 1518, 1.0).achieved_pps
            < cat.step(CHAIN, k, LINE_1518, 1518, 1.0).achieved_pps
        )

    def test_parking_saves_idle_power(self):
        parked = PacketEngine(park_idle_cores=True)
        unparked = PacketEngine(park_idle_cores=False)
        k = TUNED
        assert (
            parked.step(CHAIN, k, 1e5, 1518, 1.0).power_w
            < unparked.step(CHAIN, k, 1e5, 1518, 1.0).power_w
        )


class TestPowerAccounting:
    def test_more_allocated_cores_cost_more(self, engine):
        # The RL exploit check: idle provisioned cores are never free.
        lo = engine.step(CHAIN, TUNED.with_updates(cpu_share=0.5), LINE_1518, 1518, 1.0)
        hi = engine.step(CHAIN, TUNED.with_updates(cpu_share=1.5), LINE_1518, 1518, 1.0)
        assert hi.power_w > lo.power_w

    def test_node_power_monotone_in_busy(self, engine):
        p1 = engine.node_power(1.0, 8.0, 2.0)
        p2 = engine.node_power(4.0, 8.0, 2.0)
        assert p2 > p1

    def test_node_power_monotone_in_allocated(self, engine):
        p1 = engine.node_power(1.0, 4.0, 2.0)
        p2 = engine.node_power(1.0, 12.0, 2.0)
        assert p2 > p1

    def test_energy_efficiency_property(self, engine):
        s = engine.step(CHAIN, TUNED, LINE_1518, 1518, 1.0)
        assert s.energy_efficiency == pytest.approx(
            s.throughput_gbps / (s.energy_j / 1e3)
        )

    def test_energy_per_mpacket(self, engine):
        s = engine.step(CHAIN, TUNED, LINE_1518, 1518, 2.0)
        expected = s.energy_j / (s.achieved_pps * 2.0 / 1e6)
        assert s.energy_per_mpacket == pytest.approx(expected)

    def test_energy_per_mpacket_inf_when_idle(self, engine):
        s = engine.step(CHAIN, TUNED, 0.0, 1518, 1.0)
        assert s.energy_per_mpacket == float("inf")


class TestReceiveLivelock:
    def test_overload_degrades_first_nf(self):
        # A single lightweight NF with tiny CPU share: once delivered rate
        # exceeds capacity, drops eat rx cycles and goodput falls below
        # the no-livelock service rate.
        from repro.nfv.chain import ServiceChain
        from repro.nfv.nf import NAT

        eng = PacketEngine()
        chain = ServiceChain("solo", (NAT,))
        knobs = KnobSettings(cpu_share=0.1, cpu_freq_ghz=1.2, dma_mb=40, batch_size=64)
        plan = eng.compile_chains(
            chain_stack((chain,), (64.0,)), [knobs], llc_bytes=[9e6], contention=1.0
        )
        rate = float(plan.step([0.0]).chain_rate_pps[0])
        offered = line_rate_pps(10.0, 64)
        s = eng.step(chain, knobs, offered, 64, 1.0)
        assert s.achieved_pps < rate  # livelock took a bite

    def test_no_livelock_when_underloaded(self, engine):
        s = engine.step(CHAIN, TUNED, 1e4, 1518, 1.0)
        assert s.achieved_pps == pytest.approx(1e4)


class TestFixedVolume:
    def test_energy_scales_with_volume(self, engine):
        e1, _ = engine.fixed_volume_energy(CHAIN, TUNED, LINE_1518, 1518, 1e6)
        e2, _ = engine.fixed_volume_energy(CHAIN, TUNED, LINE_1518, 1518, 2e6)
        assert e2 == pytest.approx(2 * e1)

    def test_zero_rate_is_infinite_energy(self, engine):
        e, _ = engine.fixed_volume_energy(CHAIN, TUNED, 0.0, 1518, 1e6)
        assert e == float("inf")

    def test_validation(self, engine):
        with pytest.raises(ValueError):
            engine.fixed_volume_energy(CHAIN, TUNED, 1.0, 1518, 0.0)
