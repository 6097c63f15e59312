"""Traffic substrate tests: packet sizes, generators, flow analysis."""

import numpy as np
import pytest

from repro.traffic.analysis import FlowAnalyzer
from repro.traffic.generators import (
    CompositeGenerator,
    ConstantRateGenerator,
    DiurnalGenerator,
    MMPPGenerator,
    PoissonGenerator,
    TraceReplayGenerator,
    paper_flows,
)
from repro.traffic.packet import IMIX, LARGE_PACKETS, SMALL_PACKETS, PacketSizeDistribution
from repro.utils.units import line_rate_pps


class TestPacketSizes:
    def test_fixed(self):
        d = PacketSizeDistribution.fixed(64)
        assert d.mean_bytes == 64
        assert np.all(d.sample(10, rng=0) == 64)

    def test_imix_mean(self):
        # 7x64 + 4x570 + 1x1518 over 12 packets.
        expected = (7 * 64 + 4 * 570 + 1518) / 12
        assert IMIX.mean_bytes == pytest.approx(expected)

    def test_weights_normalized(self):
        assert sum(IMIX.weights) == pytest.approx(1.0)

    def test_sampling_respects_support(self):
        samples = IMIX.sample(200, rng=1)
        assert set(np.unique(samples)) <= {64.0, 570.0, 1518.0}

    def test_validation(self):
        with pytest.raises(ValueError):
            PacketSizeDistribution((32.0,), (1.0,))  # below min frame
        with pytest.raises(ValueError):
            PacketSizeDistribution((64.0,), (-1.0,))
        with pytest.raises(ValueError):
            PacketSizeDistribution((64.0, 128.0), (1.0,))

    def test_negative_sample_count(self):
        with pytest.raises(ValueError):
            SMALL_PACKETS.sample(-1)


class TestConstantRate:
    def test_constant(self):
        g = ConstantRateGenerator(5e5)
        assert g.rate_at(0, 1) == 5e5
        assert g.rate_at(100, 1) == 5e5

    def test_line_rate_factory(self):
        g = ConstantRateGenerator.line_rate(10.0, LARGE_PACKETS)
        assert g.rate_pps == pytest.approx(line_rate_pps(10.0, 1518))

    def test_negative_rate(self):
        with pytest.raises(ValueError):
            ConstantRateGenerator(-1.0)


class TestPoisson:
    def test_mean_matches(self):
        g = PoissonGenerator(1e5)
        rng = np.random.default_rng(0)
        rates = [g.rate_at(t, 1.0, rng) for t in range(300)]
        assert np.mean(rates) == pytest.approx(1e5, rel=0.02)

    def test_large_lambda_normal_path(self):
        g = PoissonGenerator(1e8)
        r = g.rate_at(0, 1.0, np.random.default_rng(0))
        assert r == pytest.approx(1e8, rel=0.01)

    def test_nonnegative(self):
        g = PoissonGenerator(5.0)
        rng = np.random.default_rng(0)
        assert all(g.rate_at(t, 1.0, rng) >= 0 for t in range(100))

    def test_bad_dt(self):
        with pytest.raises(ValueError):
            PoissonGenerator(1e3).rate_at(0, 0.0)


class TestMMPP:
    def test_visits_both_states(self):
        g = MMPPGenerator(1e4, 1e6, p_low_to_high=0.5, p_high_to_low=0.5)
        rng = np.random.default_rng(3)
        states = set()
        for t in range(200):
            g.rate_at(t, 1.0, rng)
            states.add(g.state)
        assert states == {0, 1}

    def test_rates_bracket_levels(self):
        g = MMPPGenerator(1e4, 1e6)
        rng = np.random.default_rng(1)
        rates = [g.rate_at(t, 1.0, rng) for t in range(500)]
        assert min(rates) < 5e4
        assert max(rates) > 5e5

    def test_validation(self):
        with pytest.raises(ValueError):
            MMPPGenerator(1e6, 1e4)
        with pytest.raises(ValueError):
            MMPPGenerator(1.0, 2.0, p_low_to_high=1.5)


class TestDiurnal:
    def test_period_structure(self):
        g = DiurnalGenerator(1e6, trough_fraction=0.2, period_s=100, noise_std=0.0)
        trough = g.rate_at(0, 1e-9)
        peak = g.rate_at(50, 1e-9)
        assert peak > trough * 4
        assert trough == pytest.approx(0.2e6, rel=0.01)

    def test_periodicity(self):
        g = DiurnalGenerator(1e6, period_s=100, noise_std=0.0)
        assert g.rate_at(10, 1e-9) == pytest.approx(g.rate_at(110, 1e-9))

    def test_validation(self):
        with pytest.raises(ValueError):
            DiurnalGenerator(-1.0)
        with pytest.raises(ValueError):
            DiurnalGenerator(1.0, trough_fraction=2.0)


class TestTraceReplay:
    def test_replays_values(self):
        g = TraceReplayGenerator([10.0, 20.0, 30.0], trace_dt_s=1.0)
        assert g.rate_at(0.0, 1.0) == 10.0
        assert g.rate_at(1.0, 1.0) == 20.0

    def test_loops(self):
        g = TraceReplayGenerator([10.0, 20.0], trace_dt_s=1.0, loop=True)
        assert g.rate_at(2.0, 1.0) == 10.0

    def test_no_loop_holds_last(self):
        g = TraceReplayGenerator([10.0, 20.0], trace_dt_s=1.0, loop=False)
        assert g.rate_at(50.0, 1.0) == 20.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TraceReplayGenerator([])
        with pytest.raises(ValueError):
            TraceReplayGenerator([-1.0])


class TestComposite:
    def test_sums_rates(self):
        g = CompositeGenerator(
            [ConstantRateGenerator(1e5), ConstantRateGenerator(2e5)]
        )
        assert g.rate_at(0, 1.0) == pytest.approx(3e5)

    def test_blended_packet_sizes(self):
        g = CompositeGenerator(
            [
                ConstantRateGenerator(1e5, SMALL_PACKETS),
                ConstantRateGenerator(1e5, LARGE_PACKETS),
            ]
        )
        g.rate_at(0, 1.0)
        assert g.packet_sizes.mean_bytes == pytest.approx((64 + 1518) / 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CompositeGenerator([])


class TestPaperFlows:
    def test_five_flows_sum_to_line_rate(self):
        flows = paper_flows(5)
        total = sum(f.rate_pps for f in flows)
        assert total == pytest.approx(line_rate_pps(10.0, 1518))

    def test_flows_are_staggered(self):
        flows = paper_flows(5)
        rates = [f.rate_pps for f in flows]
        assert rates == sorted(rates)
        assert rates[0] < rates[-1]


class TestFlowAnalyzer:
    def test_arrival_rate_estimation(self):
        fa = FlowAnalyzer()
        for _ in range(50):
            fa.observe(1e5, 1.0)
        assert fa.arrival_rate() == pytest.approx(1e5, rel=1e-6)

    def test_validation(self):
        fa = FlowAnalyzer()
        with pytest.raises(ValueError):
            fa.observe(-1.0, 1.0)
        with pytest.raises(ValueError):
            fa.observe(1.0, 0.0)
