"""Fan et al. power model and energy meter tests."""

import numpy as np
import pytest

from repro.hw.power import EnergyMeter, PowerModelParams, ServerPowerModel, record_many


class TestPowerModel:
    def test_idle_endpoint(self):
        m = ServerPowerModel()
        assert m.power(0.0) == pytest.approx(m.params.p_idle_w)

    def test_full_endpoint(self):
        m = ServerPowerModel()
        assert m.power(1.0) == pytest.approx(m.params.p_max_w)

    def test_monotone_in_utilization(self):
        m = ServerPowerModel()
        us = np.linspace(0, 1, 50)
        ps = m.power(us)
        assert np.all(np.diff(ps) > 0)

    def test_nonlinear_shape_above_linear(self):
        # 2u - u^h >= u on [0,1] for h <= 2: the Fan model sits above the
        # linear interpolation (ISCA'07 Fig. 2 behaviour).
        m = ServerPowerModel()
        p = m.params
        u = 0.5
        linear = p.p_idle_w + (p.p_max_w - p.p_idle_w) * u
        assert m.power(u) >= linear

    def test_monotone_in_frequency(self):
        m = ServerPowerModel()
        assert m.power(0.8, 1.2) < m.power(0.8, 2.1)

    def test_pmax_cubic_scaling(self):
        m = ServerPowerModel()
        p = m.params
        expected = p.p_idle_w + (p.p_max_w - p.p_idle_w) * (
            p.static_fraction + (1 - p.static_fraction) * (1.2 / 2.1) ** 3
        )
        assert m.p_max_at(1.2) == pytest.approx(expected)

    def test_idle_fraction_scales_idle_power(self):
        m = ServerPowerModel()
        assert m.power(0.0, idle_fraction=0.5) == pytest.approx(
            0.5 * m.params.p_idle_w
        )

    def test_clipping(self):
        m = ServerPowerModel()
        assert m.power(-1.0) == m.power(0.0)
        assert m.power(2.0) == m.power(1.0)

    def test_energy(self):
        m = ServerPowerModel()
        assert m.energy(1.0, 20.0) == pytest.approx(20.0 * m.params.p_max_w)

    def test_energy_negative_duration(self):
        with pytest.raises(ValueError):
            ServerPowerModel().energy(0.5, -1.0)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            PowerModelParams(p_idle_w=100, p_max_w=50)
        with pytest.raises(ValueError):
            PowerModelParams(h=0.0)
        with pytest.raises(ValueError):
            PowerModelParams(static_fraction=1.5)
        with pytest.raises(ValueError):
            PowerModelParams(min_freq_ghz=3.0, base_freq_ghz=2.0)


class TestCalibration:
    def test_recovers_true_h(self):
        true = PowerModelParams(h=1.4)
        gen_model = ServerPowerModel(true)
        us = np.linspace(0.05, 0.95, 30)
        watts = np.asarray(gen_model.power(us))
        fit_model = ServerPowerModel(PowerModelParams(h=0.5))
        h = fit_model.calibrate_h(us, watts)
        assert h == pytest.approx(1.4, abs=0.02)
        assert fit_model.params.h == h

    def test_calibration_validates_shapes(self):
        m = ServerPowerModel()
        with pytest.raises(ValueError):
            m.calibrate_h(np.ones(3), np.ones(4))
        with pytest.raises(ValueError):
            m.calibrate_h(np.array([]), np.array([]))


class TestEnergyMeter:
    def test_integration(self):
        meter = EnergyMeter()
        meter.record(100.0, 2.0, packets=1e6)
        meter.record(50.0, 2.0, packets=1e6)
        assert meter.total_joules == pytest.approx(300.0)
        assert meter.total_seconds == pytest.approx(4.0)
        assert meter.average_power() == pytest.approx(75.0)

    def test_joules_per_mpacket(self):
        meter = EnergyMeter()
        meter.record(100.0, 1.0, packets=2e6)
        assert meter.joules_per_mpacket() == pytest.approx(50.0)

    def test_validation(self):
        meter = EnergyMeter()
        with pytest.raises(ValueError):
            meter.record(-1.0, 1.0)
        with pytest.raises(ValueError):
            meter.record(1.0, -1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_power_and_dt(self, bad):
        # One NaN or infinite sample would leave total_joules non-finite
        # for good; every meter entry point refuses it before any meter
        # moves.
        meters = [EnergyMeter(), EnergyMeter()]
        meters[0].record(10.0, 1.0, 5.0)
        before = [vars(m).copy() for m in meters]
        with pytest.raises(ValueError, match="power"):
            meters[0].record(bad, 1.0)
        with pytest.raises(ValueError, match="dt"):
            meters[0].record(10.0, bad)
        packets = np.zeros((2, 2))
        power = np.full((2, 2), 10.0)
        with pytest.raises(ValueError, match="dt"):
            record_many(meters, power, bad, packets)
        power[-1, -1] = bad
        for rows in (power, power[1:]):  # the block and one-interval paths
            with pytest.raises(ValueError, match="power"):
                record_many(meters, rows, 1.0, packets[: len(rows)])
        assert [vars(m) for m in meters] == before

    def test_reset(self):
        meter = EnergyMeter()
        meter.record(5.0, 1.0)
        meter.reset()
        assert meter.total_joules == 0.0
        assert meter.average_power() == 0.0
