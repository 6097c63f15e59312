"""Streaming-statistics tests."""

import pytest

from repro.utils.stats import EWMA, DoubleExponentialSmoothing


class TestEWMA:
    def test_none_before_update(self):
        assert EWMA(0.5).value is None

    def test_first_sample_is_value(self):
        e = EWMA(0.3)
        e.update(10.0)
        assert e.value == pytest.approx(10.0)

    def test_converges_to_constant(self):
        e = EWMA(0.2)
        for _ in range(200):
            e.update(5.0)
        assert e.value == pytest.approx(5.0)

    def test_tracks_recent(self):
        e = EWMA(0.5)
        for _ in range(10):
            e.update(0.0)
        for _ in range(10):
            e.update(10.0)
        assert e.value > 9.0

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            EWMA(0.0)
        with pytest.raises(ValueError):
            EWMA(1.5)


class TestDES:
    def test_constant_series(self):
        des = DoubleExponentialSmoothing()
        for _ in range(20):
            des.update(7.0)
        assert des.forecast(1) == pytest.approx(7.0, rel=1e-6)

    def test_linear_trend_extrapolates(self):
        des = DoubleExponentialSmoothing(alpha=0.8, beta=0.8)
        for i in range(50):
            des.update(2.0 * i)
        # Next value should be close to 2*50 = 100.
        assert des.forecast(1) == pytest.approx(100.0, rel=0.05)

    def test_longer_horizon_extends_trend(self):
        des = DoubleExponentialSmoothing(alpha=0.8, beta=0.8)
        for i in range(50):
            des.update(float(i))
        assert des.forecast(5) > des.forecast(1)

    def test_forecast_before_data_is_zero(self):
        assert DoubleExponentialSmoothing().forecast(1) == 0.0

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            DoubleExponentialSmoothing().forecast(0)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            DoubleExponentialSmoothing(alpha=0.0)
        with pytest.raises(ValueError):
            DoubleExponentialSmoothing(beta=2.0)

    def test_initialized_flag(self):
        des = DoubleExponentialSmoothing()
        assert not des.initialized
        des.update(1.0)
        des.update(2.0)
        assert des.initialized
