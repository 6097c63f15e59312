"""DMA buffer and NIC model tests."""

import numpy as np
import pytest

from repro.hw.dma import DmaBufferModel, DmaSpec
from repro.hw.nic import NicSpec
from repro.utils.units import mb_to_bytes, pps_to_gbps


class TestDmaSpec:
    def test_defaults_valid(self):
        spec = DmaSpec()
        assert spec.min_bytes < spec.max_bytes

    def test_validation(self):
        with pytest.raises(ValueError):
            DmaSpec(min_bytes=0)
        with pytest.raises(ValueError):
            DmaSpec(drain_latency_s=0)
        with pytest.raises(ValueError):
            DmaSpec(burstiness=0.5)


class TestDmaBufferModel:
    def test_clamp(self):
        m = DmaBufferModel()
        assert m.clamp(0.0) == m.spec.min_bytes
        assert m.clamp(1e12) == m.spec.max_bytes

    def test_capacity_scales_with_buffer(self):
        m = DmaBufferModel()
        small = m.ring_capacity_packets(mb_to_bytes(1), 1518)
        big = m.ring_capacity_packets(mb_to_bytes(10), 1518)
        assert big > small * 5

    def test_small_packets_fit_more(self):
        m = DmaBufferModel()
        assert m.ring_capacity_packets(mb_to_bytes(4), 64) > m.ring_capacity_packets(
            mb_to_bytes(4), 1518
        )

    def test_delivery_ratio_one_when_underloaded(self):
        m = DmaBufferModel()
        assert m.delivery_ratio(mb_to_bytes(40), 1518, 1e3) == 1.0

    def test_delivery_ratio_drops_when_overloaded(self):
        m = DmaBufferModel()
        r = m.delivery_ratio(mb_to_bytes(0.5), 1518, 5e6)
        assert 0.0 < r < 0.2

    def test_delivery_monotone_in_buffer(self):
        m = DmaBufferModel()
        rates = [
            m.delivery_ratio(mb_to_bytes(x), 1518, 8e5) for x in np.linspace(0.5, 40, 20)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))

    def test_zero_arrival(self):
        m = DmaBufferModel()
        assert m.delivery_ratio(mb_to_bytes(1), 1518, 0.0) == 1.0

    def test_validation(self):
        m = DmaBufferModel()
        with pytest.raises(ValueError):
            m.ring_capacity_packets(mb_to_bytes(1), 0)
        with pytest.raises(ValueError):
            m.delivery_ratio(mb_to_bytes(1), 1518, -1.0)


class TestNicSpec:
    def test_max_pps_is_line_rate(self):
        spec = NicSpec()
        assert pps_to_gbps(spec.max_pps(1518), 1518) == pytest.approx(10.0, rel=1e-6)
        assert spec.max_pps(64) == pytest.approx(14.88e6, rel=1e-3)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            NicSpec(line_rate_gbps=0)
        with pytest.raises(ValueError):
            NicSpec(ports=0)
