"""CPU / DVFS ladder model tests."""

import pytest

from repro.hw.cpu import XEON_E5_2620V4_FREQS_GHZ, CpuSpec


class TestCpuSpec:
    def test_testbed_defaults(self):
        spec = CpuSpec()
        assert spec.total_cores == 16
        assert spec.min_freq_ghz == 1.2
        assert spec.base_freq_ghz == 2.1

    def test_ladder_covers_paper_range(self):
        assert XEON_E5_2620V4_FREQS_GHZ[0] == 1.2
        assert XEON_E5_2620V4_FREQS_GHZ[-1] == 2.1

    def test_clamp_snaps_to_ladder(self):
        spec = CpuSpec()
        assert spec.clamp_frequency(1.44) == pytest.approx(1.4)
        assert spec.clamp_frequency(1.46) == pytest.approx(1.5)

    def test_clamp_out_of_range(self):
        spec = CpuSpec()
        assert spec.clamp_frequency(0.5) == 1.2
        assert spec.clamp_frequency(9.9) == 2.1

    def test_step_down_up(self):
        spec = CpuSpec()
        assert spec.step_down(1.5) == pytest.approx(1.4)
        assert spec.step_up(1.5) == pytest.approx(1.6)

    def test_step_saturates(self):
        spec = CpuSpec()
        assert spec.step_down(1.2) == 1.2
        assert spec.step_up(2.1) == 2.1

    def test_invalid_cores(self):
        with pytest.raises(ValueError):
            CpuSpec(cores=0)
