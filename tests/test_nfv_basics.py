"""NF catalog, chains and knob-settings tests."""

import numpy as np
import pytest

from repro.nfv.chain import (
    ServiceChain,
    default_chain,
    heavy_chain,
    light_chain,
    microbench_chains,
)
from repro.nfv.knobs import (
    DEFAULT_RANGES,
    KNOB_NAMES,
    KnobRanges,
    KnobSettings,
    baseline_settings,
)
from repro.nfv.nf import CATALOG, EPC, IDS, NAT, NFSpec, get_nf


class TestNFCatalog:
    def test_catalog_contains_paper_nfs(self):
        for name in ("nat", "firewall", "router", "ids", "epc", "tunnel_gw"):
            assert name in CATALOG

    def test_get_nf_unknown(self):
        with pytest.raises(KeyError):
            get_nf("quantum_router")

    def test_relative_weights(self):
        # Heavyweight NFs must dominate lightweight ones (§4.2).
        assert EPC.cycles_for_packet(1518) > NAT.cycles_for_packet(1518) * 5
        assert IDS.cycles_for_packet(1518) > NAT.cycles_for_packet(1518) * 5

    def test_cycles_scale_with_payload(self):
        assert IDS.cycles_for_packet(1518) > IDS.cycles_for_packet(64)

    def test_header_only_nf_flat_cycles(self):
        assert NAT.cycles_for_packet(64) == NAT.cycles_for_packet(1518)

    def test_touched_lines_header_only(self):
        assert NAT.touched_lines(1518) == pytest.approx(2.0)

    def test_touched_lines_dpi_reads_everything(self):
        # IDS touches the full frame (capped at the frame's line count).
        assert IDS.touched_lines(1518) == pytest.approx(1518 / 64)

    def test_touched_lines_small_packet_cap(self):
        assert NAT.touched_lines(64) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            NFSpec("bad", -1, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            NFSpec("bad", 1, 0, 0, 0, 2.0)
        with pytest.raises(ValueError):
            NFSpec("", 1, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            NAT.cycles_for_packet(0)


class TestServiceChain:
    def test_default_is_three_nfs(self):
        assert len(default_chain()) == 3

    def test_state_aggregation(self):
        c = default_chain()
        assert c.total_state_bytes == sum(nf.state_bytes for nf in c.nfs)

    def test_chain_cycles_sum(self):
        c = default_chain()
        assert c.cycles_for_packet(1518) == pytest.approx(
            sum(nf.cycles_for_packet(1518) for nf in c.nfs)
        )

    def test_from_names(self):
        c = ServiceChain.from_names("x", ["nat", "ids"])
        assert [nf.name for nf in c] == ["nat", "ids"]

    def test_variants(self):
        assert len(light_chain()) == 2
        assert len(heavy_chain()) == 3
        c1, c2 = microbench_chains()
        assert c1.name == "C1" and c2.name == "C2"

    def test_validation(self):
        with pytest.raises(ValueError):
            ServiceChain("", (NAT,))
        with pytest.raises(ValueError):
            ServiceChain("x", ())


class TestKnobSettings:
    def test_baseline_defaults(self):
        k = baseline_settings()
        assert k.cpu_freq_ghz == 2.1  # performance governor
        assert k.batch_size == 32  # DPDK default burst

    def test_clamping_ranges(self):
        k = KnobSettings(cpu_share=99, cpu_freq_ghz=5.0, llc_fraction=1.0, dma_mb=999, batch_size=10_000)
        c = k.clamped()
        r = DEFAULT_RANGES
        assert c.cpu_share == r.max_cpu_share
        assert c.cpu_freq_ghz == r.max_freq_ghz
        assert c.dma_mb == r.max_dma_mb
        assert c.batch_size == r.max_batch

    def test_clamping_snaps_to_ladder(self):
        from repro.hw.cpu import CpuSpec

        k = KnobSettings(cpu_freq_ghz=1.77).clamped(cpu=CpuSpec())
        assert k.cpu_freq_ghz == pytest.approx(1.8)

    def test_array_roundtrip(self):
        k = KnobSettings(cpu_share=1.2, cpu_freq_ghz=1.6, llc_fraction=0.4, dma_mb=12.5, batch_size=96)
        assert KnobSettings.from_array(k.as_array()) == k

    def test_dict_roundtrip(self):
        # One serialization: keys in KNOB_NAMES order, an int batch size,
        # and the settings rebuild from it exactly.
        k = KnobSettings(cpu_share=1.2, cpu_freq_ghz=1.6, llc_fraction=0.4, dma_mb=12.5, batch_size=96)
        row = k.to_dict()
        assert tuple(row) == KNOB_NAMES
        assert type(row["batch_size"]) is int
        assert KnobSettings(**row) == k
        assert row["cpu_share"] == k.as_array()[0]

    def test_with_updates(self):
        k = KnobSettings().with_updates(batch_size=128)
        assert k.batch_size == 128
        assert k.cpu_share == KnobSettings().cpu_share

    def test_dma_bytes(self):
        assert KnobSettings(dma_mb=2.0).dma_bytes == pytest.approx(2e6)

    def test_validation(self):
        with pytest.raises(ValueError):
            KnobSettings(cpu_share=0)
        with pytest.raises(ValueError):
            KnobSettings(llc_fraction=0.0)
        with pytest.raises(ValueError):
            KnobSettings(batch_size=0)
        with pytest.raises(ValueError):
            KnobSettings.from_array(np.zeros(4))
        with pytest.raises(ValueError):
            KnobRanges(min_cpu_share=2.0, max_cpu_share=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "field", ["cpu_share", "cpu_freq_ghz", "llc_fraction", "dma_mb", "batch_size"]
    )
    def test_non_finite_values_rejected(self, field, bad):
        # clamped() would keep a NaN (max(nan, lo) is nan) and price it.
        with pytest.raises(ValueError, match=field):
            KnobSettings(**{field: bad})
