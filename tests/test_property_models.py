"""Property-based tests on the hardware / platform models."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.knobs import KnobSpace
from repro.hw.cache import capacity_miss_ratio, ddio_hit_ratio, prefetch_efficiency
from repro.hw.power import ServerPowerModel
from repro.nfv.chain import default_chain
from repro.nfv.engine import PacketEngine, chain_stack
from repro.nfv.knobs import KnobSettings

CHAIN = default_chain()
ENGINE = PacketEngine()

knob_strategy = st.builds(
    KnobSettings,
    cpu_share=st.floats(min_value=0.1, max_value=1.5),
    cpu_freq_ghz=st.floats(min_value=1.2, max_value=2.1),
    llc_fraction=st.floats(min_value=0.05, max_value=1.0),
    dma_mb=st.floats(min_value=0.5, max_value=40.0),
    batch_size=st.integers(min_value=1, max_value=256),
)


class TestPowerProperties:
    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=1.2, max_value=2.1),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_power_bounded(self, u, f, idle_frac):
        m = ServerPowerModel()
        p = m.power(u, f, idle_fraction=idle_frac)
        assert 0.0 <= p <= m.params.p_max_w + 1e-9

    @given(
        st.floats(min_value=0.0, max_value=0.98),
        st.floats(min_value=1.2, max_value=2.1),
    )
    def test_power_monotone_in_utilization(self, u, f):
        m = ServerPowerModel()
        assert m.power(u + 0.02, f) >= m.power(u, f) - 1e-12


class TestCacheProperties:
    @given(
        st.floats(min_value=0.0, max_value=1e9),
        st.floats(min_value=0.0, max_value=1e9),
    )
    def test_miss_ratio_in_unit_interval(self, ws, cap):
        if ws == 0 and cap == 0:
            return
        m = capacity_miss_ratio(ws, cap)
        assert 0.0 <= m <= 1.0

    @given(
        st.floats(min_value=0.0, max_value=1e8),
        st.floats(min_value=0.0, max_value=1e7),
        st.floats(min_value=0.0, max_value=2e7),
    )
    def test_ddio_hit_in_unit_interval(self, dma, ddio, alloc):
        h = ddio_hit_ratio(dma, ddio, alloc)
        assert 0.0 <= h <= 1.0

    @given(st.integers(min_value=1, max_value=4096))
    def test_prefetch_in_unit_interval(self, batch):
        assert 0.0 <= prefetch_efficiency(batch) < 1.0


class TestEngineProperties:
    @settings(deadline=None, max_examples=40)
    @given(
        knob_strategy,
        st.floats(min_value=0.0, max_value=2e6),
        st.sampled_from([64.0, 256.0, 1024.0, 1518.0]),
    )
    def test_step_invariants(self, knobs, offered, pkt):
        s = ENGINE.step(CHAIN, knobs, offered, pkt, 1.0)
        nic_cap = ENGINE.server.nic.max_pps(pkt)
        assert 0.0 <= s.achieved_pps <= min(offered, nic_cap) + 1e-6
        assert 0.0 <= s.cpu_utilization <= 1.0
        assert s.power_w >= 0.0
        assert s.energy_j >= 0.0
        assert s.dropped_pps >= -1e-9
        assert s.llc_miss_rate_per_s >= 0.0
        assert np.isfinite(s.latency_s)

    @settings(deadline=None, max_examples=30)
    @given(knob_strategy)
    def test_energy_consistent_with_power(self, knobs):
        s = ENGINE.step(CHAIN, knobs, 5e5, 1518.0, 3.0)
        assert np.isclose(s.energy_j, s.power_w * 3.0)

    @settings(deadline=None, max_examples=30)
    @given(knob_strategy, st.sampled_from([64.0, 1518.0]))
    def test_misses_per_packet_nonnegative(self, knobs, pkt):
        plan = ENGINE.compile_chains(
            chain_stack((CHAIN,), (pkt,)), [knobs], llc_bytes=[9e6], contention=1.0
        )
        mt = plan.step([0.0])
        assert np.all(mt.cycles_per_packet > 0)
        assert np.all(mt.misses_per_packet >= 0)


class TestKnobSpaceProperties:
    @settings(deadline=None)
    @given(st.lists(st.floats(min_value=-1, max_value=1), min_size=5, max_size=5))
    def test_actions_always_map_to_valid_settings(self, a):
        space = KnobSpace()
        s = space.to_settings(np.asarray(a))
        r = space.ranges
        assert r.min_cpu_share <= s.cpu_share <= r.max_cpu_share
        assert r.min_freq_ghz <= s.cpu_freq_ghz <= r.max_freq_ghz
        assert r.min_llc_fraction <= s.llc_fraction <= r.max_llc_fraction
        assert r.min_dma_mb <= s.dma_mb <= r.max_dma_mb + 1e-9
        assert r.min_batch <= s.batch_size <= r.max_batch

    @settings(deadline=None)
    @given(knob_strategy)
    def test_settings_always_map_to_bounded_actions(self, s):
        a = KnobSpace().to_action(s)
        assert np.all(a >= -1.0 - 1e-9)
        assert np.all(a <= 1.0 + 1e-9)
