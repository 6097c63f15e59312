"""SLA reward / state-encoder / knob-space tests."""

import numpy as np
import pytest

from repro.core.knobs import KNOB_NAMES, KnobSpace
from repro.core.sla import (
    EnergyEfficiencySLA,
    MaxThroughputSLA,
    MinEnergySLA,
    RewardScales,
)
from repro.core.state import StateEncoder, StateScales
from repro.nfv.cluster_kernel import BlockTelemetry
from repro.nfv.engine import TelemetrySample
from repro.nfv.knobs import KnobSettings
from repro.scenario.catalog import SLAS


def sample(throughput=5.0, energy=50.0, util=0.5, arrival=5e5, dt=1.0):
    return TelemetrySample(
        dt_s=dt,
        offered_pps=arrival,
        achieved_pps=arrival,
        packet_bytes=1518.0,
        throughput_gbps=throughput,
        llc_miss_rate_per_s=1e6,
        cpu_utilization=util,
        cpu_cores_busy=util * 4,
        power_w=energy / dt,
        energy_j=energy,
        dropped_pps=0.0,
        latency_s=1e-3,
        arrival_rate_pps=arrival,
    )


class TestMaxThroughputSLA:
    def test_reward_is_normalized_throughput_within_cap(self):
        sla = MaxThroughputSLA(60.0)
        s = sample(throughput=5.0, energy=50.0)
        assert sla.satisfied(s)
        assert sla.reward(s) == pytest.approx(0.5)

    def test_violation_penalized(self):
        sla = MaxThroughputSLA(40.0, violation_slope=0.5)
        s = sample(energy=80.0)
        assert not sla.satisfied(s)
        assert sla.reward(s) == pytest.approx(-0.5)

    def test_strict_paper_rule(self):
        sla = MaxThroughputSLA(40.0, violation_slope=0.0)
        assert sla.reward(sample(energy=80.0)) == 0.0

    def test_cap_scales_with_interval(self):
        sla = MaxThroughputSLA(40.0)
        s = sample(energy=70.0, dt=2.0)  # cap = 80 J over 2 s
        assert sla.satisfied(s)

    def test_validation(self):
        with pytest.raises(ValueError):
            MaxThroughputSLA(0.0)
        with pytest.raises(ValueError):
            MaxThroughputSLA(10.0, violation_slope=-1.0)

    def test_describe(self):
        assert "MaxThroughput" in MaxThroughputSLA(10.0).describe()


class TestMinEnergySLA:
    def test_reward_rises_as_energy_falls(self):
        sla = MinEnergySLA(4.0, RewardScales(energy_j=100.0))
        frugal = sla.reward(sample(throughput=5.0, energy=20.0))
        hungry = sla.reward(sample(throughput=5.0, energy=90.0))
        assert frugal > hungry

    def test_floor_violation_penalized(self):
        sla = MinEnergySLA(7.5)
        s = sample(throughput=5.0)
        assert not sla.satisfied(s)
        assert sla.reward(s) < 0

    def test_floor_met(self):
        sla = MinEnergySLA(4.0)
        assert sla.satisfied(sample(throughput=5.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            MinEnergySLA(0.0)


class TestEnergyEfficiencySLA:
    def test_always_satisfied(self):
        assert EnergyEfficiencySLA().satisfied(sample())

    def test_reward_is_normalized_ratio(self):
        sla = EnergyEfficiencySLA(RewardScales(throughput_gbps=10, energy_j=100))
        s = sample(throughput=5.0, energy=50.0)
        assert sla.reward(s) == pytest.approx(1.0)

    def test_zero_energy_guard(self):
        s = sample(energy=0.0)
        assert EnergyEfficiencySLA().reward(s) == 0.0

    def test_more_efficient_scores_higher(self):
        sla = EnergyEfficiencySLA()
        assert sla.reward(sample(8.0, 40.0)) > sla.reward(sample(8.0, 80.0))


class TestElementwisePredicates:
    """One ``satisfied`` serves a sample and a block of samples."""

    BOUNDS = {
        "max_throughput": {"energy_cap_j": 40.0},
        "min_energy": {"throughput_floor_gbps": 4.0},
        "energy_efficiency": {},
        "latency": {"latency_bound_s": 1e-3},
    }
    DT = 0.5

    def block(self, seed: int) -> BlockTelemetry:
        rng = np.random.default_rng(seed)
        shape = (6, 5)
        energy = rng.uniform(0.0, 40.0, shape)
        throughput = rng.uniform(0.0, 8.0, shape)
        latency = rng.uniform(0.0, 2e-3, shape)
        achieved = rng.uniform(0.0, 1e6, shape)
        # The edges: each bound met exactly, and chains that forwarded
        # nothing (one of them well inside the latency bound).
        energy[0] = 40.0 * self.DT
        throughput[1] = 4.0
        latency[2] = 1e-3
        achieved[3] = 0.0
        latency[3, :2] = 5e-4
        return BlockTelemetry(
            dt_s=self.DT,
            achieved_pps=achieved,
            throughput_gbps=throughput,
            energy_j=energy,
            latency_s=latency,
            power_w=energy / self.DT,
            utilization=np.full(shape, 0.5),
            node_joules=np.zeros((6, 1)),
        )

    def sample_at(self, block: BlockTelemetry, i: int, r: int) -> TelemetrySample:
        return TelemetrySample(
            dt_s=block.dt_s,
            offered_pps=float(block.achieved_pps[i, r]),
            achieved_pps=float(block.achieved_pps[i, r]),
            packet_bytes=1518.0,
            throughput_gbps=float(block.throughput_gbps[i, r]),
            llc_miss_rate_per_s=0.0,
            cpu_utilization=0.5,
            cpu_cores_busy=1.0,
            power_w=float(block.energy_j[i, r]) / block.dt_s,
            energy_j=float(block.energy_j[i, r]),
            dropped_pps=0.0,
            latency_s=float(block.latency_s[i, r]),
            arrival_rate_pps=float(block.achieved_pps[i, r]),
        )

    def test_grid_covers_every_registered_sla(self):
        assert set(SLAS.names()) == set(self.BOUNDS)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("name", sorted(BOUNDS))
    def test_block_equals_per_sample(self, name, seed):
        sla = SLAS.get(name)(**self.BOUNDS[name])
        block = self.block(seed)
        got = sla.satisfied(block)
        assert isinstance(got, np.ndarray)
        assert got.dtype == bool and got.shape == block.energy_j.shape
        want = [
            [sla.satisfied(self.sample_at(block, i, r)) for r in range(5)]
            for i in range(6)
        ]
        # A sample gets a Python bool: it is written into JSON artifacts.
        assert {type(v) for row in want for v in row} == {bool}
        assert got.tolist() == want

    def test_edges(self):
        block = self.block(0)
        energy_cap = SLAS.get("max_throughput")(energy_cap_j=40.0)
        assert energy_cap.satisfied(block)[0].all()
        floor = SLAS.get("min_energy")(throughput_floor_gbps=4.0)
        assert floor.satisfied(block)[1].all()
        latency = SLAS.get("latency")(latency_bound_s=1e-3).satisfied(block)
        assert latency[2].tolist() == (block.achieved_pps[2] > 0).tolist()
        assert not latency[3].any()
        assert EnergyEfficiencySLA().satisfied(block).all()

    def test_numpy_scalar_fields_still_give_a_python_bool(self):
        s = sample()
        s.energy_j = np.float64(s.energy_j)
        s.throughput_gbps = np.float64(s.throughput_gbps)
        s.latency_s = np.float64(s.latency_s)
        for name, params in self.BOUNDS.items():
            assert type(SLAS.get(name)(**params).satisfied(s)) is bool, name


class TestFactory:
    def test_all_names(self):
        assert isinstance(
            SLAS.get("max_throughput")(energy_cap_j=10.0), MaxThroughputSLA
        )
        assert isinstance(
            SLAS.get("min_energy")(throughput_floor_gbps=5.0), MinEnergySLA
        )
        assert isinstance(SLAS.get("energy_efficiency")(), EnergyEfficiencySLA)

    def test_unknown(self):
        with pytest.raises(KeyError, match="max_profit"):
            SLAS.get("max_profit")

    def test_scales_validation(self):
        with pytest.raises(ValueError):
            RewardScales(throughput_gbps=0.0)


class TestStateEncoder:
    def test_dim_matches_eq8(self):
        assert StateEncoder().dim == 4

    def test_normalization(self):
        enc = StateEncoder(StateScales(10.0, 100.0, 1e6))
        obs = enc.encode_all([sample(throughput=5.0, energy=50.0, util=0.5, arrival=5e5)])
        assert obs == pytest.approx([0.5, 0.5, 0.5, 0.5])

    def test_interval_scaling(self):
        enc = StateEncoder(StateScales(10.0, 100.0, 1e6))
        obs = enc.encode_all([sample(energy=100.0, dt=2.0)])
        assert obs[1] == pytest.approx(0.5)  # 100 J over 2 s vs 100 J/s scale

    def test_bounds_shape(self):
        lo, hi = StateEncoder().bounds()
        assert lo.shape == hi.shape == (4,)
        assert np.all(hi > lo)

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            StateScales(throughput_gbps=0.0)


class TestKnobSpace:
    def test_dim(self):
        assert KnobSpace().dim == len(KNOB_NAMES) == 5

    def test_extremes_map_to_range_limits(self):
        space = KnobSpace()
        lo = space.to_settings(-np.ones(5))
        hi = space.to_settings(np.ones(5))
        r = space.ranges
        assert lo.cpu_share == pytest.approx(r.min_cpu_share)
        assert hi.cpu_share == pytest.approx(r.max_cpu_share)
        assert lo.cpu_freq_ghz == pytest.approx(r.min_freq_ghz)
        assert hi.cpu_freq_ghz == pytest.approx(r.max_freq_ghz)
        assert lo.dma_mb == pytest.approx(r.min_dma_mb)
        assert hi.dma_mb == pytest.approx(r.max_dma_mb)
        assert lo.batch_size == r.min_batch
        assert hi.batch_size == r.max_batch

    def test_roundtrip(self):
        space = KnobSpace()
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.uniform(-1, 1, 5)
            settings = space.to_settings(a)
            a2 = space.to_action(settings)
            # Batch rounding quantizes hardest near batch=1, where one
            # integer step spans a large slice of the log range.
            assert np.allclose(a[:4], a2[:4], atol=1e-6)
            assert abs(a[4] - a2[4]) < 0.16
            # Settings-level roundtrip is stable once quantized (up to
            # float noise through the log/exp maps).
            assert np.allclose(
                space.to_settings(a2).as_array(), settings.as_array(), rtol=1e-12
            )

    def test_clipping_out_of_range_actions(self):
        space = KnobSpace()
        s = space.to_settings(np.asarray([5.0, -5.0, 0.0, 0.0, 0.0]))
        assert s.cpu_share == pytest.approx(space.ranges.max_cpu_share)
        assert s.cpu_freq_ghz == pytest.approx(space.ranges.min_freq_ghz)

    def test_log_scaling_midpoint(self):
        # Midpoint of the log scale is the geometric mean.
        space = KnobSpace()
        mid = space.to_settings(np.zeros(5))
        r = space.ranges
        assert mid.dma_mb == pytest.approx(
            np.sqrt(r.min_dma_mb * r.max_dma_mb), rel=1e-6
        )

    def test_wrong_shape(self):
        with pytest.raises(ValueError):
            KnobSpace().to_settings(np.zeros(4))
