"""Per-NF action space tests (the full Eq. 7 granularity)."""

import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest

from repro.core.env import NFVEnv
from repro.core.per_nf_env import PerNFEnv
from repro.core.sla import EnergyEfficiencySLA
from repro.experiments.ablations import ablation_granularity
from repro.experiments.common import DEFAULT_SCALE
from repro.nfv.chain import default_chain, heavy_chain
from repro.nfv.knobs import KnobSettings
from repro.nfv.per_nf import PerNFEngine
from repro.traffic.generators import DiurnalGenerator
from repro.utils.units import line_rate_pps

CHAIN = default_chain()
LINE = line_rate_pps(10.0, 1518)


def uniform_knobs(**kw) -> list[KnobSettings]:
    return [KnobSettings(**kw) for _ in CHAIN]


class TestPerNFEngine:
    def test_matches_chain_level_for_uniform_knobs_shape(self):
        eng = PerNFEngine()
        knobs = uniform_knobs(cpu_share=1.0, cpu_freq_ghz=2.0, llc_fraction=0.3,
                              dma_mb=12, batch_size=128)
        s = eng.step_per_nf(CHAIN, knobs, LINE, 1518, 1.0)
        assert 0 < s.achieved_pps <= LINE
        assert len(s.per_nf) == len(CHAIN)
        assert 0 <= s.cpu_utilization <= 1

    def test_llc_normalization_on_oversubscription(self):
        eng = PerNFEngine()
        knobs = uniform_knobs(llc_fraction=0.9)  # 3 x 0.9 > 1
        allocs = eng.per_nf_llc_bytes(CHAIN, knobs)
        allocatable = eng.server.llc.way_bytes * eng.server.llc.allocatable_ways
        assert sum(allocs) <= allocatable * (1 + 1e-9)
        assert allocs[0] == pytest.approx(allocs[1])

    def test_llc_kept_when_fits(self):
        eng = PerNFEngine()
        knobs = uniform_knobs(llc_fraction=0.2)
        allocs = eng.per_nf_llc_bytes(CHAIN, knobs)
        allocatable = eng.server.llc.way_bytes * eng.server.llc.allocatable_ways
        assert allocs[0] == pytest.approx(0.2 * allocatable)

    def test_knob_count_validation(self):
        eng = PerNFEngine()
        with pytest.raises(ValueError):
            eng.step_per_nf(CHAIN, [KnobSettings()], LINE, 1518, 1.0)

    def test_bottleneck_is_the_starved_nf(self):
        # Give the heavy IDS (index 2) almost nothing: it must bind.
        eng = PerNFEngine()
        knobs = [
            KnobSettings(cpu_share=1.5, cpu_freq_ghz=2.1, llc_fraction=0.2, dma_mb=12, batch_size=128),
            KnobSettings(cpu_share=1.5, cpu_freq_ghz=2.1, llc_fraction=0.2, dma_mb=12, batch_size=128),
            KnobSettings(cpu_share=0.1, cpu_freq_ghz=1.2, llc_fraction=0.2, dma_mb=12, batch_size=128),
        ]
        s = eng.step_per_nf(CHAIN, knobs, LINE, 1518, 1.0)
        rates = [t.service_rate_pps for t in s.per_nf]
        assert int(np.argmin(rates)) == 2
        assert s.achieved_pps <= rates[2] + 1e-6

    def test_targeted_allocation_beats_uniform_at_equal_cores(self):
        # Same total core budget: giving the IDS the cores the NAT/router
        # don't need must outperform the even split (the point of per-NF
        # granularity on heterogeneous chains).
        eng = PerNFEngine()
        even = uniform_knobs(cpu_share=1.0, cpu_freq_ghz=2.1, llc_fraction=0.3,
                             dma_mb=12, batch_size=192)
        targeted = [
            even[0].with_updates(cpu_share=0.6),
            even[1].with_updates(cpu_share=0.9),
            even[2].with_updates(cpu_share=1.5),
        ]
        s_even = eng.step_per_nf(CHAIN, even, LINE, 1518, 1.0)
        s_tgt = eng.step_per_nf(CHAIN, targeted, LINE, 1518, 1.0)
        assert sum(k.cpu_share for k in targeted) == pytest.approx(3.0)
        assert s_tgt.achieved_pps > 1.2 * s_even.achieved_pps

    def test_per_nf_frequency_mix(self):
        # Low frequency on light NFs, high on the heavy one: throughput is
        # set by the heavy NF while energy stays below all-max.
        eng = PerNFEngine()
        all_max = uniform_knobs(cpu_share=1.0, cpu_freq_ghz=2.1, llc_fraction=0.3,
                                dma_mb=12, batch_size=192)
        mixed = [
            all_max[0].with_updates(cpu_freq_ghz=1.2),
            all_max[1].with_updates(cpu_freq_ghz=1.2),
            all_max[2],
        ]
        s_max = eng.step_per_nf(CHAIN, all_max, LINE, 1518, 1.0)
        s_mix = eng.step_per_nf(CHAIN, mixed, LINE, 1518, 1.0)
        assert s_mix.achieved_pps == pytest.approx(s_max.achieved_pps, rel=0.05)
        assert s_mix.energy_j < s_max.energy_j

    def test_energy_consistency(self):
        eng = PerNFEngine()
        knobs = uniform_knobs()
        s = eng.step_per_nf(CHAIN, knobs, LINE, 1518, 4.0)
        assert s.energy_j == pytest.approx(s.power_w * 4.0)

    def test_input_validation(self):
        eng = PerNFEngine()
        with pytest.raises(ValueError):
            eng.step_per_nf(CHAIN, uniform_knobs(), -1.0, 1518, 1.0)
        # NaN loads and NaN or infinite frame sizes priced NaN telemetry.
        for load, pkt in ((np.nan, 1518), (1e5, np.nan), (1e5, np.inf), (1e5, 0.0)):
            with pytest.raises(ValueError):
                eng.step_per_nf(CHAIN, uniform_knobs(), load, pkt, 1.0)
        # An infinite load stays legal: the NIC clamps it.
        sample = eng.step_per_nf(CHAIN, uniform_knobs(), np.inf, 1518, 1.0)
        assert np.isfinite(sample.achieved_pps) and np.isfinite(sample.latency_s)


class TestPerNFEnv:
    def test_action_dim(self):
        env = PerNFEnv(EnergyEfficiencySLA(), episode_len=4, rng=0)
        assert env.action_dim == 15
        assert env.state_dim == 4

    def test_episode_runs(self):
        env = PerNFEnv(EnergyEfficiencySLA(), episode_len=3, rng=0)
        obs = env.reset()
        assert obs.shape == (4,)
        for i in range(3):
            r = env.step(np.zeros(15))
        assert r.done
        assert "per_nf_knobs" in r.info
        assert len(r.info["per_nf_knobs"]) == 3
        assert r.info["bottleneck_nf"] in {nf.name for nf in env.chains[0]}

    def test_step_before_reset(self):
        env = PerNFEnv(EnergyEfficiencySLA(), episode_len=3, rng=0)
        with pytest.raises(RuntimeError):
            env.step(np.zeros(15))

    def test_ddpg_learns_on_per_nf_space(self):
        from repro.core.training import train_ddpg
        from repro.rl.ddpg import DDPGConfig

        def env(rng):
            return PerNFEnv(
                DEFAULT_SCALE.sla("max_throughput"), episode_len=8, rng=rng
            )

        _, history = train_ddpg(
            env(1),
            env(2),
            episodes=25,
            test_every=25,
            ddpg_config=DDPGConfig(hidden=(48, 48), batch_size=32),
            warmup_transitions=64,
            rng=5,
        )
        assert history.final.throughput_gbps > 1.3 * history.records[0].throughput_gbps

    def test_validation(self):
        with pytest.raises(ValueError):
            PerNFEnv(EnergyEfficiencySLA(), episode_len=0)
        env = PerNFEnv(EnergyEfficiencySLA(), episode_len=3, rng=0)
        env.reset()
        with pytest.raises(ValueError, match=r"\(15,\)"):
            env.step(np.zeros(5))

    def test_is_an_nfv_env_that_prices_per_nf(self):
        # The lifecycle is NFVEnv's; only the pricing hooks differ.
        assert issubclass(PerNFEnv, NFVEnv)
        for name in ("reset", "step", "run_policy_episode", "state_dim"):
            assert name not in vars(PerNFEnv), name

    def test_reset_knobs_apply_to_every_nf(self):
        knobs = KnobSettings(cpu_share=1.2, cpu_freq_ghz=1.8, llc_fraction=0.2,
                             dma_mb=8, batch_size=64)
        env = PerNFEnv(EnergyEfficiencySLA(), episode_len=2, rng=0)
        obs = env.reset(knobs=knobs)
        expected = PerNFEngine().step_per_nf(
            CHAIN, [knobs] * len(CHAIN), LINE, 1518, 1.0
        )
        assert obs.tolist() == env.encoder.encode_all([expected]).tolist()


#: SHA-256 prefix of the per-NF golden payload (Python 3.11).
GOLDEN_DIGEST = "1072fa899be30b82"


def _knob_row(k):
    return [k.cpu_share, k.cpu_freq_ghz, k.llc_fraction, k.dma_mb, k.batch_size]


def _sample_row(s):
    return {
        "chain": [s.offered_pps, s.achieved_pps, s.throughput_gbps, s.energy_j,
                  s.cpu_utilization, s.latency_s],
        "nfs": [[t.name, t.cycles_per_packet, t.service_rate_pps, t.utilization,
                 t.misses_per_packet] for t in s.per_nf],
    }


def _episodes(env, actions, n=3):
    episodes = []
    for _ in range(n):
        steps = [env.reset().tolist()]
        for _ in range(env.episode_len):
            r = env.step(actions.uniform(-1.0, 1.0, env.action_dim))
            steps.append({
                "obs": r.observation.tolist(),
                "reward": r.reward,
                "done": r.done,
                "sla": bool(r.info["sla_satisfied"]),
                "sample": _sample_row(r.sample),
                "samples": {n: _sample_row(s) for n, s in r.samples.items()},
                "knobs": {n: _knob_row(k) for n, k in r.per_chain_knobs.items()},
                "mean_knobs": _knob_row(r.knobs),
                "per_nf_knobs": [_knob_row(k) for k in r.info["per_nf_knobs"]],
                "bottleneck_nf": r.info["bottleneck_nf"],
            })
        episodes.append(steps)
    return episodes


def golden_payload():
    """Seeded random-action episodes on two recycled per-NF envs (the
    second under a noisy diurnal load, which pins the clock that runs on
    across episodes and the draw order), then the granularity ablation's
    rows."""
    maxt = PerNFEnv(DEFAULT_SCALE.sla("max_throughput"), episode_len=6, rng=3)
    mine = PerNFEnv(
        DEFAULT_SCALE.sla("min_energy"),
        chain=heavy_chain(),
        generator=DiurnalGenerator(8e5, period_s=20.0),
        episode_len=6,
        rng=4,
    )
    actions = np.random.default_rng(17)
    rows, _ = ablation_granularity(episodes=30, test_every=10)
    return {
        "maxt": _episodes(maxt, actions),
        "mine": _episodes(mine, actions),
        "ablation": [asdict(r) for r in rows],
    }


def test_per_nf_golden():
    blob = json.dumps(golden_payload(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16] == GOLDEN_DIGEST
