"""Oracle-Static grid search and the scenario-level batched knob scan."""

import numpy as np
import pytest

from repro.baselines import OracleStaticController, StaticBaseline, default_knob_grid, run_controller
from repro.baselines.oracle import score_candidates
from repro.nfv.chain import default_chain, heavy_chain
from repro.nfv.engine import BatchTelemetry, EngineParams, PacketEngine
from repro.nfv.knobs import KnobSettings
from repro.scenario.catalog import CONTROLLERS
from repro.scenario.runner import run, scan_knob_grid
from repro.scenario.spec import ScenarioSpec
from repro.traffic.generators import ConstantRateGenerator


def _spec(**overrides):
    base = dict(
        name="oracle-smoke",
        controller="oracle-static",
        sla="energy_efficiency",
        chain="default",
        traffic="line_rate",
        intervals=5,
        episodes=1,
        seed=3,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestOracleStatic:
    def test_beats_static_baseline_on_efficiency(self):
        chain = default_chain()
        gen = ConstantRateGenerator.line_rate()
        oracle = run_controller(
            OracleStaticController(), chain, gen, intervals=6, rng=0
        )
        static = run_controller(StaticBaseline(), chain, gen, intervals=6, rng=0)
        assert oracle.energy_efficiency > static.energy_efficiency

    def test_search_uses_the_platform_engine(self):
        # A heavier physics profile must be visible to the search: the
        # oracle scores candidates on the engine handed to prepare(),
        # not on a default-parameter engine.
        chain = default_chain()
        heavy = PacketEngine(params=EngineParams(mem_factor=3.0, mbuf_cycles=500.0))
        ctrl = OracleStaticController()
        ctrl.prepare(chain, heavy)
        assert ctrl._engine is heavy
        knobs_heavy = ctrl.search(chain, 5e5, 1518.0)
        ctrl_default = OracleStaticController()
        ctrl_default.prepare(chain)
        knobs_default = ctrl_default.search(chain, 5e5, 1518.0)
        assert isinstance(knobs_heavy, KnobSettings)
        assert isinstance(knobs_default, KnobSettings)
        # Same grid, different physics -> scores must differ.
        bt_h = heavy.step_batch(chain, ctrl.grid, [5e5], 1518.0)
        bt_d = PacketEngine().step_batch(chain, ctrl.grid, [5e5], 1518.0)
        assert not np.allclose(bt_h.energy_efficiency, bt_d.energy_efficiency)

    def test_research_matches_search_winner(self):
        # Every search prices the candidates in one step_batch grid; its
        # winner must be the one a fresh grid scored with the same
        # objective picks.
        chain = default_chain()
        engine = PacketEngine()
        for objective in ("energy_efficiency", "max_throughput", "min_energy"):
            ctrl = OracleStaticController(objective=objective)
            ctrl.prepare(chain, engine)
            for load in (3e5, 8e5, 1.4e6):
                bt = engine.step_batch(chain, ctrl.grid, [load], 512.0)
                score = score_candidates(
                    objective,
                    throughput=bt.throughput_gbps[:, 0],
                    energy=bt.energy_j[:, 0],
                    energy_efficiency=bt.energy_efficiency[:, 0],
                    delivered_frac=bt.achieved_pps[:, 0] / load,
                    min_delivery=ctrl.min_delivery,
                )
                assert ctrl.search(chain, load, 512.0) == ctrl.grid[
                    int(np.argmax(score))
                ], (objective, load)

    def test_search_winner_matches_scalar_step_pricing(self):
        # The batched pricing must pick the candidate a loop of scalar
        # PacketEngine.step calls over the same grid picks.
        engine = PacketEngine()
        grid = default_knob_grid()[::17]
        for chain in (default_chain(), heavy_chain()):
            for objective in ("energy_efficiency", "max_throughput", "min_energy"):
                ctrl = OracleStaticController(objective=objective, grid=grid)
                ctrl.prepare(chain, engine)
                for load, pkt in ((3e5, 1518.0), (1.2e6, 256.0)):
                    steps = [engine.step(chain, k, load, pkt, 1.0) for k in grid]
                    score = score_candidates(
                        objective,
                        throughput=np.array([s.throughput_gbps for s in steps]),
                        energy=np.array([s.energy_j for s in steps]),
                        energy_efficiency=np.array([s.energy_efficiency for s in steps]),
                        delivered_frac=np.array([s.achieved_pps / load for s in steps]),
                        min_delivery=ctrl.min_delivery,
                    )
                    assert ctrl.search(chain, load, pkt) == grid[
                        int(np.argmax(score))
                    ], (chain.name, objective, load)

    def test_decide_searches_once_per_run(self):
        # The oracle locks in the winner for the first observed workload
        # and holds it when the workload shifts; reset() forgets it.
        chain = default_chain()
        engine = PacketEngine()
        ctrl = OracleStaticController()
        ctrl.prepare(chain, engine)
        searches = []
        search = ctrl.search
        ctrl.search = lambda *a, **kw: searches.append(a[1:]) or search(*a, **kw)
        low = engine.step(chain, KnobSettings(), 1e5, 1518.0)
        high = engine.step(chain, KnobSettings(), 2e6, 64.0)
        first = ctrl.decide(low, None, KnobSettings())
        for sample in (low, high, high):
            assert ctrl.decide(sample, None, first) is first
        assert searches == [(low.arrival_rate_pps, 1518.0)]
        ctrl.reset()
        shifted = ctrl.decide(high, None, first)
        assert searches[1:] == [(high.arrival_rate_pps, 64.0)]
        assert shifted != first

    def test_run_controller_threads_engine_params(self):
        # End-to-end: run_controller must hand the node's engine (with
        # custom EngineParams) to the oracle's prepare().
        ctrl = OracleStaticController()
        params = EngineParams(mem_factor=3.0)
        run_controller(
            ctrl,
            default_chain(),
            ConstantRateGenerator.line_rate(),
            intervals=2,
            engine_params=params,
            rng=0,
        )
        assert ctrl._engine is not None
        assert ctrl._engine.params is params

    def test_registered_in_scenario_layer(self):
        assert "oracle-static" in CONTROLLERS.names()
        result = run(_spec())
        assert result.mean_throughput_gbps > 0
        assert result.metrics["energy_efficiency"] > 0

    def test_objectives_change_the_pick(self):
        chain = default_chain()
        maxt = OracleStaticController(objective="max_throughput")
        mine = OracleStaticController(objective="min_energy")
        maxt.prepare(chain)
        mine.prepare(chain)
        k_t = maxt.search(chain, 7e5, 1518.0)
        k_e = mine.search(chain, 7e5, 1518.0)
        eng = PacketEngine()
        s_t = eng.step(chain, k_t, 7e5, 1518.0, 1.0)
        s_e = eng.step(chain, k_e, 7e5, 1518.0, 1.0)
        assert s_t.throughput_gbps >= s_e.throughput_gbps
        assert s_e.energy_j <= s_t.energy_j

    def test_validation(self):
        with pytest.raises(ValueError):
            OracleStaticController(objective="nope")
        with pytest.raises(ValueError):
            OracleStaticController(grid=[])
        with pytest.raises(ValueError):
            OracleStaticController(min_delivery=1.5)
        with pytest.raises(RuntimeError):
            ctrl = OracleStaticController()
            eng = PacketEngine()
            sample = eng.step(default_chain(), KnobSettings(), 5e5, 1518.0, 1.0)
            ctrl.decide(sample, None, KnobSettings())

    def test_default_grid_is_clamped_factorial(self):
        grid = default_knob_grid()
        assert len(grid) == 3 * 4 * 4 * 3 * 3
        for k in grid:
            assert 0.1 <= k.cpu_share <= 1.5
            assert 1 <= k.batch_size <= 256


class TestScanKnobGrid:
    def test_matches_direct_step_batch(self):
        spec = _spec(name="scan-smoke")
        knobs = [KnobSettings(), KnobSettings(batch_size=128)]
        bt = scan_knob_grid(spec, knobs, [2e5, 6e5], packet_bytes=1518.0)
        assert isinstance(bt, BatchTelemetry)
        assert bt.shape == (2, 2)
        direct = PacketEngine().step_batch(
            default_chain(), knobs, [2e5, 6e5], 1518.0, spec.interval_s
        )
        np.testing.assert_array_equal(bt.achieved_pps, direct.achieved_pps)
        np.testing.assert_array_equal(bt.energy_j, direct.energy_j)

    def test_defaults_come_from_the_traffic_model(self):
        bt = scan_knob_grid(_spec(name="scan-defaults"), [KnobSettings()])
        assert bt.shape == (1, 1)
        assert bt.offered_pps[0] > 0
        assert bt.packet_bytes > 0

    def test_respects_engine_params(self):
        spec_hot = _spec(name="scan-hot", engine_params={"mem_factor": 3.0})
        spec_std = _spec(name="scan-std")
        knobs = [KnobSettings()]
        hot = scan_knob_grid(spec_hot, knobs, [5e5], packet_bytes=1518.0)
        std = scan_knob_grid(spec_std, knobs, [5e5], packet_bytes=1518.0)
        assert hot.achieved_pps[0, 0] < std.achieved_pps[0, 0]
