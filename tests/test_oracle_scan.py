"""Oracle-Static grid search and the scenario-level batched knob scan."""

import numpy as np
import pytest

from repro.baselines import OracleStaticController, StaticBaseline, default_knob_grid, run_controller
from repro.baselines.oracle import score_candidates
from repro.nfv.chain import default_chain
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
        # Every search, first or periodic, prices candidates through the
        # cached K-row plan; its winner must be the one a fresh
        # step_batch grid scored with the same objective picks.
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

    def test_research_reuses_the_compiled_plan(self):
        chain = default_chain()
        ctrl = OracleStaticController()
        ctrl.prepare(chain, PacketEngine())
        ctrl.search(chain, 5e5, 512.0)
        plan = ctrl._plan
        ctrl.search(chain, 9e5, 512.0)  # new load, same plan
        assert ctrl._plan is plan
        ctrl.search(chain, 9e5, 1024.0)  # new frame size -> recompile
        assert ctrl._plan is not plan

    def test_periodic_research_tracks_workload_shifts(self):
        # Under research_every the oracle re-locks onto the current
        # workload; a drastic load shift must be able to change the pick.
        chain = default_chain()
        engine = PacketEngine()
        ctrl = OracleStaticController(research_every=1)
        ctrl.prepare(chain, engine)
        low = ctrl.search(chain, 1e5, 1518.0)
        high = ctrl.search(chain, 2e6, 64.0)
        assert isinstance(low, KnobSettings) and isinstance(high, KnobSettings)
        assert low != high  # the re-search is live, not a cached no-op

    def test_decide_research_cadence(self):
        from repro.traffic.analysis import FlowAnalyzer

        chain = default_chain()
        engine = PacketEngine()
        ctrl = OracleStaticController(research_every=3)
        ctrl.prepare(chain, engine)
        sample = engine.step(chain, KnobSettings(), 5e5, 512.0)
        analyzer = FlowAnalyzer()
        searches = []
        search = ctrl.search
        ctrl.search = lambda *a, **kw: searches.append(a) or search(*a, **kw)
        first = ctrl.decide(sample, analyzer, KnobSettings())  # initial search
        assert first == ctrl._knobs and len(searches) == 1
        plan_before = ctrl._plan
        ctrl.decide(sample, analyzer, first)  # interval 2: hold
        assert len(searches) == 1  # no re-search yet
        ctrl.decide(sample, analyzer, first)  # interval 3: re-search fires
        assert len(searches) == 2
        assert ctrl._plan is plan_before  # same workload -> same cached plan
        with pytest.raises(ValueError):
            OracleStaticController(research_every=0)

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
