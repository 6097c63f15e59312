"""Node, ONVM controller and cluster tests."""

import numpy as np
import pytest

from repro.nfv.chain import default_chain, light_chain, microbench_chains
from repro.nfv.cluster import consolidation_plan
from repro.nfv.controller import OnvmController
from repro.nfv.knobs import KnobSettings
from repro.nfv.node import Node
from repro.traffic.generators import ConstantRateGenerator
from repro.utils.units import line_rate_pps


class TestNodeDeployment:
    def test_deploy_and_step(self):
        node = Node()
        node.deploy(default_chain("c0"))
        out = node.step_all({"c0": (1e5, 1518.0)}, 1.0)
        assert "c0" in out
        assert out["c0"].achieved_pps > 0

    def test_duplicate_deploy_rejected(self):
        node = Node()
        node.deploy(default_chain("c0"))
        with pytest.raises(ValueError):
            node.deploy(default_chain("c0"))

    def test_undeploy(self):
        node = Node()
        node.deploy(default_chain("c0"))
        node.undeploy("c0")
        assert node.chains == {}
        with pytest.raises(KeyError):
            node.undeploy("c0")

    def test_unknown_offered_chain(self):
        node = Node()
        node.deploy(default_chain("c0"))
        with pytest.raises(KeyError):
            node.step_all({"zzz": (1.0, 64.0)}, 1.0)

    def test_apply_knobs_clamps(self):
        node = Node()
        node.deploy(default_chain("c0"))
        applied = node.apply_knobs(
            {"c0": KnobSettings(cpu_share=50, cpu_freq_ghz=1.77)}
        )["c0"]
        assert applied.cpu_share == node.ranges.max_cpu_share
        assert applied.cpu_freq_ghz == pytest.approx(1.8)  # ladder snap

    def test_apply_knobs_unknown_chain(self):
        node = Node()
        with pytest.raises(KeyError):
            node.apply_knobs({"x": KnobSettings()})

    def test_chain_past_the_llc_ways_is_refused_untouched(self):
        # CAT grants every chain at least one way; the 19th chain on the
        # default 18 allocatable ways used to spin forever in the grant
        # shave loop.
        node = Node()
        ways = node.server.llc.allocatable_ways
        for i in range(ways):
            node.deploy(default_chain(f"c{i}"))
        grants = {n: (c.mask, c.n_ways) for n, c in node.cache.allocations.items()}
        knobs = {n: h.knobs for n, h in node.chains.items()}
        gen = node._config_gen
        with pytest.raises(ValueError, match="one per allocatable LLC way"):
            node.deploy(default_chain(f"c{ways}"))
        assert {n: h.knobs for n, h in node.chains.items()} == knobs
        assert {
            n: (c.mask, c.n_ways) for n, c in node.cache.allocations.items()
        } == grants
        assert node._config_gen == gen


class TestNodeLlcPartitioning:
    def test_two_chains_get_disjoint_clos(self):
        node = Node()
        c1, c2 = microbench_chains()
        node.deploy(c1, KnobSettings(llc_fraction=0.5))
        node.deploy(c2, KnobSettings(llc_fraction=0.3))
        a = node.cache.allocations["C1"].mask
        b = node.cache.allocations["C2"].mask
        assert a & b == 0

    def test_oversubscription_scales_down(self):
        node = Node()
        c1, c2 = microbench_chains()
        node.deploy(c1, KnobSettings(llc_fraction=0.9))
        node.deploy(c2, KnobSettings(llc_fraction=0.9))
        total_ways = sum(c.n_ways for c in node.cache.allocations.values())
        assert total_ways <= node.server.llc.allocatable_ways

    def test_llc_bytes_for(self):
        node = Node()
        node.deploy(default_chain("c0"), KnobSettings(llc_fraction=0.5))
        assert node.llc_bytes_for("c0") == pytest.approx(9e6)


class TestNodeEnergy:
    def test_power_attribution_sums_to_node(self):
        node = Node()
        c1, c2 = microbench_chains()
        node.deploy(c1, KnobSettings(llc_fraction=0.5))
        node.deploy(c2, KnobSettings(llc_fraction=0.3))
        out = node.step_all({"C1": (5e6, 64.0), "C2": (1e6, 64.0)}, 1.0)
        total_attributed = sum(s.energy_j for s in out.values())
        assert total_attributed == pytest.approx(node.meter.total_joules)

    def test_busier_chain_gets_more_energy(self):
        node = Node()
        c1, c2 = microbench_chains()
        node.deploy(c1, KnobSettings(llc_fraction=0.5, cpu_share=1.5))
        node.deploy(c2, KnobSettings(llc_fraction=0.3, cpu_share=0.5))
        out = node.step_all({"C1": (8e6, 64.0), "C2": (1e4, 64.0)}, 1.0)
        assert out["C1"].energy_j > out["C2"].energy_j

    def test_contention_hurts_colocated_chains(self):
        # A chain alone vs. the same chain sharing the node with a
        # cache-hungry neighbour at the same CAT grant.
        alone = Node()
        alone.deploy(default_chain("c0"), KnobSettings(llc_fraction=0.4))
        solo = alone.step_all({"c0": (line_rate_pps(10, 1518), 1518.0)}, 1.0)["c0"]

        shared = Node()
        shared.deploy(default_chain("c0"), KnobSettings(llc_fraction=0.4))
        shared.deploy(light_chain("noisy"), KnobSettings(llc_fraction=0.4, batch_size=256, dma_mb=40))
        both = shared.step_all(
            {"c0": (line_rate_pps(10, 1518), 1518.0), "noisy": (5e6, 64.0)}, 1.0
        )["c0"]
        assert both.achieved_pps <= solo.achieved_pps


class TestController:
    def _controller(self):
        ctrl = OnvmController(rng=0)
        ctrl.add_chain(
            default_chain("c0"), ConstantRateGenerator.line_rate(), KnobSettings()
        )
        return ctrl

    def test_run_interval_advances_time(self):
        ctrl = self._controller()
        ctrl.run_interval()
        ctrl.run_interval()
        assert ctrl.time_s == pytest.approx(2.0)

    def test_collect_state_cold_start(self):
        ctrl = self._controller()
        obs = ctrl.collect_state()["c0"]
        assert obs.throughput_gbps == 0.0

    def test_collect_state_after_interval(self):
        ctrl = self._controller()
        ctrl.run_interval()
        obs = ctrl.collect_state()["c0"]
        assert obs.throughput_gbps > 0
        assert obs.as_array().shape == (4,)

    def test_allocate_applies_and_observes(self):
        ctrl = self._controller()
        obs, sample = ctrl.allocate("c0", KnobSettings(batch_size=128))
        assert sample.per_nf  # telemetry flowed
        assert ctrl.bindings["c0"].analyzer.arrival_rate() > 0

    def test_remove_chain(self):
        ctrl = self._controller()
        ctrl.remove_chain("c0")
        assert ctrl.bindings == {}

    def test_from_config(self):
        ctrl = OnvmController.from_config(
            {"web": {"nfs": ["nat", "firewall"], "knobs": {"batch_size": 64}}},
            {"web": ConstantRateGenerator(1e5)},
        )
        assert "web" in ctrl.bindings
        assert ctrl.node.chains["web"].knobs.batch_size == 64

    def test_from_config_missing_generator(self):
        with pytest.raises(KeyError):
            OnvmController.from_config({"web": {"nfs": ["nat"]}}, {})

    def test_from_config_rejects_non_finite_knobs(self):
        # Every entry is checked first: the valid chain before the NaN
        # one is not deployed either.
        node = Node()
        config = {
            "c0": {"nfs": ["firewall", "router"]},
            "c1": {"nfs": ["firewall", "router"], "knobs": {"cpu_share": np.nan}},
        }
        generators = {name: ConstantRateGenerator(1e5) for name in config}
        with pytest.raises(ValueError, match="cpu_share"):
            OnvmController.from_config(config, generators, node)
        assert node.chains == {}

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            OnvmController(interval_s=0.0)


class TestConsolidation:
    def test_shared_flows_colocate(self):
        chains = [f"c{i}" for i in range(4)]
        flow_paths = {
            "c0": ["flowA"],
            "c1": ["flowA", "flowB"],
            "c2": ["flowB"],
            "c3": ["flowZ"],
        }
        plan = consolidation_plan(chains, flow_paths, n_nodes=2)
        assert plan["c0"] == plan["c1"] == plan["c2"]
        assert plan["c3"] != plan["c0"]

    def test_balances_groups(self):
        chains = [f"c{i}" for i in range(4)]
        plan = consolidation_plan(chains, {}, n_nodes=2)
        loads = [list(plan.values()).count(n) for n in range(2)]
        assert loads == [2, 2]

    def test_validation(self):
        with pytest.raises(ValueError):
            consolidation_plan([], {}, 0)
        with pytest.raises(ValueError):
            consolidation_plan(["a", "a"], {}, 1)
