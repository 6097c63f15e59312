"""SDN flow-steering tests (the paper's §6 future-work feature)."""

import pytest

from repro.nfv import KnobSettings, Node, default_chain
from repro.sdn import ChainReplica, FlowSpec, SdnConfig, SdnController, SteeringTable
from repro.traffic.generators import ConstantRateGenerator
from repro.utils.units import line_rate_pps

LINE = line_rate_pps(10.0, 1518)
TUNED = KnobSettings(cpu_share=1.0, batch_size=128, dma_mb=12, llc_fraction=0.45)


def make_sdn(n_replicas=2, config=None, service="sfc"):
    sdn = SdnController(config or SdnConfig(), rng=0)
    for i in range(n_replicas):
        node = Node()
        chain = default_chain(f"sfc{i}")
        node.deploy(chain, TUNED)
        sdn.register_replica(ChainReplica(chain_name=f"sfc{i}", node=node, service=service))
    return sdn


class TestSteeringTable:
    def test_assign_and_lookup(self):
        t = SteeringTable()
        t.assign("f1", "c1")
        assert t.chain_of("f1") == "c1"
        assert t.flows_on("c1") == ["f1"]

    def test_revisions_and_migrations(self):
        t = SteeringTable()
        t.assign("f1", "c1")
        rule = t.assign("f1", "c2", reason="test")
        assert rule.revision == 1
        assert t.migrations == 1
        assert len(t.history) == 2

    def test_reassign_same_chain_not_a_migration(self):
        t = SteeringTable()
        t.assign("f1", "c1")
        t.assign("f1", "c1")
        assert t.migrations == 0

    def test_unknown_flow(self):
        with pytest.raises(KeyError):
            SteeringTable().chain_of("ghost")


class TestFlowSpec:
    def test_rate_delegates(self):
        f = FlowSpec("f", ConstantRateGenerator(123.0))
        assert f.rate_at(0, 1.0) == 123.0
        assert f.packet_bytes == 1518.0

    def test_needs_name(self):
        with pytest.raises(ValueError):
            FlowSpec("", ConstantRateGenerator(1.0))


class TestRegistration:
    def test_register_requires_deployed_chain(self):
        sdn = SdnController(rng=0)
        node = Node()
        with pytest.raises(ValueError):
            sdn.register_replica(ChainReplica(chain_name="ghost", node=node))

    def test_duplicate_replica(self):
        sdn = make_sdn(1)
        node = Node()
        node.deploy(default_chain("sfc0"), TUNED)
        with pytest.raises(ValueError):
            sdn.register_replica(ChainReplica(chain_name="sfc0", node=node, service="sfc"))

    def test_admission_places_on_least_utilized(self):
        sdn = make_sdn(2)
        sdn.add_flow(FlowSpec("f1", ConstantRateGenerator(0.1 * LINE), service="sfc"))
        assert sdn.table.chain_of("f1") in ("sfc0", "sfc1")

    def test_admission_service_mismatch(self):
        sdn = make_sdn(1, service="sfc")
        with pytest.raises(ValueError):
            sdn.add_flow(FlowSpec("f1", ConstantRateGenerator(1.0), service="other"))

    def test_admission_explicit_chain_must_offer_service(self):
        sdn = make_sdn(2)
        with pytest.raises(ValueError):
            sdn.add_flow(
                FlowSpec("f1", ConstantRateGenerator(1.0), service="sfc"),
                chain_name="nope",
            )

    def test_duplicate_flow(self):
        sdn = make_sdn(1)
        sdn.add_flow(FlowSpec("f1", ConstantRateGenerator(1.0), service="sfc"))
        with pytest.raises(ValueError):
            sdn.add_flow(FlowSpec("f1", ConstantRateGenerator(1.0), service="sfc"))


class TestSteering:
    def test_overload_relief_rebalances(self):
        sdn = make_sdn(2)
        for j in range(6):
            sdn.add_flow(
                FlowSpec(f"f{j}", ConstantRateGenerator(0.2 * LINE), service="sfc"),
                chain_name="sfc0",
            )
        for _ in range(12):
            samples = sdn.run_interval()
        loads = {n: len(sdn.table.flows_on(n)) for n in sdn.replicas}
        assert loads["sfc1"] >= 2  # flows moved off the hot replica
        assert sdn.table.migrations >= 2
        agg = sum(s.throughput_gbps for s in samples.values())
        assert agg > 8.0  # well above a single chain's ~5.8 Gbps ceiling

    def test_energy_consolidation_merges_cool_replicas(self):
        sdn = make_sdn(2)
        sdn.add_flow(
            FlowSpec("a", ConstantRateGenerator(0.05 * LINE), service="sfc"),
            chain_name="sfc0",
        )
        sdn.add_flow(
            FlowSpec("b", ConstantRateGenerator(0.05 * LINE), service="sfc"),
            chain_name="sfc1",
        )
        for _ in range(8):
            sdn.run_interval()
        loads = sorted(len(sdn.table.flows_on(n)) for n in sdn.replicas)
        assert loads == [0, 2]  # merged onto one replica

    def test_migration_budget_respected(self):
        sdn = make_sdn(2, SdnConfig(max_migrations_per_interval=1))
        for j in range(6):
            sdn.add_flow(
                FlowSpec(f"f{j}", ConstantRateGenerator(0.2 * LINE), service="sfc"),
                chain_name="sfc0",
            )
        before = sdn.table.migrations
        sdn.run_interval()
        sdn.run_interval()
        assert sdn.table.migrations - before <= 2

    def test_zero_budget_never_migrates(self):
        sdn = make_sdn(2, SdnConfig(max_migrations_per_interval=0))
        for j in range(6):
            sdn.add_flow(
                FlowSpec(f"f{j}", ConstantRateGenerator(0.2 * LINE), service="sfc"),
                chain_name="sfc0",
            )
        for _ in range(6):
            sdn.run_interval()
        assert sdn.table.migrations == 0

    def test_never_empties_an_overloaded_chain(self):
        sdn = make_sdn(2)
        sdn.add_flow(
            FlowSpec("only", ConstantRateGenerator(1.2 * LINE), service="sfc"),
            chain_name="sfc0",
        )
        for _ in range(6):
            sdn.run_interval()
        # A single un-splittable flow stays put even when hot.
        assert sdn.table.chain_of("only") == "sfc0"

    def test_telemetry_updates_replicas(self):
        sdn = make_sdn(1)
        sdn.add_flow(FlowSpec("f1", ConstantRateGenerator(0.3 * LINE), service="sfc"))
        sdn.run_interval()
        replica = sdn.replicas["sfc0"]
        assert replica.last_sample is not None
        assert replica.utilization > 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SdnConfig(low_watermark=0.9, high_watermark=0.5)
        with pytest.raises(ValueError):
            SdnConfig(max_migrations_per_interval=-1)
        with pytest.raises(ValueError):
            SdnController(interval_s=0.0)


class TestSeedingIsolation:
    """Regression: fleet-facing components must never silently share RNGs.

    Two clusters (or SDN controllers) built from the same config but
    different seeds must have fully independent streams, and handing the
    same parent generator to two components must not alias it — drawing
    in one component previously advanced the other's stream.
    """

    def test_same_generator_is_not_aliased(self):
        import numpy as np

        parent = np.random.default_rng(3)
        a = SdnController(rng=parent)
        b = SdnController(rng=parent)
        assert a._rng is not parent and b._rng is not parent
        assert a._rng is not b._rng
        before = b._rng.bit_generator.state
        a._rng.random(64)
        assert b._rng.bit_generator.state == before

    def test_different_seeds_draw_different_flows(self):
        import numpy as np

        from repro.traffic.generators import PoissonGenerator

        def offered(seed):
            sdn = make_sdn(1)
            sdn._rng = np.random.default_rng(seed)  # noqa: SLF001 - test hook
            sdn.add_flow(
                FlowSpec("f1", PoissonGenerator(0.3 * LINE), service="sfc")
            )
            return sdn.offered_per_chain(1.0)["sfc0"][0]

        assert offered(1) != offered(2)
        assert offered(5) == offered(5)
