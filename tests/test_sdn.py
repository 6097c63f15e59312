"""SDN flow-steering tests (the paper's §6 future-work feature)."""

import hashlib
import json
from dataclasses import fields

import pytest

from repro.nfv import KnobSettings, Node, default_chain
from repro.nfv.engine import PollingMode, TelemetrySample
from repro.sdn import ChainReplica, FlowSpec, SdnConfig, SdnController, SteeringTable
from repro.traffic.generators import ConstantRateGenerator, PoissonGenerator
from repro.traffic.packet import IMIX, LARGE_PACKETS, SMALL_PACKETS
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


class TestNodeStepping:
    """Each replica node steps once per interval through ``step_all``."""

    def test_poll_and_adaptive_replicas_step_their_own_nodes(self):
        # Nodes of different physics under one controller: each replica
        # reads its own node's step_all sample.
        sdn = SdnController(SdnConfig(max_migrations_per_interval=0), rng=0)
        twins, offered = [], {}
        for i, polling in enumerate((PollingMode.POLL, PollingMode.ADAPTIVE)):
            name = f"sfc{i}"
            node, twin = Node(polling=polling), Node(polling=polling)
            for n in (node, twin):
                n.deploy(default_chain(name), TUNED)
            sdn.register_replica(ChainReplica(chain_name=name, node=node, service="sfc"))
            sdn.add_flow(
                FlowSpec(f"f{i}", ConstantRateGenerator((0.2 + 0.1 * i) * LINE), service="sfc"),
                chain_name=name,
            )
            twins.append(twin)
            offered[name] = ((0.2 + 0.1 * i) * LINE, 1518.0)
        for _ in range(3):
            samples = sdn.run_interval()
            want = {}
            for twin in twins:
                want.update(twin.step_all({n: offered[n] for n in twin.chains}))
            assert samples == want
            for name, replica in sdn.replicas.items():
                assert replica.last_sample is samples[name]
        poll, adaptive = sdn.replicas["sfc0"], sdn.replicas["sfc1"]
        assert poll.utilization == 1.0 > adaptive.utilization
        for replica, twin in zip((poll, adaptive), twins):
            assert vars(replica.node.meter) == vars(twin.meter)

    def test_replica_registered_after_a_run_is_stepped(self):
        sdn = make_sdn(2)
        sdn.run_interval()
        node = Node()
        node.deploy(default_chain("sfc9"), KnobSettings())
        sdn.register_replica(ChainReplica(chain_name="sfc9", node=node, service="sfc"))
        samples = sdn.run_interval()
        assert list(samples) == ["sfc0", "sfc1", "sfc9"]
        assert node.meter.total_seconds == 1.0

    def test_replicas_sharing_a_node_step_it_once(self):
        # Two replicas on one node and one on another: each node steps
        # once per interval with all its replicas' traffic, and the
        # samples come node by node in registration order.
        sdn = SdnController(SdnConfig(max_migrations_per_interval=0), rng=0)
        shared, single = Node(), Node()
        twins = {id(shared): Node(), id(single): Node()}
        layout = (("sfc0", shared, 0.2), ("sfc2", single, 0.3), ("sfc1", shared, 0.1))
        for name, node, _ in sorted(layout, key=lambda row: row[0]):
            for n in (node, twins[id(node)]):
                n.deploy(default_chain(name), TUNED)
        for name, node, share in layout:
            sdn.register_replica(ChainReplica(chain_name=name, node=node, service="sfc"))
            sdn.add_flow(
                FlowSpec(f"f-{name}", ConstantRateGenerator(share * LINE), service="sfc"),
                chain_name=name,
            )
        offered = {name: (share * LINE, 1518.0) for name, _, share in layout}
        for _ in range(3):
            samples = sdn.run_interval()
            assert list(samples) == ["sfc0", "sfc1", "sfc2"]
            want = {}
            for node in (shared, single):
                twin = twins[id(node)]
                want.update(twin.step_all({n: offered[n] for n in twin.chains}))
            assert samples == want
        for node in (shared, single):
            assert node.meter.total_seconds == 3.0
            assert vars(node.meter) == vars(twins[id(node)].meter)

    def test_unregistered_chain_on_a_replica_node_idles(self):
        # A chain deployed next to a replica but not registered gets no
        # flows: it idles at (0, 1518) and its sample is returned too.
        sdn = make_sdn(1)
        node = sdn.replicas["sfc0"].node
        node.deploy(default_chain("batch"), KnobSettings())
        twin = Node()
        twin.deploy(default_chain("sfc0"), TUNED)
        twin.deploy(default_chain("batch"), KnobSettings())
        sdn.add_flow(FlowSpec("f1", ConstantRateGenerator(0.3 * LINE), service="sfc"))
        samples = sdn.run_interval()
        assert list(samples) == ["sfc0", "batch"]
        assert samples == twin.step_all({"sfc0": (0.3 * LINE, 1518.0)})
        assert samples["batch"].offered_pps == 0.0
        assert samples["batch"].packet_bytes == 1518.0
        assert "batch" not in sdn.replicas

    def test_replica_utilization_is_the_bottleneck_nf(self):
        # The steering signal is the busiest NF of the replica's last
        # sample, not the chain's mean CPU utilization; 0 before any
        # interval.
        sdn = make_sdn(1)
        replica = sdn.replicas["sfc0"]
        assert replica.last_sample is None and replica.utilization == 0.0
        sdn.add_flow(FlowSpec("f1", ConstantRateGenerator(0.3 * LINE), service="sfc"))
        sample = sdn.run_interval()["sfc0"]
        per_nf = [nf.utilization for nf in sample.per_nf]
        assert len(set(per_nf)) > 1
        assert replica.utilization == max(per_nf)
        assert replica.utilization != sample.cpu_utilization


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


#: The SDN golden's digest: three flow sets x 40 intervals on four
#: replicas (see :func:`sdn_golden_payload`).
SDN_GOLDEN_DIGEST = "6df253c4b4bf4430"
SAMPLE_FIELDS = [f.name for f in fields(TelemetrySample) if f.name != "per_nf"]


def _sample_row(sample):
    """Every field of a sample, its per-NF rows included."""
    return [getattr(sample, name) for name in SAMPLE_FIELDS] + [
        [
            nf.name,
            nf.cycles_per_packet,
            nf.service_rate_pps,
            nf.utilization,
            nf.misses_per_packet,
        ]
        for nf in sample.per_nf
    ]


def _golden_sdn(generator) -> SdnController:
    """Four tuned replicas; six hot flows admitted to ``sfc0`` and two
    cool ones to ``sfc2``/``sfc3``; flow j is ``generator(share, j)``."""
    sdn = make_sdn(
        4, SdnConfig(max_migrations_per_interval=1, flow_cooldown_intervals=3)
    )
    flows = [(f"hot{j}", 0.18, "sfc0") for j in range(6)]
    flows += [("cool-a", 0.02, "sfc2"), ("cool-b", 0.03, "sfc3")]
    for j, (name, share, chain_name) in enumerate(flows):
        sdn.add_flow(
            FlowSpec(name, generator(share * LINE, j), service="sfc"),
            chain_name=chain_name,
        )
    return sdn


def sdn_golden_payload(intervals: int = 40) -> dict:
    """Every interval's samples, cooldowns, steering-history length and
    node meters, then the full steering history, for three flow sets."""
    mixed = (SMALL_PACKETS, IMIX, LARGE_PACKETS)
    scenarios = {
        "constant-1518": lambda pps, j: ConstantRateGenerator(pps, LARGE_PACKETS),
        "constant-mixed": lambda pps, j: ConstantRateGenerator(pps, mixed[j % 3]),
        "poisson-mixed": lambda pps, j: PoissonGenerator(pps, mixed[j % 3]),
    }
    payload = {}
    for scenario, generator in scenarios.items():
        sdn = _golden_sdn(generator)
        nodes = [replica.node for replica in sdn.replicas.values()]
        steps = []
        for _ in range(intervals):
            samples = sdn.run_interval()
            steps.append(
                {
                    "samples": {n: _sample_row(s) for n, s in samples.items()},
                    "order": list(samples),
                    "cooldown": dict(sdn._cooldown),
                    "history": len(sdn.table.history),
                    "meters": [
                        [m.total_joules, m.total_seconds, m.total_packets]
                        for m in (node.meter for node in nodes)
                    ],
                }
            )
        payload[scenario] = {
            "steps": steps,
            "history": [
                [r.flow, r.chain, r.revision, r.reason] for r in sdn.table.history
            ],
            "migrations": sdn.table.migrations,
        }
    return payload


def test_sdn_golden():
    payload = sdn_golden_payload()
    # Both steering rules fire, so the digest pins decisions too.
    reasons = {
        name: {rule[3] for rule in scenario["history"]}
        for name, scenario in payload.items()
    }
    assert all("overload-relief" in r for r in reasons.values()), reasons
    assert "energy-consolidation" in reasons["poisson-mixed"], reasons
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16] == SDN_GOLDEN_DIGEST
