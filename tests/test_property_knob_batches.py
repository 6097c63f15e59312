"""Knob updates leave a node as a fresh deploy with the final knobs would.

``Node.apply_knobs`` applies one chain's settings; a fleet shard clamps
each knob command's rows in one pass and writes them node by node.
Over random update sets on nodes of 4-6 chains (no-op entries, LLC
requests that oversubscribe the allocatable ways, mixed sets), a node
given the entries one by one and a node deployed with the resulting
knobs must agree on every knob, CAT grant, contention factor and
power-fold input, and one cluster-kernel step over each must return
bit-identical arrays.  Random partial ``ShardSim.set_knobs`` commands
are held to the same standard against the per-object command they
replaced, kept here as the reference.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.shard import ChainTicket, ShardConfig, ShardSim, kind_nfs
from repro.fleet.workload import WorkloadConfig
from repro.nfv.chain import default_chain, heavy_chain, light_chain
from repro.nfv.cluster_kernel import ClusterKernel
from repro.nfv.knobs import KNOB_NAMES, KnobSettings
from repro.nfv.node import Node, node_folds

KINDS = (default_chain, light_chain, heavy_chain)
PACKETS = (64.0, 512.0, 1518.0)
ARRAYS = (
    "achieved_pps",
    "throughput_gbps",
    "energy_j",
    "latency_s",
    "power_w",
    "utilization",
    "node_joules",
)

knob_strategy = st.builds(
    KnobSettings,
    cpu_share=st.floats(min_value=0.1, max_value=1.5),
    cpu_freq_ghz=st.floats(min_value=1.2, max_value=2.1),
    llc_fraction=st.floats(min_value=0.05, max_value=1.0),
    dma_mb=st.floats(min_value=0.5, max_value=40.0),
    batch_size=st.integers(min_value=1, max_value=256),
)


@st.composite
def scenarios(draw):
    """Initial knobs for 4-6 chains and one update mapping over them.

    Each entry is a no-op (the chain's own initial settings), a request
    for a large LLC share (enough of them oversubscribe the ways) or any
    settings; the mapping's order is random.
    """
    initial = draw(st.lists(knob_strategy, min_size=4, max_size=6))
    names = [f"c{i}" for i in range(len(initial))]
    picked = draw(st.lists(st.sampled_from(names), unique=True, min_size=1))
    updates = {}
    for name in picked:
        kind = draw(st.sampled_from(("noop", "big_llc", "any")))
        if kind == "noop":
            updates[name] = initial[names.index(name)]
        elif kind == "big_llc":
            fraction = draw(st.floats(min_value=0.5, max_value=1.0))
            updates[name] = replace(draw(knob_strategy), llc_fraction=fraction)
        else:
            updates[name] = draw(knob_strategy)
    return initial, updates


def build(initial: list[KnobSettings]) -> Node:
    node = Node()
    for i, knobs in enumerate(initial):
        node.deploy(KINDS[i % len(KINDS)](f"c{i}"), knobs)
    return node


def state(node: Node, pkts: tuple[float, ...]):
    return (
        {name: hosted.knobs for name, hosted in node.chains.items()},
        node.cache.allocations,
        [node.llc_bytes_for(name) for name in node.chains],
        node_folds(node.table.tolist(), pkts, len(pkts), node.engine),
    )


def kernel_arrays(node: Node, loads: np.ndarray, pkts: tuple[float, ...]):
    block = ClusterKernel([node]).step(list(node.chains), loads, list(pkts))
    return [getattr(block, field).tobytes() for field in ARRAYS]


class TestApplyKnobsBatch:
    @settings(deadline=None, max_examples=60)
    @given(scenarios(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_one_at_a_time_equals_a_fresh_deploy(self, scenario, seed):
        initial, updates = scenario
        stepped = build(initial)
        changed = any(
            knobs.clamped(stepped.ranges, stepped.server.cpu)
            != stepped.chains[name].knobs
            for name, knobs in updates.items()
        )
        gen = stepped._config_gen
        for name, knobs in updates.items():
            applied = stepped.apply_knobs(name, knobs)
            assert applied == knobs.clamped(stepped.ranges, stepped.server.cpu)
            assert stepped.chains[name].knobs == applied
        assert (stepped._config_gen != gen) == changed
        # Deploying chains with their final knobs partitions the LLC
        # from scratch: an oracle that shares no code with apply_knobs.
        fresh = build(
            [updates.get(f"c{i}", knobs) for i, knobs in enumerate(initial)]
        )
        rng = np.random.default_rng(seed)
        pkts = tuple(float(rng.choice(PACKETS)) for _ in initial)
        assert state(stepped, pkts) == state(fresh, pkts)
        loads = rng.uniform(0.0, 2e6, size=(len(initial), 3))
        assert kernel_arrays(stepped, loads, pkts) == kernel_arrays(fresh, loads, pkts)

    def test_oversubscribed_requests_fit_the_ways(self):
        node = build([KnobSettings(llc_fraction=0.1)] * 5)
        for i in range(5):
            node.apply_knobs(f"c{i}", KnobSettings(llc_fraction=0.9))
        ways = sum(c.n_ways for c in node.cache.allocations.values())
        assert ways <= node.server.llc.allocatable_ways

    def test_unknown_name_refused_before_any_change(self):
        node = build([KnobSettings()] * 4)
        pkts = (1518.0,) * 4
        before = state(node, pkts), node._config_gen
        with pytest.raises(KeyError, match="ghost"):
            node.apply_knobs("ghost", KnobSettings(cpu_share=0.5))
        assert (state(node, pkts), node._config_gen) == before


def shard(initial: list[list[KnobSettings]]) -> ShardSim:
    """A shard with one node per entry of ``initial``, each hosting a
    chain per setting."""
    tickets = tuple(
        ChainTicket(f"n{j}c{i}", kind_nfs("mixed", i + j), f"f{j}", j, knobs.to_dict())
        for j, node in enumerate(initial)
        for i, knobs in enumerate(node)
    )
    return ShardSim(
        ShardConfig(
            name="s",
            n_nodes=len(initial),
            interval_s=1.0,
            sla="latency",
            sla_params={"latency_bound_s": 1e-3},
            workload=WorkloadConfig(peak_rate_pps=5e5).to_dict(),
            parked_power_w=10.0,
            initial_chains=tickets,
        )
    )


def reference_set_knobs(sim: ShardSim, updates) -> None:
    """The per-object command: each entry's settings merged into the
    chain's ``KnobSettings`` and applied with its node's
    ``apply_knobs``."""
    for name, settings_ in updates.items():
        node = sim.nodes[sim._tickets[name].node]
        node.apply_knobs(name, node.chains[name].knobs.with_updates(**settings_))


@st.composite
def commands(draw):
    """Initial knobs for 1-4 nodes of 1-5 chains, and one partial command
    over some of the chains (each entry names a random subset of knobs)."""
    initial = draw(
        st.lists(st.lists(knob_strategy, min_size=1, max_size=5), min_size=1, max_size=4)
    )
    names = [f"n{j}c{i}" for j, node in enumerate(initial) for i in range(len(node))]
    picked = draw(st.lists(st.sampled_from(names), unique=True, min_size=1))
    updates = {}
    for name in picked:
        knobs = draw(knob_strategy).to_dict()
        keys = draw(st.lists(st.sampled_from(KNOB_NAMES), unique=True))
        updates[name] = {key: knobs[key] for key in keys}
    return initial, updates


class TestShardCommand:
    @settings(deadline=None, max_examples=60)
    @given(commands(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_command_equals_the_per_object_reference(self, command, seed):
        initial, updates = command
        got, want = shard(initial), shard(initial)
        gens = [node._config_gen for node in got.nodes]
        got.set_knobs(updates)
        reference_set_knobs(want, updates)
        rng = np.random.default_rng(seed)
        for node_got, node_want, gen in zip(got.nodes, want.nodes, gens):
            pkts = tuple(float(rng.choice(PACKETS)) for _ in node_got.chains)
            assert state(node_got, pkts) == state(node_want, pkts)
            assert (node_got._config_gen != gen) == (node_want._config_gen != gen)
        names = list(got.load_rows)
        loads = rng.uniform(0.0, 2e6, size=(len(names), 3))
        arrays = [
            ClusterKernel(sim.nodes).step(names, loads, 512.0) for sim in (got, want)
        ]
        for field in ARRAYS:
            assert getattr(arrays[0], field).tobytes() == getattr(arrays[1], field).tobytes()
