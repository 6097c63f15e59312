"""Applying knobs as one mapping equals applying them one at a time.

``Node.apply_knobs`` takes all of a node's updates in one call and
repartitions the LLC once; a fleet shard batches each knob command's
updates by node.  Over random update sets on nodes of 4-6 chains (no-op
entries, LLC requests that oversubscribe the allocatable ways, mixed
sets), a node given the whole mapping, a node given its entries one by
one and a node deployed with the resulting knobs must agree on every
knob, CAT grant, contention factor and power-fold input, and one
cluster-kernel step over each must return bit-identical arrays.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nfv.chain import default_chain, heavy_chain, light_chain
from repro.nfv.cluster_kernel import ClusterKernel
from repro.nfv.knobs import KnobSettings
from repro.nfv.node import Node

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
        node.contention_for(pkts),
        node.fold_inputs(),
    )


def kernel_arrays(node: Node, loads: np.ndarray, pkts: tuple[float, ...]):
    block = ClusterKernel([node]).step(list(node.chains), loads, list(pkts))
    return [getattr(block, field).tobytes() for field in ARRAYS]


class TestApplyKnobsBatch:
    @settings(deadline=None, max_examples=60)
    @given(scenarios(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_mapping_equals_one_at_a_time(self, scenario, seed):
        initial, updates = scenario
        batched, stepped = build(initial), build(initial)
        changed = any(
            knobs.clamped(batched.ranges, batched.server.cpu)
            != batched.chains[name].knobs
            for name, knobs in updates.items()
        )
        gens = batched._config_gen, stepped._config_gen
        applied = batched.apply_knobs(updates)
        for name, knobs in updates.items():
            assert stepped.apply_knobs({name: knobs}) == {name: applied[name]}
        assert (batched._config_gen != gens[0]) == changed
        assert (stepped._config_gen != gens[1]) == changed
        # Deploying chains with their final knobs partitions the LLC
        # from scratch: an oracle that shares no code with apply_knobs.
        fresh = build(
            [updates.get(f"c{i}", knobs) for i, knobs in enumerate(initial)]
        )
        rng = np.random.default_rng(seed)
        pkts = tuple(float(rng.choice(PACKETS)) for _ in initial)
        want = state(fresh, pkts)
        assert state(batched, pkts) == want
        assert state(stepped, pkts) == want
        loads = rng.uniform(0.0, 2e6, size=(len(initial), 3))
        want = kernel_arrays(fresh, loads, pkts)
        assert kernel_arrays(batched, loads, pkts) == want
        assert kernel_arrays(stepped, loads, pkts) == want

    def test_oversubscribed_requests_fit_the_ways(self):
        node = build([KnobSettings(llc_fraction=0.1)] * 5)
        node.apply_knobs({f"c{i}": KnobSettings(llc_fraction=0.9) for i in range(5)})
        ways = sum(c.n_ways for c in node.cache.allocations.values())
        assert ways <= node.server.llc.allocatable_ways

    def test_unknown_name_refused_before_any_change(self):
        node = build([KnobSettings()] * 4)
        pkts = (1518.0,) * 4
        before = state(node, pkts), node._config_gen
        with pytest.raises(KeyError, match="ghost"):
            node.apply_knobs(
                {"c0": KnobSettings(cpu_share=0.5), "ghost": KnobSettings()}
            )
        assert (state(node, pkts), node._config_gen) == before
