"""Knob tables: the column clamp, command rejection, and what a knob-only
command leaves cached.

``clamp_table`` clamps a whole ``(k, 5)`` table in one pass; it must
equal ``KnobSettings(*row).clamped(ranges, cpu)`` row for row, DVFS
ladder midpoints and their neighbouring floats included (frequencies
snap to the nearest step, the lower one on a tie, as
``CpuSpec.clamp_frequency`` does; batches round half to even).  A
shard's knob command must refuse what the per-object path refused,
with the same exception type and before any node changes.  A
knob-only command re-stacks no chain, and a command that moves no
clamped value moves no generation and compiles nothing.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.shard import ChainTicket, ShardConfig, ShardSim, kind_nfs
from repro.fleet.workload import WorkloadConfig
from repro.hw.cpu import CpuSpec
from repro.nfv import cluster_kernel
from repro.nfv.knobs import (
    DEFAULT_RANGES,
    KNOB_NAMES,
    KnobRanges,
    KnobSettings,
    clamp_table,
    knob_row,
)
from test_fleet import hosted_loads
from test_shard_block import plan_cache_counts

CPU = CpuSpec()
LADDER = CPU.freq_ladder_ghz
#: Every ladder midpoint and the floats on either side of it.
MIDPOINTS = [
    x
    for a, b in zip(LADDER, LADDER[1:])
    for m in [(a + b) / 2]
    for x in (np.nextafter(m, -np.inf), m, np.nextafter(m, np.inf))
]

positive = st.floats(min_value=1e-3, max_value=1e3)
frequencies = st.one_of(
    st.sampled_from(MIDPOINTS),
    st.sampled_from(LADDER),
    st.floats(min_value=0.5, max_value=3.0),
)
batches = st.one_of(
    st.integers(min_value=1, max_value=400).map(float),
    st.integers(min_value=1, max_value=400).map(lambda b: b + 0.5),
    st.floats(min_value=1.0, max_value=400.0),
)
rows = st.tuples(
    positive, frequencies, st.floats(min_value=1e-3, max_value=1.0), positive, batches
).map(list)


@st.composite
def ranges(draw):
    """The default ranges, or random valid ones (batch limits whole or not)."""
    if draw(st.booleans()):
        return DEFAULT_RANGES
    pair = lambda lo, hi: sorted(draw(st.lists(  # noqa: E731
        st.floats(min_value=lo, max_value=hi), min_size=2, max_size=2, unique=True
    )))
    share, freq, llc, dma = pair(0.05, 2.0), pair(1.0, 2.5), pair(0.01, 1.0), pair(0.1, 64.0)
    batch = pair(1.0, 300.0)
    return KnobRanges(*share, *freq, *llc, *dma, *batch)


def reference(row, knob_ranges, cpu):
    return knob_row(KnobSettings(*row).clamped(knob_ranges, cpu))


class TestColumnClamp:
    @settings(deadline=None, max_examples=300)
    @given(st.lists(rows, min_size=1, max_size=40), ranges(), st.booleans())
    def test_equals_the_per_object_clamp_row_for_row(self, table, knob_ranges, ladder):
        cpu = CPU if ladder else None
        want = [reference(row, knob_ranges, cpu) for row in table]
        assert clamp_table(table, knob_ranges, cpu).tolist() == want

    def test_every_ladder_midpoint_and_its_neighbours(self):
        table = [[1.0, f, 0.5, 4.0, 32.0] for f in MIDPOINTS]
        snapped = clamp_table(table, DEFAULT_RANGES, CPU)[:, 1].tolist()
        assert snapped == [CPU.clamp_frequency(f) for f in MIDPOINTS]
        # Below a midpoint the lower step, above it the upper one.
        assert snapped[0::3] == list(LADDER[:-1])
        assert snapped[2::3] == list(LADDER[1:])

    def test_batches_round_half_to_even(self):
        table = [[1.0, 2.1, 0.5, 4.0, b] for b in (1.5, 2.5, 32.5, 255.5, 256.5)]
        assert clamp_table(table)[:, 4].tolist() == [2.0, 2.0, 32.0, 256.0, 256.0]

    @pytest.mark.parametrize(
        "column, value",
        [(c, v) for c in range(5) for v in (np.nan, np.inf, -np.inf, 0.0, -1.0)]
        + [(2, 1.5), (2, float(np.nextafter(1.0, 2.0))), (4, 0.5),
           (4, float(np.nextafter(1.0, 0.0)))],
    )
    def test_refuses_what_the_constructor_refuses(self, column, value):
        row = [1.0, 2.1, 0.5, 4.0, 32.0]
        row[column] = value
        with pytest.raises(ValueError) as want:
            KnobSettings(*row)
        for table in ([row], [[1.0, 2.1, 1.0, 4.0, 1.0], row]):
            with pytest.raises(ValueError) as got:
                clamp_table(table)
            assert str(got.value) == str(want.value)

    def test_the_closed_bounds_are_valid(self):
        assert clamp_table([[1.0, 2.1, 1.0, 4.0, 1.0]]).tolist() == [
            [1.0, 2.1, 1.0, 4.0, 1.0]
        ]

    @pytest.mark.parametrize("value", ["2.0", None, [1, 2], 1j])
    def test_values_that_are_not_real_numbers(self, value):
        with pytest.raises(TypeError):
            clamp_table([[1.0, 2.1, 0.5, 4.0, 32.0], [value, 2.1, 0.5, 4.0, 32.0]])


def shard(n_nodes=3, per_node=3) -> ShardSim:
    tickets = tuple(
        ChainTicket(
            name=f"n{i}c{j}",
            nfs=kind_nfs("mixed", i * per_node + j),
            flow=f"f{i}",
            node=i,
            knobs={"cpu_share": 0.5 + 0.1 * j, "llc_fraction": 0.2},
        )
        for i in range(n_nodes)
        for j in range(per_node)
    )
    return ShardSim(
        ShardConfig(
            name="s",
            n_nodes=n_nodes,
            interval_s=1.0,
            sla="latency",
            sla_params={"latency_bound_s": 1e-3},
            workload=WorkloadConfig(peak_rate_pps=5e5).to_dict(),
            parked_power_w=10.0,
            initial_chains=tickets,
        )
    )


def reference_set_knobs(sim: ShardSim, updates) -> None:
    """The per-object knob command: one ``KnobSettings`` per entry, then
    each chain's ``apply_knobs`` on its node."""
    entries = []
    for name, knob_settings in updates.items():
        if name not in sim._tickets:
            raise KeyError(name)
        node = sim.nodes[sim._tickets[name].node]
        entries.append((node, name, node.chains[name].knobs.with_updates(**knob_settings)))
    for node, name, knobs in entries:
        node.apply_knobs(name, knobs)


def snapshot(sim: ShardSim):
    return [(node.table.tolist(), node._config_gen) for node in sim.nodes]


BAD_VALUES = [
    (knob, value)
    for knob in KNOB_NAMES
    for value in (float("nan"), float("inf"), float("-inf"), 0.0, -2.0)
] + [("llc_fraction", 1.25), ("batch_size", 0.5), ("batch_size", 0)]


class TestCommandRejection:
    @settings(deadline=None, max_examples=200)
    @given(
        st.lists(st.sampled_from([f"n{i}c{j}" for i in range(3) for j in range(3)]),
                 unique=True, min_size=0, max_size=8),
        st.one_of(
            st.sampled_from(BAD_VALUES).map(lambda kv: ("value", kv)),
            st.just(("knob", ("cpu_shares", 1.0))),
            st.just(("name", ("ghost", None))),
        ),
        st.integers(min_value=0, max_value=8),
    )
    def test_same_exception_type_and_nothing_changes(self, names, fault, where):
        updates = {name: {"cpu_share": 0.9, "cpu_freq_ghz": 1.65} for name in names}
        kind, (key, value) = fault
        items = list(updates.items())
        if kind == "name":
            items.insert(min(where, len(items)), ("ghost", {"cpu_share": 0.9}))
        else:
            if not items:
                items = [("n0c0", {})]
            items[min(where, len(items) - 1)][1][key] = value
        updates = dict(items)
        ref = shard()
        with pytest.raises(Exception) as want:
            reference_set_knobs(ref, updates)
        sim = shard()
        before = snapshot(sim)
        with pytest.raises(want.type):
            sim.set_knobs(updates)
        assert snapshot(sim) == before


class TestKnobOnlyCommands:
    def test_a_knob_command_restacks_no_chain(self, monkeypatch):
        calls = []
        stack = cluster_kernel.stack_profiles

        def counted(profiles):
            calls.append(1)
            return stack(profiles)

        monkeypatch.setattr(cluster_kernel, "stack_profiles", counted)
        sim = shard()
        sim.run(hosted_loads(sim, 0, 2))
        assert len(calls) == 1
        sim.set_knobs({name: {"cpu_share": 1.2, "batch_size": 64} for name in sim.load_rows})
        counts = plan_cache_counts(sim.run, hosted_loads(sim, 2, 2))[1]
        assert counts == {"promote": 1, "hit": 1}  # compiled, but nothing stacked
        assert len(calls) == 1
        sim.undeploy(sim.load_rows[0])
        sim.run(hosted_loads(sim, 4, 2))
        assert len(calls) == 2

    def test_a_command_that_moves_nothing_compiles_nothing(self):
        sim = shard()
        sim.set_knobs({name: {"cpu_freq_ghz": 2.1, "cpu_share": 1.5} for name in sim.load_rows[:4]})
        sim.run(hosted_loads(sim, 0, 2))
        before = snapshot(sim)
        # Each of these clamps to the value the chain already has.
        sim.set_knobs(
            {
                sim.load_rows[0]: {"cpu_freq_ghz": 2.14, "cpu_share": 9.0},
                sim.load_rows[1]: {"cpu_freq_ghz": 2.1},
                sim.load_rows[5]: {"llc_fraction": 0.2, "batch_size": 32.4},
                sim.load_rows[6]: {},
            }
        )
        assert snapshot(sim) == before
        assert plan_cache_counts(sim.run, hosted_loads(sim, 2, 3))[1] == {"hit": 3}
