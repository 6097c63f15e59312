"""The fleet's counter-based draws, pinned to numpy's own seeding.

``interval_keys`` re-derives ``PCG64(SeedSequence(entropy=seed,
spawn_key=(hash, index)))`` for a whole key array, and
``WorkloadConfig.offered`` builds a cycle's load block from those keys
in one pass.  Both must match the per-key numpy path bit for bit: the key
states and first draws against numpy itself, the block against
``reference_offered`` (the per-key body in ``benchmarks/perf/reference.py``)
at 0 ulp, the coordinator's per-cycle blocks against the same reference
and against the chains the shards host when each block is handed out
(the coordinator draws it a cycle ahead), and whole fleet runs against
runs that draw through the reference.
``first_normals`` runs numpy's ziggurat fast path in arrays with the
tables in ``repro/fleet/ziggurat.py``; ``TestZiggurat`` pins every table
entry against numpy's Generator, and this module regenerates the tables
by probing it::

    PYTHONPATH=src python tests/test_fleet_draws.py --regen
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from repro.fleet import (
    FlashCrowdConfig,
    FleetCoordinator,
    FleetSpec,
    LoadBlock,
    WorkloadConfig,
    run_fleet,
)
from repro.fleet.spec import FLEETS
from repro.fleet.workload import (
    MAX_INTERVAL_INDEX,
    first_normals,
    first_uniforms,
    interval_keys,
    stream_hashes,
)
from repro.fleet.ziggurat import KI, WI
from repro.scenario import ScenarioSpec
from repro.utils.rng import hash_name

SEEDS = (0, 1, 2**32 + 5, 2**130 + 9)
#: Hashes SeedSequence encodes as one word, the smallest and largest it
#: encodes as two, then 500 real name hashes.
HASHES = (0, 1, 5, 2**32 - 1, 2**32, 2**64 - 1) + tuple(
    hash_name(f"fleet/load/c{i}") for i in range(500)
)
INDICES = (0, MAX_INTERVAL_INDEX)
SIGMA = 0.03


def _numpy_generator(seed, name_hash, index):
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(name_hash, index))
    return np.random.Generator(np.random.PCG64(seq))


class TestKeysMatchNumpy:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_state_and_first_draws(self, seed):
        hashes = np.array(HASHES, dtype=np.uint64)[:, None]
        keys = interval_keys(seed, hashes, np.array(INDICES)[None, :])
        assert all(limb.shape == (len(HASHES), len(INDICES)) for limb in keys)
        state_hi, state_lo, inc_hi, inc_lo = (limb.tolist() for limb in keys)
        uniforms = first_uniforms(keys)
        normals = first_normals(keys, SIGMA)
        want_normals = np.empty_like(normals)
        for r, name_hash in enumerate(HASHES):
            for c, index in enumerate(INDICES):
                want = _numpy_generator(seed, name_hash, index)
                state = want.bit_generator.state["state"]
                assert state["state"] == state_hi[r][c] << 64 | state_lo[r][c]
                assert state["inc"] == inc_hi[r][c] << 64 | inc_lo[r][c]
                assert uniforms[r, c] == want.random()
                again = _numpy_generator(seed, name_hash, index)
                want_normals[r, c] = again.normal(0.0, SIGMA)
        assert normals.tobytes() == want_normals.tobytes()

    def test_keys_broadcast_and_empty(self):
        keys = interval_keys(3, np.array([hash_name("a")], dtype=np.uint64), [4, 5, 6])
        assert keys[0].shape == (3,)
        empty = interval_keys(3, np.zeros((0, 1), dtype=np.uint64), np.arange(4))
        assert empty[0].shape == (0, 4)
        assert first_normals(empty, SIGMA).shape == (0, 4)

    @pytest.mark.parametrize(
        "seed, indices, match",
        [
            (-1, [0], "seed"),
            (0, [-1], "interval indices"),
            (0, [MAX_INTERVAL_INDEX + 1], str(MAX_INTERVAL_INDEX)),
        ],
    )
    def test_out_of_range_keys_raise(self, seed, indices, match):
        with pytest.raises(ValueError, match=match):
            interval_keys(seed, np.array([5], dtype=np.uint64), indices)

    @pytest.mark.parametrize(
        "start, n, match", [(-1, 2, "start"), (0, 0, "at least one"), (3, -1, "n=")]
    )
    def test_bad_block_raises(self, start, n, match):
        with pytest.raises(ValueError, match=match):
            WorkloadConfig().offered(0, stream_hashes(["c"]), start, n, 1.0)


# -- the block against the per-key reference --------------------------------------

NAMES = ("s0-n0-c0", "s0-n0-c1", "s1-n3-c2", "dyn-17", "x", "a-rather-long-chain-name")
BLOCKS = ((0, 1), (0, 5), (3, 2), (17, 8))


def _variants(preset):
    base = WorkloadConfig.from_dict(FLEETS.get(preset)()["workload"])
    return {
        "preset": base,
        "flash": dataclasses.replace(
            base,
            flash=FlashCrowdConfig(
                probability=0.4, multiplier=base.flash.multiplier, duration_intervals=3
            ),
        ),
        "constant": dataclasses.replace(base, profile="constant"),
        "noiseless": dataclasses.replace(base, noise_std=0.0),
    }


def _reference_block(reference, workload, seed, names, start, n, dt_s):
    return np.array(
        [
            [
                reference.reference_offered(workload, seed, name, t, dt_s)
                for t in range(start, start + n)
            ]
            for name in names
        ],
        dtype=np.float64,
    ).reshape(len(names), n)


@pytest.mark.parametrize("variant", ["preset", "flash", "constant", "noiseless"])
@pytest.mark.parametrize("preset", ["small", "medium", "wan", "datacenter"])
def test_block_equals_reference(perf_reference, preset, variant):
    workload = _variants(preset)[variant]
    for seed in (0, 1, 7):
        for start, n in BLOCKS:
            block = workload.offered(seed, stream_hashes(NAMES), start, n, 1.0)
            want = _reference_block(perf_reference, workload, seed, NAMES, start, n, 1.0)
            assert block.shape == want.shape
            assert np.array_equal(block, want), (seed, start, n)


def test_clamp_matches_python_max(perf_reference):
    # Level 0 at every interval midpoint and noise below -1 about a third
    # of the time: Python's max(0.0, -0.0) is 0.0, where np.maximum would
    # keep the -0.0.
    workload = WorkloadConfig(trough_fraction=0.0, period_s=0.5, noise_std=2.0)
    block = workload.offered(1, stream_hashes(NAMES), 0, 8, 1.0)
    want = _reference_block(perf_reference, workload, 1, NAMES, 0, 8, 1.0)
    assert not np.signbit(block).any()
    assert block.tobytes() == want.tobytes()
    noisy = dataclasses.replace(workload, period_s=64.0)
    block = noisy.offered(1, stream_hashes(NAMES), 0, 8, 1.0)
    assert (block == 0.0).any()
    assert np.array_equal(block, _reference_block(perf_reference, noisy, 1, NAMES, 0, 8, 1.0))


@pytest.mark.parametrize("preset", ["small", "medium", "wan"])
def test_fleet_run_equals_reference_draws(perf_reference, monkeypatch, preset):
    spec = ScenarioSpec(
        name=f"draws-{preset}", controller="static", fleet={"preset": preset}, seed=3
    )
    block = run_fleet(spec, backend="local").comparable()
    drawn = []

    def reference_draw(self, names, start):
        drawn.append(len(names))
        pps = _reference_block(
            perf_reference,
            self.fleet.workload,
            self.seed,
            names,
            start,
            self.fleet.sync_every,
            self.interval_s,
        )
        return LoadBlock(start, tuple(names), pps)

    monkeypatch.setattr(FleetCoordinator, "_draw_loads", reference_draw)
    assert run_fleet(spec, backend="local").comparable() == block
    assert drawn


def _churny_fleet(sync_every, **section):
    return FleetSpec.from_mapping(
        {
            "preset": "small",
            "sync_every": sync_every,
            "workload": {
                "noise_std": 0.2,
                "flash": {"probability": 0.3, "duration_intervals": 3},
                "churn": {"arrivals_per_cycle": 1.5, "departure_prob": 0.3},
            },
            **section,
        }
    )


def _migrating_fleet(sync_every):
    """One chain per node under a light load: consolidation moves chains
    across shards while churn adds and drops others."""
    return _churny_fleet(
        sync_every,
        topology={"preset": "full-mesh", "n_shards": 2, "nodes": 2, "chains_per_node": 1},
        workload={
            "peak_rate_pps": 3e5,
            "noise_std": 0.2,
            "flash": {"probability": 0.3, "duration_intervals": 3},
            "churn": {"arrivals_per_cycle": 0.5, "departure_prob": 0.1},
        },
    )


@pytest.mark.parametrize(
    "backend", ["local", pytest.param("process", marks=pytest.mark.fleet_mp)]
)
@pytest.mark.parametrize("layout", ["churn", "migrate"])
@pytest.mark.parametrize("sync_every", [1, 3, 4])
def test_coordinator_blocks_equal_reference(
    perf_reference, monkeypatch, sync_every, layout, backend
):
    # Every block the coordinator draws, one per cycle, holds each chain's
    # per-key reference rows, whatever the block's composition (churn
    # adds and drops chains, consolidation moves them) and however the
    # run is split into cycles.  A block is drawn while the shards step
    # the cycle before it, yet holds exactly the chains they host when
    # it is handed out.
    make = _churny_fleet if layout == "churn" else _migrating_fleet
    fleet = make(sync_every).with_updates(backend=backend)
    draw = FleetCoordinator._draw_loads
    blocks = []
    handed_out = []

    def recording_draw(self, names, start):
        block = draw(self, names, start)
        blocks.append(block)
        return block

    monkeypatch.setattr(FleetCoordinator, "_draw_loads", recording_draw)
    with FleetCoordinator(fleet, seed=5) as coordinator:
        handles = list(coordinator.handles.values())
        begin = handles[0].begin_run

        def recording_begin(block):
            # Every shard's chains as the first shard gets its rows; no
            # command reaches a shard until all have theirs.
            hosted = [name for h in handles for name in h.load_rows]
            handed_out.append((block.start, sorted(hosted)))
            begin(block)

        handles[0].begin_run = recording_begin
        coordinator.run_cycles(4)
        coordinator.run_cycles(2)
        assert len(blocks) == 6
        # A chain's stream hashes come with its arrival and go with its
        # departure.
        assert set(coordinator._hashes) == set(coordinator._placement)
        result = coordinator.result()
    assert {c["event"] for c in result.churn} == {"arrival", "departure"}
    if layout == "migrate":
        assert any(m["src_shard"] != m["dst_shard"] for m in result.migrations)
    assert any(name.startswith("dyn-") for b in blocks for name in b.names)
    assert [(b.start, sorted(b.names)) for b in blocks] == handed_out
    workload = fleet.workload
    for block in blocks:
        assert block.pps.shape == (len(block.names), sync_every)
        want = _reference_block(
            perf_reference, workload, 5, block.names, block.start, sync_every, 1.0
        )
        assert block.pps.tobytes() == want.tobytes(), block.start
    # Blocks tile the run's intervals in order.
    assert [b.start for b in blocks] == [i * sync_every for i in range(6)]


def test_fleet_that_starts_empty_draws_its_arrivals():
    # The first block has no rows at all; the chains churn admits are
    # drawn from the next cycle on.
    empty = {"preset": "full-mesh", "n_shards": 2, "nodes": 2, "chains_per_node": 0}
    fleet = _churny_fleet(2, topology=empty)
    with FleetCoordinator(fleet, seed=4) as coordinator:
        coordinator.run_cycles(4)
        result = coordinator.result()
    assert result.intervals[0]["chains"] == 0
    assert result.totals["arrivals"] > 0
    assert result.intervals[-1]["offered_pps"] > 0.0


def test_block_take_picks_rows_by_name():
    block = LoadBlock(4, ("a", "b", "c"), np.arange(6.0).reshape(3, 2))
    taken = block.take(["c", "a"])
    assert taken.start == 4 and taken.names == ("c", "a")
    assert taken.pps.tolist() == [[4.0, 5.0], [0.0, 1.0]]
    assert block.take([]).pps.shape == (0, 2)
    with pytest.raises(KeyError):
        block.take(["ghost"])


def test_stream_hashes():
    hashes = stream_hashes(["c0", "dyn-17"])
    assert hashes.dtype == np.uint64 and hashes.shape == (2, 2)
    assert hashes.tolist() == [
        [hash_name("fleet/load/c0"), hash_name("fleet/flash/c0")],
        [hash_name("fleet/load/dyn-17"), hash_name("fleet/flash/dyn-17")],
    ]
    assert stream_hashes([]).shape == (0, 2)
    empty = WorkloadConfig().offered(1, stream_hashes([]), 0, 3, 1.0)
    assert empty.shape == (0, 3)


# -- numpy's ziggurat: tables and fast path ---------------------------------------
#
# numpy's standard normal (random_standard_normal in numpy/random/src/
# distributions/distributions.c) splits one 64-bit output r into a layer
# idx = r & 0xFF, a sign (bit 8) and a magnitude rabs = (r >> 9) &
# (2**52 - 1), and returns +-rabs * wi[idx] from that output alone when
# rabs < ki[idx].  _generator_for(r) seeds a PCG64 whose first output is
# r, so a draw can be steered to any (idx, sign, rabs).

#: PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
#: Any odd increment will do.
_PROBE_INC = 0xDA3E39CB94B95BDB
TABLES_PATH = Path(__file__).resolve().parent.parent / "src/repro/fleet/ziggurat.py"


def _output(idx, rabs, negative=False):
    """The output that picks layer ``idx``, the sign and magnitude ``rabs``."""
    return rabs << 9 | int(negative) << 8 | idx


def _state_for(output):
    """The PCG64 state whose first output is ``output``.

    The stepped state ``output`` has a zero high limb, so XSL-RR neither
    rotates nor mixes and returns the low limb; the state before the
    step inverts the LCG.
    """
    return (output - _PROBE_INC) * pow(_PCG_MULT, -1, 2**128) % 2**128


def _generator_for(output):
    gen = np.random.Generator(np.random.PCG64(0))
    gen.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": _state_for(output), "inc": _PROBE_INC},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


def _standard_draw(output):
    """numpy's standard normal from the key whose first output is
    ``output``, and whether the draw read that one output only."""
    gen = _generator_for(output)
    x = gen.standard_normal()
    return x, gen.bit_generator.state["state"]["state"] == output


def _keys_for(outputs):
    """``interval_keys``-style limbs of the states ``_generator_for`` sets."""
    states = [_state_for(r) for r in outputs]
    return (
        np.array([s >> 64 for s in states], dtype=np.uint64),
        np.array([s & (2**64 - 1) for s in states], dtype=np.uint64),
        np.full(len(states), _PROBE_INC >> 64, dtype=np.uint64),
        np.full(len(states), _PROBE_INC & (2**64 - 1), dtype=np.uint64),
    )


def _numpy_normals(outputs, scale):
    return np.array([_generator_for(r).normal(0.0, scale) for r in outputs])


class TestZiggurat:
    def test_tables_match_numpy(self):
        assert len(WI) == len(KI) == 256
        for idx in range(256):
            assert _standard_draw(_output(idx, 1))[0] == WI[idx], idx
            if KI[idx] > 0:
                assert _standard_draw(_output(idx, KI[idx] - 1))[1], idx
            assert not _standard_draw(_output(idx, KI[idx]))[1], idx

    @pytest.mark.parametrize("scale", [SIGMA, 1.0, 0.0])
    def test_edge_keys_equal_generator(self, scale):
        outputs = [
            _output(0, KI[0]),  # layer 0's tail
            _output(0, 2**52 - 1, negative=True),
            _output(1, 0),  # ki[1] == 0: always off the fast path
            _output(100, KI[100]),  # a wedge
            _output(100, KI[100] - 1, negative=True),
            _output(7, 0, negative=True),  # x == -0.0
            _output(7, 0),
            _output(255, KI[255] - 1) | 7 << 61,  # bits above rabs unused
        ]
        got = first_normals(_keys_for(outputs), scale)
        assert got.tobytes() == _numpy_normals(outputs, scale).tobytes()

    def test_blocks_equal_generator(self):
        outputs = np.random.default_rng(5).integers(
            0, 2**64, size=4000, dtype=np.uint64
        ).tolist()
        rabs = [(r >> 9) & (2**52 - 1) for r in outputs]
        assert sum(a >= KI[r & 0xFF] for a, r in zip(rabs, outputs)) > 20
        keys = tuple(limb.reshape(40, 100) for limb in _keys_for(outputs))
        got = first_normals(keys, SIGMA)
        assert got.shape == (40, 100)
        want = _numpy_normals(outputs, SIGMA).reshape(40, 100)
        assert got.tobytes() == want.tobytes()
        empty = first_normals(_keys_for([]), SIGMA)
        assert empty.shape == (0,) and empty.dtype == np.float64


def _probe_tables():
    """numpy's ziggurat tables, read back from its Generator.

    ``wi[idx]`` is the draw of magnitude 1 on layer ``idx``; ``ki[idx]``
    is the smallest magnitude whose draw reads more than one output,
    found by bisection (the fast path takes ``rabs < ki[idx]``).
    """
    wi, ki = [], []
    for idx in range(256):
        wi.append(_standard_draw(_output(idx, 1))[0])
        lo, hi = 0, 2**52
        while lo < hi:
            mid = (lo + hi) // 2
            if _standard_draw(_output(idx, mid))[1]:
                lo = mid + 1
            else:
                hi = mid
        ki.append(lo)
    return wi, ki


_TABLES_HEADER = '''"""numpy's ziggurat tables for its standard normal, as literals.

numpy's ``Generator.normal`` draws with a 256-layer ziggurat
(``random_standard_normal`` in numpy/random/src/distributions/
distributions.c).  It splits one 64-bit output ``r`` into a layer
``idx = r & 0xFF``, a sign (bit 8) and a magnitude ``rabs = (r >> 9) &
(2**52 - 1)``, and returns ``+-rabs * WI[idx]`` when ``rabs < KI[idx]``.
:func:`repro.fleet.workload.first_normals` runs that fast path in arrays.

Generated by probing numpy's Generator, not from the ziggurat formulas,
and pinned entry by entry in ``tests/test_fleet_draws.py``; regenerate
with::

    PYTHONPATH=src python tests/test_fleet_draws.py --regen
"""

'''


def _render_tables(wi, ki) -> str:
    def rows(items, per_line):
        return "".join(
            "    " + ", ".join(items[i : i + per_line]) + ",\n"
            for i in range(0, len(items), per_line)
        )

    return (
        _TABLES_HEADER
        + "#: Layer widths: the fast-path draw is ``rabs * WI[idx]``.\n"
        + "WI = (\n" + rows([repr(w) for w in wi], 3) + ")\n\n"
        + "#: Fast-path bounds: the draw reads one output when ``rabs < KI[idx]``.\n"
        + "KI = (\n" + rows([f"0x{k:016X}" for k in ki], 4) + ")\n"
    )


def _regen() -> None:
    TABLES_PATH.write_text(_render_tables(*_probe_tables()), encoding="utf-8")
    print(f"wrote {TABLES_PATH}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
