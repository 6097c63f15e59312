"""The fleet's counter-based draws, pinned to numpy's own seeding.

``interval_keys`` re-derives ``PCG64(SeedSequence(entropy=seed,
spawn_key=(hash, index)))`` for a whole key array, and
``WorkloadConfig.offered`` builds a shard run's load block from those
keys.  Both must match the per-key numpy path bit for bit: the key
states and first draws against numpy itself, the block against
``reference_offered`` (the per-key body in ``benchmarks/perf/reference.py``)
at 0 ulp, and whole fleet runs against runs that draw through the
reference.
"""

import dataclasses

import numpy as np
import pytest

from repro.fleet import FlashCrowdConfig, WorkloadConfig, run_fleet
from repro.fleet.spec import FLEETS
from repro.fleet.workload import (
    MAX_INTERVAL_INDEX,
    first_normals,
    first_uniforms,
    interval_keys,
)
from repro.scenario import ScenarioSpec
from repro.utils.rng import hash_name

SEEDS = (0, 1, 2**32 + 5, 2**130 + 9)
#: Hashes SeedSequence encodes as one word, then 500 real name hashes.
HASHES = (0, 5, 2**32 - 1) + tuple(hash_name(f"fleet/load/c{i}") for i in range(500))
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
        for r, name_hash in enumerate(HASHES):
            for c, index in enumerate(INDICES):
                want = _numpy_generator(seed, name_hash, index)
                state = want.bit_generator.state["state"]
                assert state["state"] == state_hi[r][c] << 64 | state_lo[r][c]
                assert state["inc"] == inc_hi[r][c] << 64 | inc_lo[r][c]
                assert uniforms[r, c] == want.random()
                again = _numpy_generator(seed, name_hash, index)
                assert normals[r, c] == again.normal(0.0, SIGMA)

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
            WorkloadConfig().offered(0, ["c"], start, n, 1.0)


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
            block = workload.offered(seed, list(NAMES), start, n, 1.0)
            want = _reference_block(perf_reference, workload, seed, NAMES, start, n, 1.0)
            assert block.shape == want.shape
            assert np.array_equal(block, want), (seed, start, n)


def test_clamp_matches_python_max(perf_reference):
    # Level 0 at every interval midpoint and noise below -1 about a third
    # of the time: Python's max(0.0, -0.0) is 0.0, where np.maximum would
    # keep the -0.0.
    workload = WorkloadConfig(trough_fraction=0.0, period_s=0.5, noise_std=2.0)
    block = workload.offered(1, list(NAMES), 0, 8, 1.0)
    want = _reference_block(perf_reference, workload, 1, NAMES, 0, 8, 1.0)
    assert not np.signbit(block).any()
    assert block.tobytes() == want.tobytes()
    noisy = dataclasses.replace(workload, period_s=64.0)
    block = noisy.offered(1, list(NAMES), 0, 8, 1.0)
    assert (block == 0.0).any()
    assert np.array_equal(block, _reference_block(perf_reference, noisy, 1, NAMES, 0, 8, 1.0))


@pytest.mark.parametrize("preset", ["small", "medium", "wan"])
def test_fleet_run_equals_reference_draws(perf_reference, monkeypatch, preset):
    spec = ScenarioSpec(
        name=f"draws-{preset}", controller="static", fleet={"preset": preset}, seed=3
    )
    block = run_fleet(spec, backend="local").comparable()

    def reference_offered(self, seed, names, start, n, dt_s):
        return _reference_block(perf_reference, self, seed, names, start, n, dt_s)

    monkeypatch.setattr(WorkloadConfig, "offered", reference_offered)
    assert run_fleet(spec, backend="local").comparable() == block
