"""Dynamic fleet workloads: diurnal curves, flash crowds, chain churn.

The single-cluster experiments drive each chain with one stateful
:class:`~repro.traffic.generators.TrafficGenerator`.  A fleet cannot do
that: chains *migrate* between shards (and between worker processes), so
any RNG state carried inside a generator would have to be shipped along
and replayed in exactly the same order for the run to stay reproducible.

Instead, every stochastic input here is **counter-based**: the draw for
chain ``c`` at global interval ``t`` comes from the PCG64 stream that
``SeedSequence(entropy=seed, spawn_key=(hash_name(stream name), t))``
seeds (:func:`interval_stream`).  A chain's offered-load trajectory is
therefore a pure function of the spec — independent of which shard hosts
it, of its migration history, and of the worker count — which is what
makes process-backed fleet runs bit-identical to the in-process
reference.

Building a ``SeedSequence`` per draw costs tens of microseconds, so the
fleet coordinator draws a whole cycle's ``(chains, intervals)`` load
block at once, for every chain in the fleet, with
:meth:`WorkloadConfig.offered`, from stream-name hashes it computes when
a chain enters the fleet (:func:`stream_hashes`).  One
:func:`interval_keys` pass re-derives numpy's seeding for every load and
flash key of the block in uint32/uint64 lanes, flash-crowd starts come
from those states' first uniforms, and the diurnal noise is numpy's
ziggurat normal run on their first outputs with numpy's own tables
(:mod:`repro.fleet.ziggurat`).  Only the keys that miss the ziggurat's
one-output fast path, about 1.5%, go through a
:class:`numpy.random.Generator`, one key at a time.  Every entry equals
the per-key :func:`interval_stream` draw bit for bit.  Each shard is
handed its own rows as a :class:`LoadBlock`.
Churn and the genetic placement draw once per coordinator cycle and keep
:func:`interval_stream`.

The load shapes themselves reuse :mod:`repro.traffic.generators`
(:class:`~repro.traffic.generators.DiurnalGenerator` for the day/night
curve); flash crowds multiply the base rate for a bounded window, and
Poisson churn (chain arrival/departure) is drawn per coordinator cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from repro.fleet.ziggurat import KI, WI
from repro.traffic.generators import DiurnalGenerator
from repro.utils.rng import hash_name

#: Load profiles a fleet workload may use.
PROFILES = ("constant", "diurnal")

#: Largest interval index a counter-based key holds: numpy encodes a
#: spawn-key entry below 2**32 as one uint32 word, and :func:`interval_keys`
#: implements only that encoding.
MAX_INTERVAL_INDEX = 2**32 - 1


def interval_stream(seed: int, name: str, index: int) -> np.random.Generator:
    """A fresh generator keyed on ``(seed, name, index)`` only.

    Counter-based randomness: no state survives between draws, so any
    component in any process reproduces the same stream from the same
    key.  ``name`` is hashed with the same order-independent FNV-1a as
    :class:`~repro.utils.rng.StreamFactory`, so streams for different
    names (and different indices) are statistically independent.
    """
    if index < 0:
        raise ValueError("interval index must be >= 0")
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(hash_name(name), index))
    return np.random.default_rng(seq)


# -- counter-based keys as arrays -----------------------------------------------
#
# numpy's SeedSequence (numpy/random/bit_generator.pyx) hashes its entropy
# words -- the seed's, then the spawn key's -- into a 4-word uint32 pool,
# and PCG64 seeds its 128-bit LCG from the pool's generate_state(4,
# uint64).  interval_keys runs the same arithmetic in uint32/uint64
# lanes, one lane per key.

_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
#: PCG64's 128-bit LCG multiplier, as 64-bit limbs.
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def _const_chain(const: int, mult: int, n: int) -> list[int]:
    """``const * mult**j`` (mod 2**32) for ``j < n``: the hash constants
    SeedSequence steps through, one per hash."""
    out = []
    for _ in range(n):
        out.append(const)
        const = (const * mult) & _M32
    return out


#: generate_state's hash constants: output word ``i`` is xored with
#: entry ``i`` and multiplied by entry ``i + 1``.
_STATE_CONSTS = np.array(_const_chain(_INIT_B, _MULT_B, 9), dtype=np.uint32)[:, None]


def _seed_constants(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The seed's share of every key: ``(pool, consts)``.

    ``pool`` is SeedSequence's pool after the seed's entropy words, and
    ``consts`` are the 13 hash constants the spawn words use next.  Both
    depend on the seed alone, so they are computed here as Python ints.
    """
    words = [seed & _M32]
    while seed >> 32 * len(words):
        words.append((seed >> 32 * len(words)) & _M32)
    # A spawn key follows, so the seed words are zero-padded to the pool.
    words += [0] * (4 - len(words))
    const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = (const * _MULT_A) & _M32
        value = (value * const) & _M32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        value = (_MIX_L * x - _MIX_R * y) & _M32
        return value ^ (value >> 16)

    pool = [hashmix(w) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    return (
        np.array(pool, dtype=np.uint32)[:, None],
        np.array(_const_chain(const, _MULT_A, 13), dtype=np.uint32)[:, None],
    )


def _absorb(pool: np.ndarray, word: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """Mix one spawn word into each pool word, hashing it afresh with the
    next constant each time."""
    hashed = (word ^ consts[:-1]) * consts[1:]
    hashed ^= hashed >> 16
    mixed = np.uint32(_MIX_L) * pool - np.uint32(_MIX_R) * hashed
    return mixed ^ (mixed >> 16)


def _mulhi64(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of the 128-bit products ``a * b``, from 32-bit halves."""
    a_lo, a_hi = a & _M32, a >> 32
    b_lo, b_hi = np.uint64(b & _M32), np.uint64(b >> 32)
    cross_1, cross_2 = a_hi * b_lo, a_lo * b_hi
    mid = ((a_lo * b_lo) >> 32) + (cross_1 & _M32) + (cross_2 & _M32)
    return a_hi * b_hi + (cross_1 >> 32) + (cross_2 >> 32) + (mid >> 32)


def _add128(a_hi, a_lo, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    """``a + b`` (mod 2**128) in uint64 limbs."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _lcg_step(hi, lo, inc_hi, inc_lo) -> tuple[np.ndarray, np.ndarray]:
    """PCG64's transition ``state * MULT + inc`` (mod 2**128)."""
    prod_hi = (
        _mulhi64(lo, _PCG_MULT_LO)
        + lo * np.uint64(_PCG_MULT_HI)
        + hi * np.uint64(_PCG_MULT_LO)
    )
    return _add128(prod_hi, lo * np.uint64(_PCG_MULT_LO), inc_hi, inc_lo)


def interval_keys(seed: int, name_hashes, indices) -> tuple[np.ndarray, ...]:
    """The PCG64 states of :func:`interval_stream`, for a key array at once.

    ``name_hashes`` (:func:`~repro.utils.rng.hash_name` values) and
    ``indices`` broadcast against each other.  Returns the uint64 limbs
    ``(state_hi, state_lo, inc_hi, inc_lo)`` of
    ``PCG64(SeedSequence(entropy=seed, spawn_key=(hash, index)))`` for
    every key: numpy's ``bit_generator.state`` bit for bit.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    hashes, index = np.broadcast_arrays(
        np.asarray(name_hashes, dtype=np.uint64), np.asarray(indices, dtype=np.int64)
    )
    if index.size and (index.min() < 0 or index.max() > MAX_INTERVAL_INDEX):
        raise ValueError(
            f"interval indices must be in [0, {MAX_INTERVAL_INDEX}], "
            f"got [{index.min()}, {index.max()}]"
        )
    shape = hashes.shape
    index = index.ravel().astype(np.uint32)
    hash_lo = (hashes.ravel() & _M32).astype(np.uint32)
    hash_hi = (hashes.ravel() >> 32).astype(np.uint32)
    # SeedSequence encodes a hash below 2**32 as one word: the index is
    # then the second spawn word, and there is no third.
    two_words = hash_hi != 0
    pool, consts = _seed_constants(seed)
    pool = _absorb(pool, hash_lo, consts[0:5])
    pool = _absorb(pool, np.where(two_words, hash_hi, index), consts[4:9])
    pool = np.where(two_words, _absorb(pool, index, consts[8:13]), pool)
    # generate_state(4, uint64): eight hashed words cycling over the pool,
    # paired little-endian into (seed_hi, seed_lo, seq_hi, seq_lo).
    words = (pool[[0, 1, 2, 3, 0, 1, 2, 3]] ^ _STATE_CONSTS[:-1]) * _STATE_CONSTS[1:]
    words = (words ^ (words >> 16)).astype(np.uint64)
    seed_hi, seed_lo, seq_hi, seq_lo = words[0::2] | (words[1::2] << 32)
    # PCG64 seeding: inc = 2 * seq + 1, then two LCG steps around the seed.
    inc_hi = (seq_hi << 1) | (seq_lo >> 63)
    inc_lo = (seq_lo << 1) | 1
    state_hi, state_lo = _lcg_step(
        *_add128(inc_hi, inc_lo, seed_hi, seed_lo), inc_hi, inc_lo
    )
    return (
        state_hi.reshape(shape),
        state_lo.reshape(shape),
        inc_hi.reshape(shape),
        inc_lo.reshape(shape),
    )


def _first_outputs(keys: tuple[np.ndarray, ...]) -> np.ndarray:
    """Each key's first 64-bit output: PCG64 steps its state and returns
    the XSL-RR mix of the new state."""
    hi, lo = _lcg_step(*keys)
    rot = hi >> 58
    mixed = hi ^ lo
    return (mixed >> rot) | (mixed << ((64 - rot) & 63))


def first_uniforms(keys: tuple[np.ndarray, ...]) -> np.ndarray:
    """Each key's first ``Generator.random()`` draw: the top 53 bits of
    its first output."""
    return (_first_outputs(keys) >> 11) * 2.0**-53


# numpy's ziggurat (random_standard_normal in numpy/random/src/distributions/
# distributions.c) splits one output r into a layer idx = r & 0xFF, a sign
# (bit 8) and a magnitude rabs = (r >> 9) & (2**52 - 1).  Indexed by
# r & 0x1FF, entry 256 + idx holds -wi[idx]: the sign bit picks the
# negated weight, and rabs * -w is exactly -(rabs * w).
_ZIG_W = np.array(WI + tuple(-w for w in WI))
_ZIG_K = np.array(KI + KI, dtype=np.uint64)


def first_normals(keys: tuple[np.ndarray, ...], scale: float) -> np.ndarray:
    """Each key's first ``Generator.normal(0.0, scale)`` draw.

    When the magnitude of the key's first output is below ``ki[idx]``,
    numpy's standard normal is ``x = +-rabs * wi[idx]`` from that output
    alone, and ``normal`` returns ``loc + scale * x``: that fast path runs
    here in arrays.  The keys that miss it (about 1.5%: layer 0's tail,
    the wedges, and all of layer 1, whose ``ki`` is 0) read further
    outputs and go through :func:`_generator_normals`.  Every entry
    equals numpy's draw bit for bit.
    """
    r = _first_outputs(keys)
    signed_layer = (r & 0x1FF).astype(np.intp)
    rabs = (r >> 9) & (2**52 - 1)
    # numpy's loc + scale * x with loc 0.0, which turns a -0.0 into 0.0.
    out = 0.0 + scale * (rabs.astype(np.float64) * _ZIG_W[signed_layer])
    slow = rabs >= _ZIG_K[signed_layer]
    if slow.any():
        out[slow] = _generator_normals(keys, slow, scale)
    return out


def _generator_normals(
    keys: tuple[np.ndarray, ...], mask: np.ndarray, scale: float
) -> list[float]:
    """``Generator.normal(0.0, scale)`` for the keys where ``mask`` is set.

    numpy's ziggurat is reachable only through a Generator, so one
    generator takes on each key's state in turn.
    """
    gen = np.random.Generator(np.random.PCG64(0))
    bitgen = gen.bit_generator
    state_hi, state_lo, inc_hi, inc_lo = (limb[mask].tolist() for limb in keys)
    draws = []
    for s_hi, s_lo, i_hi, i_lo in zip(state_hi, state_lo, inc_hi, inc_lo):
        bitgen.state = {
            "bit_generator": "PCG64",
            "state": {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo},
            "has_uint32": 0,
            "uinteger": 0,
        }
        draws.append(gen.normal(0.0, scale))
    return draws


def stream_hashes(names: Sequence[str]) -> np.ndarray:
    """Each chain's ``fleet/load/`` and ``fleet/flash/`` stream hashes.

    One ``(load, flash)`` row per name, as the ``(len(names), 2)`` uint64
    array :meth:`WorkloadConfig.offered` takes.  The fleet coordinator
    hashes a chain's names once, when the chain enters the fleet.
    """
    return np.array(
        [
            (hash_name("fleet/load/" + name), hash_name("fleet/flash/" + name))
            for name in names
        ],
        dtype=np.uint64,
    ).reshape(len(names), 2)


@dataclass(frozen=True)
class LoadBlock:
    """One run's offered load: ``pps[i, k]`` is the offered pps of chain
    ``names[i]`` at global interval ``start + k``.

    The fleet coordinator draws one block per cycle for every chain
    (:meth:`WorkloadConfig.offered`) and hands each shard its own rows
    (:meth:`take`), in the order the shard hosts its chains.
    """

    start: int
    names: tuple[str, ...]
    pps: np.ndarray

    def take(self, names: Sequence[str]) -> "LoadBlock":
        """The rows of ``names``, in that order."""
        row = {name: i for i, name in enumerate(self.names)}
        return LoadBlock(
            self.start, tuple(names), self.pps[[row[name] for name in names]]
        )


def _require_finite(config: Any, *names: str) -> None:
    """Reject NaN and infinite values, which the range checks let through."""
    for name in names:
        value = getattr(config, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class FlashCrowdConfig:
    """Sudden bounded load spikes on individual chains."""

    #: Per-chain, per-interval probability that a flash crowd starts.
    probability: float = 0.0
    multiplier: float = 3.0
    duration_intervals: int = 4

    def __post_init__(self) -> None:
        _require_finite(self, "multiplier")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("flash probability must be in [0, 1]")
        if self.multiplier < 1.0:
            raise ValueError("flash multiplier must be >= 1")
        if self.duration_intervals < 1:
            raise ValueError("flash duration must be >= 1 interval")


@dataclass(frozen=True)
class ChurnConfig:
    """Poisson chain arrival/departure per coordinator cycle."""

    #: Poisson mean of new-chain arrivals per coordinator cycle.
    arrivals_per_cycle: float = 0.0
    #: Per-dynamic-chain departure probability per coordinator cycle.
    departure_prob: float = 0.0
    #: Hard cap on simultaneously deployed chains (admission control).
    max_chains: int = 256

    def __post_init__(self) -> None:
        _require_finite(self, "arrivals_per_cycle")
        if self.arrivals_per_cycle < 0:
            raise ValueError("arrival rate must be >= 0")
        if not 0.0 <= self.departure_prob <= 1.0:
            raise ValueError("departure probability must be in [0, 1]")
        if self.max_chains < 1:
            raise ValueError("max_chains must be >= 1")


@dataclass(frozen=True)
class WorkloadConfig:
    """The fleet's offered-load model, shared by every shard."""

    profile: str = "diurnal"
    peak_rate_pps: float = 1.5e6
    trough_fraction: float = 0.3
    period_s: float = 256.0
    noise_std: float = 0.03
    packet_bytes: float = 1518.0
    #: Consecutive chains per flow group (the co-location affinity unit
    #: ``consolidation_plan`` groups by).
    flow_group_size: int = 2
    flash: FlashCrowdConfig = field(default_factory=FlashCrowdConfig)
    churn: ChurnConfig = field(default_factory=ChurnConfig)

    def __post_init__(self) -> None:
        if self.profile not in PROFILES:
            raise ValueError(
                f"unknown workload profile {self.profile!r}; options: {PROFILES}"
            )
        _require_finite(self, "peak_rate_pps", "period_s", "noise_std", "packet_bytes")
        if self.peak_rate_pps <= 0:
            raise ValueError("peak rate must be positive")
        if not 0.0 <= self.trough_fraction <= 1.0:
            raise ValueError("trough fraction must be in [0, 1]")
        if self.period_s <= 0:
            raise ValueError("period must be positive")
        if self.noise_std < 0:
            raise ValueError("noise std must be >= 0")
        if self.packet_bytes <= 0:
            raise ValueError("packet size must be positive")
        if self.flow_group_size < 1:
            raise ValueError("flow_group_size must be >= 1")

    # -- offered load ------------------------------------------------------

    def offered(
        self, seed: int, hashes: np.ndarray, start: int, n: int, dt_s: float
    ) -> np.ndarray:
        """Offered pps of each chain over the global intervals
        ``[start, start + n)``, as a ``(chains, n)`` block.

        ``hashes`` holds one ``(load, flash)`` row of stream hashes per
        chain (:func:`stream_hashes`).  Entry ``[c, k]`` is a pure function
        of ``(seed, hashes[c], start + k)``: the diurnal level times
        ``1 + normal(0, noise_std)`` from the chain's ``fleet/load``
        stream, clamped at 0, times the flash-crowd factor.  Packets are
        ``packet_bytes`` long.  Every load and flash key of the block comes
        from one :func:`interval_keys` pass, and the noise is drawn in
        arrays (:func:`first_normals`); only the keys off the ziggurat's
        fast path take a Generator each.
        """
        if start < 0:
            raise ValueError(f"start interval must be >= 0, got {start}")
        if n < 1:
            raise ValueError(f"must draw at least one interval, got n={n}")
        diurnal = self.profile == "diurnal"
        window = self.flash.duration_intervals
        first = max(0, start - window + 1)
        # Each chain's load keys over the block, then its flash keys over
        # the block and the trailing window (none where a stream is unused).
        n_load = n if diurnal else 0
        n_flash = start + n - first if self.flash.probability > 0.0 else 0
        keys = interval_keys(
            seed,
            np.repeat(hashes, (n_load, n_flash), axis=1),
            np.concatenate(
                (np.arange(start, start + n_load), np.arange(first, first + n_flash))
            ),
        )
        if diurnal:
            curve = DiurnalGenerator(
                self.peak_rate_pps, self.trough_fraction, self.period_s
            )
            peak_level = np.array(
                [
                    self.peak_rate_pps * curve.level(t * dt_s, dt_s)
                    for t in range(start, start + n)
                ]
            )
            noise = first_normals([k[:, :n_load] for k in keys], self.noise_std)
            rate = peak_level * (1.0 + noise)
            # Python's max(0.0, x); np.maximum would keep a -0.0.
            rate = np.where(rate > 0.0, rate, 0.0)
        else:
            rate = np.full((len(hashes), n), self.peak_rate_pps)
        if not n_flash:
            return rate
        # Running count of fired flash starts, aligned so that column k
        # counts the starts before interval start - window + 1 + k; a
        # crowd is active where one fired in the trailing window.
        fired = np.zeros((len(hashes), n + window), dtype=np.int64)
        fired[:, first - start + window :] = (
            first_uniforms([k[:, n_load:] for k in keys]) < self.flash.probability
        )
        fired = np.cumsum(fired, axis=1)
        active = fired[:, window:] > fired[:, :n]
        return rate * np.where(active, self.flash.multiplier, 1.0)

    # -- churn -------------------------------------------------------------

    def churn_events(
        self, seed: int, cycle: int, dynamic_chains: list[str], total_chains: int
    ) -> tuple[int, list[str]]:
        """Arrival count and departing chain names for one coordinator cycle.

        Departures only ever touch the *dynamic* chains (those the churn
        process itself admitted), iterated in sorted-name order so the
        draw sequence is reproducible.  Arrivals respect ``max_chains``.
        """
        cfg = self.churn
        if cfg.arrivals_per_cycle <= 0 and cfg.departure_prob <= 0:
            return 0, []
        rng = interval_stream(seed, "fleet/churn", cycle)
        arrivals = (
            int(rng.poisson(cfg.arrivals_per_cycle))
            if cfg.arrivals_per_cycle > 0
            else 0
        )
        departures = [
            name
            for name in sorted(dynamic_chains)
            if cfg.departure_prob > 0 and rng.random() < cfg.departure_prob
        ]
        room = max(0, cfg.max_chains - (total_chains - len(departures)))
        return min(arrivals, room), departures

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form; ``from_dict(to_dict())`` is the identity."""
        out: dict[str, Any] = {
            "profile": self.profile,
            "peak_rate_pps": self.peak_rate_pps,
            "trough_fraction": self.trough_fraction,
            "period_s": self.period_s,
            "noise_std": self.noise_std,
            "packet_bytes": self.packet_bytes,
            "flow_group_size": self.flow_group_size,
            "flash": {
                "probability": self.flash.probability,
                "multiplier": self.flash.multiplier,
                "duration_intervals": self.flash.duration_intervals,
            },
            "churn": {
                "arrivals_per_cycle": self.churn.arrivals_per_cycle,
                "departure_prob": self.churn.departure_prob,
                "max_chains": self.churn.max_chains,
            },
        }
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadConfig":
        """Build (and validate) from a plain dict."""
        data = dict(data)
        flash = FlashCrowdConfig(**dict(data.pop("flash", {})))
        churn = ChurnConfig(**dict(data.pop("churn", {})))
        return cls(flash=flash, churn=churn, **data)
