"""Traffic generators — the MoonGen substitute.

The paper drives its NF chains with MoonGen at line rate; flows are
dynamic and the controller must adapt to changing packet arrival rates.
Each generator here produces the *offered packet rate* (packets/s) for a
sequence of control intervals, plus the frame-size distribution.  The
simulator consumes only these two quantities, which is exactly the
information a real MoonGen deployment presents to the device under test.

Generators:

* :class:`ConstantRateGenerator` — fixed-rate line-rate streams, used by
  the §3 micro-benchmarks (13 Mpps / 1 Mpps flows of Fig. 1, line rate
  with 1518 B of Fig. 2).
* :class:`PoissonGenerator` — Poisson arrivals with per-interval counts.
* :class:`MMPPGenerator` — 2-state Markov-modulated Poisson process for
  bursty traffic (the "highly dynamic flows" of §4.2).
* :class:`DiurnalGenerator` — sinusoidal day/night load with noise, for
  long-horizon experiments like Fig. 11.
* :class:`TraceReplayGenerator` — replays an explicit rate trace.
* :class:`CompositeGenerator` — sums several flows into one offered load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from repro.traffic.packet import LARGE_PACKETS, PacketSizeDistribution
from repro.utils.rng import RngLike, as_generator
from repro.utils.units import line_rate_pps


class TrafficGenerator(Protocol):
    """Anything that yields offered packet rates per control interval."""

    @property
    def packet_sizes(self) -> PacketSizeDistribution:  # pragma: no cover
        """Frame-size distribution of the flow."""
        ...

    def rate_at(self, t_s: float, dt_s: float, rng: RngLike = None) -> float:
        """Offered rate (packets/s) for the interval [t, t+dt)."""
        ...


@dataclass
class ConstantRateGenerator:
    """Fixed offered rate, optionally capped at a link's line rate."""

    rate_pps: float
    packet_sizes: PacketSizeDistribution = LARGE_PACKETS

    def __post_init__(self) -> None:
        if self.rate_pps < 0:
            raise ValueError("rate must be non-negative")

    def rate_at(self, t_s: float, dt_s: float, rng: RngLike = None) -> float:
        """Constant rate regardless of time."""
        return self.rate_pps

    @staticmethod
    def line_rate(
        line_gbps: float = 10.0,
        packet_sizes: PacketSizeDistribution = LARGE_PACKETS,
    ) -> "ConstantRateGenerator":
        """A MoonGen-style line-rate stream for the given frame size."""
        return ConstantRateGenerator(
            line_rate_pps(line_gbps, packet_sizes.mean_bytes), packet_sizes
        )


@dataclass
class PoissonGenerator:
    """Poisson arrivals: the per-interval rate is a Poisson draw / dt."""

    mean_rate_pps: float
    packet_sizes: PacketSizeDistribution = LARGE_PACKETS

    def __post_init__(self) -> None:
        if self.mean_rate_pps < 0:
            raise ValueError("mean rate must be non-negative")

    def rate_at(self, t_s: float, dt_s: float, rng: RngLike = None) -> float:
        """Sampled arrival rate over the interval."""
        if not dt_s > 0:
            raise ValueError("dt must be positive")
        gen = as_generator(rng)
        lam = self.mean_rate_pps * dt_s
        # For large lambda a normal approximation avoids overflow and is
        # indistinguishable at the rates we simulate (millions of packets).
        if lam > 1e6:
            count = gen.normal(lam, math.sqrt(lam))
        else:
            count = gen.poisson(lam)
        return max(0.0, float(count) / dt_s)


@dataclass
class MMPPGenerator:
    """2-state Markov-modulated Poisson process (bursty traffic).

    The flow alternates between a ``low`` and ``high`` rate; transitions
    occur per interval with the given probabilities.  This produces the
    bursty, correlated load patterns NFV controllers struggle with, and is
    the workload used when evaluating adaptivity.
    """

    low_rate_pps: float
    high_rate_pps: float
    p_low_to_high: float = 0.1
    p_high_to_low: float = 0.2
    packet_sizes: PacketSizeDistribution = LARGE_PACKETS

    def __post_init__(self) -> None:
        if self.low_rate_pps < 0 or self.high_rate_pps < self.low_rate_pps:
            raise ValueError("need 0 <= low_rate <= high_rate")
        for p in (self.p_low_to_high, self.p_high_to_low):
            if not 0.0 <= p <= 1.0:
                raise ValueError("transition probabilities must be in [0, 1]")
        self._state = 0  # start low

    def rate_at(self, t_s: float, dt_s: float, rng: RngLike = None) -> float:
        """Advance the modulating chain one interval and sample the rate."""
        gen = as_generator(rng)
        if self._state == 0 and gen.random() < self.p_low_to_high:
            self._state = 1
        elif self._state == 1 and gen.random() < self.p_high_to_low:
            self._state = 0
        base = self.high_rate_pps if self._state == 1 else self.low_rate_pps
        if base == 0:
            return 0.0
        lam = base * dt_s
        noise = gen.normal(0.0, math.sqrt(max(lam, 1.0)))
        return max(0.0, (lam + noise) / dt_s)

    @property
    def state(self) -> int:
        """Current modulating state (0 = low, 1 = high)."""
        return self._state


@dataclass
class DiurnalGenerator:
    """Sinusoidal day/night load with multiplicative noise.

    ``period_s`` defaults to a compressed 1-hour "day" so multi-hour
    experiments (Fig. 11) see several load cycles.
    """

    peak_rate_pps: float
    trough_fraction: float = 0.2
    period_s: float = 3600.0
    noise_std: float = 0.05
    packet_sizes: PacketSizeDistribution = LARGE_PACKETS

    def __post_init__(self) -> None:
        if self.peak_rate_pps < 0:
            raise ValueError("peak rate must be non-negative")
        if not 0.0 <= self.trough_fraction <= 1.0:
            raise ValueError("trough fraction must be in [0, 1]")
        if self.period_s <= 0:
            raise ValueError("period must be positive")
        if self.noise_std < 0:
            raise ValueError("noise std must be non-negative")

    def level(self, t_s: float, dt_s: float) -> float:
        """Noise-free load level in ``[trough_fraction, 1]`` at the
        midpoint of the interval ``[t, t+dt)``."""
        mid = t_s + dt_s / 2.0
        phase = 2.0 * math.pi * (mid % self.period_s) / self.period_s
        lo = self.trough_fraction
        return lo + (1.0 - lo) * 0.5 * (1.0 - math.cos(phase))

    def rate_at(self, t_s: float, dt_s: float, rng: RngLike = None) -> float:
        """Mean-of-interval sinusoid with lognormal-ish noise."""
        gen = as_generator(rng)
        noise = 1.0 + gen.normal(0.0, self.noise_std)
        return max(0.0, self.peak_rate_pps * self.level(t_s, dt_s) * noise)


@dataclass
class TraceReplayGenerator:
    """Replay an explicit rate trace, one entry per ``trace_dt_s``."""

    trace_pps: Sequence[float]
    trace_dt_s: float = 1.0
    loop: bool = True
    packet_sizes: PacketSizeDistribution = LARGE_PACKETS

    def __post_init__(self) -> None:
        if not len(self.trace_pps):
            raise ValueError("trace must be non-empty")
        if any(r < 0 for r in self.trace_pps):
            raise ValueError("trace rates must be non-negative")
        if not self.trace_dt_s > 0:
            raise ValueError("trace dt must be positive")

    def rate_at(self, t_s: float, dt_s: float, rng: RngLike = None) -> float:
        """Rate of the trace slot covering the interval midpoint."""
        idx = int((t_s + dt_s / 2.0) / self.trace_dt_s)
        n = len(self.trace_pps)
        if idx >= n:
            if not self.loop:
                return float(self.trace_pps[-1])
            idx %= n
        return float(self.trace_pps[idx])


class CompositeGenerator:
    """Sum of several flows sharing one ingress port.

    The frame-size distribution is the rate-weighted blend of the member
    flows' distributions, recomputed per interval.
    """

    def __init__(self, flows: Sequence[TrafficGenerator]):
        if not flows:
            raise ValueError("composite needs at least one flow")
        self.flows = list(flows)
        self._last_sizes: PacketSizeDistribution = flows[0].packet_sizes

    @property
    def packet_sizes(self) -> PacketSizeDistribution:
        """Blend from the most recent :meth:`rate_at` call."""
        return self._last_sizes

    def rate_at(self, t_s: float, dt_s: float, rng: RngLike = None) -> float:
        """Total offered rate; updates the blended size distribution."""
        gen = as_generator(rng)
        rates = [f.rate_at(t_s, dt_s, gen) for f in self.flows]
        total = float(sum(rates))
        if total > 0:
            sizes: list[float] = []
            weights: list[float] = []
            for f, r in zip(self.flows, rates):
                for s, w in zip(f.packet_sizes.sizes, f.packet_sizes.weights):
                    sizes.append(s)
                    weights.append(w * r)
            self._last_sizes = PacketSizeDistribution(tuple(sizes), tuple(weights))
        return total


def paper_flows(n_flows: int = 5, line_gbps: float = 10.0) -> list[ConstantRateGenerator]:
    """The five-flow workload of the §5.1 experiment.

    Five flows sharing the ingress link, with rates staggered so the
    aggregate sits near line rate, matching "we set ... five flows".
    """
    if n_flows <= 0:
        raise ValueError("need at least one flow")
    total = line_rate_pps(line_gbps, LARGE_PACKETS.mean_bytes)
    shares = np.linspace(1.0, 2.0, n_flows)
    shares = shares / shares.sum()
    return [
        ConstantRateGenerator(total * float(s), LARGE_PACKETS) for s in shares
    ]
