"""Packet size models.

MoonGen generates UDP/TCP traffic with frame sizes from 64 B to 1518 B;
the paper's micro-benchmarks use the two extremes and line-rate streams.
We model frame-size choice as a distribution object so generators can
produce fixed-size streams (64 B, 1518 B), the classic IMIX blend, or
empirical mixes, while the simulator only ever needs the *mean* wire size
and per-packet processing weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import RngLike, as_generator
from repro.utils.stats import left_sum
from repro.utils.units import MAX_PACKET_BYTES, MIN_PACKET_BYTES


@dataclass(frozen=True)
class PacketSizeDistribution:
    """A discrete distribution over frame sizes.

    ``sizes`` are frame bytes in [64, 1518]; ``weights`` are relative
    probabilities (normalized on construction).
    """

    sizes: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.sizes) != len(self.weights) or not self.sizes:
            raise ValueError("sizes and weights must be equal-length and non-empty")
        for s in self.sizes:
            if not MIN_PACKET_BYTES <= s <= MAX_PACKET_BYTES:
                raise ValueError(
                    f"frame size {s} outside [{MIN_PACKET_BYTES}, {MAX_PACKET_BYTES}]"
                )
        if any(w < 0 for w in self.weights) or left_sum(self.weights) <= 0:
            raise ValueError("weights must be non-negative with positive sum")
        total = float(left_sum(self.weights))
        object.__setattr__(
            self, "weights", tuple(float(w) / total for w in self.weights)
        )

    @property
    def mean_bytes(self) -> float:
        """Expected frame size."""
        return float(np.dot(self.sizes, self.weights))

    def sample(self, n: int, rng: RngLike = None) -> np.ndarray:
        """Draw ``n`` frame sizes."""
        if n < 0:
            raise ValueError("n must be non-negative")
        gen = as_generator(rng)
        idx = gen.choice(len(self.sizes), size=n, p=self.weights)
        return np.asarray(self.sizes)[idx]

    @staticmethod
    def fixed(size_bytes: float) -> "PacketSizeDistribution":
        """A degenerate single-size distribution (the paper's 64 B / 1518 B)."""
        return PacketSizeDistribution((float(size_bytes),), (1.0,))

    @staticmethod
    def imix() -> "PacketSizeDistribution":
        """The simple IMIX: 7 x 64 B, 4 x 570 B, 1 x 1518 B."""
        return PacketSizeDistribution((64.0, 570.0, 1518.0), (7.0, 4.0, 1.0))


#: Convenience constants for the two frame sizes the paper sweeps.
SMALL_PACKETS = PacketSizeDistribution.fixed(64.0)
LARGE_PACKETS = PacketSizeDistribution.fixed(1518.0)
IMIX = PacketSizeDistribution.imix()
