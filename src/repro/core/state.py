"""Observation construction: the Eq. (8) state vector, normalized.

``X_i = {T_i, E_i, xi_i, Omega_i}`` — throughput, energy, CPU
utilization, packet arrival rate.  The environment normalizes each
component against fixed physical scales so the networks see O(1) inputs
regardless of interval length or link speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.nfv.engine import TelemetrySample

#: Names/order of the observation components.
STATE_NAMES = ("throughput", "energy", "cpu_utilization", "arrival_rate")


@dataclass(frozen=True)
class StateScales:
    """Physical scales used to normalize the observation vector."""

    throughput_gbps: float = 10.0
    energy_j_per_s: float = 150.0  # full-power interval energy
    arrival_pps: float = 1.0e6  # ~ line rate at 1518 B

    def __post_init__(self) -> None:
        if min(self.throughput_gbps, self.energy_j_per_s, self.arrival_pps) <= 0:
            raise ValueError("state scales must be positive")


class StateEncoder:
    """Builds normalized observation vectors from telemetry samples."""

    def __init__(self, scales: StateScales | None = None):
        self.scales = scales or StateScales()

    @property
    def dim(self) -> int:
        """Observation dimensionality (4, per Eq. 8)."""
        return len(STATE_NAMES)

    def encode_all(self, samples: Iterable[TelemetrySample]) -> np.ndarray:
        """The concatenated states of several chains, in order (Eq. 8's
        ``X = {X_1, ..., X_n}``), built as one array."""
        s = self.scales
        row: list[float] = []
        for sample in samples:
            row += (
                sample.throughput_gbps / s.throughput_gbps,
                sample.energy_j / (s.energy_j_per_s * sample.dt_s),
                sample.cpu_utilization,
                sample.arrival_rate_pps / s.arrival_pps,
            )
        return np.asarray(row, dtype=np.float64)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """(low, high) bounds of the normalized state (for discretizers)."""
        low = np.zeros(self.dim, dtype=np.float64)
        high = np.asarray([1.2, 1.5, 1.0, 2.0], dtype=np.float64)
        return low, high
