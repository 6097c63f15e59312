"""NIC model: a DPDK-compatible Intel X540-AT2 10 GbE adapter.

The NIC bounds achieved throughput at line rate for the current frame
size (:meth:`NicSpec.max_pps`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.units import line_rate_pps


@dataclass(frozen=True)
class NicSpec:
    """Static NIC description (defaults: Intel X540-AT2)."""

    model: str = "Intel 10 Gigabit X540-AT2"
    line_rate_gbps: float = 10.0
    ports: int = 2

    def __post_init__(self) -> None:
        if self.line_rate_gbps <= 0 or self.ports <= 0:
            raise ValueError("line rate and port count must be positive")

    def max_pps(self, packet_bytes: float) -> float:
        """Line-rate packet cap for a frame size (14.88 Mpps @ 64 B)."""
        return line_rate_pps(self.line_rate_gbps, packet_bytes)
