"""CPU model: cores and the DVFS frequency ladder.

GreenNFV controls CPU frequency through the Linux ``userspace`` cpufreq
governor (via cpufrequtils) and CPU time through cgroups shares.  The
testbed CPU is an Intel Xeon E5-2620 v4: 2.1 GHz base, DVFS down to
1.2 GHz, dual socket, 16 cores total.  :class:`CpuSpec` models the
**discrete frequency ladder** (``available_frequencies`` in sysfs):
requests are clamped to the nearest available step, exactly what the
userspace governor does, and :meth:`CpuSpec.step_down` /
:meth:`CpuSpec.step_up` move one step, as the heuristic controller does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


#: Default E5-2620 v4 DVFS ladder (GHz), 100 MHz steps like intel_pstate
#: exposes.  The paper sweeps 1.2 - 2.1 GHz (Fig. 2's x-axis).
XEON_E5_2620V4_FREQS_GHZ: tuple[float, ...] = tuple(
    round(f, 1) for f in np.arange(1.2, 2.1 + 1e-9, 0.1)
)


@dataclass
class CpuSpec:
    """Static description of one socketed CPU package.

    Defaults model the Intel Xeon E5-2620 v4 of the paper's testbed.
    """

    model: str = "Intel Xeon E5-2620 v4"
    cores: int = 8
    sockets: int = 2
    base_freq_ghz: float = 2.1
    min_freq_ghz: float = 1.2
    freq_ladder_ghz: tuple[float, ...] = XEON_E5_2620V4_FREQS_GHZ

    def __post_init__(self) -> None:
        if self.cores <= 0 or self.sockets <= 0:
            raise ValueError("cores and sockets must be positive")
        ladder = tuple(sorted(self.freq_ladder_ghz))
        if not ladder:
            raise ValueError("frequency ladder must be non-empty")
        self.freq_ladder_ghz = ladder
        if not np.isclose(ladder[0], self.min_freq_ghz):
            raise ValueError(
                f"ladder min {ladder[0]} != min_freq_ghz {self.min_freq_ghz}"
            )
        if not np.isclose(ladder[-1], self.base_freq_ghz):
            raise ValueError(
                f"ladder max {ladder[-1]} != base_freq_ghz {self.base_freq_ghz}"
            )

    @property
    def total_cores(self) -> int:
        """Cores across all sockets (16 on the testbed nodes)."""
        return self.cores * self.sockets

    def clamp_frequency(self, freq_ghz: float) -> float:
        """Snap a requested frequency to the nearest ladder step.

        Mirrors the userspace governor: writing any value to
        ``scaling_setspeed`` selects the closest supported frequency.
        """
        return float(min(self.freq_ladder_ghz, key=lambda f: abs(f - freq_ghz)))

    def step_down(self, freq_ghz: float) -> float:
        """Nearest smaller available frequency (floors at the ladder min).

        This is the primitive the paper's heuristic Algorithm 1 uses
        ("Select nearest smaller core_frequency that is available").
        """
        f = self.clamp_frequency(freq_ghz)
        ladder = self.freq_ladder_ghz
        idx = ladder.index(f)
        return ladder[max(0, idx - 1)]

    def step_up(self, freq_ghz: float) -> float:
        """Nearest larger available frequency (caps at the ladder max)."""
        f = self.clamp_frequency(freq_ghz)
        ladder = self.freq_ladder_ghz
        idx = ladder.index(f)
        return ladder[min(len(ladder) - 1, idx + 1)]
