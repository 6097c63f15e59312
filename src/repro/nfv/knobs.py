"""Hardware knob settings applied to an NF chain.

These are the five controllable resources of the paper's action space
(Eq. 7): CPU cores, CPU frequency, LLC allocation, DMA buffer size and
packet batch size — per chain.  :class:`KnobRanges` defines the physical
limits (derived from the testbed hardware); :class:`KnobSettings` is a
concrete assignment, with clamping that mirrors what the real control
plane does (frequency ladder snapping, whole-way LLC grants, integer
batch sizes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.hw.cpu import CpuSpec
from repro.utils.units import mb_to_bytes


@dataclass(frozen=True)
class KnobRanges:
    """Physical limits of each knob on the testbed hardware.

    ``cpu_share`` is the number of (fractional) cores granted to each NF
    of the chain via cgroups cpu.shares — the paper's "CPU sharing ratio".
    Values below 1.0 mean the NF time-shares a core.
    """

    min_cpu_share: float = 0.1
    max_cpu_share: float = 1.5
    min_freq_ghz: float = 1.2
    max_freq_ghz: float = 2.1
    min_llc_fraction: float = 0.05
    max_llc_fraction: float = 1.0
    min_dma_mb: float = 0.5
    max_dma_mb: float = 40.0
    min_batch: int = 1
    max_batch: int = 256

    def __post_init__(self) -> None:
        pairs = [
            (self.min_cpu_share, self.max_cpu_share),
            (self.min_freq_ghz, self.max_freq_ghz),
            (self.min_llc_fraction, self.max_llc_fraction),
            (self.min_dma_mb, self.max_dma_mb),
            (float(self.min_batch), float(self.max_batch)),
        ]
        for lo, hi in pairs:
            if not (0 < lo < hi):
                raise ValueError(f"invalid knob range [{lo}, {hi}]")
        if self.max_llc_fraction > 1.0:
            raise ValueError("LLC fraction cannot exceed 1")


DEFAULT_RANGES = KnobRanges()


@dataclass(frozen=True)
class KnobSettings:
    """One concrete knob assignment for a chain.

    Defaults correspond to the paper's *Baseline*: performance governor
    (max frequency), one core per NF, an untuned even LLC share, a small
    default DMA ring and the DPDK default burst of 32.
    """

    cpu_share: float = 1.0
    cpu_freq_ghz: float = 2.1
    llc_fraction: float = 0.5
    dma_mb: float = 4.0
    batch_size: int = 32

    def __post_init__(self) -> None:
        # Chained comparisons reject NaN and infinities too, which
        # ``clamped`` would otherwise carry through ``max``/``min``.
        if not 0 < self.cpu_share < math.inf:
            raise ValueError("cpu_share must be positive and finite")
        if not 0 < self.cpu_freq_ghz < math.inf:
            raise ValueError("cpu_freq_ghz must be positive and finite")
        if not 0.0 < self.llc_fraction <= 1.0:
            raise ValueError("llc_fraction must be in (0, 1]")
        if not 0 < self.dma_mb < math.inf:
            raise ValueError("dma_mb must be positive and finite")
        if not 1 <= self.batch_size < math.inf:
            raise ValueError("batch_size must be finite and >= 1")

    @property
    def dma_bytes(self) -> float:
        """DMA buffer size in bytes."""
        return mb_to_bytes(self.dma_mb)

    def clamped(
        self, ranges: KnobRanges = DEFAULT_RANGES, cpu: CpuSpec | None = None
    ) -> "KnobSettings":
        """Clamp to physical ranges and snap frequency to the DVFS ladder.

        This is the 'apply' step the ONVM controller performs: arbitrary
        requested values become the nearest configuration the hardware
        supports.
        """
        freq = float(min(max(self.cpu_freq_ghz, ranges.min_freq_ghz), ranges.max_freq_ghz))
        if cpu is not None:
            freq = cpu.clamp_frequency(freq)
        return KnobSettings(
            cpu_share=float(
                min(max(self.cpu_share, ranges.min_cpu_share), ranges.max_cpu_share)
            ),
            cpu_freq_ghz=freq,
            llc_fraction=float(
                min(max(self.llc_fraction, ranges.min_llc_fraction), ranges.max_llc_fraction)
            ),
            dma_mb=float(min(max(self.dma_mb, ranges.min_dma_mb), ranges.max_dma_mb)),
            batch_size=int(
                min(max(round(self.batch_size), ranges.min_batch), ranges.max_batch)
            ),
        )

    def with_updates(self, **kwargs) -> "KnobSettings":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    def as_array(self) -> np.ndarray:
        """Vector form [cpu_share, freq, llc, dma, batch] (physical units)."""
        return np.asarray(
            [
                self.cpu_share,
                self.cpu_freq_ghz,
                self.llc_fraction,
                self.dma_mb,
                float(self.batch_size),
            ],
            dtype=np.float64,
        )

    @staticmethod
    def from_array(arr: np.ndarray) -> "KnobSettings":
        """Inverse of :meth:`as_array`."""
        arr = np.asarray(arr, dtype=np.float64)
        if arr.shape != (5,):
            raise ValueError(f"knob vector must have shape (5,), got {arr.shape}")
        return KnobSettings(
            cpu_share=float(arr[0]),
            cpu_freq_ghz=float(arr[1]),
            llc_fraction=float(arr[2]),
            dma_mb=float(arr[3]),
            batch_size=int(round(arr[4])),
        )


def baseline_settings() -> KnobSettings:
    """The untuned Baseline configuration (performance governor)."""
    return KnobSettings()


def heuristic_initial_settings(cpu: CpuSpec | None = None) -> KnobSettings:
    """Initial assignment of the paper's heuristic Algorithm 1 (lines 1-6).

    One core, the *median* available frequency, batch size 2; LLC and DMA
    are set per-flow by the algorithm itself, so defaults here are
    placeholders the heuristic immediately overwrites.
    """
    spec = cpu or CpuSpec()
    ladder = spec.freq_ladder_ghz
    median_freq = ladder[len(ladder) // 2]
    return KnobSettings(
        cpu_share=1.0,
        cpu_freq_ghz=median_freq,
        llc_fraction=0.5,
        dma_mb=2.0,
        batch_size=2,
    )
