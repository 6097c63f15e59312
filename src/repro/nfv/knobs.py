"""Hardware knob settings applied to an NF chain.

These are the five controllable resources of the paper's action space
(Eq. 7): CPU cores, CPU frequency, LLC allocation, DMA buffer size and
packet batch size — per chain.  :class:`KnobRanges` defines the physical
limits (derived from the testbed hardware); :class:`KnobSettings` is a
concrete assignment, with clamping that mirrors what the real control
plane does (frequency ladder snapping, whole-way LLC grants, integer
batch sizes).  Nodes keep knobs as float64 rows in
:meth:`KnobSettings.as_array` layout, and :func:`clamp_table` clamps a
table of them in one pass.
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

#: The five knobs in their canonical order (Eq. 7): the layout of an
#: action vector and of every serialized knob row.
KNOB_NAMES = ("cpu_share", "cpu_freq_ghz", "llc_fraction", "dma_mb", "batch_size")
# The open bounds of each column's check in ``KnobSettings.__post_init__``
# (``llc_fraction <= 1`` and ``batch_size >= 1`` at the neighbouring floats).
_VALID = np.array([[0, 0, 0, 0, np.nextafter(1, 0)], [np.inf] * 5])
_VALID[1, 2] = np.nextafter(1, 2)


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

    def to_dict(self) -> dict[str, float | int]:
        """The settings keyed by :data:`KNOB_NAMES`, JSON-ready (the batch
        size as an ``int``)."""
        return {
            "cpu_share": self.cpu_share,
            "cpu_freq_ghz": self.cpu_freq_ghz,
            "llc_fraction": self.llc_fraction,
            "dma_mb": self.dma_mb,
            "batch_size": int(self.batch_size),
        }

    def as_array(self) -> np.ndarray:
        """Vector form [cpu_share, freq, llc, dma, batch] (physical units)."""
        return np.asarray(knob_row(self), dtype=np.float64)

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


def knob_row(k: KnobSettings) -> list:
    """A :class:`KnobSettings` as a list in :meth:`KnobSettings.as_array` layout."""
    return [k.cpu_share, k.cpu_freq_ghz, k.llc_fraction, k.dma_mb, k.batch_size]


def clamp_table(
    table, ranges: KnobRanges = DEFAULT_RANGES, cpu: CpuSpec | None = None
) -> np.ndarray:
    """``(k, 5)`` knob rows validated and clamped in one pass: row for row
    ``KnobSettings(*row).clamped(ranges, cpu)``.  The first row the
    constructor refuses raises its ``ValueError``, values that are not
    real numbers ``TypeError``.  Returns a new array."""
    if len(table) <= 1:  # one object clamps faster than the numpy calls below
        rows = [knob_row(KnobSettings(*row).clamped(ranges, cpu)) for row in table]
        return np.array(rows, dtype=np.float64).reshape(len(rows), len(KNOB_NAMES))
    try:
        table = np.asarray(table)
    except ValueError:  # ragged: a value that is a sequence
        table = np.empty(0, dtype=object)
    if table.dtype.kind not in "biuf":
        raise TypeError("knob values must be real numbers")
    valid = ((table > _VALID[0]) & (table < _VALID[1])).all(axis=1)
    if not valid.all():
        KnobSettings(*table[valid.argmin()].tolist())  # raises
    r = ranges
    out = table.astype(np.float64)
    out[:, 4] = np.round(out[:, 4])  # half to even, as round()
    low = (r.min_cpu_share, r.min_freq_ghz, r.min_llc_fraction, r.min_dma_mb, r.min_batch)
    high = (r.max_cpu_share, r.max_freq_ghz, r.max_llc_fraction, r.max_dma_mb, r.max_batch)
    np.clip(out, low, high, out=out)
    out[:, 4] = np.trunc(out[:, 4])
    if cpu is not None:  # the nearest ladder step, the lower on a tie
        ladder = np.asarray(cpu.freq_ladder_ghz)
        out[:, 1] = ladder[np.abs(ladder - out[:, 1, None]).argmin(axis=1)]
    return out


def baseline_settings() -> KnobSettings:
    """The untuned Baseline configuration (performance governor)."""
    return KnobSettings()
