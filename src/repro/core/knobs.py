"""Action-space normalization: [-1, 1]^5 <-> physical knob settings.

The DDPG actor emits tanh-bounded vectors; :class:`KnobSpace` maps them
to :class:`~repro.nfv.knobs.KnobSettings` and back.  CPU share, frequency
and LLC fraction scale linearly; DMA buffer and batch size scale
logarithmically — their useful ranges span 1-2 orders of magnitude and
log scaling gives the agent uniform resolution across them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.nfv.knobs import DEFAULT_RANGES, KNOB_NAMES, KnobRanges, KnobSettings


def _lin(u: float, lo: float, hi: float) -> float:
    return lo + (u + 1.0) * 0.5 * (hi - lo)


def _lin_inv(x: float, lo: float, hi: float) -> float:
    return 2.0 * (x - lo) / (hi - lo) - 1.0


def _log(u: float, lo: float, hi: float) -> float:
    return math.exp(_lin(u, math.log(lo), math.log(hi)))


def _log_inv(x: float, lo: float, hi: float) -> float:
    return _lin_inv(math.log(x), math.log(lo), math.log(hi))


@dataclass(frozen=True)
class KnobSpace:
    """Bijection between normalized actions and physical knob settings."""

    ranges: KnobRanges = DEFAULT_RANGES

    @property
    def dim(self) -> int:
        """Action dimensionality (five knobs per chain)."""
        return len(KNOB_NAMES)

    def to_settings(self, action: np.ndarray) -> KnobSettings:
        """Map a normalized action in [-1, 1]^5 to knob settings.

        Components outside [-1, 1] are clipped first (the environment
        guards against un-squashed exploration noise).
        """
        a = np.clip(np.asarray(action, dtype=np.float64), -1.0, 1.0)
        if a.shape != (self.dim,):
            raise ValueError(f"expected action shape ({self.dim},), got {a.shape}")
        r = self.ranges
        return KnobSettings(
            cpu_share=_lin(a[0], r.min_cpu_share, r.max_cpu_share),
            cpu_freq_ghz=_lin(a[1], r.min_freq_ghz, r.max_freq_ghz),
            llc_fraction=_lin(a[2], r.min_llc_fraction, r.max_llc_fraction),
            dma_mb=_log(a[3], r.min_dma_mb, r.max_dma_mb),
            batch_size=max(1, round(_log(a[4], r.min_batch, r.max_batch))),
        )

    def to_action(self, settings: KnobSettings) -> np.ndarray:
        """Inverse map; settings are clamped into range first."""
        s = settings.clamped(self.ranges)
        r = self.ranges
        return np.asarray(
            [
                _lin_inv(s.cpu_share, r.min_cpu_share, r.max_cpu_share),
                _lin_inv(s.cpu_freq_ghz, r.min_freq_ghz, r.max_freq_ghz),
                _lin_inv(s.llc_fraction, r.min_llc_fraction, r.max_llc_fraction),
                _log_inv(s.dma_mb, r.min_dma_mb, r.max_dma_mb),
                _log_inv(float(s.batch_size), r.min_batch, r.max_batch),
            ],
            dtype=np.float64,
        )
