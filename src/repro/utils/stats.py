"""Streaming statistics primitives.

These are the small numerical tools the controllers and experiment
harnesses share:

* :class:`RunningStats` — Welford-style streaming mean/variance, used to
  normalize RL observations without storing history.
* :class:`EWMA` — exponentially weighted moving average, used by the
  heuristic controller for smoothing noisy per-interval readings.
* :class:`DoubleExponentialSmoothing` — the DES traffic predictor used by
  the EE-Pstate baseline (Iqbal & John 2012 use simple predictors such as
  DES for traffic prediction; the paper compares against that scheme).
* :func:`rolling_mean` — vectorized trailing-window smoothing used when
  rendering training curves (Figs. 6-8 plot smoothed series).
* :func:`left_sum` — the left-to-right total the fleet artifacts record,
  the same on every supported Python.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np


class RunningStats:
    """Numerically stable streaming mean / variance (Welford's algorithm).

    Supports scalar or fixed-shape vector observations.  ``std`` is floored
    at ``eps`` so that downstream normalization never divides by zero.
    """

    def __init__(self, shape: tuple[int, ...] = (), eps: float = 1e-8):
        self._shape = shape
        self._eps = float(eps)
        self._count = 0
        self._mean = np.zeros(shape, dtype=np.float64)
        self._m2 = np.zeros(shape, dtype=np.float64)

    @property
    def count(self) -> int:
        """Number of samples seen so far."""
        return self._count

    @property
    def mean(self) -> np.ndarray:
        """Current sample mean (zeros before any update)."""
        return self._mean.copy()

    @property
    def var(self) -> np.ndarray:
        """Current (population) variance; zeros until two samples arrive."""
        if self._count < 2:
            return np.zeros(self._shape, dtype=np.float64)
        return self._m2 / self._count

    @property
    def std(self) -> np.ndarray:
        """Standard deviation floored at ``eps``."""
        return np.maximum(np.sqrt(self.var), self._eps)

    def update(self, x: np.ndarray | float) -> None:
        """Fold one observation into the running moments."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != self._shape:
            raise ValueError(f"expected shape {self._shape}, got {x.shape}")
        self._count += 1
        delta = x - self._mean
        self._mean = self._mean + delta / self._count
        self._m2 = self._m2 + delta * (x - self._mean)

    def normalize(self, x: np.ndarray | float) -> np.ndarray:
        """Return ``(x - mean) / std`` with the current moments."""
        x = np.asarray(x, dtype=np.float64)
        return (x - self._mean) / self.std


class EWMA:
    """Exponentially weighted moving average with bias correction.

    ``alpha`` is the weight of the newest sample.  Before the first update
    :attr:`value` is ``None``; afterwards it tracks the debiased average.
    """

    def __init__(self, alpha: float):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = float(alpha)
        self._raw = 0.0
        self._weight = 0.0
        self._n = 0

    @property
    def value(self) -> float | None:
        """Debiased average, or None before any sample."""
        if self._n == 0:
            return None
        return self._raw / self._weight

    def update(self, x: float) -> float:
        """Fold in a sample and return the updated average."""
        self._n += 1
        self._raw = (1 - self.alpha) * self._raw + self.alpha * float(x)
        self._weight = (1 - self.alpha) * self._weight + self.alpha
        return self._raw / self._weight


@dataclass
class DoubleExponentialSmoothing:
    """Holt's linear-trend (double exponential smoothing) predictor.

    The EE-Pstate baseline predicts the next-interval packet arrival rate
    and picks a P-state by thresholding the prediction.  DES maintains a
    level ``s`` and a trend ``b``:

    .. math::
        s_t = \\alpha x_t + (1-\\alpha)(s_{t-1} + b_{t-1}) \\\\
        b_t = \\beta (s_t - s_{t-1}) + (1-\\beta) b_{t-1}

    and forecasts ``s_t + k b_t`` for horizon ``k``.
    """

    alpha: float = 0.5
    beta: float = 0.3
    _level: float | None = field(default=None, repr=False)
    _trend: float = field(default=0.0, repr=False)
    _prev_x: float | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")

    @property
    def initialized(self) -> bool:
        """True once two samples have been observed (trend defined)."""
        return self._level is not None and self._prev_x is not None

    def update(self, x: float) -> None:
        """Observe one sample of the series."""
        x = float(x)
        if self._level is None:
            self._level = x
            self._prev_x = x
            return
        if self._prev_x is not None and self._trend == 0.0 and self._prev_x == self._level:
            # Second sample: initialize trend from the first difference,
            # the standard DES bootstrap.
            self._trend = x - self._level
        prev_level = self._level
        self._level = self.alpha * x + (1 - self.alpha) * (self._level + self._trend)
        self._trend = self.beta * (self._level - prev_level) + (1 - self.beta) * self._trend
        self._prev_x = x

    def forecast(self, horizon: int = 1) -> float:
        """Predict the series ``horizon`` steps ahead (>=1)."""
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        if self._level is None:
            return 0.0
        return self._level + horizon * self._trend


def left_sum(values: Iterable[float]):
    """``((0 + v0) + v1) + ...``: the builtin ``sum`` of Python < 3.12.

    Python 3.12's ``sum`` compensates float rounding (Neumaier), which
    changes recorded totals between interpreters; this fold adds one
    term at a time on every version.  Like ``sum``, it starts from the
    int ``0``, so an empty input gives ``0``.
    """
    return functools.reduce(operator.add, values, 0)


def rolling_mean(series: np.ndarray, window: int) -> np.ndarray:
    """Trailing-window rolling mean with a warmup ramp.

    Output has the same length as the input; position ``i`` averages
    ``series[max(0, i-window+1) : i+1]``.  Used to smooth the episode
    curves when reproducing Figs. 6-8.
    """
    series = np.asarray(series, dtype=np.float64)
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if series.ndim != 1:
        raise ValueError("rolling_mean expects a 1-D series")
    if series.size == 0:
        return series.copy()
    csum = np.cumsum(series)
    out = np.empty_like(series)
    w = min(window, series.size)
    out[:w] = csum[:w] / np.arange(1, w + 1)
    if series.size > w:
        out[w:] = (csum[w:] - csum[:-w]) / w
    return out


def geometric_mean(values: np.ndarray | list[float]) -> float:
    """Geometric mean of positive values (speedup aggregation)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("geometric_mean of empty sequence")
    if np.any(arr <= 0):
        raise ValueError("geometric_mean requires strictly positive values")
    return float(math.exp(np.mean(np.log(arr))))
