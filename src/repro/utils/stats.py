"""Streaming statistics primitives.

These are the small numerical tools the controllers and experiment
harnesses share:

* :class:`EWMA` — exponentially weighted moving average, used by the
  heuristic controller for smoothing noisy per-interval readings.
* :class:`DoubleExponentialSmoothing` — the DES traffic predictor used by
  the EE-Pstate baseline (Iqbal & John 2012 use simple predictors such as
  DES for traffic prediction; the paper compares against that scheme).
* :func:`left_sum` — the left-to-right total the fleet artifacts record,
  the same on every supported Python.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from typing import Iterable



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
