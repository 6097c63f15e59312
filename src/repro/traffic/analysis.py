"""Statistical analysis of network flows.

"Statistical analysis of the network flows enables GreenNFV to identify
packet arrival rates and traffic patterns.  The packet arrival rate
decides the polling frequency to match enough resources to achieve the
target performance." (§1)

:class:`FlowAnalyzer` ingests per-interval packet counts and exposes the
running estimates the controller consumes: smoothed arrival rate, burst
factor, trend, and a coarse pattern classification that the polling /
callback mix keys off.
"""

from __future__ import annotations

import enum
from collections import deque

import numpy as np

from repro.utils.stats import EWMA, DoubleExponentialSmoothing


class TrafficPattern(enum.Enum):
    """Coarse flow classification used to pick the polling strategy."""

    IDLE = "idle"
    STEADY = "steady"
    BURSTY = "bursty"
    RAMPING = "ramping"


class FlowAnalyzer:
    """Streaming per-flow statistics over a sliding window of intervals."""

    def __init__(
        self,
        window: int = 32,
        *,
        ewma_alpha: float = 0.3,
        idle_threshold_pps: float = 1e3,
        burst_cv: float = 0.35,
        trend_threshold: float = 0.10,
    ):
        if window < 2:
            raise ValueError("window must be >= 2")
        self.window = window
        self._rates: deque[float] = deque(maxlen=window)
        self._ewma = EWMA(ewma_alpha)
        self._des = DoubleExponentialSmoothing()
        self.idle_threshold_pps = idle_threshold_pps
        self.burst_cv = burst_cv
        self.trend_threshold = trend_threshold

    def observe(self, packets: float, dt_s: float) -> None:
        """Record one interval's packet count."""
        if not dt_s > 0:
            raise ValueError("dt must be positive")
        if packets < 0:
            raise ValueError("packet count must be non-negative")
        rate = packets / dt_s
        self._rates.append(rate)
        self._ewma.update(rate)
        self._des.update(rate)

    @property
    def n_samples(self) -> int:
        """Number of intervals currently in the window."""
        return len(self._rates)

    def arrival_rate(self) -> float:
        """Smoothed arrival-rate estimate (packets/s)."""
        v = self._ewma.value
        return 0.0 if v is None else float(v)

    def predicted_rate(self, horizon: int = 1) -> float:
        """DES forecast of the arrival rate ``horizon`` intervals ahead."""
        return max(0.0, self._des.forecast(horizon))

    def burst_factor(self) -> float:
        """Peak-to-mean ratio over the window (1.0 for smooth flows)."""
        if not self._rates:
            return 1.0
        arr = np.asarray(self._rates)
        mean = arr.mean()
        if mean <= 0:
            return 1.0
        return float(arr.max() / mean)

    def coefficient_of_variation(self) -> float:
        """Std/mean of the windowed rates (0 when flat or empty)."""
        if len(self._rates) < 2:
            return 0.0
        arr = np.asarray(self._rates)
        mean = arr.mean()
        if mean <= 0:
            return 0.0
        return float(arr.std() / mean)

    def trend(self) -> float:
        """Relative slope over the window: (fit slope * window) / mean."""
        if len(self._rates) < 3:
            return 0.0
        arr = np.asarray(self._rates)
        mean = arr.mean()
        if mean <= 0:
            return 0.0
        x = np.arange(arr.size, dtype=np.float64)
        slope = float(np.polyfit(x, arr, 1)[0])
        return slope * arr.size / mean

    def classify(self) -> TrafficPattern:
        """Classify the flow for the polling/callback decision.

        IDLE flows let the controller put the NF to sleep (callback mode);
        STEADY flows poll at a rate matched to the arrival rate; BURSTY
        flows keep headroom; RAMPING flows trigger proactive scale-up.
        """
        if self.arrival_rate() < self.idle_threshold_pps:
            return TrafficPattern.IDLE
        if abs(self.trend()) > self.trend_threshold:
            return TrafficPattern.RAMPING
        if self.coefficient_of_variation() > self.burst_cv:
            return TrafficPattern.BURSTY
        return TrafficPattern.STEADY

    def polling_interval_s(self, batch_size: int) -> float:
        """Poll period that fills a batch at the predicted arrival rate.

        The mix of callback and polling in the implementation: at high
        rates the NF polls continuously (interval -> 0); at low rates it
        sleeps and is woken per batch.  Clamped to [1 us, 10 ms].
        """
        if batch_size < 1:
            raise ValueError("batch size must be >= 1")
        rate = max(self.predicted_rate(), 1.0)
        return float(np.clip(batch_size / rate, 1e-6, 1e-2))
