"""Statistical analysis of network flows.

"Statistical analysis of the network flows enables GreenNFV to identify
packet arrival rates and traffic patterns.  The packet arrival rate
decides the polling frequency to match enough resources to achieve the
target performance." (§1)

:class:`FlowAnalyzer` ingests per-interval packet counts and exposes the
smoothed arrival rate the controller consumes.
"""

from __future__ import annotations

from repro.utils.stats import EWMA


class FlowAnalyzer:
    """Streaming per-flow arrival-rate estimate (an EWMA of interval rates)."""

    def __init__(self, *, ewma_alpha: float = 0.3):
        self._ewma = EWMA(ewma_alpha)

    def observe(self, packets: float, dt_s: float) -> None:
        """Record one interval's packet count."""
        if not dt_s > 0:
            raise ValueError("dt must be positive")
        if packets < 0:
            raise ValueError("packet count must be non-negative")
        self._ewma.update(packets / dt_s)

    def arrival_rate(self) -> float:
        """Smoothed arrival-rate estimate (packets/s)."""
        v = self._ewma.value
        return 0.0 if v is None else float(v)
