"""Counters, gauges and histograms for the per-cycle metrics series.

One :class:`MetricsRegistry` per process.  Names are flat slash paths
(``fleet/migrations/accepted``); a bracketed suffix keys a family by
label (``fleet/migrations/veto[headroom]``).  The registry is pure
bookkeeping — no clock reads (timestamps come from the caller via
:mod:`repro.obs.clock`), no RNG, nothing that could perturb a seeded
run.

The coordinator snapshots the registry once per cycle into the rolling
``FleetResult.metrics`` series; shard workers accumulate their own
counters (plan-cache hits, arena generation bumps) and the parent folds
them in via :meth:`MetricsRegistry.merge_counters` after each
``drain_spans`` round trip.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.utils.stats import left_sum


def percentile(values: Iterable[float], q: float) -> float:
    """Linear-interpolation percentile of ``values`` (``q`` in [0, 100])."""
    data = sorted(values)
    if not data:
        return 0.0
    if len(data) == 1:
        return float(data[0])
    rank = (q / 100.0) * (len(data) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(data) - 1)
    frac = rank - lo
    return float(data[lo] * (1.0 - frac) + data[hi] * frac)


class MetricsRegistry:
    """Monotonic counters, last-value gauges, per-snapshot histograms."""

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, list[float]] = {}

    # -- recording ---------------------------------------------------------

    def inc(self, name: str, n: float = 1) -> None:
        """Add ``n`` to a monotonic counter."""
        self._counters[name] = self._counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        """Set a last-value-wins gauge."""
        self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one sample into a histogram (reset at each snapshot)."""
        self._histograms.setdefault(name, []).append(value)

    def merge_counters(self, counters: dict[str, float]) -> None:
        """Fold another registry's drained counter deltas into this one."""
        for name, value in counters.items():
            self._counters[name] = self._counters.get(name, 0) + value

    # -- reading -----------------------------------------------------------

    @property
    def counters(self) -> dict[str, float]:
        """The live counter values (cumulative since enable/reset)."""
        return dict(self._counters)

    def drain_counters(self) -> dict[str, float]:
        """Hand over (and reset) the counters — the worker side of the
        ``drain_spans`` round trip ships deltas, so the parent's
        cumulative totals stay correct across repeated drains."""
        counters, self._counters = self._counters, {}
        return counters

    def snapshot(self, *, reset_histograms: bool = True) -> dict[str, Any]:
        """One JSON-ready view: cumulative counters, gauges, histogram
        summaries (count/sum/min/max/p50/p90/p99) since the last
        snapshot."""
        histograms: dict[str, dict[str, float]] = {}
        for name, values in self._histograms.items():
            if not values:
                continue
            histograms[name] = {
                "count": len(values),
                "sum": float(left_sum(values)),
                "min": float(min(values)),
                "max": float(max(values)),
                "p50": percentile(values, 50.0),
                "p90": percentile(values, 90.0),
                "p99": percentile(values, 99.0),
            }
        if reset_histograms:
            self._histograms = {}
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "histograms": histograms,
        }

    def reset(self) -> None:
        """Drop everything (fresh enable, or a forked worker's start)."""
        self._counters = {}
        self._gauges = {}
        self._histograms = {}
