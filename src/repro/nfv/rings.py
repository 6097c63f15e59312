"""Inter-NF packet rings.

OpenNetVM gives every NF "two circular queues to track incoming and
outgoing packets"; the ONVM controller's Rx/Tx threads move packet
references between them.  The simulator uses rings in two ways:

* :class:`RingBuffer` — a real bounded FIFO with batch enqueue/dequeue and
  drop accounting, exercised directly by tests and by the fine-grained
  packet-level examples;
* :class:`FluidRing` — a per-interval fluid approximation (occupancy as a
  real number) the discrete-time engine uses to track backpressure,
  occupancy high-water marks and queueing delay via Little's law.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from typing import Any

import numpy as np


class RingBuffer:
    """Bounded circular FIFO with drop-tail semantics.

    Mirrors a DPDK ``rte_ring``: fixed power-of-two-ish capacity, bulk
    enqueue/dequeue, and producers observe drops when the ring is full.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("ring capacity must be >= 1")
        self.capacity = int(capacity)
        self._buf: list[Any] = [None] * self.capacity
        self._head = 0  # next dequeue position
        self._tail = 0  # next enqueue position
        self._count = 0
        self.enqueued = 0
        self.dequeued = 0
        self.dropped = 0
        self.high_water = 0

    def __len__(self) -> int:
        return self._count

    @property
    def free_space(self) -> int:
        """Slots available for enqueue."""
        return self.capacity - self._count

    def enqueue_burst(self, items: list[Any]) -> int:
        """Enqueue up to ``len(items)``; excess is dropped (drop-tail).

        Returns the number actually enqueued, like
        ``rte_ring_enqueue_burst``.
        """
        n = min(len(items), self.free_space)
        for i in range(n):
            self._buf[self._tail] = items[i]
            self._tail = (self._tail + 1) % self.capacity
        self._count += n
        self.enqueued += n
        self.dropped += len(items) - n
        self.high_water = max(self.high_water, self._count)
        return n

    def dequeue_burst(self, max_items: int) -> list[Any]:
        """Dequeue up to ``max_items`` in FIFO order."""
        if max_items < 0:
            raise ValueError("max_items must be non-negative")
        n = min(max_items, self._count)
        out = []
        for _ in range(n):
            out.append(self._buf[self._head])
            self._buf[self._head] = None
            self._head = (self._head + 1) % self.capacity
        self._count -= n
        self.dequeued += n
        return out

    def peek(self) -> Any:
        """Return (without removing) the head item, or None when empty."""
        if self._count == 0:
            return None
        return self._buf[self._head]

    def clear(self) -> None:
        """Drop everything (counters retained)."""
        self._buf = [None] * self.capacity
        self._head = self._tail = self._count = 0


@dataclass
class FluidRing:
    """Per-interval fluid model of a ring's occupancy.

    ``offer(in_rate, out_rate, dt)`` integrates arrivals minus service over
    the interval, capping occupancy at capacity (overflow counts as drops)
    and flooring at zero.  :meth:`delay_s` applies Little's law for the
    queueing latency component reported per interval.
    """

    capacity_packets: float
    occupancy: float = 0.0
    dropped: float = 0.0
    high_water: float = 0.0

    def __post_init__(self) -> None:
        if self.capacity_packets <= 0:
            raise ValueError("capacity must be positive")

    def offer(self, in_rate_pps: float, out_rate_pps: float, dt_s: float) -> float:
        """Advance one interval; returns the rate actually forwarded.

        The forwarded rate is bounded by what arrived plus what was queued;
        arrivals that overflow the ring within the interval are dropped.
        """
        if dt_s <= 0:
            raise ValueError("dt must be positive")
        if in_rate_pps < 0 or out_rate_pps < 0:
            raise ValueError("rates must be non-negative")
        arriving = in_rate_pps * dt_s
        serviceable = out_rate_pps * dt_s
        available = self.occupancy + arriving
        served = min(serviceable, available)
        backlog = available - served
        if backlog > self.capacity_packets:
            self.dropped += backlog - self.capacity_packets
            backlog = self.capacity_packets
        self.occupancy = backlog
        self.high_water = max(self.high_water, self.occupancy)
        return served / dt_s

    def delay_s(self, service_rate_pps: float) -> float:
        """Little's-law queueing delay at the current occupancy."""
        if service_rate_pps <= 0:
            return float("inf") if self.occupancy > 0 else 0.0
        return self.occupancy / service_rate_pps

    def reset(self) -> None:
        """Empty the ring and clear statistics."""
        self.occupancy = 0.0
        self.dropped = 0.0
        self.high_water = 0.0


_ring_state = attrgetter("occupancy", "capacity_packets", "dropped", "high_water")


def offer_many(rings, in_rates_pps, out_rates_pps, dt_s: float) -> np.ndarray:
    """Advance many :class:`FluidRing`\\ s in one array pass.

    Semantically ``[r.offer(i, o, dt_s) for r, i, o in zip(...)]`` — the
    same float operations evaluated elementwise, so occupancy, drops and
    high-water marks land bit-identically — but the integration runs as
    a handful of vectorized ops, which is what the cluster kernel uses
    to keep per-chain ring bookkeeping off the Python hot path.

    Rates are ``(n, R)``, n intervals in order: each ring integrates
    them one after another, and every ring object is written back once.
    Returns the forwarded rates, ``(n, R)``.
    """
    if dt_s <= 0:
        raise ValueError("dt must be positive")
    in_rates = np.asarray(in_rates_pps, dtype=np.float64)
    out_rates = np.asarray(out_rates_pps, dtype=np.float64)
    if np.any(in_rates < 0) or np.any(out_rates < 0):
        raise ValueError("rates must be non-negative")
    rings = list(rings)
    if (
        in_rates.ndim != 2
        or in_rates.shape[1] != len(rings)
        or out_rates.shape != in_rates.shape
    ):
        raise ValueError("need an (intervals, rings) block of in/out rates")
    if not rings:
        return np.empty(in_rates.shape, dtype=np.float64)
    state = chain.from_iterable(map(_ring_state, rings))
    occupancy, capacity, dropped, high_water = (
        np.fromiter(state, np.float64, 4 * len(rings)).reshape(len(rings), 4).T
    )
    arriving = in_rates * dt_s
    serviceable = out_rates * dt_s
    served = np.empty_like(arriving)
    for i in range(len(arriving)):  # each interval in order
        available = occupancy + arriving[i]
        served[i] = np.minimum(serviceable[i], available)
        backlog = available - served[i]
        dropped = dropped + np.maximum(0.0, backlog - capacity)
        occupancy = np.minimum(backlog, capacity)
        high_water = np.maximum(high_water, occupancy)
    for r, occ, drop, high in zip(
        rings, occupancy.tolist(), dropped.tolist(), high_water.tolist()
    ):
        r.occupancy = occ
        r.dropped = drop
        r.high_water = high
    return served / dt_s
