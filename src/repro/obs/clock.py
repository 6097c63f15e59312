"""The observability subsystem's only wall-clock site.

Every timestamp the tracer or metrics layer records funnels through
these two helpers, so the lint's TIME001 discipline stays auditable:
``LintConfig.wallclock_sites`` sanctions exactly this module, and a stray
``time.time()`` anywhere else in ``repro.obs`` (or in an instrumented
module) still trips the checker.

Two clocks, two jobs:

* :func:`now_us` — microseconds since the Unix epoch.  Span timestamps
  must be comparable *across processes* (shard-worker spans merge into
  the coordinator's timeline), which rules out ``perf_counter`` — its
  epoch is per-process.
* :func:`perf_s` — the high-resolution monotonic clock, for durations
  measured within one process (per-cycle wall time, ``elapsed_s``).

Nothing here may ever feed a simulation decision: seeded runs stay
bit-identical with tracing on or off because clock reads only land in
trace events and the (``comparable()``-excluded) metrics series.
"""

from __future__ import annotations

import time


def now_us() -> int:
    """Microseconds since the epoch (cross-process comparable)."""
    return time.time_ns() // 1_000


def perf_s() -> float:
    """High-resolution monotonic seconds (intra-process durations)."""
    return time.perf_counter()
