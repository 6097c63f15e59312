"""Service Level Agreements and their reward signals.

§4.1 defines three SLAs, each inducing a reward for the RL agent (§4.3.1
"Reward Signal"):

* **Energy SLA** (Eq. 1) — maximize total throughput subject to
  ``E <= E_SLA``; the Maximum-Throughput experiments (§5.1) use this:
  "The reward function used in this SLA issues rewards only when the
  agent can meet the energy SLA."
* **Throughput SLA** (Eq. 2) — minimize energy subject to
  ``T >= T_SLA`` (§5.2): "The model only receives rewards when it can
  maintain the throughput constraint, and the reward gets better when it
  reduces energy consumption."
* **Energy-Efficiency SLA** (Eq. 3) — unconstrained maximization of
  ``lambda = T / E``.

Rewards are normalized against reference scales (line-rate throughput
and the measurement-window energy of the untuned baseline) so the three
SLAs produce comparable magnitudes for the learner.  A small negative
slope on constraint violations (off by default strictness 1.0 = paper's
zero-reward rule) is available because it measurably speeds convergence;
the strictness knob is ablated in ``benchmarks/bench_ablation_knobs.py``.

Every ``satisfied`` predicate is elementwise: handed one
:class:`~repro.nfv.engine.TelemetrySample` it returns a Python ``bool``
(the value lands in JSON ``info`` and run artifacts); handed a block
whose fields are arrays (such as a cluster kernel's per-interval block
telemetry) it returns the matching boolean array.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

from repro.nfv.engine import TelemetrySample


def _require_positive(what: str, value: float) -> None:
    """Refuse a bound or scale that is not finite and positive.

    Written ``not 0 < x < inf``: an ordered guard such as ``x <= 0`` is
    False for NaN, and a NaN bound fails every comparison the SLA makes.
    """
    if not 0 < value < math.inf:
        raise ValueError(f"{what} must be finite and positive, got {value!r}")


def _require_slope(value: float) -> None:
    """Refuse a violation slope that is not finite and >= 0."""
    if not 0 <= value < math.inf:
        raise ValueError(f"violation slope must be finite and >= 0, got {value!r}")


def _outcome(ok):
    """A Python ``bool`` for one sample, the boolean array for a block."""
    if isinstance(ok, np.ndarray) and ok.ndim:
        return ok
    return bool(ok)


@dataclass(frozen=True)
class RewardScales:
    """Reference scales used to normalize rewards across SLAs.

    ``throughput_gbps`` ~ line rate; ``energy_j`` ~ per-interval energy of
    the untuned baseline (interval-length dependent, so harnesses derive
    it from the baseline run).
    """

    throughput_gbps: float = 10.0
    energy_j: float = 85.0

    def __post_init__(self) -> None:
        _require_positive("reward scale throughput_gbps", self.throughput_gbps)
        _require_positive("reward scale energy_j", self.energy_j)


class SLA(abc.ABC):
    """Base SLA: a reward signal plus a satisfaction predicate."""

    name: str = "sla"

    def __init__(self, scales: RewardScales | None = None):
        self.scales = scales or RewardScales()

    @abc.abstractmethod
    def reward(self, sample: TelemetrySample) -> float:
        """Reward for one control interval's telemetry."""

    @abc.abstractmethod
    def satisfied(self, sample: TelemetrySample) -> bool:
        """Whether the interval met the SLA's constraint (elementwise)."""

    def describe(self) -> str:
        """Human-readable one-liner for reports."""
        return self.name


class MaxThroughputSLA(SLA):
    """Eq. 1: maximize throughput under an energy cap (§5.1).

    ``energy_cap_j`` is per control interval.  With ``violation_slope``
    = 0 the reward is exactly the paper's rule (zero on violation);
    a positive slope adds a shaped penalty proportional to the excess.
    """

    name = "max_throughput"

    def __init__(
        self,
        energy_cap_j: float,
        scales: RewardScales | None = None,
        *,
        violation_slope: float = 0.5,
    ):
        super().__init__(scales)
        _require_positive("energy cap", energy_cap_j)
        _require_slope(violation_slope)
        self.energy_cap_j = energy_cap_j
        self.violation_slope = violation_slope

    def satisfied(self, sample: TelemetrySample) -> bool:
        """E <= cap (scaled to the sample's interval length)."""
        return _outcome(sample.energy_j <= self.energy_cap_j * sample.dt_s)

    def reward(self, sample: TelemetrySample) -> float:
        """Normalized throughput when within the cap, else <= 0."""
        cap = self.energy_cap_j * sample.dt_s
        if sample.energy_j <= cap:
            return sample.throughput_gbps / self.scales.throughput_gbps
        return -self.violation_slope * (sample.energy_j / cap - 1.0)

    def describe(self) -> str:
        return f"MaxThroughput(E <= {self.energy_cap_j:.1f} J per interval-second)"


class MinEnergySLA(SLA):
    """Eq. 2: minimize energy under a throughput floor (§5.2)."""

    name = "min_energy"

    def __init__(
        self,
        throughput_floor_gbps: float,
        scales: RewardScales | None = None,
        *,
        violation_slope: float = 0.5,
        headroom_gain: float = 3.0,
    ):
        super().__init__(scales)
        _require_positive("throughput floor", throughput_floor_gbps)
        _require_slope(violation_slope)
        _require_positive("headroom gain", headroom_gain)
        self.throughput_floor_gbps = throughput_floor_gbps
        self.violation_slope = violation_slope
        self.headroom_gain = headroom_gain

    def satisfied(self, sample: TelemetrySample) -> bool:
        """T >= floor."""
        return _outcome(sample.throughput_gbps >= self.throughput_floor_gbps)

    def reward(self, sample: TelemetrySample) -> float:
        """Energy head-room when the floor holds, else <= 0.

        Reward rises as energy falls: ``gain * (1 - E/E_ref)``.  The gain
        steepens the energy gradient so the learner keeps pushing past
        'floor safely met at full power' configurations — the paper's
        "the reward gets better when it reduces energy consumption".
        """
        if self.satisfied(sample):
            e_ref = self.scales.energy_j * sample.dt_s
            return self.headroom_gain * (1.0 - sample.energy_j / e_ref)
        deficit = (
            self.throughput_floor_gbps - sample.throughput_gbps
        ) / self.throughput_floor_gbps
        return -self.violation_slope * deficit

    def describe(self) -> str:
        return f"MinEnergy(T >= {self.throughput_floor_gbps:.1f} Gbps)"


class EnergyEfficiencySLA(SLA):
    """Eq. 3: maximize lambda = T / E (unconstrained, §5.3)."""

    name = "energy_efficiency"

    def satisfied(self, sample: TelemetrySample) -> bool:
        """The EE SLA has no hard constraint; it is always 'satisfied'."""
        shape = getattr(sample.energy_j, "shape", ())
        return np.ones(shape, dtype=bool) if shape else True

    def reward(self, sample: TelemetrySample) -> float:
        """Normalized efficiency: (T/T_ref) / (E/E_ref)."""
        if sample.energy_j <= 0:
            return 0.0
        t_norm = sample.throughput_gbps / self.scales.throughput_gbps
        e_norm = sample.energy_j / (self.scales.energy_j * sample.dt_s)
        return t_norm / e_norm

    def describe(self) -> str:
        return "EnergyEfficiency(max T/E)"


class LatencySLA(SLA):
    """Extension SLA: bound per-packet latency while minimizing energy.

    Not one of the paper's three SLAs, but the QoS dimension its related
    work (delay-aware VNF scheduling, e.g. Qu et al.) optimizes and that
    §4.1 motivates ("Different chains may require different QoS").  The
    reward mirrors :class:`MaxThroughputSLA` with the constraint on the
    chain's end-to-end latency instead of its energy: normalized
    throughput is rewarded only while ``latency <= bound``.

    Latency pulls the batch knob against the throughput knobs — big
    batches amortize overheads but add batch-fill delay — so this SLA
    exercises a trade-off the paper's three SLAs do not.
    """

    name = "latency"

    def __init__(
        self,
        latency_bound_s: float,
        scales: RewardScales | None = None,
        *,
        violation_slope: float = 0.5,
    ):
        super().__init__(scales)
        _require_positive("latency bound", latency_bound_s)
        _require_slope(violation_slope)
        self.latency_bound_s = latency_bound_s
        self.violation_slope = violation_slope

    def satisfied(self, sample: TelemetrySample) -> bool:
        """latency <= bound (and the chain actually forwarded traffic)."""
        return _outcome(
            (sample.latency_s <= self.latency_bound_s) & (sample.achieved_pps > 0)
        )

    def reward(self, sample: TelemetrySample) -> float:
        """Normalized throughput under the latency bound, else <= 0."""
        if self.satisfied(sample):
            return sample.throughput_gbps / self.scales.throughput_gbps
        if sample.achieved_pps <= 0:
            return -self.violation_slope
        excess = (sample.latency_s - self.latency_bound_s) / self.latency_bound_s
        return -self.violation_slope * min(excess, 1.0)

    def describe(self) -> str:
        return f"Latency(delay <= {self.latency_bound_s * 1e3:.1f} ms)"
