"""Shared experiment configuration.

The §5 experiments share one workload (line-rate 1518 B traffic into the
3-NF chain) and one set of reward/constraint scales.  The paper's
constraints are stated against its testbed's energy magnitudes (baseline
~150 W); the simulator's baseline draws ~81.5 W, so constraints are
expressed *relative to the measured baseline* and reported in both
units.  ``ExperimentScale`` centralizes that mapping so every harness
agrees.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines import StaticBaseline, run_controller
from repro.core.sla import SLA, RewardScales
from repro.nfv.chain import ServiceChain, default_chain
from repro.scenario.catalog import SLAS
from repro.traffic.generators import ConstantRateGenerator


@dataclass(frozen=True)
class ExperimentScale:
    """Workload + normalization constants shared by the §5 experiments."""

    #: Baseline power on the simulator (W); measured once via
    #: :func:`measure_baseline` and pinned here for reproducibility.
    baseline_power_w: float = 81.5
    #: Baseline throughput (Gbps) under the same workload.
    baseline_throughput_gbps: float = 2.0
    #: Paper's Fig. 6 energy cap was 2000 J per ~20 s window against a
    #: ~150 W baseline, i.e. ~66% of baseline energy; we scale the same
    #: fraction down a notch (55%) so the cap visibly binds, as in
    #: Fig. 6(b) where energy pins just below the cap.
    maxt_cap_fraction: float = 0.55
    #: Paper's Minimum-Energy floor: 7.5 Gbps (§5.2).
    mine_floor_gbps: float = 7.5
    #: Fig. 10(a) fixed cap: 3.3 kJ per 20 s window on the paper's scale
    #: = 165 W ~ 110% of their baseline; same fraction here.
    fig10_cap_fraction: float = 0.80
    #: Fig. 10(b) floor: 7.5 Gbps ("fixed with a throughput constraint of
    #: 7.5 Gbps"; the §5.2 text later says 7 Gbps — we use the caption's).
    fig10_floor_gbps: float = 7.5

    @property
    def reward_scales(self) -> RewardScales:
        """Normalization for SLA rewards."""
        return RewardScales(throughput_gbps=10.0, energy_j=self.baseline_power_w)

    @property
    def maxt_cap_j_per_s(self) -> float:
        """Per-interval-second energy cap of the Maximum-Throughput SLA."""
        return self.maxt_cap_fraction * self.baseline_power_w

    @property
    def fig10_cap_j_per_s(self) -> float:
        """Per-interval-second cap of the Fig. 10(a) fixed-SLA run."""
        return self.fig10_cap_fraction * self.baseline_power_w

    def sla(self, name: str) -> SLA:
        """One of the three paper SLAs at this scale: ``max_throughput``
        (§5.1), ``min_energy`` (§5.2) or ``energy_efficiency`` (§5.3),
        built through the spec registry from :meth:`sla_spec`."""
        kind, params = self.sla_spec(name)
        return SLAS.get(kind)(**params)

    def sla_spec(self, name: str) -> tuple[str, dict]:
        """The same SLA as declarative ``(sla, sla_params)`` spec fields.

        Produces exactly what :meth:`sla` builds, but as JSON-ready data
        for a :class:`~repro.scenario.spec.ScenarioSpec`.
        """
        scales = {
            "throughput_gbps": self.reward_scales.throughput_gbps,
            "energy_j": self.reward_scales.energy_j,
        }
        if name == "max_throughput":
            return name, {"energy_cap_j": self.maxt_cap_j_per_s, "scales": scales}
        if name == "min_energy":
            return name, {
                "throughput_floor_gbps": self.mine_floor_gbps,
                "scales": scales,
            }
        if name == "energy_efficiency":
            return name, {"scales": scales}
        raise ValueError(f"unknown SLA name {name!r}")


DEFAULT_SCALE = ExperimentScale()


def experiment_chain() -> ServiceChain:
    """The canonical 3-NF evaluation chain."""
    return default_chain()


def experiment_generator(rng=None) -> ConstantRateGenerator:
    """Line-rate 1518 B traffic (the MoonGen configuration of §5)."""
    return ConstantRateGenerator.line_rate()


def measure_baseline(intervals: int = 20, rng=None):
    """Measure the untuned Baseline under the canonical workload.

    Returns the :class:`~repro.baselines.base.ControllerRun`; used both
    to verify the pinned :class:`ExperimentScale` constants and as the
    Fig. 9/11 baseline entry.
    """
    return run_controller(
        StaticBaseline(),
        experiment_chain(),
        experiment_generator(rng),
        intervals=intervals,
        rng=rng,
    )
