"""Oracle-Static: the best fixed configuration found by exhaustive search.

The paper's Baseline never tunes anything; its Heuristic tunes slowly by
trial and error.  This controller answers the natural question between
them — *how good could a static configuration be?* — by grid-searching
the whole knob space against the observed workload in one vectorized
:meth:`~repro.nfv.engine.PacketEngine.step_batch` grid and then pinning
the winner for the rest of the run.  It is the simulator equivalent of
an offline exhaustive sweep (the thousands-of-candidates regime of the
joint placement/allocation literature), and doubles as an upper bound
for every static policy in the Fig. 9 comparison.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from repro.baselines.base import Controller
from repro.nfv.chain import ServiceChain
from repro.nfv.engine import PacketEngine, PollingMode, TelemetrySample
from repro.nfv.knobs import DEFAULT_RANGES, KnobRanges, KnobSettings
from repro.traffic.analysis import FlowAnalyzer

#: Supported search objectives -> (maximized) score over a BatchTelemetry.
OBJECTIVES = ("energy_efficiency", "max_throughput", "min_energy")


def score_candidates(
    objective: str,
    *,
    throughput,
    energy,
    energy_efficiency,
    delivered_frac=None,
    min_delivery: float = 0.5,
) -> np.ndarray:
    """Higher-is-better per-candidate score for a grid-search objective.

    The single scoring implementation shared by
    :class:`OracleStaticController` and the ``scan`` CLI's
    :func:`~repro.scenario.runner.scan_report`, so the two grid
    searches cannot diverge on what an objective name means.  All
    inputs are per-candidate vectors (already reduced over any load /
    packet-size axes); ``min_energy`` requires ``delivered_frac`` and
    pushes candidates below ``min_delivery`` out of contention.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    if objective == "max_throughput":
        # Lexicographic: throughput first, cheaper energy as tiebreak.
        return throughput - 1e-9 * energy
    if objective == "min_energy":
        if delivered_frac is None:
            raise ValueError("min_energy scoring needs delivered_frac")
        score = -energy
        return np.where(delivered_frac >= min_delivery, score, score - 1e12)
    return energy_efficiency


def default_knob_grid(
    ranges: KnobRanges = DEFAULT_RANGES,
    *,
    shares: tuple[float, ...] = (0.5, 1.0, 1.5),
    freqs: tuple[float, ...] = (1.2, 1.5, 1.8, 2.1),
    llc_fractions: tuple[float, ...] = (0.1, 0.25, 0.5, 0.8),
    dma_mbs: tuple[float, ...] = (2.0, 8.0, 24.0),
    batches: tuple[int, ...] = (16, 64, 192),
) -> list[KnobSettings]:
    """A coarse full-factorial knob grid (432 settings by default).

    Every candidate is clamped to the physical ranges, mirroring what the
    control plane would accept.
    """
    grid = [
        KnobSettings(
            cpu_share=s, cpu_freq_ghz=f, llc_fraction=c, dma_mb=d, batch_size=b
        ).clamped(ranges)
        for s, f, c, d, b in product(shares, freqs, llc_fractions, dma_mbs, batches)
    ]
    return grid


class OracleStaticController(Controller):
    """Best static knob setting by vectorized exhaustive search.

    The first control interval runs on defaults to observe the workload;
    the grid search then scores every candidate against the observed
    arrival rate and frame size in one grid pricing and locks in the
    winner.  ``objective`` picks the score: Eq. 3's
    ``energy_efficiency`` (default), ``max_throughput`` (ties broken by
    energy), or ``min_energy`` among settings that keep at least
    ``min_delivery`` of the offered load flowing.
    """

    polling = PollingMode.ADAPTIVE
    cat_enabled = True
    park_idle_cores = True
    name = "Oracle-Static"

    def __init__(
        self,
        *,
        objective: str = "energy_efficiency",
        grid: list[KnobSettings] | None = None,
        ranges: KnobRanges = DEFAULT_RANGES,
        min_delivery: float = 0.5,
        engine: PacketEngine | None = None,
    ):
        if objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
        if not 0.0 <= min_delivery <= 1.0:
            raise ValueError("min_delivery must be in [0, 1]")
        self.objective = objective
        self.ranges = ranges
        self.grid = grid if grid is not None else default_knob_grid(ranges)
        if not self.grid:
            raise ValueError("search grid must contain at least one setting")
        self.min_delivery = min_delivery
        self._engine = engine
        self._knobs: KnobSettings | None = None
        self._chain: ServiceChain | None = None

    def reset(self) -> None:
        """Forget the locked-in choice (fresh run, fresh search)."""
        self._knobs = None

    def prepare(self, chain: ServiceChain, engine: PacketEngine | None = None) -> None:
        """Remember the deployed chain and platform; the search runs on them.

        A platform engine handed in here (the node's own, carrying any
        custom ``EngineParams``) takes precedence over a constructor
        override, so candidates are scored on the physics that will
        actually serve them.
        """
        self._chain = chain
        if engine is not None:
            self._engine = engine

    def initial_knobs(self) -> KnobSettings:
        """Defaults for the observation interval (nothing chosen yet)."""
        return KnobSettings().clamped(self.ranges)

    def _resolve_engine(self) -> PacketEngine:
        """The platform engine searches run on (built once if not given)."""
        if self._engine is None:
            self._engine = PacketEngine(
                polling=self.polling,
                cat_enabled=self.cat_enabled,
                park_idle_cores=self.park_idle_cores,
            )
        return self._engine

    def search(
        self,
        chain: ServiceChain,
        offered_pps: float,
        packet_bytes: float,
        *,
        dt_s: float = 1.0,
    ) -> KnobSettings:
        """Exhaustive grid search against one workload; locks in the winner.

        Every candidate is priced against the observed load and frame
        size in one :meth:`~repro.nfv.engine.PacketEngine.step_batch`
        grid, whose ``(K, 1)`` columns are scored.
        """
        offered = float(offered_pps)
        bt = self._resolve_engine().step_batch(
            chain, self.grid, [offered], packet_bytes, dt_s
        )
        achieved = bt.achieved_pps[:, 0]
        delivered_frac = achieved / offered if offered > 0 else np.ones_like(achieved)
        score = score_candidates(
            self.objective,
            throughput=bt.throughput_gbps[:, 0],
            energy=bt.energy_j[:, 0],
            energy_efficiency=bt.energy_efficiency[:, 0],
            delivered_frac=delivered_frac,
            min_delivery=self.min_delivery,
        )
        self._knobs = self.grid[int(np.argmax(score))]
        return self._knobs

    def decide(
        self, sample: TelemetrySample, analyzer: FlowAnalyzer, knobs: KnobSettings
    ) -> KnobSettings:
        """Search against the first observed workload, then hold."""
        if self._knobs is None:
            if self._chain is None:
                raise RuntimeError(
                    "OracleStaticController needs prepare(chain) before decide()"
                )
            self.search(
                self._chain,
                sample.arrival_rate_pps,
                sample.packet_bytes,
                dt_s=sample.dt_s,
            )
        return self._knobs
