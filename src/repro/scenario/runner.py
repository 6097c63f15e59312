"""Spec execution: the ``run(spec)`` facade and the parallel sweep runner.

``run`` is the single entry point the CLI, the experiment harnesses and
the examples share: materialize the spec's components from the
registries, ``fit`` the controller, ``rollout`` the measurement horizon,
and package everything into a serializable :class:`RunResult`.

:class:`SweepRunner` is the scale layer: it executes a list (or
:func:`~repro.scenario.spec.expand_grid` grid) of specs across worker
processes — each spec carries its own seed, so results are independent
of scheduling order — and writes one JSON artifact per spec, which is
how large comparison surfaces (many SLAs x controllers x workloads) are
produced without hand-wiring.
"""

from __future__ import annotations

import json
import os
import re
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from repro import obs
from repro.baselines.oracle import OBJECTIVES, score_candidates
from repro.nfv.engine import EngineParams
from repro.scenario.catalog import CHAINS, CONTROLLERS, SLAS, TRAFFIC
from repro.scenario.controllers import RunContext, ScenarioController, TimelinePoint
from repro.scenario.spec import ScenarioSpec
from repro.utils.rng import StreamFactory

#: Result-payload schema version (bump on layout changes).
RESULT_FORMAT_VERSION = 1


@dataclass
class RunResult:
    """Structured, JSON-native outcome of one scenario run.

    ``metrics`` holds the aggregate figures (the Fig. 9 bar values);
    ``timeline`` the per-interval online series (the Fig. 10 rows);
    ``training`` the periodic-test history (the Figs. 6-8 panels) or
    ``None`` for controllers without a training phase.
    """

    spec: ScenarioSpec
    metrics: dict[str, float]
    timeline: list[dict[str, Any]]
    training: dict[str, Any] | None = None
    elapsed_s: float = 0.0

    # -- convenience views -------------------------------------------------------

    @property
    def mean_throughput_gbps(self) -> float:
        """Mean online throughput over the measurement horizon."""
        return self.metrics["mean_throughput_gbps"]

    @property
    def total_energy_j(self) -> float:
        """Total energy over the measurement horizon."""
        return self.metrics["total_energy_j"]

    @property
    def energy_efficiency(self) -> float:
        """Gbps per kJ over the measurement horizon (Eq. 3's lambda)."""
        return self.metrics["energy_efficiency"]

    def series(self, key: str) -> np.ndarray:
        """One timeline column (``throughput_gbps``, ``energy_j``, ...)."""
        return np.asarray([p[key] for p in self.timeline], dtype=np.float64)

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready payload (round-trips through :meth:`from_dict`)."""
        return {
            "format_version": RESULT_FORMAT_VERSION,
            "spec": self.spec.to_dict(),
            "metrics": dict(self.metrics),
            "timeline": [dict(p) for p in self.timeline],
            "training": self.training,
            "elapsed_s": self.elapsed_s,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunResult":
        """Rebuild a result from :meth:`to_dict` output."""
        version = data.get("format_version")
        if version != RESULT_FORMAT_VERSION:
            raise ValueError(f"unsupported result format_version {version!r}")
        return cls(
            spec=ScenarioSpec.from_dict(data["spec"]),
            metrics=dict(data["metrics"]),
            timeline=[dict(p) for p in data["timeline"]],
            training=data.get("training"),
            elapsed_s=float(data.get("elapsed_s", 0.0)),
        )

    def to_json(self, *, indent: int | None = 2) -> str:
        """JSON form of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def save(self, path) -> Path:
        """Write the result JSON artifact; returns the path written."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path

    @classmethod
    def load(cls, path) -> "RunResult":
        """Read a result artifact written by :meth:`save`."""
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def _build_component(kind: str, name: str, factory, params: dict):
    """Invoke a registry factory, turning bad params into a clear error."""
    try:
        return factory(**params)
    except TypeError as exc:
        raise ValueError(f"invalid params for {kind} {name!r}: {exc}") from exc


def build_context(spec: ScenarioSpec) -> RunContext:
    """Materialize a spec's components from the registries."""
    spec.validate()
    streams = StreamFactory(spec.seed)
    sla = _build_component("SLA", spec.sla, SLAS.get(spec.sla), dict(spec.sla_params))
    if spec.nfs is not None:
        from repro.nfv.chain import ServiceChain

        chain = ServiceChain.from_names("chain0", spec.nfs)
    else:
        chain = CHAINS.get(spec.chain)()
    traffic_factory = TRAFFIC.get(spec.traffic)
    traffic_params = dict(spec.traffic_params)
    # Fail fast on bad traffic params (generators are cheap, stateless
    # values at construction time) rather than deep inside the first env.
    _build_component("traffic model", spec.traffic, traffic_factory, dict(traffic_params))

    def generator_factory(rng):
        # A fresh generator per environment: stateful models (MMPP) must
        # not share trajectories across train/eval/online environments.
        return traffic_factory(**dict(traffic_params))

    engine = EngineParams(**dict(spec.engine_params)) if spec.engine_params else None
    return RunContext(
        spec=spec,
        sla=sla,
        chain=chain,
        generator_factory=generator_factory,
        engine_params=engine,
        streams=streams,
    )


def _metrics(points: Sequence[TimelinePoint], spec: ScenarioSpec) -> dict[str, float]:
    """Aggregate a timeline into the comparison metrics (Fig. 9 bars)."""
    ts = np.asarray([p.throughput_gbps for p in points], dtype=np.float64)
    es = np.asarray([p.energy_j for p in points], dtype=np.float64)
    total_e = float(es.sum())
    horizon_s = len(points) * spec.interval_s
    return {
        "mean_throughput_gbps": float(ts.mean()),
        "total_energy_j": total_e,
        "mean_power_w": total_e / horizon_s if horizon_s > 0 else 0.0,
        "energy_efficiency": float(ts.mean() / (total_e / 1e3)) if total_e > 0 else 0.0,
        "sla_satisfied_frac": float(
            np.mean([1.0 if p.sla_satisfied else 0.0 for p in points])
        ),
    }


def _history_payload(history) -> dict[str, Any] | None:
    """TrainingHistory -> JSON-ready dict (None passes through)."""
    if history is None:
        return None
    return {
        "records": [
            {
                "episode": r.episode,
                "reward": r.reward,
                "throughput_gbps": r.throughput_gbps,
                "energy_j": r.energy_j,
                "cpu_usage_pct": r.cpu_usage_pct,
                "cpu_freq_ghz": r.cpu_freq_ghz,
                "llc_fraction_pct": r.llc_fraction_pct,
                "dma_mb": r.dma_mb,
                "batch_size": r.batch_size,
                "energy_efficiency": r.energy_efficiency,
                "sla_satisfied_frac": r.sla_satisfied_frac,
            }
            for r in history.records
        ],
        "episode_rewards": [float(r) for r in history.episode_rewards],
    }


def run(
    spec: ScenarioSpec,
    *,
    out_path=None,
    controller: ScenarioController | None = None,
    fit: bool = True,
    policy_out=None,
) -> RunResult:
    """Execute one scenario end-to-end; optionally write the JSON artifact.

    Any registered controller id runs through the same two-phase
    protocol: ``fit`` (training, or a no-op for the rule baselines) then
    ``rollout`` over ``spec.intervals`` control intervals.  Passing an
    explicit ``controller`` instance bypasses the registry lookup; pass
    ``fit=False`` with it to deploy an already-fitted controller without
    retraining (rollout only).  ``policy_out`` checkpoints the fitted
    policy there before the rollout, for a later spec's
    ``controller_params.policy_path``; only the learned ``ddpg`` and
    ``apex`` controllers have one, and any other is refused before
    ``fit`` runs.
    """
    t0 = time.perf_counter()
    ctx = build_context(spec)
    if controller is None:
        if not fit:
            raise ValueError("fit=False requires an explicit controller instance")
        controller = _build_component(
            "controller",
            spec.controller,
            CONTROLLERS.get(spec.controller),
            dict(spec.controller_params),
        )
    if policy_out is not None and not hasattr(controller, "save_policy"):
        raise ValueError(
            f"the {controller.id!r} controller has no policy checkpoint to save; "
            "the learned 'ddpg' and 'apex' controllers write one"
        )
    with obs.span(
        "scenario/fit", scenario=spec.name, controller=spec.controller
    ):
        history = controller.fit(ctx) if fit else None
    if policy_out is not None:
        controller.save_policy(policy_out)
    with obs.span("scenario/rollout", intervals=spec.intervals):
        points = controller.rollout(ctx, spec.intervals)
    result = RunResult(
        spec=spec,
        metrics=_metrics(points, spec),
        timeline=[p.to_dict() for p in points],
        training=_history_payload(history),
        elapsed_s=time.perf_counter() - t0,
    )
    if out_path is not None:
        result.save(out_path)
    return result


# -- batched grid scans --------------------------------------------------------


def _pool_map(fn, jobs, processes: int) -> list:
    """Map jobs over worker processes (in-process when 1 job/process).

    :class:`SweepRunner`'s pool plumbing: sequential execution when
    parallelism would not help, a
    :class:`~concurrent.futures.ProcessPoolExecutor` otherwise, results
    in job order either way.
    """
    if processes == 1 or len(jobs) == 1:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=processes) as pool:
        return list(pool.map(fn, jobs))


def scan_knob_grid(
    spec: ScenarioSpec,
    knobs_grid,
    offered_grid=None,
    *,
    packet_bytes=None,
):
    """Evaluate a knob grid against a spec's workload in one vectorized call.

    Materializes the spec's chain, engine parameters and traffic model,
    then hands the whole K-knob x L-load grid to
    :meth:`~repro.nfv.engine.PacketEngine.step_batch`.  When
    ``offered_grid`` is omitted, the spec's traffic model supplies one
    representative interval load.  ``packet_bytes`` may be one frame
    size (default: the traffic model's mean) or a sequence of sizes, in
    which case the whole knobs x loads x packet-sizes grid is evaluated
    in the same single call.  This is the open-loop surface scan behind
    knob-search baselines and capacity studies — thousands of candidate
    configurations in a single engine invocation, no controller in the
    loop.

    Returns the :class:`~repro.nfv.engine.BatchTelemetry` for the grid.
    """
    from repro.nfv.engine import PacketEngine

    ctx = build_context(spec)
    rng = ctx.streams.stream("knob-scan")
    generator = ctx.generator_factory(rng)
    if packet_bytes is None:
        packet_bytes = generator.packet_sizes.mean_bytes
    if offered_grid is None:
        offered_grid = [generator.rate_at(0.0, spec.interval_s, rng)]
    knobs_list = (
        knobs_grid if isinstance(knobs_grid, np.ndarray) else list(knobs_grid)
    )
    engine = PacketEngine(params=ctx.engine_params)
    return engine.step_batch(
        ctx.chain, knobs_list, offered_grid, packet_bytes, spec.interval_s
    )


#: Scan-artifact schema version (bump on layout changes).
SCAN_FORMAT_VERSION = 1

#: Supported scan-ranking objectives (all maximized); shared with the
#: oracle-static baseline so the two grid searches cannot diverge on
#: what an objective name means.
SCAN_OBJECTIVES = OBJECTIVES


def scan_report(
    spec: ScenarioSpec,
    knobs_grid,
    telemetry,
    *,
    objective: str = "energy_efficiency",
    top: int = 10,
    min_delivery: float = 0.5,
) -> dict[str, Any]:
    """Rank a scanned knob grid and build the JSON-ready scan artifact.

    ``telemetry`` is the :class:`~repro.nfv.engine.BatchTelemetry` that
    :func:`scan_knob_grid` produced for ``knobs_grid``.  Each candidate's
    score is the chosen objective averaged over every non-knob grid axis
    (loads, and packet sizes when the scan carried that axis):
    ``energy_efficiency`` (Eq. 3, maximized), ``max_throughput``
    (energy-tiebroken), or ``min_energy`` — which, exactly like the
    ``oracle-static`` search, only considers candidates that keep at
    least ``min_delivery`` of the offered load flowing (otherwise the
    "winner" would always be the weakest setting, dropping the traffic
    it was meant to carry cheaply).
    """
    if objective not in SCAN_OBJECTIVES:
        raise ValueError(
            f"unknown scan objective {objective!r}; options: {SCAN_OBJECTIVES}"
        )
    if top < 1:
        raise ValueError("top must be >= 1")
    if not 0.0 <= min_delivery <= 1.0:
        raise ValueError("min_delivery must be in [0, 1]")
    knobs_list = list(knobs_grid)
    if len(knobs_list) != telemetry.shape[0]:
        raise ValueError("knob grid and telemetry disagree on K")
    axes = tuple(range(1, telemetry.achieved_pps.ndim))
    thr = telemetry.throughput_gbps.mean(axis=axes)
    energy = telemetry.energy_j.mean(axis=axes)
    # One grid-sized buffer: the fresh efficiency grid, zeroed where it
    # is not finite, then the delivered fraction of every grid point.
    grid = telemetry.energy_efficiency
    np.copyto(grid, 0.0, where=~np.isfinite(grid))
    eff = grid.mean(axis=axes)
    offered = np.atleast_1d(telemetry.offered_pps)
    if telemetry.achieved_pps.ndim == 3:
        offered_grid = offered[None, :, None]
    else:
        offered_grid = offered[None, :]
    np.divide(
        telemetry.achieved_pps,
        np.where(offered_grid > 0, offered_grid, 1.0),
        out=grid,
    )
    np.copyto(grid, 1.0, where=~(offered_grid > 0))
    delivered_frac = grid.mean(axis=axes)
    score = score_candidates(
        objective,
        throughput=thr,
        energy=energy,
        energy_efficiency=eff,
        delivered_frac=delivered_frac,
        min_delivery=min_delivery,
    )
    order = np.argsort(-score, kind="stable")[:top]
    latency = telemetry.latency_s.mean(axis=axes)
    dropped = telemetry.dropped_pps.mean(axis=axes)
    results = []
    for rank, idx in enumerate(int(i) for i in order):
        k = knobs_list[idx]
        results.append(
            {
                "rank": rank + 1,
                "knobs": k.to_dict(),
                "score": float(score[idx]),
                "mean_throughput_gbps": float(thr[idx]),
                "mean_energy_j": float(energy[idx]),
                "mean_energy_efficiency": float(eff[idx]),
                "mean_latency_s": float(latency[idx]),
                "mean_dropped_pps": float(dropped[idx]),
                "mean_delivered_frac": float(delivered_frac[idx]),
            }
        )
    pkt = telemetry.packet_bytes
    return {
        "format_version": SCAN_FORMAT_VERSION,
        "scenario": spec.name,
        "spec": spec.to_dict(),
        "objective": objective,
        "min_delivery": min_delivery,
        "grid_size": len(knobs_list),
        "offered_pps": [float(x) for x in np.atleast_1d(telemetry.offered_pps)],
        "packet_bytes": [float(x) for x in np.atleast_1d(pkt)],
        "results": results,
    }


# -- parallel sweeps -----------------------------------------------------------


def artifact_name(spec_name: str) -> str:
    """Filesystem-safe artifact stem for a spec name."""
    return re.sub(r"[^A-Za-z0-9._-]+", "-", spec_name).strip("-") or "scenario"


def _sweep_worker(job: tuple[dict, str | None]) -> dict:
    """Process-pool entry point: run one spec, return the JSON payload.

    The worker writes its own artifact the moment its run completes, so
    a later spec crashing (or killing its worker) cannot discard work
    that already finished.
    """
    spec_dict, out_dir = job
    spec = ScenarioSpec.from_dict(spec_dict)
    result = run(spec)
    if out_dir is not None:
        result.save(Path(out_dir) / f"{artifact_name(spec.name)}.json")
    return result.to_dict()


@dataclass
class SweepRunner:
    """Execute many specs across processes, one JSON artifact per spec.

    >>> specs = expand_grid(base, {"controller": ["static", "heuristic",
    ...                                           "ee-pstate", "qlearning"]})
    >>> results = SweepRunner(specs, out_dir="artifacts").run()

    ``processes`` defaults to ``min(len(specs), cpu_count)``; set it to 1
    to force in-process sequential execution (also used automatically
    when only one spec is given).  Results come back in spec order
    regardless of completion order.
    """

    specs: Sequence[ScenarioSpec]
    out_dir: str | os.PathLike | None = None
    processes: int | None = None
    results: list[RunResult] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        self.specs = list(self.specs)
        if not self.specs:
            raise ValueError("sweep needs at least one spec")
        names = [artifact_name(s.name) for s in self.specs]
        dupes = sorted({n for n in names if names.count(n) > 1})
        if dupes:
            raise ValueError(
                f"spec names collide after sanitization: {dupes}; "
                "give each spec a unique name"
            )
        if self.processes is not None and self.processes < 1:
            raise ValueError("processes must be >= 1")

    def run(self) -> list[RunResult]:
        """Run the whole sweep; returns (and stores) results in spec order.

        Artifacts are written per spec as each run completes (inside the
        worker), so a failing spec loses only its own result.
        """
        n_procs = self.processes or min(len(self.specs), os.cpu_count() or 1)
        out_dir = None
        if self.out_dir is not None:
            out_dir = str(self.out_dir)
            Path(out_dir).mkdir(parents=True, exist_ok=True)
        jobs = [(s.to_dict(), out_dir) for s in self.specs]
        payloads = _pool_map(_sweep_worker, jobs, n_procs)
        self.results = [RunResult.from_dict(p) for p in payloads]
        return self.results

    def summary_rows(self) -> list[list[Any]]:
        """Table rows (name, controller, T, E, T/E, SLA%) for reporting."""
        return [
            [
                r.spec.name,
                r.spec.controller,
                r.mean_throughput_gbps,
                r.total_energy_j,
                r.energy_efficiency,
                f"{r.metrics['sla_satisfied_frac']:.0%}",
            ]
            for r in self.results
        ]


def run_sweep(
    specs: Iterable[ScenarioSpec],
    *,
    out_dir=None,
    processes: int | None = None,
) -> list[RunResult]:
    """Convenience wrapper: ``SweepRunner(specs, ...).run()``."""
    return SweepRunner(list(specs), out_dir=out_dir, processes=processes).run()
