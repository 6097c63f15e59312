"""Per-layer breakdown for the traced pass of the end-to-end benchmark.

Two sources feed it:

* The program's own ``repro.obs`` instrumentation (spans around the
  scenario fit/rollout, the coordinator's plan/gather/apply/merge, the
  arena rebuild and the kernel compile; counters for the plan cache,
  migration vetoes and arena generations), turned on with
  ``obs.enable()`` in buffered mode.
* Timing wrappers installed from here on the public methods in
  :data:`TARGETS`, which carry no spans of their own.  Each wrapper
  counts calls, total time and self time (total minus the time spent in
  wrapped callees) and reports them through ``obs.inc``.  Wrappers are
  installed before a fleet coordinator forks its shard worker, so the
  worker inherits them and its counters return to the parent over the
  existing ``drain_spans`` round trip.

The untraced pass never imports this module.

Every per-layer time is reported as a share (%) of the wall time of the
traced job, or of the traced set-up for set-up work, with
``trace.job_ms`` as the base.  A share is robust to the host switching
speed, and it reads 0 where a workload does not touch a layer.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass

from repro import obs

#: (layer key, module, attribute path) of every wrapped callable.  Keys
#: that repeat aggregate several methods into one layer entry.
TARGETS = (
    ("scenario.scan_knob_grid", "repro.scenario.runner", "scan_knob_grid"),
    ("scenario.scan_report", "repro.scenario.runner", "scan_report"),
    ("core.env.step", "repro.core.env", "NFVEnv.step"),
    ("rl.ddpg.update", "repro.rl.ddpg", "DDPGAgent.update"),
    ("rl.ddpg.act", "repro.rl.ddpg", "DDPGAgent.act"),
    ("rl.per.add", "repro.rl.per", "PrioritizedReplayBuffer.add"),
    ("rl.per.sample", "repro.rl.per", "PrioritizedReplayBuffer.sample"),
    (
        "rl.per.update_priorities",
        "repro.rl.per",
        "PrioritizedReplayBuffer.update_priorities",
    ),
    ("nfv.engine.step", "repro.nfv.engine", "PacketEngine.step"),
    ("nfv.engine.step_batch", "repro.nfv.engine", "PacketEngine.step_batch"),
    ("nfv.engine.compile_chains", "repro.nfv.engine", "PacketEngine.compile_chains"),
    ("nfv.engine.plan_step", "repro.nfv.engine", "ChainKernelPlan.step"),
    ("nfv.node.step_all", "repro.nfv.node", "Node.step_all"),
    ("nfv.cluster_kernel.step", "repro.nfv.cluster_kernel", "ClusterKernel.step"),
    ("fleet.workload.offered", "repro.fleet.workload", "WorkloadConfig.offered"),
    (
        "fleet.workload.churn_events",
        "repro.fleet.workload",
        "WorkloadConfig.churn_events",
    ),
    ("fleet.shard.run", "repro.fleet.shard", "ShardSim.run"),
    ("fleet.shard.commands", "repro.fleet.shard", "ShardSim.deploy"),
    ("fleet.shard.commands", "repro.fleet.shard", "ShardSim.undeploy"),
    ("fleet.shard.commands", "repro.fleet.shard", "ShardSim.set_knobs"),
    ("fleet.placement.desired", "repro.fleet.placement", "WatermarkPlacement.desired"),
    ("fleet.placement.desired", "repro.fleet.placement", "GreedyPlacement.desired"),
    ("fleet.placement.desired", "repro.fleet.placement", "GeneticPlacement.desired"),
    ("fleet.routing.build", "repro.fleet.routing", "RoutingTable.__init__"),
    ("fleet.routing.path_queries", "repro.fleet.routing", "RoutingTable.path"),
    ("fleet.routing.path_queries", "repro.fleet.routing", "RoutingTable.path_links"),
    (
        "fleet.routing.path_queries",
        "repro.fleet.routing",
        "RoutingTable.path_latency_s",
    ),
    (
        "fleet.routing.path_queries",
        "repro.fleet.routing",
        "RoutingTable.path_bottleneck_gbps",
    ),
    (
        "fleet.routing.path_queries",
        "repro.fleet.routing",
        "RoutingTable.transfer_seconds",
    ),
)

#: Every per-layer metric: (name, unit, better).  BENCHMARK.json lists
#: the same names; ``test_e2e_bench.py`` keeps the two in step.
PER_LAYER = (
    ("setup.import_s", "s", "lower"),
    ("setup.build_s", "s", "lower"),
    ("setup.warmup_s", "s", "lower"),
    ("trace.job_ms", "ms", "lower"),
    ("obs.tracing_overhead_pct", "%", "lower"),
    ("scenario.fit.total_pct", "%", "lower"),
    ("scenario.rollout.total_pct", "%", "lower"),
    ("scenario.scan_knob_grid.total_pct", "%", "lower"),
    ("scenario.scan_report.total_pct", "%", "lower"),
    ("core.env.step.calls", "count", "lower"),
    ("core.env.step.self_pct", "%", "lower"),
    ("rl.self_pct", "%", "lower"),
    ("rl.ddpg.update.calls", "count", "lower"),
    ("rl.ddpg.update.self_pct", "%", "lower"),
    ("rl.ddpg.act.self_pct", "%", "lower"),
    ("rl.per.add.self_pct", "%", "lower"),
    ("rl.per.sample.self_pct", "%", "lower"),
    ("rl.per.update_priorities.self_pct", "%", "lower"),
    ("nfv.engine.step.calls", "count", "lower"),
    ("nfv.engine.step.self_pct", "%", "lower"),
    ("nfv.engine.step_batch.self_pct", "%", "lower"),
    ("nfv.engine.compile_chains.calls", "count", "lower"),
    ("nfv.engine.compile_chains.self_pct", "%", "lower"),
    ("nfv.engine.plan_step.calls", "count", "lower"),
    ("nfv.engine.plan_step.self_pct", "%", "lower"),
    ("nfv.node.step_all.calls", "count", "lower"),
    ("nfv.node.step_all.self_pct", "%", "lower"),
    ("nfv.cluster_kernel.step.calls", "count", "lower"),
    ("nfv.cluster_kernel.step.self_pct", "%", "lower"),
    ("nfv.cluster_kernel.compile_pct", "%", "lower"),
    ("nfv.cluster_kernel.plan_cache.hit", "count", "higher"),
    ("nfv.cluster_kernel.plan_cache.miss", "count", "lower"),
    ("nfv.cluster_kernel.plan_cache.promote", "count", "lower"),
    ("nfv.cluster_kernel.plan_cache.fallback", "count", "lower"),
    ("nfv.cluster_kernel.plan_cache.hit_ratio", "1", "higher"),
    ("fleet.workload.offered.calls", "count", "lower"),
    ("fleet.workload.offered.self_pct", "%", "lower"),
    ("fleet.workload.churn_events.self_pct", "%", "lower"),
    ("fleet.shard.run.calls", "count", "lower"),
    ("fleet.shard.run.self_pct", "%", "lower"),
    ("fleet.shard.run.total_pct", "%", "lower"),
    ("fleet.shard.commands.calls", "count", "lower"),
    ("fleet.shard.commands.self_pct", "%", "lower"),
    ("fleet.arena.rebuild_pct", "%", "lower"),
    ("fleet.arena.generation_bumps", "count", "lower"),
    ("fleet.coordinator.plan_pct", "%", "lower"),
    ("fleet.coordinator.apply_pct", "%", "lower"),
    ("fleet.coordinator.merge_pct", "%", "lower"),
    ("fleet.coordinator.gather_wait_pct", "%", "lower"),
    ("fleet.placement.desired.calls", "count", "lower"),
    ("fleet.placement.desired.self_pct", "%", "lower"),
    ("fleet.routing.build_setup_pct", "%", "lower"),
    ("fleet.routing.path_queries", "count", "lower"),
    ("fleet.migrations.accepted", "count", "higher"),
    ("fleet.migrations.vetoed", "count", "lower"),
    ("fleet.migrations.accept_ratio", "1", "higher"),
    ("proc.worker_peak_rss_mb", "MB", "lower"),
)


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Instrumentation:
    """Installs (and removes) the outside timing wrappers in one process.

    Self time needs a per-process stack of child-time accumulators: a
    wrapper pushes one on entry, and on exit adds its own elapsed time to
    its caller's.  A forked worker inherits the stack at its root, since
    no wrapped call is in flight when the coordinator spawns it.
    """

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[float] = [0.0]

    def install(self) -> "Instrumentation":
        for key, module, path in TARGETS:
            owner, attr = _resolve(module, path)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(key, original))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, key: str, fn):
        stack = self._stack
        calls, total, own = (f"e2e/{key}/{f}" for f in ("calls", "total_s", "self_s"))
        perf = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - t0
                children = stack.pop()
                stack[-1] += elapsed
                obs.inc(calls)
                obs.inc(total, elapsed)
                obs.inc(own, elapsed - children)

        return timed


def span_times(events) -> dict[str, tuple[float, float]]:
    """Span name -> (total_s, self_s) summed over complete (``X``) events.

    A span's self time is its duration minus the part its child spans
    cover.  Spans nest within one process (one thread each), so each pid
    is walked separately with a stack ordered by start time.
    """
    by_pid: dict[int, list[dict]] = {}
    for event in events:
        if event.get("ph") == "X":
            by_pid.setdefault(event["pid"], []).append(event)
    out: dict[str, list[float]] = {}

    def close(frame) -> None:
        entry = out.setdefault(frame[1], [0.0, 0.0])
        entry[0] += frame[2] / 1e6
        entry[1] += (frame[2] - frame[3]) / 1e6

    for spans in by_pid.values():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack: list[list] = []  # [end_us, name, dur_us, covered_us]
        for event in spans:
            while stack and event["ts"] >= stack[-1][0]:
                close(stack.pop())
            if stack:
                stack[-1][3] += event["dur"]
            stack.append([event["ts"] + event["dur"], event["name"], event["dur"], 0])
        while stack:
            close(stack.pop())
    return {name: (total, own) for name, (total, own) in out.items()}


def counter_delta(after: dict[str, float], before: dict[str, float]) -> dict[str, float]:
    """Counters that moved between two registry reads."""
    return {
        k: v - before.get(k, 0.0)
        for k, v in after.items()
        if v != before.get(k, 0.0)
    }


@dataclass
class Phase:
    """One traced phase (a set-up or a job): counters, spans, wall time."""

    counters: dict[str, float]
    spans: dict[str, tuple[float, float]]
    wall_s: float


#: Span-derived shares: per-layer name -> (span name, 0 for total time
#: or 1 for self time).  The gather span is the coordinator blocking on
#: shard replies; its nested arena-rebuild span is work, not waiting.
SPAN_SHARES = {
    "scenario.fit.total_pct": ("scenario/fit", 0),
    "scenario.rollout.total_pct": ("scenario/rollout", 0),
    "nfv.cluster_kernel.compile_pct": ("kernel/compile", 0),
    "fleet.arena.rebuild_pct": ("shard/arena_rebuild", 0),
    "fleet.coordinator.plan_pct": ("fleet/plan", 1),
    "fleet.coordinator.apply_pct": ("fleet/apply", 1),
    "fleet.coordinator.merge_pct": ("fleet/merge", 1),
    "fleet.coordinator.gather_wait_pct": ("fleet/gather", 1),
}

#: Per-layer names the runner measures itself, outside any traced job.
RUNNER_MEASURED = (
    "setup.import_s",
    "setup.build_s",
    "setup.warmup_s",
    "obs.tracing_overhead_pct",
    "proc.worker_peak_rss_mb",
)


def layer_metrics(job: Phase, setup: Phase) -> dict[str, float]:
    """The trace-derived per-layer metrics of one traced repetition:
    every :data:`PER_LAYER` name except :data:`RUNNER_MEASURED`.

    Wrapper entries follow their name: ``<key>.calls`` counts calls,
    ``<key>.self_pct`` / ``<key>.total_pct`` are self / total time as a
    share of the job's wall time.
    """
    c = job.counters

    def wrapped(key: str, field: str, phase: Phase = job) -> float:
        return phase.counters.get(f"e2e/{key}/{field}", 0.0)

    def pct(seconds: float, phase: Phase = job) -> float:
        return 100.0 * seconds / phase.wall_s

    lookups = sum(c.get(f"kernel/plan_cache/{o}", 0.0) for o in ("hit", "miss", "promote", "fallback"))
    accepted = c.get("fleet/migrations/accepted", 0.0)
    vetoed = sum(v for k, v in c.items() if k.startswith("fleet/migrations/veto["))
    special = {
        "trace.job_ms": 1e3 * job.wall_s,
        "rl.self_pct": pct(
            sum(v for k, v in c.items() if k.startswith("e2e/rl.") and k.endswith("/self_s"))
        ),
        "nfv.cluster_kernel.plan_cache.hit_ratio": (
            c.get("kernel/plan_cache/hit", 0.0) / lookups if lookups else 0.0
        ),
        "fleet.arena.generation_bumps": c.get("fleet/arena/generation_bumps", 0.0),
        "fleet.routing.build_setup_pct": pct(
            wrapped("fleet.routing.build", "total_s", setup), setup
        ),
        "fleet.routing.path_queries": wrapped("fleet.routing.path_queries", "calls"),
        "fleet.migrations.accepted": accepted,
        "fleet.migrations.vetoed": vetoed,
        "fleet.migrations.accept_ratio": (
            accepted / (accepted + vetoed) if accepted + vetoed else 0.0
        ),
    }
    m: dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        key, _, field = name.rpartition(".")
        if name in RUNNER_MEASURED:
            continue
        if name in special:
            m[name] = special[name]
        elif name in SPAN_SHARES:
            span, part = SPAN_SHARES[name]
            m[name] = pct(job.spans.get(span, (0.0, 0.0))[part])
        elif key.startswith("nfv.cluster_kernel.plan_cache"):
            m[name] = c.get(f"kernel/plan_cache/{field}", 0.0)
        elif field == "calls":
            m[name] = wrapped(key, "calls")
        else:
            m[name] = pct(wrapped(key, {"self_pct": "self_s", "total_pct": "total_s"}[field]))
    return m
