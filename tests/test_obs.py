"""Observability subsystem tests: tracer, metrics, dashboard, fleet wiring.

The load-bearing guarantees, in the order the module docstring states
them:

* **off means free** — disabled instrumentation allocates nothing (one
  shared null span, no events recorded);
* **on never perturbs** — a seeded ``fleet-wan`` run is bit-identical
  (``comparable()`` equal) with tracing on or off;
* **one timeline** — shard-worker spans travel the pipe (including the
  crash path) and merge into the coordinator's trace in timestamp order
  with per-process labels;
* the ``repro top`` dashboard renders from a recorded trace.
"""

import json
import os

import pytest

from repro import obs
from repro.__main__ import main as repro_main
from repro.fleet import run_fleet
from repro.fleet.coordinator import FleetCoordinator, FleetResult, FleetSpec
from repro.fleet.shard import ShardWorker
from repro.obs import NULL_SPAN, MetricsRegistry, Tracer, read_trace
from repro.obs.dashboard import render, summarize
from repro.obs.metrics import percentile
from repro.scenario import SCENARIOS

from test_fleet import fleet_section, hosted_loads, shard_config


@pytest.fixture(autouse=True)
def _obs_off():
    """Instrumentation is process-global state: always reset after a test."""
    yield
    obs.disable()


def wan_spec():
    return SCENARIOS.get("fleet-wan")()


# -- the disabled path ---------------------------------------------------------


class TestDisabledPath:
    def test_span_is_the_shared_null_singleton(self):
        assert not obs.enabled()
        s1 = obs.span("x", a=1)
        s2 = obs.span("y")
        assert s1 is NULL_SPAN and s2 is NULL_SPAN
        with s1:
            pass  # enter/exit are no-ops

    def test_null_span_holds_no_state(self):
        assert not hasattr(NULL_SPAN, "__dict__")
        assert NULL_SPAN.__slots__ == ()

    def test_metrics_calls_are_no_ops(self):
        obs.inc("c")
        obs.observe("h", 1.0)
        obs.gauge("g", 2.0)
        assert obs.registry().counters == {}
        assert obs.drain_events() == []
        assert obs.drain_counters() == {}

    def test_tracer_is_none(self):
        assert obs.tracer() is None


# -- tracer --------------------------------------------------------------------


class TestTracer:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "out.trace.jsonl"
        obs.enable(trace_path=path, label="test-proc")
        with obs.span("work/outer", layer=1):
            with obs.span("work/inner"):
                pass
        obs.tracer().counter("series", 42.0)
        obs.disable()  # flush + close

        text = path.read_text(encoding="utf-8")
        assert text.startswith("[\n")
        events = read_trace(path)
        by_name = {e["name"]: e for e in events}
        meta = by_name["process_name"]
        assert meta["ph"] == "M" and meta["args"]["name"] == "test-proc"
        outer, inner = by_name["work/outer"], by_name["work/inner"]
        assert outer["ph"] == inner["ph"] == "X"
        assert outer["pid"] == inner["pid"] == os.getpid()
        assert outer["args"] == {"layer": 1}
        # Nesting: the inner span lies within the outer window.
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1
        counter = by_name["series"]
        assert counter["ph"] == "C" and counter["args"]["value"] == 42.0
        # Every line is valid JSON once the trailing comma is stripped.
        for line in text.splitlines()[1:]:
            json.loads(line.rstrip(","))

    def test_buffered_mode_drains(self):
        tracer = Tracer(None, label="w")
        with tracer.span("a"):
            pass
        assert len(tracer) == 2  # metadata + span
        events = tracer.drain()
        assert len(events) == 2 and len(tracer) == 0
        tracer.flush()  # no-op without a file

    def test_ingest_merges_in_timestamp_order(self):
        tracer = Tracer(None, label="parent")
        tracer.emit({"name": "late", "ph": "X", "ts": 300, "dur": 1})
        tracer.emit({"name": "later", "ph": "X", "ts": 500, "dur": 1})
        tracer.ingest(
            [
                {"name": "worker-mid", "ph": "X", "ts": 400, "dur": 1},
                {"name": "worker-early", "ph": "X", "ts": 100, "dur": 1},
            ]
        )
        names = [e["name"] for e in tracer.drain()]
        assert names == [
            "process_name", "worker-early", "late", "worker-mid", "later",
        ]

    def test_read_trace_tolerates_missing_bracket(self, tmp_path):
        path = tmp_path / "crashed.jsonl"
        path.write_text('[\n{"name": "a", "ph": "X", "ts": 1},\n')
        assert read_trace(path) == [{"name": "a", "ph": "X", "ts": 1}]

    def test_enable_worker_abandons_inherited_file(self, tmp_path):
        obs.enable(trace_path=tmp_path / "parent.jsonl", label="parent")
        parent_tracer = obs.tracer()
        obs.enable_worker("child")
        assert parent_tracer._fh is None  # abandoned, not closed
        assert obs.tracer() is not parent_tracer
        assert obs.tracer()._fh is None  # buffered


# -- metrics -------------------------------------------------------------------


class TestMetrics:
    def test_percentile(self):
        assert percentile([], 50.0) == 0.0
        assert percentile([7.0], 99.0) == 7.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5
        assert percentile([1.0, 2.0, 3.0, 4.0], 100.0) == 4.0

    def test_counters_gauges_histograms(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.inc("c", 2)
        reg.gauge("g", 1.0)
        reg.gauge("g", 5.0)
        for v in (1.0, 2.0, 3.0):
            reg.observe("h", v)
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 3}
        assert snap["gauges"] == {"g": 5.0}
        h = snap["histograms"]["h"]
        assert h["count"] == 3 and h["sum"] == 6.0
        assert h["min"] == 1.0 and h["max"] == 3.0 and h["p50"] == 2.0
        # Histograms reset per snapshot; counters are cumulative.
        assert reg.snapshot()["histograms"] == {}
        assert reg.snapshot()["counters"] == {"c": 3}

    def test_drain_and_merge_ship_deltas(self):
        worker = MetricsRegistry()
        parent = MetricsRegistry()
        worker.inc("k", 2)
        parent.merge_counters(worker.drain_counters())
        assert worker.counters == {}
        worker.inc("k")
        parent.merge_counters(worker.drain_counters())
        assert parent.counters == {"k": 3}


# -- fleet wiring --------------------------------------------------------------


class TestFleetInstrumentation:
    def test_seeded_run_bit_identical_with_tracing(self, tmp_path):
        spec = wan_spec()
        off = run_fleet(spec, backend="local", cycles=3)
        obs.enable(trace_path=tmp_path / "run.trace.jsonl")
        try:
            on = run_fleet(spec, backend="local", cycles=3)
        finally:
            obs.disable()
        assert on.comparable() == off.comparable()
        assert off.metrics == [] and len(on.metrics) == 3

    def test_metrics_series_content(self, tmp_path):
        obs.enable()
        try:
            result = run_fleet(wan_spec(), backend="local", cycles=3)
        finally:
            obs.disable()
        for i, snap in enumerate(result.metrics):
            assert snap["cycle"] == i
            assert snap["cycle_s"] > 0
            assert snap["chains"] > 0
            assert snap["chain_intervals_per_s"] > 0
            assert snap["energy_j"] > 0
        counters = result.metrics[-1]["counters"]
        assert counters["kernel/plan_cache/hit"] > 0
        assert counters["kernel/plan_cache/promote"] > 0
        hist = result.metrics[-1]["histograms"]["fleet/cycle_s"]
        assert hist["count"] == 1  # reset each snapshot

    def test_result_round_trips_metrics(self, tmp_path):
        obs.enable()
        try:
            result = run_fleet(wan_spec(), backend="local", cycles=2)
        finally:
            obs.disable()
        loaded = FleetResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert loaded.metrics == result.metrics
        # Pre-metrics artifacts (no "metrics" key) still load.
        old = result.to_dict()
        del old["metrics"]
        assert FleetResult.from_dict(old).metrics == []

    def test_result_measures_elapsed_internally(self):
        spec = wan_spec()
        result = run_fleet(spec, backend="local", cycles=2)
        assert result.elapsed_s > 0  # the old default silently logged 0.0
        coordinator = FleetCoordinator(
            FleetSpec.from_mapping(fleet_section()), seed=0
        )
        with coordinator:
            coordinator.run_cycles(1)
            assert coordinator.result().elapsed_s > 0
            assert coordinator.result(elapsed_s=1.25).elapsed_s == 1.25

    def test_trace_records_cycle_spans(self, tmp_path):
        path = tmp_path / "cycles.trace.jsonl"
        obs.enable(trace_path=path)
        try:
            run_fleet(wan_spec(), backend="local", cycles=3)
        finally:
            obs.disable()
        events = read_trace(path)
        spans = [e for e in events if e.get("ph") == "X"]
        names = {e["name"] for e in spans}
        assert {
            "fleet/cycle", "fleet/plan", "fleet/gather", "fleet/apply",
            "fleet/merge", "shard/run",
        } <= names
        assert len([e for e in spans if e["name"] == "fleet/cycle"]) == 3
        counters = {e["name"] for e in events if e.get("ph") == "C"}
        assert {"fleet/energy_j", "fleet/chains"} <= counters

    @pytest.mark.fleet_mp
    def test_worker_spans_merge_into_one_timeline(self, tmp_path):
        path = tmp_path / "mp.trace.jsonl"
        spec = wan_spec()
        obs.enable(trace_path=path)
        try:
            mp_result = run_fleet(spec, backend="process", cycles=2)
        finally:
            obs.disable()
        assert (
            mp_result.comparable()
            == run_fleet(spec, backend="local", cycles=2).comparable()
        )
        events = read_trace(path)
        labels = {
            e["pid"]: e["args"]["name"]
            for e in events
            if e.get("ph") == "M" and e["name"] == "process_name"
        }
        shard_labels = sorted(
            v for v in labels.values() if v.startswith("shard-")
        )
        assert labels[os.getpid()] == "coordinator"
        assert len(shard_labels) >= 2  # one worker process per shard
        worker_spans = [
            e
            for e in events
            if e.get("ph") == "X" and e["pid"] != os.getpid()
        ]
        assert {e["name"] for e in worker_spans} >= {"shard/run"}
        # Worker counters folded into the coordinator's registry.
        counters = mp_result.metrics[-1]["counters"]
        assert counters["kernel/plan_cache/hit"] > 0
        assert counters["fleet/arena/generation_bumps"] > 0

    @pytest.mark.fleet_mp
    def test_crash_reply_flushes_worker_spans(self):
        # An error reply from a tracing worker carries its buffered spans
        # and counter deltas; the parent salvages them before raising.
        obs.enable(label="parent")
        config = shard_config(trace=True)
        worker = ShardWorker(config)
        try:
            worker.begin_run(hosted_loads(worker, 0, 2, config=config))
            worker.finish_run()  # buffers a shard/run span worker-side
            with pytest.raises(RuntimeError, match="no chain 'ghost'"):
                worker.undeploy("ghost")
            pending = obs.tracer()._pending
            salvaged = [
                e
                for e in pending
                if e.get("ph") == "X" and e["pid"] != os.getpid()
            ]
            assert {e["name"] for e in salvaged} >= {"shard/run"}
            merged = obs.registry().counters
            assert any(k.startswith("kernel/plan_cache/") for k in merged)
        finally:
            worker.close()

    @pytest.mark.fleet_mp
    def test_drain_spans_round_trip_is_delta_based(self):
        obs.enable(label="parent")
        config = shard_config(trace=True)
        worker = ShardWorker(config)
        try:
            worker.begin_run(hosted_loads(worker, 0, 2, config=config))
            worker.finish_run()
            events, counters = worker.drain_spans()
            assert any(e["name"] == "shard/run" for e in events)
            assert counters  # first drain carries the plan-cache deltas
            events2, counters2 = worker.drain_spans()
            assert events2 == [] and counters2 == {}  # nothing new
        finally:
            worker.close()


# -- dashboard -----------------------------------------------------------------


def _record_trace(tmp_path):
    path = tmp_path / "dash.trace.jsonl"
    obs.enable(trace_path=path)
    try:
        run_fleet(wan_spec(), backend="local", cycles=3)
    finally:
        obs.disable()
    return path


class TestDashboard:
    def test_summarize(self, tmp_path):
        view = summarize(read_trace(_record_trace(tmp_path)))
        assert view["cycle_ms"]["count"] == 3
        assert view["cycle_ms"]["p50"] > 0
        assert "fleet/plan" in view["spans"]
        assert view["counters"]["fleet/chains"]
        assert os.getpid() in view["processes"]

    def test_replay_renders_one_frame(self, tmp_path, capsys):
        path = _record_trace(tmp_path)
        rc = repro_main(["top", str(path), "--replay"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fleet top" in out
        assert "cycle latency p50/p90/p99" in out
        assert "where the time goes" in out
        assert "fleet/cycle" in out
        assert f"{os.getpid()}:coordinator" in out

    def test_follow_mode_bounded_refreshes(self, tmp_path, capsys):
        path = _record_trace(tmp_path)
        rc = repro_main(
            ["top", str(path), "--interval", "0.01", "--refreshes", "2"]
        )
        assert rc == 0
        assert capsys.readouterr().out.count("fleet top") == 2

    def test_missing_trace_exits_2(self, tmp_path, capsys):
        rc = repro_main(["top", str(tmp_path / "nope.jsonl"), "--replay"])
        assert rc == 2
        assert "no trace file" in capsys.readouterr().out

    def test_bad_interval_rejected(self, tmp_path, capsys):
        path = _record_trace(tmp_path)
        rc = repro_main(["top", str(path), "--interval", "0"])
        assert rc == 2
        assert "interval" in capsys.readouterr().err

    def test_render_handles_empty_trace(self, tmp_path):
        text = render(tmp_path / "empty", summarize([]))
        assert "cycles seen" in text
