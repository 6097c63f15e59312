#!/usr/bin/env python3
"""Reachability gate: every function in ``src/`` is reached by an entry point.

Runs a corpus of entry-point invocations, each in its own process under
``sys.setprofile`` and ``threading.setprofile``:

* every ``repro fig`` experiment and ablation with ``--quick``,
* every non-fleet ``repro run`` preset with ``--quick``, one traced
  run, and a DDPG run that saves its policy for a later run whose spec
  loads it,
* every sweep preset, and one sweep of the baseline preset with each
  registered traffic model and chain and of the DDPG preset with each
  registered SLA,
* every fleet scenario preset and every fleet preset, each placement
  policy, a ``fat-tree`` fleet, a churning WAN fleet that migrates chains
  across shards, and a traced process-backend fleet,
* ``repro scan`` on every knob grid, ``lint --strict`` and ``list``, then
  ``repro top --replay`` over the run and fleet traces,
* every ``examples/*.py``.

``multiprocessing``'s ``BaseProcess._bootstrap`` is wrapped in each
traced process, so forked shard and pool workers report their calls
too.  Fork is the default start method on Linux; a worker started by
spawn or forkserver would not inherit the wrapper, and the functions
only it runs would read as unreached.

Every function defined under ``src/`` must then either have been called
or be listed in ``benchmarks/reachability_allow.txt``, one
``path::qualname  # reason`` per line.  Dunders are exempt, and so are
bodies that are only a docstring, ``...`` or ``raise NotImplementedError``.

Exits 1, listing each unreached function that is not listed, each corpus
invocation that failed, and each refused allowlist entry: one without a
reason, one naming no function, or one whose function is now reached.

Run:  PYTHONPATH=src python benchmarks/reachability.py
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
ALLOW_FILE = REPO / "benchmarks" / "reachability_allow.txt"
#: Invocations run at once (CI's runners have 2 CPUs).
JOBS = 2
#: Seconds one invocation may take before it counts as failed.
TIMEOUT_S = 900.0


# -- the functions a source tree defines ------------------------------------


@dataclass(frozen=True)
class Function:
    """One ``def`` in the tree: ``path::qualname`` names it in reports."""

    path: str  # relative to the tree's root, "/"-separated
    qualname: str
    name: str
    line: int  # first line of the code object: the first decorator's, or the def's

    @property
    def ref(self) -> str:
        return f"{self.path}::{self.qualname}"


def _is_stub(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """True for a body of only a docstring, ``...`` or ``raise NotImplementedError``."""
    body = list(node.body)
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str):
        body = body[1:]
    if not body:
        return True
    if len(body) != 1:
        return False
    stmt = body[0]
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) \
            and stmt.value.value is Ellipsis:
        return True
    if isinstance(stmt, ast.Raise) and stmt.exc is not None:
        exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
        return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"
    return False


def collect_functions(root: Path, tree: str = "src") -> list[Function]:
    """Every non-exempt function defined in the ``.py`` files under ``root/tree``."""
    found: list[Function] = []

    def visit(node: ast.AST, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                dunder = child.name.startswith("__") and child.name.endswith("__")
                if not dunder and not _is_stub(child):
                    line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found.append(Function(path, qualname, child.name, line))
                visit(child, path, f"{qualname}.<locals>.")
            else:
                visit(child, path, prefix)

    for file in sorted((root / tree).rglob("*.py")):
        rel = file.relative_to(root).as_posix()
        visit(ast.parse(file.read_text(encoding="utf-8"), filename=rel), rel, "")
    return found


# -- the allowlist -----------------------------------------------------------


def parse_allowlist(text: str) -> tuple[dict[str, str], list[str]]:
    """``{path::qualname: reason}`` and the refusals of malformed lines."""
    entries: dict[str, str] = {}
    refused: list[str] = []
    for n, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        ref, _, reason = line.partition("#")
        ref, reason = ref.strip(), reason.strip()
        if "::" not in ref or " " in ref:
            refused.append(f"line {n}: {ref!r} is not path::qualname")
        elif not reason:
            refused.append(f"line {n}: {ref} gives no reason")
        elif ref in entries:
            refused.append(f"line {n}: {ref} is listed twice")
        else:
            entries[ref] = reason
    return entries, refused


def analyse(
    functions: list[Function],
    reached: set[tuple[str, int, str]],
    allow: dict[str, str],
) -> tuple[list[Function], list[str]]:
    """The unreached functions not in ``allow``, and the refused ``allow`` entries.

    ``reached`` holds ``(path, first line, name)`` of every called code
    object.  An entry is refused when it names no function, or when every
    function it names was reached.
    """
    by_ref: dict[str, list[Function]] = {}
    for fn in functions:
        by_ref.setdefault(fn.ref, []).append(fn)
    unreached = [
        fn for fn in functions
        if (fn.path, fn.line, fn.name) not in reached and fn.ref not in allow
    ]
    refused = []
    for ref in allow:
        named = by_ref.get(ref)
        if not named:
            refused.append(f"{ref} names no function in the tree")
        elif all((fn.path, fn.line, fn.name) in reached for fn in named):
            refused.append(f"{ref} is reached now; drop the entry")
    return unreached, refused


# -- the traced process ------------------------------------------------------


class Tracer:
    """Records every Python code object called while armed, in every thread."""

    def __init__(self) -> None:
        self.codes: set = set()

    def _profile(self, frame, event, arg) -> None:
        if event == "call":
            self.codes.add(frame.f_code)

    def start(self) -> None:
        import threading

        threading.setprofile(self._profile)
        sys.setprofile(self._profile)

    def stop(self) -> None:
        import threading

        sys.setprofile(None)
        threading.setprofile(None)

    def reached(self, root: Path) -> set[tuple[str, int, str]]:
        """``(path relative to root, first line, name)`` of the calls under root."""
        root = root.resolve()
        out = set()
        for code in self.codes:
            filename = Path(os.path.abspath(code.co_filename))
            if filename.is_relative_to(root):
                rel = filename.relative_to(root).as_posix()
                out.add((rel, code.co_firstlineno, code.co_name))
        return out

    def dump(self, path: Path) -> None:
        rows = sorted(self.reached(REPO))
        path.write_text(json.dumps(rows), encoding="utf-8")


def _traced_child(out_dir: Path, argv: list[str]) -> int:
    """Run one corpus invocation under the tracer; dump what it called."""
    import multiprocessing.process as mp_process

    tracer = Tracer()
    bootstrap = mp_process.BaseProcess._bootstrap

    def traced_bootstrap(self, *args, **kwargs):
        tracer.codes.clear()
        tracer.start()
        try:
            return bootstrap(self, *args, **kwargs)
        finally:
            tracer.stop()
            tracer.dump(out_dir / f"worker-{os.getpid()}.json")

    mp_process.BaseProcess._bootstrap = traced_bootstrap
    tracer.start()
    try:
        if argv[0] == "repro":
            from repro.__main__ import main

            code = main(argv[1:])
        else:
            import runpy

            sys.argv = list(argv)
            runpy.run_path(argv[0], run_name="__main__")
            code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        tracer.stop()
        tracer.dump(out_dir / f"main-{os.getpid()}.json")
    return code or 0


# -- the corpus --------------------------------------------------------------


#: Parameters a spec needs for each registered traffic model and SLA
#: (a model or SLA registered later without an entry here runs with none).
TRAFFIC_PARAMS = {
    "constant": {"rate_pps": 5e5},
    "poisson": {"mean_rate_pps": 5e5},
    "mmpp": {"low_rate_pps": 1e5, "high_rate_pps": 8e5},
    "diurnal": {"peak_rate_pps": 8e5},
    "trace": {"trace_pps": [1e5, 5e5, 8e5]},
}
SLA_PARAMS = {
    "max_throughput": {"energy_cap_j": 45.0},
    "min_energy": {"throughput_floor_gbps": 5.0},
    "latency": {"latency_bound_s": 4.5e-3},
}


def corpus(work: Path) -> tuple[list[list[str]], list[list[str]]]:
    """The entry-point invocations, and those that read their outputs."""
    from repro.experiments.registry import EXPERIMENTS
    from repro.fleet import FLEETS, PLACEMENTS
    from repro.scenario import CHAINS, GRIDS, SCENARIOS, SLAS, SWEEPS, TRAFFIC

    def spec_file(name: str, payload) -> str:
        path = work / f"{name}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    # One sweep runs the baseline preset with every traffic model and chain
    # in the registries, and the DDPG preset, which trains on the SLA's
    # reward, with every SLA.
    base = SCENARIOS.get("baseline")()
    learned = SCENARIOS.get("greennfv-maxt")()
    registries = spec_file("registries", [
        *(base.with_updates(name=f"traffic-{t}", traffic=t,
                            traffic_params=TRAFFIC_PARAMS.get(t, {})).to_dict()
          for t in TRAFFIC.names()),
        *(learned.with_updates(name=f"sla-{s}", sla=s,
                               sla_params=SLA_PARAMS.get(s, {})).to_dict()
          for s in SLAS.names()),
        *(base.with_updates(name=f"chain-{c}", chain=c).to_dict() for c in CHAINS.names()),
    ])
    # Every fleet preset as a fleet-small spec, and a fat-tree topology
    # under a partial override of the small preset's migration section.
    small = SCENARIOS.get("fleet-small")()
    fleets = [
        spec_file(f"fleet-{name}", small.with_updates(
            name=name, fleet={"preset": name}).to_dict())
        for name in FLEETS.names()
    ]
    fleets.append(spec_file("fleet-fat-tree", small.with_updates(
        name="fat-tree",
        fleet={
            "preset": "small",
            "topology": {"preset": "fat-tree", "pods": 2},
            "migration": {"budget_per_cycle": 1},
        },
    ).to_dict()))
    # The e2e fleet-churn WAN under watermark placement: its two quick
    # cycles accept cross-shard moves, so a migration runs end to end
    # (routed path lookups, undeploy, re-targeted ticket, deploy).
    fleets.append(spec_file("fleet-churn", small.with_updates(
        name="churn",
        fleet={
            "preset": "wan",
            "placement": "watermark",
            "topology": {"preset": "wan", "n_sites": 8, "nodes": 4,
                         "chains_per_node": 1},
            "migration": {"amortize_intervals": 64, "budget_per_cycle": 4},
            "workload": {
                "peak_rate_pps": 3e5,
                "churn": {"arrivals_per_cycle": 1.0, "departure_prob": 0.05,
                          "max_chains": 96},
            },
        },
    ).to_dict()))

    # A DDPG run saves its policy, which a spec's policy_path then deploys.
    policy = str(work / "policy.npz")
    deploy = spec_file("deploy", learned.with_updates(
        name="deploy-policy", controller_params={"policy_path": policy},
    ).to_dict())

    run_trace = str(work / "run.trace.jsonl")
    fleet_trace = str(work / "fleet.trace.jsonl")
    presets = [(name, SCENARIOS.get(name)()) for name in SCENARIOS]
    first = [
        *(["repro", "fig", name, "--quick"] for name in sorted(EXPERIMENTS)),
        *(["repro", "run", name, "--quick"] for name, s in presets if s.fleet is None),
        ["repro", "run", "baseline", "--quick", "--trace", run_trace,
         "--out", str(work / "run.json")],
        ["repro", "run", "greennfv-maxt", "--quick", "--save-policy", policy],
        ["repro", "sweep", registries, "--quick", "--jobs", "2",
         "--out-dir", str(work / "sweep")],
        *(["repro", "sweep", name, "--quick", "--jobs", "2"] for name in SWEEPS),
        *(["repro", "fleet", name, "--quick"] for name, s in presets if s.fleet is not None),
        *(["repro", "fleet", path, "--quick"] for path in fleets),
        *(
            ["repro", "fleet", "fleet-wan", "--quick", "--placement", policy]
            for policy in PLACEMENTS.names()
        ),
        ["repro", "fleet", "fleet-small", "--quick", "--backend", "process",
         "--trace", fleet_trace, "--out", str(work / "fleet.json")],
        *(
            ["repro", "scan", "baseline", "--grid", grid,
             "--out", str(work / f"scan-{grid}.json")]
            for grid in GRIDS.names()
        ),
        ["repro", "lint", "--strict", "--output", str(work / "lint.json")],
        ["repro", "list"],
        *([str(p)] for p in sorted((REPO / "examples").glob("*.py"))),
    ]
    then = [
        ["repro", "top", run_trace, "--replay"],
        ["repro", "top", fleet_trace, "--replay"],
        ["repro", "run", deploy, "--quick"],
    ]
    return first, then


def _run_one(argv: list[str], out_dir: Path) -> tuple[list[str], int, float, str]:
    """Run one invocation in a traced child: (argv, exit code, seconds, stderr tail)."""
    out_dir.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, __file__, "--child", str(out_dir), "--", *argv],
            cwd=REPO, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return argv, -1, time.perf_counter() - t0, f"timed out after {TIMEOUT_S:.0f} s"
    return argv, proc.returncode, time.perf_counter() - t0, proc.stderr[-2000:]


def run_corpus() -> tuple[set[tuple[str, int, str]], list[str]]:
    """Run the corpus; return the reached code objects and the failures."""
    reached: set[tuple[str, int, str]] = set()
    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="reachability-") as tmp:
        work = Path(tmp) / "work"
        work.mkdir()
        first, then = corpus(work)
        n = 0
        with ThreadPoolExecutor(max_workers=JOBS) as pool:
            for wave in (first, then):
                dirs = [Path(tmp) / f"{n + i:03d}" for i in range(len(wave))]
                n += len(wave)
                for argv, code, seconds, stderr in pool.map(_run_one, wave, dirs):
                    print(f"  {seconds:6.1f} s  exit {code}  {' '.join(argv)}", flush=True)
                    if code != 0:
                        failures.append(f"{' '.join(argv)} exited {code}:\n{stderr}")
                for d in dirs:
                    for dump in d.glob("*.json"):
                        reached.update(
                            tuple(row) for row in json.loads(dump.read_text(encoding="utf-8"))
                        )
    return reached, failures


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["--child"]:
        return _traced_child(Path(argv[1]), argv[3:])
    if argv:
        print(__doc__)
        return 0 if argv in (["-h"], ["--help"]) else 2

    functions = collect_functions(REPO)
    allow, refused = parse_allowlist(ALLOW_FILE.read_text(encoding="utf-8"))
    t0 = time.perf_counter()
    reached, failures = run_corpus()
    unreached, stale = analyse(functions, reached, allow)
    refused += stale
    n_reached = sum((f.path, f.line, f.name) in reached for f in functions)
    print(
        f"{n_reached} of {len(functions)} functions reached, {len(allow)} listed, "
        f"in {time.perf_counter() - t0:.0f} s"
    )
    for failure in failures:
        print(f"FAILED invocation: {failure}")
    for fn in unreached:
        print(f"UNREACHED {fn.ref} (line {fn.line}): call it from an entry point, "
              f"delete it, or list it with a reason in {ALLOW_FILE.name}")
    for entry in refused:
        print(f"REFUSED allowlist entry: {entry}")
    return 1 if failures or unreached or refused else 0


if __name__ == "__main__":
    sys.exit(main())
