"""The reachability gate's analysis on a two-function fixture.

``benchmarks/reachability.py`` runs the entry-point corpus under a
profiler and fails on any ``src/`` function that no invocation called
and the allowlist does not name.  The corpus takes about a minute, so CI
runs it in the static-analysis job; here the same collector, tracer and
analysis run on a tiny tree with one called and one uncalled function,
and the committed allowlist and the corpus's spec files are checked
without running the corpus.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.scenario import ScenarioSpec
from repro.scenario.runner import build_context

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"

FIXTURE = '''
def called():
    return inner()


def inner():
    return 1


def uncalled():
    return 2


class Thing:
    def __repr__(self):
        return "Thing()"

    def abstract(self):
        """Subclasses implement it."""
        raise NotImplementedError
'''


@pytest.fixture(scope="module")
def reachability():
    spec = importlib.util.spec_from_file_location(
        "reachability", BENCHMARKS / "reachability.py"
    )
    mod = importlib.util.module_from_spec(spec)
    sys.modules["reachability"] = mod
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture
def traced(reachability, tmp_path):
    """``(functions, reached)`` after calling ``called()`` under the tracer."""
    path = tmp_path / "src" / "pkg" / "mod.py"
    path.parent.mkdir(parents=True)
    path.write_text(FIXTURE, encoding="utf-8")
    spec = importlib.util.spec_from_file_location("fixture_mod", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    tracer = reachability.Tracer()
    tracer.start()
    try:
        mod.called()
    finally:
        tracer.stop()
    return reachability.collect_functions(tmp_path), tracer.reached(tmp_path)


def test_dunders_and_stubs_are_exempt(traced):
    functions, _ = traced
    assert [f.ref for f in functions] == [
        "src/pkg/mod.py::called",
        "src/pkg/mod.py::inner",
        "src/pkg/mod.py::uncalled",
    ]


def test_uncalled_function_is_flagged(reachability, traced):
    functions, reached = traced
    unreached, refused = reachability.analyse(functions, reached, {})
    assert [f.ref for f in unreached] == ["src/pkg/mod.py::uncalled"]
    assert refused == []


def test_listed_function_passes(reachability, traced):
    functions, reached = traced
    allow, refused = reachability.parse_allowlist(
        "# comment\nsrc/pkg/mod.py::uncalled  # kept for the library API\n"
    )
    assert refused == []
    assert reachability.analyse(functions, reached, allow) == ([], [])


def test_entry_without_reason_is_refused(reachability, traced):
    allow, refused = reachability.parse_allowlist("src/pkg/mod.py::uncalled\n")
    assert allow == {}
    assert refused == ["line 1: src/pkg/mod.py::uncalled gives no reason"]
    _, refused = reachability.parse_allowlist("src/pkg/mod.py::uncalled  #   \n")
    assert refused == ["line 1: src/pkg/mod.py::uncalled gives no reason"]
    functions, reached = traced
    unreached, _ = reachability.analyse(functions, reached, allow)
    assert [f.ref for f in unreached] == ["src/pkg/mod.py::uncalled"]


def test_reached_and_missing_entries_are_refused(reachability, traced):
    functions, reached = traced
    allow = {
        "src/pkg/mod.py::uncalled": "kept",
        "src/pkg/mod.py::called": "stale",
        "src/pkg/mod.py::gone": "deleted since",
    }
    unreached, refused = reachability.analyse(functions, reached, allow)
    assert unreached == []
    assert refused == [
        "src/pkg/mod.py::called is reached now; drop the entry",
        "src/pkg/mod.py::gone names no function in the tree",
    ]


def test_committed_allowlist_names_functions_with_reasons(reachability):
    allow, refused = reachability.parse_allowlist(
        reachability.ALLOW_FILE.read_text(encoding="utf-8")
    )
    assert refused == []
    refs = {f.ref for f in reachability.collect_functions(reachability.REPO)}
    assert sorted(set(allow) - refs) == []


def test_corpus_spec_files_build(reachability, tmp_path):
    first, then = reachability.corpus(tmp_path)
    paths = sorted(tmp_path.glob("*.json"))
    assert paths
    for path in paths:
        data = json.loads(path.read_text(encoding="utf-8"))
        for spec in data if isinstance(data, list) else [data]:
            build_context(ScenarioSpec.from_dict(spec))
    for argv in first + then:
        assert argv[0] == "repro" or Path(argv[0]).is_file(), argv
