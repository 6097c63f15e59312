"""``repro lint`` static-analysis tests.

Two layers:

* the **gate**: the shipped tree must lint clean under ``--strict``
  (this is what CI's ``static-analysis`` job enforces), and
* per-checker **seeded violations**: each checker must actually catch
  the convention breach it exists for, demonstrated on doctored
  mini-trees — including the canonical protocol regression of deleting
  the ``"undeploy"`` handler from the real ``shard_worker`` source.
"""

import dataclasses
import json
import textwrap
from pathlib import Path

import pytest

from repro.__main__ import main as repro_main
from repro.analysis import (
    Allowlist,
    LintConfig,
    ProtocolSpec,
    run_lint,
)
from repro.analysis.allowlist import parse_allowlist, pragma_codes
from repro.analysis.checkers.hygiene import check_registry
from repro.scenario.registry import Registry

REPO_ROOT = Path(__file__).resolve().parents[1]

#: A config with every project anchor detached — doctored mini-trees
#: contain none of the real classes/protocols/registries.
BARE = dataclasses.replace(
    LintConfig(),
    kernel_classes={},
    kernel_hot_functions={},
    kernel_extra_write_methods={},
    protocols=(),
    spec_classes={},
    registry_check=False,
)


def lint_tree(tmp_path, files, config=BARE, allowlist=None):
    """Write ``files`` under ``tmp_path`` and lint the tree."""
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")
    return run_lint(tmp_path, config=config, allowlist=allowlist or Allowlist())


def codes(report):
    return sorted({f.code for f in report.findings})


# ---------------------------------------------------------------------------
# The gate: the shipped tree is clean
# ---------------------------------------------------------------------------


class TestShippedTreeIsClean:
    def test_zero_findings_strict(self):
        report = run_lint(REPO_ROOT)
        assert report.findings == (), "\n".join(report.format_lines())
        assert not report.failing(strict=True)
        # The deliberate exceptions exist and are suppressed explicitly
        # (cluster-kernel bit-compat pragmas, boundary allowlist), not
        # invisible to the analyzer.
        assert len(report.suppressed) >= 4
        assert len(report.files) > 50

    def test_cli_strict_exit_zero(self, capsys):
        rc = repro_main(["lint", "--strict", "--root", str(REPO_ROOT)])
        assert rc == 0
        assert "0 error(s), 0 warning(s)" in capsys.readouterr().out

    def test_cli_json_report(self, capsys):
        rc = repro_main(["lint", "--json", "--root", str(REPO_ROOT)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["errors"] == 0 and doc["findings"] == []
        assert doc["files"] > 50
        assert "rng-discipline" in doc["checkers"]

    def test_cli_list_codes(self, capsys):
        assert repro_main(["lint", "--list-codes"]) == 0
        out = capsys.readouterr().out
        for code in (
            "RNG001", "TIME001", "KRN001", "MP001", "EXC001", "SPEC001",
            "OBS001",
        ):
            assert code in out


# ---------------------------------------------------------------------------
# RNG discipline
# ---------------------------------------------------------------------------


class TestRngChecker:
    def test_stray_default_rng(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "src/mod.py": """
                import numpy as np

                def f():
                    return np.random.default_rng(3).random()
                """
            },
        )
        assert codes(report) == ["RNG001"]
        (finding,) = report.findings
        assert finding.scope == "f"
        assert "sanctioned" in finding.message

    def test_sanctioned_module_may_construct(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "src/repro/utils/rng.py": """
                import numpy as np

                def make(seed):
                    return np.random.default_rng(seed)
                """
            },
        )
        assert report.findings == ()

    def test_seed_sequence_and_aliased_import(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "src/mod.py": """
                from numpy import random as npr

                seq = npr.SeedSequence(1)
                """
            },
        )
        assert codes(report) == ["RNG002"]

    def test_stdlib_random_banned(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "src/a.py": "import random\n",
                "src/b.py": "from random import choice\n",
            },
        )
        assert codes(report) == ["RNG003"]
        assert len(report.findings) == 2

    def test_legacy_numpy_randomness(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "src/mod.py": """
                import numpy as np

                np.random.seed(0)
                x = np.random.rand(4)
                state = np.random.RandomState(1)
                """
            },
        )
        assert codes(report) == ["RNG004"]
        assert len(report.findings) == 3

    def test_builtin_hash_banned_but_shadowing_allowed(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "src/salted.py": """
                def key(name):
                    return hash(name) % 100
                """,
                "src/shadowed.py": """
                def key(name, hash):
                    return hash(name) % 100
                """,
            },
        )
        assert codes(report) == ["RNG005"]
        (finding,) = report.findings
        assert finding.path == "src/salted.py"

    def test_generator_types_are_fine(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "src/mod.py": """
                import numpy as np

                def wrap(bits):
                    return np.random.Generator(np.random.PCG64(7))
                """
            },
        )
        assert report.findings == ()


# ---------------------------------------------------------------------------
# Left-fold totals
# ---------------------------------------------------------------------------


class TestSumChecker:
    def test_builtin_sum_banned_but_shadowing_allowed(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "src/total.py": """
                def total(xs):
                    return sum(xs)
                """,
                "src/shadowed.py": """
                from repro.utils.stats import left_sum as sum

                def total(xs):
                    return sum(xs)
                """,
            },
        )
        assert codes(report) == ["SUM001"]
        (finding,) = report.findings
        assert finding.path == "src/total.py"

    def test_pragma_allows_an_exact_sum(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "src/count.py": """
                def count(rows):
                    return sum(1 for _ in rows)  # repro-lint: allow[SUM001] int count
                """
            },
        )
        assert report.findings == ()
        assert [reason for _, reason in report.suppressed] == ["pragma"]


# ---------------------------------------------------------------------------
# Wall-clock discipline
# ---------------------------------------------------------------------------


class TestWallClockChecker:
    def test_clock_reads_flagged(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "src/mod.py": """
                import time
                from datetime import datetime

                def f():
                    t0 = time.perf_counter()
                    stamp = datetime.now()
                    return t0, stamp
                """
            },
        )
        assert codes(report) == ["TIME001"]
        assert len(report.findings) == 2

    def test_from_time_import(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {"src/mod.py": "from time import perf_counter\n"},
        )
        assert codes(report) == ["TIME001"]

    def test_sites_are_exempt(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "src/repro/scenario/runner.py": """
                import time

                def elapsed():
                    return time.perf_counter()
                """
            },
        )
        assert report.findings == ()

    def test_sleep_is_not_a_clock_read(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {"src/mod.py": "import time\n\ntime.sleep(0)\n"},
        )
        assert report.findings == ()


# ---------------------------------------------------------------------------
# Kernel discipline
# ---------------------------------------------------------------------------

KERNEL_CFG = dataclasses.replace(
    BARE,
    kernel_classes={"src/plan.py": ("Plan",)},
    kernel_hot_functions={"src/plan.py": ("Plan.step",)},
)

_PLAN_TEMPLATE = """
class Plan:
    def __init__(self, n):
        self.n = n
        self.cache = None

    def compile(self, loads):
        self.cache = loads

    def step(self, loads):
{step_body}
"""


def plan_source(step_body):
    return _PLAN_TEMPLATE.format(step_body=textwrap.indent(step_body, " " * 8))


class TestKernelChecker:
    def test_self_write_in_step(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {"src/plan.py": plan_source("self.cache = loads\nreturn loads")},
            config=KERNEL_CFG,
        )
        assert "KRN001" in codes(report)

    def test_loop_in_hot_path(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "src/plan.py": plan_source(
                    "total = 0\nfor x in loads:\n    total += x\nreturn total"
                )
            },
            config=KERNEL_CFG,
        )
        assert codes(report) == ["KRN002"]

    def test_comprehension_counts_as_loop(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {"src/plan.py": plan_source("return [x + 1 for x in loads]")},
            config=KERNEL_CFG,
        )
        assert codes(report) == ["KRN002"]

    def test_clean_plan_passes(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {"src/plan.py": plan_source("return self.cache")},
            config=KERNEL_CFG,
        )
        assert report.findings == ()

    def test_renamed_anchor_is_loud(self, tmp_path):
        # A refactor renaming Plan must NOT silently disable the checker.
        source = plan_source("return self.cache").replace("class Plan", "class Plan2")
        report = lint_tree(tmp_path, {"src/plan.py": source}, config=KERNEL_CFG)
        assert codes(report) == ["KRN000"]
        assert len(report.findings) == 2  # class anchor + hot-function anchor


# ---------------------------------------------------------------------------
# Observability discipline
# ---------------------------------------------------------------------------


class TestObsChecker:
    def test_bare_span_is_caught(self, tmp_path):
        # A span opened without `with` never closes → no event is ever
        # emitted and nesting breaks silently.
        report = lint_tree(
            tmp_path,
            {
                "src/mod.py": """
                from repro import obs

                def work():
                    s = obs.span("work/loop", n=3)
                    return s
                """
            },
        )
        assert "OBS001" in codes(report)

    def test_bare_span_via_function_alias(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "src/mod.py": """
                from repro.obs import span

                def work():
                    span("work/loop")
                """
            },
        )
        assert "OBS001" in codes(report)

    def test_with_span_is_clean(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "src/mod.py": """
                from repro import obs

                def work():
                    with obs.span("work/loop", n=3):
                        with obs.span("work/inner"):
                            obs.inc("work/count")
                """
            },
        )
        assert [c for c in codes(report) if c == "OBS001"] == []

    def test_tracing_inside_hot_function_is_caught(self, tmp_path):
        # Instrumentation belongs at the dispatch layer; the fused hot
        # path must stay dark even when tracing is disabled.
        cfg = dataclasses.replace(
            BARE, kernel_hot_functions={"src/plan.py": ("Plan.step",)}
        )
        report = lint_tree(
            tmp_path,
            {
                "src/plan.py": """
                from repro import obs

                class Plan:
                    def step(self, loads):
                        obs.inc("plan/steps")
                        return loads
                """
            },
            config=cfg,
        )
        assert "OBS001" in codes(report)

    def test_obs_package_itself_is_exempt(self, tmp_path):
        # The tracer's own implementation constructs Span objects
        # directly; the discipline rules target call sites, not the
        # subsystem.
        report = lint_tree(
            tmp_path,
            {
                "src/repro/obs/trace.py": """
                from repro import obs

                def helper():
                    s = obs.span("x")
                    return s
                """
            },
        )
        assert [c for c in codes(report) if c == "OBS001"] == []


# ---------------------------------------------------------------------------
# MP protocol consistency
# ---------------------------------------------------------------------------

SHARD_REL = "src/repro/fleet/shard.py"
SHARD_CFG = dataclasses.replace(
    BARE,
    protocols=(
        ProtocolSpec(
            name="fleet-shard",
            module=SHARD_REL,
            worker_function="shard_worker",
            handle_classes=("ShardWorker",),
            discarded_replies=("stopped",),
        ),
    ),
    # The worker loop's broad except is legitimate (and irrelevant here).
    exception_boundaries=(f"{SHARD_REL}::shard_worker",),
)


def shard_source():
    return (REPO_ROOT / SHARD_REL).read_text(encoding="utf-8")


class TestProtocolChecker:
    def test_real_shard_protocol_is_consistent(self, tmp_path):
        report = lint_tree(tmp_path, {SHARD_REL: shard_source()}, config=SHARD_CFG)
        assert [c for c in codes(report) if c.startswith("MP")] == []

    def test_deleting_undeploy_handler_is_caught(self, tmp_path):
        # The acceptance scenario: drop the worker's "undeploy" branch
        # and the lint must flag the orphaned parent-side send.
        source = shard_source()
        handler = (
            '                elif kind == "undeploy":\n'
            '                    ticket = sim.undeploy(msg[1])\n'
            '                    generation += 1\n'
            '                    conn.send(("ticket", ticket))\n'
        )
        assert handler in source
        report = lint_tree(
            tmp_path, {SHARD_REL: source.replace(handler, "")}, config=SHARD_CFG
        )
        mp_findings = [f for f in report.findings if f.code.startswith("MP")]
        assert {f.code for f in mp_findings} == {"MP001", "MP004"}
        mp001 = next(f for f in mp_findings if f.code == "MP001")
        assert "'undeploy'" in mp001.message
        assert "deadlock" in mp001.message
        mp004 = next(f for f in mp_findings if f.code == "MP004")
        assert "'ticket'" in mp004.message

    def test_renaming_telemetry_reply_is_caught(self, tmp_path):
        # The zero-copy run reply: rename the worker's "telemetry" ack
        # and both ends must light up — the worker now sends a reply kind
        # the parent never expects (MP002) and the parent still waits on
        # one the worker never sends (MP004).
        source = shard_source()
        assert '("telemetry",' in source  # the worker-side ack tuple
        report = lint_tree(
            tmp_path,
            {SHARD_REL: source.replace('("telemetry",', '("telemetry2",')},
            config=SHARD_CFG,
        )
        by_code = {f.code: f for f in report.findings if f.code.startswith("MP")}
        assert set(by_code) == {"MP002", "MP004"}
        assert "'telemetry2'" in by_code["MP002"].message
        assert "'telemetry'" in by_code["MP004"].message

    def test_dropping_telemetry_expectation_is_caught(self, tmp_path):
        # Parent stops expecting the telemetry ack: the worker's reply
        # kind becomes unexpected (MP002) and the "run" request loses its
        # reply path on the parent side (the ack the worker sends for it
        # is no longer received anywhere).
        source = shard_source()
        needle = 'self._recv("telemetry")'
        assert needle in source
        report = lint_tree(
            tmp_path,
            {SHARD_REL: source.replace(needle, 'self._recv("ok")')},
            config=SHARD_CFG,
        )
        mp_codes = {f.code for f in report.findings if f.code.startswith("MP")}
        assert "MP002" in mp_codes

    def test_dead_handler_is_a_warning(self, tmp_path):
        # Make the parent stop sending "knobs": the worker branch is dead.
        source = shard_source().replace(
            'self._conn.send(("knobs", dict(updates)))',
            'self._conn.send(("noop_knobs", dict(updates)))',
        )
        report = lint_tree(tmp_path, {SHARD_REL: source}, config=SHARD_CFG)
        by_code = {f.code: f for f in report.findings if f.code.startswith("MP")}
        assert set(by_code) == {"MP001", "MP003"}
        assert by_code["MP003"].severity == "warning"
        assert "'knobs'" in by_code["MP003"].message
        # ... and --strict fails on the warning.
        assert report.failing(strict=True)

    def test_renamed_worker_is_loud(self, tmp_path):
        source = shard_source().replace("def shard_worker", "def shard_main")
        report = lint_tree(tmp_path, {SHARD_REL: source}, config=SHARD_CFG)
        assert "MP000" in codes(report)


# ---------------------------------------------------------------------------
# Exception, registry and spec hygiene
# ---------------------------------------------------------------------------


class TestExceptionChecker:
    def test_broad_except_flagged(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "src/mod.py": """
                def f():
                    try:
                        return 1
                    except Exception:
                        return None
                """
            },
        )
        assert codes(report) == ["EXC001"]

    def test_bare_except_flagged(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {"src/mod.py": "try:\n    x = 1\nexcept:\n    pass\n"},
        )
        assert codes(report) == ["EXC001"]

    def test_reraise_is_exempt(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "src/mod.py": """
                def f(res):
                    try:
                        return res.get()
                    except BaseException:
                        res.close()
                        raise
                """
            },
        )
        assert report.findings == ()

    def test_declared_boundary_is_exempt(self, tmp_path):
        cfg = dataclasses.replace(BARE, exception_boundaries=("src/w.py::worker",))
        files = {
            "src/w.py": """
            def worker(conn):
                try:
                    conn.send(1)
                except Exception as exc:
                    conn.send(str(exc))
            """
        }
        assert lint_tree(tmp_path, files, config=cfg).findings == ()
        assert codes(lint_tree(tmp_path, files)) == ["EXC001"]

    def test_narrow_except_is_fine(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {"src/mod.py": "try:\n    x = 1\nexcept ValueError:\n    pass\n"},
        )
        assert report.findings == ()


class TestRegistryChecker:
    def test_live_registries_resolve(self):
        # Exercised by the full-tree gate too; pin it directly.
        report = run_lint(REPO_ROOT)
        assert [c for c in codes(report) if c.startswith("REG")] == []

    def test_empty_registry(self):
        findings = check_registry(Registry("empty-kind"), "tests.EMPTY")
        assert [f.code for f in findings] == ["REG002"]

    def test_local_factory_is_flagged(self):
        reg = Registry("local-kind")

        def factory():  # a <locals> function: unreachable from workers
            return object()

        reg.add("bad", factory)
        findings = check_registry(reg, "tests.LOCAL")
        assert [f.code for f in findings] == ["REG001"]
        assert "local/lambda" in findings[0].message

    def test_drifted_symbol_is_flagged(self):
        reg = Registry("drift-kind")
        factory = lambda: None  # noqa: E731
        factory.__module__ = "repro.utils.rng"
        factory.__qualname__ = "hash_name"  # resolves, but to another object
        reg.add("drift", factory)
        findings = check_registry(reg, "tests.DRIFT")
        assert [f.code for f in findings] == ["REG001"]
        assert "different object" in findings[0].message

    def test_module_level_factory_passes(self):
        reg = Registry("good-kind")
        from repro.utils.rng import hash_name

        reg.add("good", hash_name)
        assert check_registry(reg, "tests.GOOD") == []


SPEC_CFG = dataclasses.replace(
    BARE, spec_classes={"src/spec.py": ("MySpec",)}
)


class TestSpecFieldChecker:
    def test_non_serializable_annotation(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "src/spec.py": """
                import numpy as np
                from dataclasses import dataclass

                @dataclass(frozen=True)
                class MySpec:
                    name: str
                    weights: np.ndarray
                """
            },
            config=SPEC_CFG,
        )
        assert codes(report) == ["SPEC001"]
        (finding,) = report.findings
        assert "MySpec.weights" in finding.message

    def test_json_grammar_passes(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "src/spec.py": """
                from dataclasses import dataclass, field
                from typing import Any, Mapping

                @dataclass(frozen=True)
                class MySpec:
                    name: str
                    nfs: tuple[str, ...] | None = None
                    params: Mapping[str, Any] = field(default_factory=dict)
                    fleet: dict[str, Any] | None = None
                    seed: int = 0
                """
            },
            config=SPEC_CFG,
        )
        assert report.findings == ()

    def test_listed_spec_classes_are_field_types(self, tmp_path):
        # A class listed in spec_classes may type another's field; an
        # unlisted class may not.
        report = lint_tree(
            tmp_path,
            {
                "src/spec.py": """
                from dataclasses import dataclass

                @dataclass(frozen=True)
                class Inner:
                    rate: float

                @dataclass(frozen=True)
                class MySpec:
                    inner: Inner
                    nested: tuple[Inner, ...] = ()
                    other: Outsider | None = None
                """
            },
            config=dataclasses.replace(
                BARE, spec_classes={"src/spec.py": ("MySpec", "Inner")}
            ),
        )
        assert codes(report) == ["SPEC001"]
        (finding,) = report.findings
        assert "MySpec.other" in finding.message

    def test_missing_anchor_class_is_loud(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {"src/spec.py": "class OtherSpec:\n    pass\n"},
            config=SPEC_CFG,
        )
        assert codes(report) == ["SPEC000"]

    def test_real_spec_classes_pass(self):
        report = run_lint(REPO_ROOT)
        assert [c for c in codes(report) if c.startswith("SPEC")] == []


# ---------------------------------------------------------------------------
# Suppression mechanics: pragmas, and the policy file
# ---------------------------------------------------------------------------


class TestSuppression:
    def test_inline_pragma_on_line_and_above(self):
        lines = [
            "x = hash(name)  # repro-lint: allow[RNG005] checksum, not a seed",
            "# repro-lint: allow[KRN001,KRN002] fold kept sequential",
            "self.cache = 1",
        ]
        assert pragma_codes(lines, 1) == {"RNG005"}
        assert pragma_codes(lines, 3) == {"KRN001", "KRN002"}
        # Line 2 sees its own pragma plus the one directly above it.
        assert pragma_codes(lines, 2) == {"RNG005", "KRN001", "KRN002"}

    def test_pragma_suppresses_finding(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "src/mod.py": """
                def key(name):
                    # repro-lint: allow[RNG005] cache key, never feeds a seed
                    return hash(name) % 8
                """
            },
        )
        assert report.findings == ()
        assert [reason for _, reason in report.suppressed] == ["pragma"]

    def test_allow_entry_refused_with_pragma_hint(self):
        text = '[[allow]]\ncode = "RNG005"\npath = "src/*.py"\nreason = "cache key"\n'
        with pytest.raises(ValueError, match=r"<string>:1: .*inline .*repro-lint: allow\[CODE\]"):
            parse_allowlist(text)

    def test_allow_entry_in_the_project_file_fails_the_run(self, tmp_path):
        (tmp_path / "src").mkdir()
        (tmp_path / "analysis_allow.toml").write_text(
            '[wallclock]\nextra_allowed = []\n\n[[allow]]\ncode = "NOPE999"\n',
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="analysis_allow.toml:4: .*pragma"):
            run_lint(tmp_path, config=BARE)

    def test_parse_allowlist_policy_sections(self):
        allow = parse_allowlist(
            textwrap.dedent(
                """
                # comment
                [rng]
                extra_allowed = ["src/tools/gen.py"]
                """
            )
        )
        assert allow.policy["rng"]["extra_allowed"] == ["src/tools/gen.py"]
        cfg = LintConfig().with_policy(allow.policy)
        assert "src/tools/gen.py" in cfg.rng_construction_sites
        with pytest.raises(ValueError, match="outside any"):
            parse_allowlist('extra_allowed = ["src/tools/gen.py"]\n')

    def test_policy_extends_rng_sites(self, tmp_path):
        allow = parse_allowlist('[rng]\nextra_allowed = ["src/gen.py"]\n')
        report = lint_tree(
            tmp_path,
            {
                "src/gen.py": """
                import numpy as np

                g = np.random.default_rng(0)
                """
            },
            allowlist=allow,
        )
        assert report.findings == ()

    def test_unknown_policy_section_rejected(self):
        with pytest.raises(ValueError, match="unknown allowlist sections"):
            LintConfig().with_policy({"bogus": {"x": 1}})

    def test_shipped_allowlist_parses(self):
        from repro.analysis import load_allowlist

        allow = load_allowlist(REPO_ROOT / "analysis_allow.toml")
        assert set(allow.policy) == {"wallclock", "exceptions"}
        assert (
            "src/repro/fleet/shard.py::shard_worker"
            in allow.policy["exceptions"]["extra_boundaries"]
        )


# ---------------------------------------------------------------------------
# Engine details
# ---------------------------------------------------------------------------


class TestEngine:
    def test_unparsable_file_is_a_finding(self, tmp_path):
        report = lint_tree(tmp_path, {"src/bad.py": "def broken(:\n"})
        assert codes(report) == ["PARSE001"]

    def test_findings_sorted_and_deduped(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "src/b.py": "import random\n",
                "src/a.py": "import random\n",
            },
        )
        assert [f.path for f in report.findings] == ["src/a.py", "src/b.py"]

    def test_explicit_paths_narrow_the_run(self, tmp_path):
        files = {
            "src/clean.py": "x = 1\n",
            "src/dirty.py": "import random\n",
        }
        report = lint_tree(tmp_path, files)
        assert codes(report) == ["RNG003"]
        for rel, text in files.items():
            (tmp_path / rel).write_text(text, encoding="utf-8")
        narrowed = run_lint(
            tmp_path, config=BARE, allowlist=Allowlist(), paths=("src/clean.py",)
        )
        assert narrowed.findings == ()
        assert narrowed.files == ("src/clean.py",)
