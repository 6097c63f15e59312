"""Kernel discipline: compiled plans stay pure, hot paths stay array-native.

The compiled-plan architecture (``ChainKernelPlan``, ``ClusterKernel``'s
fused pass, ``_FusedMeta``) gets its 0-ulp bit-compatibility guarantee
from a simple contract: everything load-independent is computed at
compile time, and the per-interval step is a pure function of the
offered loads.  Two mechanical rules enforce it:

* ``KRN001`` — a configured plan class writes a ``self`` attribute
  outside ``__init__``/``__post_init__``/``compile*`` methods.
  Hidden step-time state is exactly how a plan's output stops being a
  function of its inputs.
* ``KRN002`` — a Python-level loop (``for``/``while``/comprehension)
  inside a configured fused hot path.  The array-native discipline says
  per-chain/per-node work there must be vectorized; the deliberate
  exceptions (order-sensitive scalar folds kept sequential for
  bit-compatibility with ``step_all``) carry a
  ``# repro-lint: allow[KRN002]`` pragma citing that reason.
* ``KRN000`` — a configured class or hot function was not found in its
  module: the anchor moved and the checker must be re-pointed, not
  silently disabled.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.base import FileChecker, FileContext, register
from repro.analysis.config import LintConfig
from repro.analysis.findings import ERROR, Finding, declare

KRN000 = declare(
    "KRN000", ERROR, "kernel checker anchor (class/function) not found"
)
KRN001 = declare(
    "KRN001", ERROR, "compiled-plan class writes self state outside compile"
)
KRN002 = declare("KRN002", ERROR, "Python-level loop in a fused kernel hot path")

_ALWAYS_ALLOWED_METHODS = ("__init__", "__post_init__")
_LOOP_NODES = (
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)


def _method_writes_allowed(method: str) -> bool:
    if method in _ALWAYS_ALLOWED_METHODS:
        return True
    return method.startswith("compile") or method.startswith("_compile")


def _self_write(node: ast.AST) -> ast.AST | None:
    """The offending node if ``node`` writes an attribute of ``self``."""
    targets: list[ast.expr] = []
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    elif isinstance(node, ast.Call):
        # object.__setattr__(self, ...) — the frozen-dataclass escape.
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "__setattr__"
            and node.args
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id == "self"
        ):
            return node
        return None
    for target in targets:
        if isinstance(target, ast.Tuple):
            queue = list(target.elts)
        else:
            queue = [target]
        for item in queue:
            if (
                isinstance(item, ast.Attribute)
                and isinstance(item.value, ast.Name)
                and item.value.id == "self"
            ):
                return item
    return None


@register
class KernelChecker(FileChecker):
    """KRN000-KRN002: plan purity + vectorized hot paths."""

    name = "kernel-discipline"

    def check(self, ctx: FileContext, config: LintConfig) -> Iterable[Finding]:
        plan_classes = config.kernel_classes.get(ctx.path, ())
        hot_functions = config.kernel_hot_functions.get(ctx.path, ())
        if not plan_classes and not hot_functions:
            return []
        findings: list[Finding] = []
        seen_classes: set[str] = set()
        seen_hot: set[str] = set()

        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef) and node.name in plan_classes:
                seen_classes.add(node.name)
                findings.extend(self._check_class(ctx, node, config))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = ctx.scope_of(node)
                qualname = f"{scope}.{node.name}" if scope else node.name
                if qualname in hot_functions:
                    seen_hot.add(qualname)
                    findings.extend(self._check_hot(ctx, node, qualname))

        for missing in sorted(set(plan_classes) - seen_classes):
            findings.append(
                ctx.finding(
                    KRN000,
                    ctx.tree,
                    f"configured compiled-plan class {missing!r} not found in "
                    f"{ctx.path}; the purity checker anchor moved — update "
                    "LintConfig.kernel_classes",
                    checker=self.name,
                )
            )
        for missing in sorted(set(hot_functions) - seen_hot):
            findings.append(
                ctx.finding(
                    KRN000,
                    ctx.tree,
                    f"configured hot function {missing!r} not found in "
                    f"{ctx.path}; the loop checker anchor moved — update "
                    "LintConfig.kernel_hot_functions",
                    checker=self.name,
                )
            )
        return findings

    def _check_class(
        self, ctx: FileContext, cls: ast.ClassDef, config: LintConfig
    ) -> Iterable[Finding]:
        for stmt in cls.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if _method_writes_allowed(stmt.name):
                continue
            for node in ast.walk(stmt):
                offender = _self_write(node)
                if offender is not None:
                    attr = (
                        offender.attr
                        if isinstance(offender, ast.Attribute)
                        else "via object.__setattr__"
                    )
                    yield ctx.finding(
                        KRN001,
                        offender,
                        f"{cls.name}.{stmt.name} writes self.{attr}: compiled "
                        "plans must be pure after compile — step-time state "
                        "belongs in the compile methods or in the caller",
                        checker=self.name,
                    )

    def _check_hot(
        self, ctx: FileContext, fn: ast.AST, qualname: str
    ) -> Iterable[Finding]:
        for node in ast.walk(fn):
            if isinstance(node, _LOOP_NODES):
                kind = type(node).__name__
                yield ctx.finding(
                    KRN002,
                    node,
                    f"Python-level {kind} in fused hot path {qualname}: "
                    "per-chain/per-node work here must be vectorized "
                    "(array-native discipline); deliberate order-sensitive "
                    "scalar folds need a pragma citing the bit-compat reason",
                    checker=self.name,
                )
