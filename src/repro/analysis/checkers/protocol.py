"""MP protocol consistency: every pipe opcode has a peer that answers it.

A process backend (:mod:`repro.fleet.shard`'s shard workers) speaks an
in-order protocol over ``multiprocessing`` pipes: the parent-side
handle sends ``(opcode, ...)`` tuples, the worker loop dispatches on
``msg[0]`` and answers each with one ``(kind, ...)`` reply, in the order
the commands came, and the parent reads every reply as an expected
kind.  It need not wait at once: a shard handle reads a knob command's
ack only before its next reply.  A mismatch is a *latent deadlock*:
an unhandled opcode leaves the parent waiting forever (or the worker
dead), and an unexpected reply kind raises on the wrong side mid-run.

This checker extracts both sides of each configured protocol from the
ASTs and cross-checks the sets:

* ``MP001`` (error) — a handle sends an opcode the worker loop never
  handles.
* ``MP002`` (error) — the worker sends a reply kind the parent never
  expects.
* ``MP003`` (warning) — the worker handles an opcode no handle sends
  (dead handler; usually a leftover from a protocol change).
* ``MP004`` (error) — the parent expects a reply kind the worker never
  sends (it would block forever).
* ``MP000`` (error) — extraction found no opcodes at all: the protocol
  module was refactored past the checker's anchors and the config must
  be updated (a silently-disabled deadlock check is itself a bug).

Extraction is deliberately structural, not name-based: *handled
opcodes* are string constants compared against a variable bound from
``recv()[0]`` (or unpacked from a ``recv()`` tuple); *reply kinds* /
*sent opcodes* are the first string element of a tuple passed to a
``.send(...)`` call; *expected kinds* are string arguments to the
handle's ``_recv("...")`` helper plus recv-kind comparisons.  Reply
kinds the parent drains without inspecting (the ``"stopped"`` ack
consumed during ``close()``) are declared per protocol as
``discarded_replies``.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterable

from repro.analysis.base import ProjectChecker, register, str_const
from repro.analysis.config import LintConfig, ProtocolSpec
from repro.analysis.findings import ERROR, WARNING, Finding, declare, make_finding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.engine import Project

MP000 = declare("MP000", ERROR, "protocol extraction failed (anchors moved)")
MP001 = declare("MP001", ERROR, "opcode sent by handle has no worker handler")
MP002 = declare("MP002", ERROR, "worker reply kind never expected by parent")
MP003 = declare("MP003", WARNING, "worker handles an opcode no handle sends")
MP004 = declare("MP004", ERROR, "parent expects a reply kind worker never sends")


def _is_recv_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "recv"
    )


def _subscript_zero_of(node: ast.AST, names: set[str]) -> bool:
    """Whether ``node`` is ``<name>[0]`` for a name in ``names``."""
    if not isinstance(node, ast.Subscript):
        return False
    if not (isinstance(node.value, ast.Name) and node.value.id in names):
        return False
    index = node.slice
    return isinstance(index, ast.Constant) and index.value == 0


class _SideExtraction:
    """String-constant opcodes/kinds found on one side of a protocol."""

    def __init__(self) -> None:
        #: value -> first AST node that mentioned it (for anchoring).
        self.compared: dict[str, ast.AST] = {}
        self.sent: dict[str, ast.AST] = {}
        self.expected: dict[str, ast.AST] = {}

    def _remember(self, table: dict[str, ast.AST], value: str, node: ast.AST) -> None:
        table.setdefault(value, node)


def _extract_side(root: ast.AST) -> _SideExtraction:
    """Collect recv-kind comparisons, sends, and ``_recv`` expectations."""
    out = _SideExtraction()

    # Pass 1: names bound from recv() results and from <msg>[0].
    msg_names: set[str] = set()
    kind_names: set[str] = set()
    for node in ast.walk(root):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if _is_recv_call(node.value):
            if isinstance(target, ast.Name):
                msg_names.add(target.id)
            elif isinstance(target, ast.Tuple) and target.elts:
                # kind, *rest = conn.recv(): the first element is the kind.
                first = target.elts[0]
                if isinstance(first, ast.Name):
                    kind_names.add(first.id)
    for node in ast.walk(root):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and _subscript_zero_of(node.value, msg_names)
        ):
            kind_names.add(node.targets[0].id)

    # Pass 2: comparisons, sends, expectations.
    for node in ast.walk(root):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            involves_kind = any(
                (isinstance(op, ast.Name) and op.id in kind_names)
                or _subscript_zero_of(op, msg_names)
                for op in operands
            )
            if involves_kind and all(
                isinstance(o, (ast.Eq, ast.NotEq)) for o in node.ops
            ):
                for op in operands:
                    value = str_const(op)
                    if value is not None:
                        out._remember(out.compared, value, node)
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "send" and node.args:
                payload = node.args[0]
                if isinstance(payload, ast.Tuple) and payload.elts:
                    value = str_const(payload.elts[0])
                    if value is not None:
                        out._remember(out.sent, value, node)
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "_recv"
                and node.args
            ):
                value = str_const(node.args[0])
                if value is not None:
                    out._remember(out.expected, value, node)
    return out


@register
class ProtocolChecker(ProjectChecker):
    """MP000-MP004: handle/worker opcode and reply-kind cross-check."""

    name = "mp-protocol"

    def check(self, project: "Project", config: LintConfig) -> Iterable[Finding]:
        findings: list[Finding] = []
        for proto in config.protocols:
            findings.extend(self._check_protocol(project, proto))
        return findings

    def _check_protocol(
        self, project: "Project", proto: ProtocolSpec
    ) -> Iterable[Finding]:
        ctx = project.context(proto.module)
        if ctx is None:
            yield make_finding(
                MP000,
                proto.module,
                1,
                1,
                f"protocol {proto.name!r}: module {proto.module} not found or "
                "unparsable; update LintConfig.protocols",
                checker=self.name,
            )
            return

        worker_fn: ast.AST | None = None
        handle_nodes: list[ast.ClassDef] = []
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name == proto.worker_function
                and ctx.scope_of(node) == ""
            ):
                worker_fn = node
            elif isinstance(node, ast.ClassDef) and node.name in proto.handle_classes:
                handle_nodes.append(node)
        if worker_fn is None or not handle_nodes:
            missing = (
                f"worker function {proto.worker_function!r}"
                if worker_fn is None
                else f"handle classes {proto.handle_classes!r}"
            )
            yield make_finding(
                MP000,
                ctx.path,
                1,
                1,
                f"protocol {proto.name!r}: {missing} not found in {ctx.path}; "
                "update LintConfig.protocols",
                checker=self.name,
            )
            return

        worker = _extract_side(worker_fn)
        handled = worker.compared  # opcodes the worker dispatches on
        replies = worker.sent  # reply kinds the worker ships back

        sent: dict[str, ast.AST] = {}
        expected: dict[str, ast.AST] = {}
        for cls in handle_nodes:
            side = _extract_side(cls)
            for value, node in side.sent.items():
                sent.setdefault(value, node)
            for value, node in side.expected.items():
                expected.setdefault(value, node)
            for value, node in side.compared.items():
                expected.setdefault(value, node)

        if not handled or not replies or not sent:
            yield make_finding(
                MP000,
                ctx.path,
                getattr(worker_fn, "lineno", 1),
                1,
                f"protocol {proto.name!r}: extraction came up empty "
                f"(handled={sorted(handled)}, replies={sorted(replies)}, "
                f"sent={sorted(sent)}); the message-loop idiom changed — "
                "update the protocol checker",
                checker=self.name,
            )
            return

        expected_kinds = set(expected) | set(proto.discarded_replies)

        for opcode in sorted(set(sent) - set(handled)):
            node = sent[opcode]
            yield ctx.finding(
                MP001,
                node,
                f"protocol {proto.name!r}: handle sends opcode {opcode!r} but "
                f"{proto.worker_function} has no handler for it — the parent "
                "will wait forever on the reply (latent deadlock)",
                checker=self.name,
            )
        for kind in sorted(set(replies) - expected_kinds):
            node = replies[kind]
            yield ctx.finding(
                MP002,
                node,
                f"protocol {proto.name!r}: worker replies {kind!r} but no "
                "parent-side expectation matches it — the reply would raise "
                "or wedge the handle mid-run",
                checker=self.name,
            )
        for opcode in sorted(set(handled) - set(sent)):
            node = handled[opcode]
            yield ctx.finding(
                MP003,
                node,
                f"protocol {proto.name!r}: {proto.worker_function} handles "
                f"opcode {opcode!r} but no handle ever sends it (dead handler "
                "— leftover from a protocol change?)",
                checker=self.name,
            )
        for kind in sorted(set(expected) - set(replies)):
            node = expected[kind]
            yield ctx.finding(
                MP004,
                node,
                f"protocol {proto.name!r}: parent expects reply kind {kind!r} "
                f"but {proto.worker_function} never sends it — the handle "
                "would block forever",
                checker=self.name,
            )
