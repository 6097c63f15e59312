"""Checker plumbing: per-file contexts and the checker registry.

Two checker shapes:

* :class:`FileChecker` — runs once per linted file with a
  :class:`FileContext` (parsed AST, source lines, scope map, a
  ``symtable``-backed name-resolution helper).
* :class:`ProjectChecker` — runs once per lint over the whole
  :class:`~repro.analysis.engine.Project` (cross-module invariants like
  the pipe-protocol consistency check, or dynamic registry resolution).

Checker classes self-register via :func:`register`; the engine
instantiates everything in :data:`FILE_CHECKERS` / :data:`PROJECT_CHECKERS`.
"""

from __future__ import annotations

import ast
import symtable
from typing import TYPE_CHECKING, Iterable

from repro.analysis.config import LintConfig
from repro.analysis.findings import Finding, make_finding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.engine import Project

_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


class FileContext:
    """One parsed source file, shared by every file checker."""

    def __init__(self, path: str, source: str, tree: ast.Module):
        self.path = path
        self.source = source
        self.tree = tree
        self.lines = source.splitlines()
        self._scopes: dict[int, str] | None = None
        self._symtable_names: set[str] | None = None

    # -- scopes ------------------------------------------------------------

    def _build_scopes(self) -> dict[int, str]:
        scopes: dict[int, str] = {}

        def visit(node: ast.AST, scope: str) -> None:
            for child in ast.iter_child_nodes(node):
                child_scope = scope
                if isinstance(child, _SCOPE_NODES):
                    child_scope = f"{scope}.{child.name}" if scope else child.name
                scopes[id(child)] = scope
                visit(child, child_scope)

        visit(self.tree, "")
        return scopes

    def scope_of(self, node: ast.AST) -> str:
        """Dotted enclosing def/class path of ``node`` ("" at module level)."""
        if self._scopes is None:
            self._scopes = self._build_scopes()
        return self._scopes.get(id(node), "")

    # -- name resolution ---------------------------------------------------

    def binds_name(self, name: str) -> bool:
        """Whether any scope in the module binds ``name``.

        Built on :mod:`symtable` so shadowing through assignments,
        imports, parameters and comprehension targets is all honored —
        used to decide whether a bare call like ``hash(...)`` can only
        mean the builtin.
        """
        if self._symtable_names is None:
            names: set[str] = set()
            table = symtable.symtable(self.source, self.path, "exec")
            stack = [table]
            while stack:
                scope = stack.pop()
                for symbol in scope.get_symbols():
                    if (
                        symbol.is_assigned()
                        or symbol.is_imported()
                        or symbol.is_parameter()
                    ):
                        names.add(symbol.get_name())
                stack.extend(scope.get_children())
            self._symtable_names = names
        return name in self._symtable_names

    # -- findings ----------------------------------------------------------

    def finding(
        self, code: str, node: ast.AST, message: str, *, checker: str = ""
    ) -> Finding:
        """A finding anchored at ``node`` with its enclosing scope."""
        return make_finding(
            code,
            self.path,
            getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0) + 1,
            message,
            checker=checker,
            scope=self.scope_of(node),
        )


class FileChecker:
    """Base class: one pass over one file's AST."""

    name = "file-checker"

    def check(self, ctx: FileContext, config: LintConfig) -> Iterable[Finding]:
        """Yield findings for this file."""
        raise NotImplementedError


class ProjectChecker:
    """Base class: one pass over the whole project."""

    name = "project-checker"

    def check(self, project: "Project", config: LintConfig) -> Iterable[Finding]:
        """Yield findings for the project."""
        raise NotImplementedError


FILE_CHECKERS: list[type[FileChecker]] = []
PROJECT_CHECKERS: list[type[ProjectChecker]] = []


def register(cls):
    """Class decorator: add a checker to the engine's roster."""
    if issubclass(cls, FileChecker):
        FILE_CHECKERS.append(cls)
    elif issubclass(cls, ProjectChecker):
        PROJECT_CHECKERS.append(cls)
    else:
        raise TypeError(f"{cls!r} is neither a FileChecker nor a ProjectChecker")
    return cls


def str_const(node: ast.AST) -> str | None:
    """The value of a string-constant node, else ``None``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None
