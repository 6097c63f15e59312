"""Exception, registry and spec-field hygiene.

Three small checkers that catch the "it worked until it didn't" class of
maintenance bugs:

* ``EXC001`` — a swallowing broad handler (``except Exception:`` /
  ``except BaseException:`` / bare ``except:``) outside the declared
  process boundaries.  Handlers that re-raise (contain a bare ``raise``)
  are always exempt; a worker loop that must report-not-crash is listed
  in :attr:`LintConfig.exception_boundaries` as ``path::scope``.
* ``REG000``-``REG002`` — the string-keyed plugin registries
  (``SLAS``/``CHAINS``/``TRAFFIC``/``CONTROLLERS``/``GRIDS``/
  ``SCENARIOS``/``SWEEPS``/``FLEETS``) are imported live and every
  entry's factory is resolved back through ``importlib``; an entry whose
  module or symbol vanished would otherwise only surface when a spec
  names it at run time.
* ``SPEC000``/``SPEC001`` — the spec/config dataclasses that cross
  process boundaries and land in JSON artifacts must keep
  JSON-serializable field annotations; a stray ``np.ndarray`` or object
  field breaks ``to_json`` round-tripping (and therefore artifact
  hashing) far from where it was introduced.
"""

from __future__ import annotations

import ast
import importlib
from itertools import chain
from typing import TYPE_CHECKING, Any, Iterable

from repro.analysis.base import FileChecker, FileContext, ProjectChecker, register
from repro.analysis.config import LintConfig
from repro.analysis.findings import ERROR, Finding, declare, make_finding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.engine import Project

EXC001 = declare(
    "EXC001", ERROR, "broad except swallows errors outside a process boundary"
)
REG000 = declare("REG000", ERROR, "registry module failed to import")
REG001 = declare("REG001", ERROR, "registry entry does not resolve to its symbol")
REG002 = declare("REG002", ERROR, "registry is empty")
SPEC000 = declare("SPEC000", ERROR, "spec checker anchor class not found")
SPEC001 = declare(
    "SPEC001", ERROR, "spec field annotation is not JSON-serializable"
)


# ---------------------------------------------------------------------------
# EXC001: broad exception handlers
# ---------------------------------------------------------------------------

_BROAD_EXC_NAMES = {"Exception", "BaseException"}


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:  # bare except:
        return True
    if isinstance(handler.type, ast.Name):
        return handler.type.id in _BROAD_EXC_NAMES
    if isinstance(handler.type, ast.Tuple):
        return any(
            isinstance(elt, ast.Name) and elt.id in _BROAD_EXC_NAMES
            for elt in handler.type.elts
        )
    return False


def _reraises(handler: ast.ExceptHandler) -> bool:
    """Whether the handler body contains a bare ``raise`` (re-raise)."""
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise) and node.exc is None:
            return True
    return False


@register
class ExceptionChecker(FileChecker):
    """EXC001: broad handlers only at declared process boundaries."""

    name = "exception-hygiene"

    def check(self, ctx: FileContext, config: LintConfig) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not _is_broad(node) or _reraises(node):
                continue
            site = f"{ctx.path}::{ctx.scope_of(node)}"
            if any(site == b or site.startswith(b + ".")
                   for b in config.exception_boundaries):
                continue
            caught = (
                "bare except"
                if node.type is None
                else f"except {ast.unparse(node.type)}"
            )
            yield ctx.finding(
                EXC001,
                node,
                f"{caught} swallows every error including programming bugs; "
                "catch the specific exceptions you can handle, re-raise, or "
                "declare this site a process boundary in "
                "LintConfig.exception_boundaries",
                checker=self.name,
            )


# ---------------------------------------------------------------------------
# REG000-REG002: live registry resolution
# ---------------------------------------------------------------------------

#: (module, attribute) pairs naming every Registry instance.
REGISTRY_SITES: tuple[tuple[str, str], ...] = (
    ("repro.scenario", "SLAS"),
    ("repro.scenario", "CHAINS"),
    ("repro.scenario", "TRAFFIC"),
    ("repro.scenario", "CONTROLLERS"),
    ("repro.scenario", "GRIDS"),
    ("repro.scenario", "SCENARIOS"),
    ("repro.scenario", "SWEEPS"),
    ("repro.fleet", "FLEETS"),
    ("repro.fleet.placement", "PLACEMENTS"),
)


def check_registry(registry: Any, label: str) -> list[Finding]:
    """Findings for one live registry (exposed for direct unit testing)."""
    findings: list[Finding] = []
    if len(registry) == 0:
        findings.append(
            make_finding(
                REG002,
                label,
                1,
                1,
                f"registry {label} has no entries — a refactor detached its "
                "registrations (decorators never imported?)",
                checker="registry-hygiene",
            )
        )
        return findings
    for name in registry.names():
        factory = registry.get(name)
        module_name = getattr(factory, "__module__", None)
        qualname = getattr(factory, "__qualname__", None)
        if not module_name or not qualname:
            findings.append(
                make_finding(
                    REG001,
                    label,
                    1,
                    1,
                    f"registry entry {label}[{name!r}] has no "
                    "__module__/__qualname__; it cannot be re-imported by "
                    "worker processes",
                    checker="registry-hygiene",
                )
            )
            continue
        if "<" in qualname:
            # <locals>/<lambda>: unpicklable, unreachable from workers.
            findings.append(
                make_finding(
                    REG001,
                    label,
                    1,
                    1,
                    f"registry entry {label}[{name!r}] is a local/lambda "
                    f"({module_name}.{qualname}); factories must be "
                    "module-level so worker processes can resolve them",
                    checker="registry-hygiene",
                )
            )
            continue
        try:
            obj: Any = importlib.import_module(module_name)
            for part in qualname.split("."):
                obj = getattr(obj, part)
        except Exception as exc:  # repro-lint: allow[EXC001]
            findings.append(
                make_finding(
                    REG001,
                    label,
                    1,
                    1,
                    f"registry entry {label}[{name!r}] does not resolve: "
                    f"{module_name}.{qualname} raised "
                    f"{type(exc).__name__}: {exc}",
                    checker="registry-hygiene",
                )
            )
            continue
        if obj is not factory:
            findings.append(
                make_finding(
                    REG001,
                    label,
                    1,
                    1,
                    f"registry entry {label}[{name!r}] resolves to a "
                    f"different object than the registered factory "
                    f"({module_name}.{qualname}); the registration and the "
                    "module-level symbol drifted apart",
                    checker="registry-hygiene",
                )
            )
    return findings


@register
class RegistryChecker(ProjectChecker):
    """REG000-REG002: every registry entry resolves to a real symbol."""

    name = "registry-hygiene"

    def check(self, project: "Project", config: LintConfig) -> Iterable[Finding]:
        if not config.registry_check:
            return []
        findings: list[Finding] = []
        # The controller registrations live in a submodule the package
        # __init__ imports lazily via the catalog; force them in so the
        # CONTROLLERS registry is fully populated before we look.
        try:
            importlib.import_module("repro.scenario.controllers")
        except Exception as exc:  # repro-lint: allow[EXC001]
            findings.append(
                make_finding(
                    REG000,
                    "repro.scenario.controllers",
                    1,
                    1,
                    f"import failed: {type(exc).__name__}: {exc}",
                    checker=self.name,
                )
            )
        for module_name, attr in REGISTRY_SITES:
            try:
                module = importlib.import_module(module_name)
                registry = getattr(module, attr)
            except Exception as exc:  # repro-lint: allow[EXC001]
                findings.append(
                    make_finding(
                        REG000,
                        f"{module_name}.{attr}",
                        1,
                        1,
                        f"registry import failed: {type(exc).__name__}: {exc}",
                        checker=self.name,
                    )
                )
                continue
            findings.extend(check_registry(registry, f"{module_name}.{attr}"))
        return findings


# ---------------------------------------------------------------------------
# SPEC000/SPEC001: spec dataclass field annotations stay JSON-serializable
# ---------------------------------------------------------------------------

_JSON_SCALARS = {"str", "int", "float", "bool", "None", "Any", "object"}
_JSON_CONTAINERS = {
    "tuple",
    "list",
    "dict",
    "set",
    "frozenset",
    "Tuple",
    "List",
    "Dict",
    "Mapping",
    "MutableMapping",
    "Sequence",
    "Iterable",
    "Optional",
    "Union",
}


def _annotation_ok(node: ast.AST, value_classes: frozenset[str]) -> bool:
    """Whether an annotation expression stays within the JSON grammar."""
    if isinstance(node, ast.Constant):
        # None, Ellipsis (tuple[int, ...]), or a string annotation.
        if node.value is None or node.value is Ellipsis:
            return True
        if isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return False
            return _annotation_ok(parsed, value_classes)
        return False
    if isinstance(node, ast.Name):
        return (
            node.id in _JSON_SCALARS
            or node.id in _JSON_CONTAINERS
            or node.id in value_classes
        )
    if isinstance(node, ast.Attribute):
        # typing.Any / collections.abc.Mapping style dotted names.
        return node.attr in _JSON_SCALARS or node.attr in _JSON_CONTAINERS
    if isinstance(node, ast.Subscript):
        if not _annotation_ok(node.value, value_classes):
            return False
        inner = node.slice
        elts = inner.elts if isinstance(inner, ast.Tuple) else [inner]
        return all(_annotation_ok(e, value_classes) for e in elts)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _annotation_ok(node.left, value_classes) and _annotation_ok(
            node.right, value_classes
        )
    return False


@register
class SpecFieldChecker(ProjectChecker):
    """SPEC000/SPEC001: spec dataclasses keep JSON-serializable fields."""

    name = "spec-fields"

    def check(self, project: "Project", config: LintConfig) -> Iterable[Finding]:
        value_classes = frozenset(chain.from_iterable(config.spec_classes.values()))
        for path, class_names in sorted(config.spec_classes.items()):
            ctx = project.context(path)
            if ctx is None:
                yield make_finding(
                    SPEC000,
                    path,
                    1,
                    1,
                    f"spec module {path} not found or unparsable; update "
                    "LintConfig.spec_classes",
                    checker=self.name,
                )
                continue
            seen: set[str] = set()
            for node in ast.walk(ctx.tree):
                if not (
                    isinstance(node, ast.ClassDef) and node.name in class_names
                ):
                    continue
                seen.add(node.name)
                yield from self._check_class(ctx, node, value_classes)
            for missing in sorted(set(class_names) - seen):
                yield make_finding(
                    SPEC000,
                    path,
                    1,
                    1,
                    f"configured spec class {missing!r} not found in {path}; "
                    "the serializability anchor moved — update "
                    "LintConfig.spec_classes",
                    checker=self.name,
                )

    def _check_class(
        self,
        ctx: FileContext,
        cls: ast.ClassDef,
        value_classes: frozenset[str],
    ) -> Iterable[Finding]:
        for stmt in cls.body:
            if not isinstance(stmt, ast.AnnAssign):
                continue
            target = stmt.target
            if not isinstance(target, ast.Name) or target.id.startswith("_"):
                continue
            ann = stmt.annotation
            if (
                isinstance(ann, ast.Subscript)
                and isinstance(ann.value, ast.Name)
                and ann.value.id == "ClassVar"
            ):
                continue
            if not _annotation_ok(ann, value_classes):
                yield ctx.finding(
                    SPEC001,
                    stmt,
                    f"{cls.name}.{target.id}: {ast.unparse(ann)} is outside "
                    "the JSON-serializable grammar (scalars, tuples/lists/"
                    "mappings thereof, and the registered config classes); "
                    "specs cross process boundaries and land in artifacts",
                    checker=self.name,
                )
