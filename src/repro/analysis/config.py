"""Checker policy: which sites may do what, and where the anchors live.

The defaults below encode this repository's real invariants (the ones
``tests/test_fleet.py`` / ``tests/test_cluster_kernel.py`` pin
behaviorally); an ``analysis_allow.toml`` at the project root can extend
the site lists without touching code (see
:mod:`repro.analysis.allowlist`).  All paths are project-root-relative
with forward slashes.

Every *anchor* (a class, function or module a checker is pointed at) is
guarded: if a refactor renames ``ClusterKernel`` or moves
``shard_worker``, the checker reports an extraction failure (``KRN000``,
``MP000``, ``SPEC000``) instead of silently passing — a lint that can be
disabled by a rename is worse than none.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping

#: Default allowlist file name, looked up at the project root.
DEFAULT_ALLOWLIST_NAME = "analysis_allow.toml"


@dataclass(frozen=True)
class ProtocolSpec:
    """One pipe protocol: a worker main loop and its parent-side handles.

    ``discarded_replies`` names reply kinds the parent consumes without
    inspecting (e.g. the ``"stopped"`` ack drained during ``close()``) —
    they count as expected even though no comparison mentions them.
    """

    name: str
    module: str
    worker_function: str
    handle_classes: tuple[str, ...]
    discarded_replies: tuple[str, ...] = ()


@dataclass(frozen=True)
class LintConfig:
    """Everything the checkers need to know about this project."""

    #: Directories/files linted when the CLI gets no explicit paths.
    roots: tuple[str, ...] = ("src",)

    # -- RNG discipline ----------------------------------------------------
    #: The only modules allowed to construct ``np.random.default_rng`` /
    #: ``SeedSequence``: the stream-derivation helpers and the
    #: counter-based fleet workload keyed by ``(seed, name, index)``.
    rng_construction_sites: tuple[str, ...] = (
        "src/repro/utils/rng.py",
        "src/repro/fleet/workload.py",
    )

    # -- wall-clock discipline ---------------------------------------------
    #: The only modules allowed to read wall-clock time (elapsed_s
    #: reporting around a run); kernels/controllers never may, where a
    #: timestamp could leak into results.
    wallclock_sites: tuple[str, ...] = (
        "src/repro/scenario/runner.py",
        "src/repro/fleet/coordinator.py",
    )

    # -- exception hygiene -------------------------------------------------
    #: ``path::scope`` sites where a swallowing ``except Exception`` is
    #: legitimate (process boundaries that must report, not crash).
    #: Handlers that re-raise are always exempt.  Empty by default: the
    #: project's boundaries are declared in ``analysis_allow.toml``
    #: ``[exceptions] extra_boundaries`` where they are reviewable.
    exception_boundaries: tuple[str, ...] = ()

    # -- kernel purity -----------------------------------------------------
    #: Compiled-plan classes per module: instances must be write-free
    #: outside ``__init__``/``__post_init__``/``compile*`` methods (plus
    #: the per-class extras below).
    kernel_classes: Mapping[str, tuple[str, ...]] = field(
        default_factory=lambda: {
            "src/repro/nfv/engine.py": ("ChainKernelPlan",),
            "src/repro/nfv/cluster_kernel.py": ("ClusterKernel", "_FusedMeta"),
            "src/repro/fleet/routing.py": ("RoutingTable",),
        }
    )
    #: Methods (besides __init__/__post_init__/compile*) allowed to write
    #: ``self`` state, per class.  None needs one: the plan cache is
    #: written by ``ClusterKernel._compile`` alone.
    kernel_extra_write_methods: Mapping[str, tuple[str, ...]] = field(
        default_factory=dict
    )
    #: Fused hot paths per module: Python-level loops here defeat the
    #: array-native discipline and must be vectorized (or carry a
    #: ``repro-lint: allow[KRN002]`` pragma citing the bit-compat reason).
    kernel_hot_functions: Mapping[str, tuple[str, ...]] = field(
        default_factory=lambda: {
            "src/repro/nfv/engine.py": ("ChainKernelPlan.step",),
            "src/repro/nfv/cluster_kernel.py": ("ClusterKernel._step_fused",),
            "src/repro/fleet/routing.py": ("RoutingTable._compile_tables",),
            "src/repro/fleet/placement.py": ("GeneticPlacement._fitness",),
            "src/repro/fleet/workload.py": ("interval_keys", "first_normals"),
        }
    )

    # -- MP protocol consistency -------------------------------------------
    protocols: tuple[ProtocolSpec, ...] = (
        ProtocolSpec(
            name="fleet-shard",
            module="src/repro/fleet/shard.py",
            worker_function="shard_worker",
            handle_classes=("ShardWorker",),
            discarded_replies=("stopped",),
        ),
    )

    # -- spec serializability ----------------------------------------------
    #: Spec/config dataclasses whose fields must stay JSON-serializable
    #: (they cross process boundaries and land in artifacts).  Each
    #: round-trips through its own ``to_dict``/``from_*``, so their names
    #: also count as serializable field types.
    spec_classes: Mapping[str, tuple[str, ...]] = field(
        default_factory=lambda: {
            "src/repro/scenario/spec.py": ("ScenarioSpec",),
            "src/repro/fleet/spec.py": (
                "FleetSpec",
                "MigrationConfig",
                "SteeringConfig",
            ),
            "src/repro/fleet/workload.py": (
                "WorkloadConfig",
                "FlashCrowdConfig",
                "ChurnConfig",
            ),
            "src/repro/fleet/topology.py": (
                "FleetTopology",
                "ShardSpec",
                "InterShardLink",
            ),
        }
    )

    # -- registry hygiene --------------------------------------------------
    #: Import the live registries (SLAS/CHAINS/TRAFFIC/CONTROLLERS/
    #: SCENARIOS/SWEEPS/GRIDS/FLEETS/PLACEMENTS) and verify every entry
    #: resolves to
    #: an importable symbol.  Disabled for doctored test projects whose
    #: tree is not the real package.
    registry_check: bool = True

    def with_policy(self, policy: Mapping[str, Mapping[str, Any]]) -> "LintConfig":
        """Apply an allowlist file's policy sections on top of this config.

        Supported sections/keys::

            [rng]        extra_allowed = ["src/...py", ...]
            [wallclock]  extra_allowed = ["src/...py", ...]
            [exceptions] extra_boundaries = ["src/...py::scope", ...]
        """
        cfg = self
        sections = {
            "rng": ("extra_allowed", "rng_construction_sites"),
            "wallclock": ("extra_allowed", "wallclock_sites"),
            "exceptions": ("extra_boundaries", "exception_boundaries"),
        }
        for section, (key, attr) in sections.items():
            values = policy.get(section, {})
            unknown = sorted(set(values) - {key})
            if unknown:
                raise ValueError(
                    f"unknown keys {unknown!r} in allowlist section [{section}]; "
                    f"supported: [{key!r}]"
                )
            extra = values.get(key, [])
            if extra:
                if not isinstance(extra, list) or not all(
                    isinstance(v, str) for v in extra
                ):
                    raise ValueError(
                        f"allowlist [{section}] {key} must be a list of strings"
                    )
                cfg = replace(cfg, **{attr: getattr(cfg, attr) + tuple(extra)})
        known = set(sections) | {"allow"}
        unknown_sections = sorted(set(policy) - known)
        if unknown_sections:
            raise ValueError(
                f"unknown allowlist sections {unknown_sections!r}; "
                f"supported: {sorted(known)}"
            )
        return cfg
