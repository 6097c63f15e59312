"""Declarative scenario descriptions.

A :class:`ScenarioSpec` captures *everything* one GreenNFV run needs —
SLA, service chain, traffic model, controller, training budget,
measurement horizon and seed — as a frozen, JSON-round-trippable value.
Where the legacy API hand-wires live objects (an ``SLA`` instance into a
``GreenNFVScheduler``, baselines through ``run_controller``), a spec is
pure data: it can be stored in a file, diffed, swept over, shipped to a
worker process, and replayed bit-for-bit.

>>> spec = ScenarioSpec(
...     name="maxt-demo",
...     sla="max_throughput",
...     sla_params={"energy_cap_j": 45.0},
...     controller="ddpg",
...     episodes=60,
...     seed=7,
... )
>>> spec == ScenarioSpec.from_json(spec.to_json())
True

Component names refer to the plugin registries in
:mod:`repro.scenario.catalog`; validation resolves each name at
construction time so a bad spec fails before any compute is spent.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import product
from typing import Any, Mapping, Sequence

from repro.utils.rng import hash_name


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete, serializable run description.

    Fields
    ------
    name:
        Artifact id; sweep outputs are written to ``<name>.json``.
    sla / sla_params:
        Registered SLA id (see :data:`repro.scenario.catalog.SLAS`) and
        its constraint parameters, e.g. ``{"energy_cap_j": 45.0}``.
    chain / nfs:
        Either a chain preset id (:data:`~repro.scenario.catalog.CHAINS`)
        or an inline NF-name list from the catalog
        (:data:`repro.nfv.nf.CATALOG`); ``nfs`` wins when given.
    traffic / traffic_params:
        Traffic model id (:data:`~repro.scenario.catalog.TRAFFIC`) and
        its parameters.
    controller / controller_params:
        Controller id (:data:`~repro.scenario.catalog.CONTROLLERS`):
        ``ddpg`` | ``apex`` | ``qlearning`` | ``heuristic`` | ``static``
        | ``ee-pstate``, plus per-controller options (network sizes,
        thresholds, a ``policy_path`` to skip training, ...).
    episodes / test_every / episode_len:
        Training budget: episodes (Ape-X: coordinator cycles), periodic
        greedy-test cadence, and control intervals per training episode.
        Rule-based controllers need no training and ignore these.
    intervals / interval_s:
        Measurement horizon: the online rollout runs ``intervals``
        control intervals of ``interval_s`` seconds.
    engine_params:
        Optional :class:`~repro.nfv.engine.EngineParams` overrides for
        the hardware/engine profile, as a field dict.
    fleet:
        Optional sharded multi-cluster section for ``repro fleet`` runs
        (see :class:`repro.fleet.spec.FleetSpec`): a topology/workload/
        policy dict, or ``{"preset": "small"}`` resolving a
        :data:`~repro.fleet.spec.FLEETS` preset.  The fleet reuses the
        spec's ``sla``/``sla_params``, ``interval_s`` and ``seed``.
    seed:
        The experiment seed; every RNG stream of the run derives from it.
    """

    name: str = "scenario"
    sla: str = "energy_efficiency"
    sla_params: Mapping[str, Any] = field(default_factory=dict)
    chain: str = "default"
    nfs: tuple[str, ...] | None = None
    traffic: str = "line_rate"
    traffic_params: Mapping[str, Any] = field(default_factory=dict)
    controller: str = "ddpg"
    controller_params: Mapping[str, Any] = field(default_factory=dict)
    episodes: int = 60
    test_every: int = 10
    episode_len: int = 16
    intervals: int = 40
    interval_s: float = 1.0
    engine_params: Mapping[str, Any] | None = None
    fleet: Mapping[str, Any] | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        # Normalize sequence fields so equality and hashing behave.
        if self.nfs is not None and not isinstance(self.nfs, tuple):
            object.__setattr__(self, "nfs", tuple(self.nfs))
        for key in ("sla_params", "traffic_params", "controller_params"):
            value = getattr(self, key)
            if not isinstance(value, dict):
                object.__setattr__(self, key, dict(value))
        if self.engine_params is not None and not isinstance(self.engine_params, dict):
            object.__setattr__(self, "engine_params", dict(self.engine_params))
        if self.fleet is not None and not isinstance(self.fleet, dict):
            object.__setattr__(self, "fleet", dict(self.fleet))
        self.validate()

    def __hash__(self) -> int:
        # The dataclass-generated hash would choke on the dict-typed
        # params fields; hash the canonical JSON form instead so specs
        # work as set members / dict keys (dedup, caching).  hash_name
        # (FNV-1a) rather than builtin hash(): string hashes are salted
        # per process (PYTHONHASHSEED), and a spec's hash must agree
        # between the SweepRunner parent and its worker processes.
        return hash_name(self.to_json()) & 0x7FFFFFFFFFFFFFFF

    # -- validation --------------------------------------------------------------

    def validate(self) -> None:
        """Fail fast on malformed specs (called automatically on build)."""
        # Deferred import: controllers register themselves into the
        # catalog on import, and import this module for type hints.
        import repro.scenario.controllers  # noqa: F401
        from repro.nfv.nf import CATALOG as NF_CATALOG
        from repro.scenario.catalog import CHAINS, CONTROLLERS, SLAS, TRAFFIC

        if not self.name or not isinstance(self.name, str):
            raise ValueError("scenario name must be a non-empty string")
        if self.sla not in SLAS:
            raise ValueError(f"unknown SLA {self.sla!r}; options: {SLAS.names()}")
        if self.controller not in CONTROLLERS:
            raise ValueError(
                f"unknown controller {self.controller!r}; "
                f"options: {CONTROLLERS.names()}"
            )
        if self.traffic not in TRAFFIC:
            raise ValueError(
                f"unknown traffic model {self.traffic!r}; options: {TRAFFIC.names()}"
            )
        if self.nfs is not None:
            if not self.nfs:
                raise ValueError("inline NF list must not be empty")
            unknown = [n for n in self.nfs if n not in NF_CATALOG]
            if unknown:
                raise ValueError(
                    f"unknown NFs {unknown!r}; catalog: {sorted(NF_CATALOG)}"
                )
        elif self.chain not in CHAINS:
            raise ValueError(
                f"unknown chain preset {self.chain!r}; options: {CHAINS.names()}"
            )
        if self.episodes < 1:
            raise ValueError("training budget (episodes) must be >= 1")
        if self.test_every < 1:
            raise ValueError("test_every must be >= 1")
        if self.episode_len < 1:
            raise ValueError("episode_len must be >= 1")
        if self.intervals < 1:
            raise ValueError("measurement horizon (intervals) must be >= 1")
        if not self.interval_s > 0:
            raise ValueError("interval_s must be positive")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError("seed must be an integer")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.fleet is not None:
            # Deferred import: the fleet subsystem builds on the scenario
            # registries and must not be an import-time dependency here.
            from repro.fleet.spec import FleetSpec

            FleetSpec.from_mapping(self.fleet)

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form; ``from_dict(to_dict())`` is the identity."""
        out = asdict(self)
        if out["nfs"] is not None:
            out["nfs"] = list(out["nfs"])
        # Drop unset optionals so serialized specs stay minimal.
        if out["nfs"] is None:
            del out["nfs"]
        if out["engine_params"] is None:
            del out["engine_params"]
        if out["fleet"] is None:
            del out["fleet"]
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Build (and validate) a spec from a plain dict."""
        if not isinstance(data, Mapping):
            raise ValueError(f"spec must be a mapping, got {type(data).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown spec fields {unknown!r}; known: {sorted(known)}")
        return cls(**dict(data))

    def to_json(self, *, indent: int | None = None) -> str:
        """JSON form of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Parse a spec from a JSON string."""
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path) -> "ScenarioSpec":
        """Read a spec from a JSON file."""
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def save(self, path) -> None:
        """Write the spec to a JSON file."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json(indent=2) + "\n")

    # -- derivation ---------------------------------------------------------------

    def with_updates(self, **changes: Any) -> "ScenarioSpec":
        """A copy with the given fields replaced (re-validated)."""
        return replace(self, **changes)


def expand_grid(
    base: ScenarioSpec,
    axes: Mapping[str, Sequence[Any]],
    *,
    name_format: str = "{name}-{index:03d}",
    reseed: bool = True,
) -> list[ScenarioSpec]:
    """Cartesian sweep: one spec per combination of the ``axes`` values.

    ``axes`` maps spec field names to the values to sweep; each derived
    spec gets a unique name (via ``name_format``, which may reference
    ``{name}`` and ``{index}``) and — unless ``seed`` is itself an axis or
    ``reseed=False`` — a distinct per-spec seed ``base.seed + index`` so
    parallel runs do not share RNG streams.

    >>> specs = expand_grid(base, {"controller": ["static", "heuristic"],
    ...                            "intervals": [20, 40]})
    >>> len(specs)
    4
    """
    if not axes:
        raise ValueError("need at least one sweep axis")
    keys = list(axes)
    unknown = sorted(set(keys) - {f.name for f in fields(ScenarioSpec)})
    if unknown:
        raise ValueError(f"unknown sweep axes {unknown!r}")
    specs: list[ScenarioSpec] = []
    for index, combo in enumerate(product(*(axes[k] for k in keys))):
        changes: dict[str, Any] = dict(zip(keys, combo))
        if "name" not in changes:
            # Axis values may appear in name_format ({controller}, ...);
            # an explicit "name" axis wins over the generated one.
            changes["name"] = name_format.format(
                name=base.name, index=index, **changes
            )
        if reseed and "seed" not in changes:
            changes["seed"] = base.seed + index
        specs.append(base.with_updates(**changes))
    return specs
