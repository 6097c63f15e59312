"""The fleet presets' outputs, pinned by digest on both backends.

Each digest is the first 16 hex characters of the SHA-256 of a preset
fleet's ``FleetResult.comparable()`` payload as canonical JSON, run
under a 1 ms latency SLA for the preset's own cycle count.  No preset
migrates a chain at seeds 1 or 7, so a second table pins a churning
WAN whose placements move chains within and across shards, and a third
the same WAN under a path-latency bound on migrations.  A seeded
fleet must give the same numbers on every supported Python and backend,
so a change that moves one is either a bug or a deliberate model change
that updates this table (and says so, old and new values, in
CHANGES.md).  Python 3.12's builtin ``sum`` compensates float rounding,
which is why the fleet's totals are left folds
(:func:`repro.utils.stats.left_sum`).
"""

import hashlib
import json

import pytest

from repro import obs
from repro.fleet import FLEETS, FleetCoordinator, FleetSpec

#: preset -> (seed 1, seed 7) digests, identical on both backends.
DIGESTS = {
    "small": ("cd7a11ddbe5c2828", "a08156a9461e5041"),
    "medium": ("ccf03da59b4714f7", "092ef5176aeb94e2"),
    "wan": ("33f718cffea031ae", "a884a14ec6bb8419"),
    "datacenter": ("c0727dfd3bdaa4a8", "edd216ffdf5fb40a"),
}
CASES = [
    (preset, seed, digest)
    for preset, digests in DIGESTS.items()
    for seed, digest in zip((1, 7), digests)
]

#: An 8-site WAN with churn (the e2e ``fleet-churn`` fleet section): at
#: seed 1 its 12 cycles migrate 8, 22 and 10 chains under watermark,
#: greedy and genetic placement, 6, 8 and 3 of them across shards.
CHURN = {
    "preset": "wan",
    "placement": "greedy",
    "sync_every": 2,
    "topology": {"preset": "wan", "n_sites": 8, "nodes": 4, "chains_per_node": 1},
    "migration": {"amortize_intervals": 64, "budget_per_cycle": 4},
    "workload": {
        "peak_rate_pps": 3e5,
        "churn": {"arrivals_per_cycle": 1.0, "departure_prob": 0.05, "max_chains": 96},
    },
}

#: placement -> (seed 1, seed 7) digests of 12 cycles of ``CHURN``.
MIGRATION_DIGESTS = {
    "watermark": ("d11632f94532335e", "8d7df6199a1fc601"),
    "greedy": ("f86a4a2791422521", "e5b0c446f9280107"),
    "genetic": ("6172c79f4ef70169", "4c3f729931a9562f"),
}
MIGRATION_CASES = [
    (placement, seed, digest)
    for placement, digests in MIGRATION_DIGESTS.items()
    for seed, digest in zip((1, 7), digests)
]

#: ``CHURN`` with ``migration.max_path_latency_s`` of 30 ms.  The WAN's
#: routed paths take 20-80 ms, so every run vetoes moves for path
#: latency and still accepts 2-9 cross-shard moves over one ring link or
#: the express chord.  placement -> (seed 1, seed 7) digests of 12 cycles.
PATH_BOUND_S = 0.03
PATH_BOUND_DIGESTS = {
    "watermark": ("f8f7ab1c8494078b", "e5777aa9de3c7231"),
    "greedy": ("88ba5ab5f995053c", "947161e274571013"),
    "genetic": ("b1f8cf0f7c816d04", "c932c18d17dbc80b"),
}
PATH_BOUND_CASES = [
    (placement, seed, digest)
    for placement, digests in PATH_BOUND_DIGESTS.items()
    for seed, digest in zip((1, 7), digests)
]


def fleet_digest(fleet: FleetSpec, seed: int, cycles: int) -> str:
    with FleetCoordinator(
        fleet, sla="latency", sla_params={"latency_bound_s": 1e-3}, seed=seed
    ) as coordinator:
        coordinator.run_cycles(cycles)
        payload = coordinator.result().comparable()
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def digest(preset: str, seed: int, backend: str) -> str:
    fleet = FleetSpec.from_mapping(FLEETS.get(preset)()).with_updates(
        backend=backend
    )
    return fleet_digest(fleet, seed, fleet.cycles)


def churn_fleet(placement: str, backend: str, **migration) -> FleetSpec:
    section = dict(CHURN, migration={**CHURN["migration"], **migration})
    return FleetSpec.from_mapping(section).with_updates(
        placement=placement, backend=backend
    )


def migration_digest(placement: str, seed: int, backend: str, **migration) -> str:
    return fleet_digest(churn_fleet(placement, backend, **migration), seed, 12)


def test_every_preset_is_pinned():
    assert sorted(DIGESTS) == sorted(FLEETS.names())


@pytest.mark.parametrize("preset,seed,expected", CASES)
def test_local_digest(preset, seed, expected):
    assert digest(preset, seed, "local") == expected


@pytest.mark.fleet_mp
@pytest.mark.parametrize("preset,seed,expected", CASES)
def test_process_digest(preset, seed, expected):
    assert digest(preset, seed, "process") == expected


@pytest.mark.parametrize("placement,seed,expected", MIGRATION_CASES)
def test_local_migration_digest(placement, seed, expected):
    assert migration_digest(placement, seed, "local") == expected


@pytest.mark.fleet_mp
@pytest.mark.parametrize("placement,seed,expected", MIGRATION_CASES)
def test_process_migration_digest(placement, seed, expected):
    assert migration_digest(placement, seed, "process") == expected


@pytest.mark.parametrize("placement,seed,expected", PATH_BOUND_CASES)
def test_local_path_bound_digest(placement, seed, expected):
    digest = migration_digest(
        placement, seed, "local", max_path_latency_s=PATH_BOUND_S
    )
    assert digest == expected


@pytest.mark.fleet_mp
@pytest.mark.parametrize("placement,seed,expected", PATH_BOUND_CASES)
def test_process_path_bound_digest(placement, seed, expected):
    digest = migration_digest(
        placement, seed, "process", max_path_latency_s=PATH_BOUND_S
    )
    assert digest == expected


def test_path_bound_vetoes_and_still_migrates():
    fleet = churn_fleet("watermark", "local", max_path_latency_s=PATH_BOUND_S)
    obs.enable()
    try:
        with FleetCoordinator(
            fleet, sla="latency", sla_params={"latency_bound_s": 1e-3}, seed=1
        ) as coordinator:
            coordinator.run_cycles(12)
            moves = coordinator.result().migrations
        counters = obs.registry().snapshot()["counters"]
    finally:
        obs.disable()
    assert counters["fleet/migrations/veto[path_latency]"] > 0
    cross = [m for m in moves if m["src_shard"] != m["dst_shard"]]
    assert cross
    assert all(0.0 < m["path_latency_s"] <= PATH_BOUND_S for m in cross)
