"""The fleet presets' outputs, pinned by digest on both backends.

Each digest is the first 16 hex characters of the SHA-256 of a preset
fleet's ``FleetResult.comparable()`` payload as canonical JSON, run
under a 1 ms latency SLA for the preset's own cycle count.  No preset
migrates a chain at seeds 1 or 7, so a second table pins a churning
WAN whose placements move chains within and across shards.  A seeded
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


def migration_digest(placement: str, seed: int, backend: str) -> str:
    fleet = FleetSpec.from_mapping(CHURN).with_updates(
        placement=placement, backend=backend
    )
    return fleet_digest(fleet, seed, 12)


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
