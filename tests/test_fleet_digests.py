"""The fleet presets' outputs, pinned by digest on both backends.

Each digest is the first 16 hex characters of the SHA-256 of a preset
fleet's ``FleetResult.comparable()`` payload as canonical JSON, run
under a 1 ms latency SLA for the preset's own cycle count.  A seeded
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


def digest(preset: str, seed: int, backend: str) -> str:
    fleet = FleetSpec.from_mapping(FLEETS.get(preset)()).with_updates(
        backend=backend
    )
    with FleetCoordinator(
        fleet, sla="latency", sla_params={"latency_bound_s": 1e-3}, seed=seed
    ) as coordinator:
        coordinator.run_cycles(fleet.cycles)
        payload = coordinator.result().comparable()
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def test_every_preset_is_pinned():
    assert sorted(DIGESTS) == sorted(FLEETS.names())


@pytest.mark.parametrize("preset,seed,expected", CASES)
def test_local_digest(preset, seed, expected):
    assert digest(preset, seed, "local") == expected


@pytest.mark.fleet_mp
@pytest.mark.parametrize("preset,seed,expected", CASES)
def test_process_digest(preset, seed, expected):
    assert digest(preset, seed, "process") == expected
