"""Every package's ``__all__`` names an attribute the package defines.

Deleting a definition must take its export with it: a stale name in
``__all__`` still imports cleanly but breaks ``from repro.x import *``
and misleads readers of the package's API.
"""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.baselines",
    "repro.core",
    "repro.experiments",
    "repro.fleet",
    "repro.hw",
    "repro.nfv",
    "repro.obs",
    "repro.rl",
    "repro.scenario",
    "repro.sdn",
    "repro.traffic",
    "repro.utils",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_every_export_resolves(name):
    package = importlib.import_module(name)
    exports = package.__all__
    assert len(exports) == len(set(exports)), "duplicate names in __all__"
    missing = [n for n in exports if not hasattr(package, n)]
    assert missing == []
