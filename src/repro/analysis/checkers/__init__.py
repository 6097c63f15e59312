"""The shipped checkers.

Importing this package registers every checker class with
:data:`repro.analysis.base.FILE_CHECKERS` /
:data:`~repro.analysis.base.PROJECT_CHECKERS`; the engine imports it
once and instantiates the roster.
"""

from __future__ import annotations

from repro.analysis.checkers import (  # noqa: F401  (import = register)
    hygiene,
    kernel,
    obs,
    protocol,
    rng,
    sums,
    wallclock,
)
