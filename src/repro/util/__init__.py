"""Shared utilities: errors, seeded RNG streams, validation helpers.

Nothing in this package may touch wall-clock time or global random
state: determinism of the simulated world is a repo-wide invariant
(see DESIGN.md section 6).
"""

from repro.util.errors import (
    ReproError,
    SimulationError,
    DataflowError,
    ConfigurationError,
    GlobalArrayError,
)
from repro.util.rng import derive_seed
from repro.util.validation import (
    check_positive,
    check_non_negative,
    check_in_range,
    check_type,
)

__all__ = [
    "ReproError",
    "SimulationError",
    "DataflowError",
    "ConfigurationError",
    "GlobalArrayError",
    "derive_seed",
    "check_positive",
    "check_non_negative",
    "check_in_range",
    "check_type",
]
