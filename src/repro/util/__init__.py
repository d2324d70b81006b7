"""Shared utilities: errors, seeded RNG streams, validation helpers.

Nothing in this package may touch wall-clock time or global random
state: determinism of the simulated world is a repo-wide invariant
(see DESIGN.md section 6).
"""
