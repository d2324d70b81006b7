"""Experiment drivers: one module per paper artifact (import each
from its module; the package re-exports nothing).

Each experiment is one declared :class:`~repro.experiments.claims.
Experiment` (cells, reduction, report, claims, parameter defaults) run
by one driver; the CLI, the bench and the job service look it up by
name in :mod:`repro.experiments.claims`, which also says when claims
gate. :mod:`~repro.experiments.fig9` declares ``fig9``,
:mod:`~repro.experiments.traces` ``fig10_11`` and ``fig12_13``,
:mod:`~repro.experiments.equivalence` ``equivalence`` (Section IV-A),
:mod:`~repro.experiments.ablations` ``ablations`` and ``comm``,
:mod:`~repro.experiments.chaos` ``chaos``. Beside them:
:mod:`~repro.experiments.calibration` (machine constants, scales),
:mod:`~repro.experiments.perf` (the Figure 9 grid as an exact BENCH
baseline) and :mod:`~repro.experiments.sweep` (the multi-process
executor with a deterministic, byte-identical merge).
"""
