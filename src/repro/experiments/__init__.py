"""Experiment drivers: one module per paper artifact (import each
from its module; the package re-exports nothing).

- :mod:`repro.experiments.calibration` — the frozen machine constants
  and scale presets every experiment uses.
- :mod:`repro.experiments.fig9` — the Figure 9 sweep (original + v1-v5
  across cores/node) and its shape checks.
- :mod:`repro.experiments.traces` — the Figure 10/11 (v4 vs v2) and
  Figure 12/13 (original) trace experiments.
- :mod:`repro.experiments.equivalence` — the correlation-energy
  agreement experiment (Section IV-A).
- :mod:`repro.experiments.ablations` — the design-decision sweeps and
  the one-sided comm knob matrix.
- :mod:`repro.experiments.chaos` / :mod:`~repro.experiments.perf` —
  fault recovery; the Figure 9 grid as an exact BENCH baseline.
- :mod:`repro.experiments.claims` — a paper claim, and when claims gate
  (each experiment has a report function and a claims function).
- :mod:`repro.experiments.sweep` — the multi-process sweep executor
  every grid experiment dispatches through (``jobs=N`` with a
  deterministic, byte-identical merge).
"""
