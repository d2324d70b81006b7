"""repro.obs — the runtime-agnostic observability layer.

The paper's entire evaluation (Figures 9-13) rests on PaRSEC's
performance instrumentation module; this package is our equivalent of
the *counting* half of that module (the span half is
:mod:`repro.sim.trace`). It deliberately sits below every runtime:

- :class:`~repro.obs.registry.MetricsRegistry` — labeled counters,
  gauges (with high-water tracking), histograms with fixed
  deterministic bucket edges, and phase timers driven by the
  simulation's virtual clock. One registry lives on each
  :class:`~repro.sim.cluster.Cluster`; the Global Arrays substrate, the
  network, both runtimes, and the schedulers all emit into it. A
  disabled registry (``enabled=False``) is a pure no-op so the big
  SYNTH sweeps keep their speed.
- :class:`~repro.obs.report.RunReport` — the schema-versioned,
  machine-readable record of one run (JSONL), joining configuration,
  metrics, phase timings, and trace-derived statistics. Deterministic:
  identical seeds produce byte-identical reports.
- :class:`~repro.obs.result.RunResult` — the common protocol/base
  class shared by :class:`~repro.parsec.runtime.ParsecResult`,
  :class:`~repro.legacy.runtime.LegacyResult`, and
  :class:`~repro.parsec.dtd.DtdResult`, so analysis and experiment code
  stops special-casing the runtimes.

Everything here is pure bookkeeping: no method ever touches the
discrete-event engine, so virtual timings are bitwise identical whether
metrics are enabled or not.
"""
