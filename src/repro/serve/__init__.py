"""`repro serve`: the simulation-as-a-service layer.

Everything below ``repro.serve`` is *host-side* infrastructure — a
long-lived daemon that accepts run/sweep jobs over local HTTP and
executes them on the self-healing
:class:`~repro.experiments.sweep.SweepExecutor` pool. The simulated
machine stays bitwise deterministic; this package only decides *when*
and *whether* a simulation runs, never how it behaves:

- :mod:`repro.serve.jobs` — job specs, canonical normalization, and
  the content-address digest (workload structure x run configuration x
  seed) under which a job answers every repeat submission;
- :mod:`repro.serve.journal` — the append-only JSONL event store that
  lets queued and completed jobs survive a daemon crash;
- :mod:`repro.serve.scheduler` — the admission queue (a full one sheds
  new submissions with a retry-after hint) and the worker threads, each
  with its warm process pool, joining all of the above;
- :mod:`repro.serve.daemon` — the HTTP front end and boot-time journal
  replay;
- :mod:`repro.serve.client` — the thin stdlib client used by the
  ``submit``/``status``/``result`` CLI subcommands.
"""
