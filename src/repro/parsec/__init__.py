"""PaRSEC: a Parameterized-Task-Graph, dataflow-driven distributed runtime.

This package reproduces the execution model of the PaRSEC framework as
the paper uses it:

- **PTG representation** (:mod:`repro.parsec.taskclass`,
  :mod:`repro.parsec.ptg`): task *classes* parameterized over symbolic
  domains, with guarded dataflow dependencies between classes and
  priority expressions — the compact equivalent of the ``.jdf`` snippets
  in the paper's Figures 1 and 2. Domains, guards, placements, and
  priorities are all callables over a *metadata* object filled by an
  inspection phase, mirroring how "PaRSEC can dynamically look them up
  in metadata structures filled by an inspection phase".
- **Event-driven runtime** (:mod:`repro.parsec.runtime`): when a task
  completes, its output dataflow is examined and successor inputs are
  satisfied — locally by pointer, remotely through the communication
  engine. "When the hardware is busy executing application code, the
  runtime does not incur overhead."
- **Per-node scheduler** (:mod:`repro.parsec.scheduler`): one worker per
  compute core popping a shared priority ready-queue (priorities are
  relative; ties FIFO). Tasks never migrate between threads once
  started.
- **Communication thread** (:mod:`repro.parsec.comm`): a dedicated
  per-node service (the paper runs it "on a dedicated core") that
  serializes message processing; all communication is implicit.
- **Work stealing** (:mod:`repro.parsec.stealing`): an optional
  victim/thief layer over the static round-robin chain placement —
  idle nodes send simulated ``STEAL_REQ`` messages through the comm
  threads and untouched chains migrate whole; READ and WRITE tasks
  stay on the Global Array owners, so results are bitwise identical
  with stealing on or off.
"""
