"""Discrete-event simulation substrate.

This package is the stand-in for the paper's physical testbed (a 32-node
partition of the PNNL Cascade cluster). It provides:

- :mod:`repro.sim.engine` — the event kernel: a virtual clock, the
  immediate lane, generator-based processes (simulated threads) and the
  shared waiter queue.
- :mod:`repro.sim.timeline` — the one timed event store and its
  :class:`Timer`.
- :mod:`repro.sim.resources` — FIFO resources and a processor-sharing
  bandwidth resource (used for per-node memory bandwidth).
- :mod:`repro.sim.queues` — FIFO and priority mailboxes/ready-queues.
- :mod:`repro.sim.mutex` — a pthread-mutex model with lock/unlock cost.
- :mod:`repro.sim.network` — NICs and message transfer with congestion.
- :mod:`repro.sim.node` / :mod:`repro.sim.cluster` — the machine model.
- :mod:`repro.sim.cost` — calibrated operation cost models.
- :mod:`repro.sim.trace` — execution tracing (the PaRSEC instrumentation
  stand-in used to reproduce Figures 10-13).
- :mod:`repro.sim.faults` — seed-driven fault injection (task failures,
  message drop/delay/duplication, stragglers, node crashes).

Everything is deterministic: identical inputs produce identical event
orderings and identical virtual timestamps — including injected faults,
which are pure functions of a master seed and stable decision keys.
"""
