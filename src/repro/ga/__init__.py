"""Simulated Global Arrays (GA) toolkit.

NWChem's TCE-generated Coupled Cluster code is written against the
Global Arrays "shared-memory interface for distributed-memory
computers". This package reproduces the parts the paper exercises:

- element-contiguous **distribution** of a flat array across node
  memories (:mod:`repro.ga.distribution`), including the segment-owner
  queries the PaRSEC inspection phase performs (``ga_distribution()``,
  ``ga_access()``, ``find_last_segment_owner``);
- **one-sided get/accumulate** served by a per-node FIFO handler
  (:mod:`repro.ga.runtime`) — remote requests pay NIC transport, a
  service-time overhead, and the owner's memory bandwidth, which is
  where the original code's GA contention comes from;
- ``GET_HASH_BLOCK``/``ADD_HASH_BLOCK`` wrappers that trace themselves
  the way the paper's Figure 12/13 traces show them
  (:mod:`repro.ga.hash_block`);
- the **NXTVAL** shared-counter work-stealing primitive
  (:mod:`repro.ga.nxtval`) whose single-server contention the paper
  blames for the original code's scaling limits;
- **barriers** for the seven-level synchronization of the legacy code
  (:mod:`repro.ga.sync`).

Real NumPy data flows through all of it when the cluster runs in
``DataMode.REAL``; in ``DataMode.SYNTH`` the same messages and costs
occur but payloads are shape-only.
"""
