"""The CCSD-over-PaRSEC port — the paper's primary contribution.

Layers, matching Section III-B and IV of the paper:

- :mod:`repro.core.variants` — the five algorithmic variants v1..v5 of
  Section V (chain vs. parallel GEMMs, fused vs. parallel SORT, single
  vs. parallel WRITE, priorities on/off), plus the generalized chain
  *segment height* of Section IV-A for the segmentation ablation.
- :mod:`repro.core.metadata` / :mod:`repro.core.inspector` — the
  inspection phase: a slice of the original control flow that records
  which iterations execute, chain membership and lengths, where the GA
  data physically lives (owner nodes, write segments), and the static
  round-robin chain placement of Section IV-D.
- :mod:`repro.core.ptg_build` — the PTG: READ_A/READ_B, DFILL, GEMM,
  REDUCE, SORT / SORT_I, WRITE_C / WRITE_C_I task classes with the
  dataflow of Figures 1, 2, 4-8 and the priority expression
  ``max_L1 - L1 + offset*P`` of Section IV-C.
- :mod:`repro.core.api` — the unified :func:`repro.run` facade over
  every runtime (legacy, PaRSEC v1..v5, DTD) with phase timers and
  structured run reports.
- :mod:`repro.core.integration` — the NWChem-level driver that swaps
  the legacy implementation for the PaRSEC one per subroutine, with
  the rest of the program oblivious (Figure 3).
"""
