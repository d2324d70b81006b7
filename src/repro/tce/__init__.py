"""Tensor Contraction Engine (TCE) substrate.

The paper's workload is the TCE-generated ``icsd_t2_7()`` subroutine of
NWChem's iterative CCSD: deep loop nests over *tiles* of the occupied
(hole) and virtual (particle) orbital spaces, with IF-guarded chains of
GEMMs whose output is SORTed (permuted) and accumulated into a Global
Array. This package rebuilds that workload generator:

- :mod:`repro.tce.orbital_space` — tiled hole/particle spaces;
- :mod:`repro.tce.tensor` — block tensors laid out flat in a GA (by
  name: the IR holds no array);
- :mod:`repro.tce.subroutine` — the chain/GEMM/SORT/WRITE IR both
  runtimes execute;
- :mod:`repro.tce.t2_7` — the ``icsd_t2_7`` generator: chains over the
  contracted tile pairs, the four non-mutually-exclusive IF-guarded
  SORT_4 targets, and a TCE-style symmetry filter that voids some loop
  iterations (what the PaRSEC inspection phase discovers);
- :mod:`repro.tce.molecules` — the beta-carotene/6-31G system of the
  evaluation (472 basis functions) plus scaled-down test systems;
- :mod:`repro.tce.reference` — an independent dense-NumPy re-computation
  of the subroutine semantics and the correlation-energy probe used for
  the "matches to the 14th digit" check.
"""
