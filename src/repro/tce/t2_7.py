"""The ``icsd_t2_7()`` workload — the sub-kernel the paper ports.

``icsd_t2_7`` is a *ring* contraction: one hole (h7) and one particle
(p5) index are contracted between an integral-like operand
``va(h7, p5, p3, p4)`` and an amplitude-like operand
``tb(h7, p5, h1, h2)``, accumulating into the ``i2(p3, p4, h1, h2)``
residual:

- one GEMM *chain* per driving tile tuple ``(p3b <= p4b, h1b <= h2b)``
  (L1 in the paper's PTG), summing over the contracted tile pairs
  ``(h7b, p5b)`` (L2):  ``C(p3p4, h1h2) += va-block(k,m)^T @ tb-block(k,n)``
- after the chain, the four SORT_4/ADD_HASH_BLOCK branches guarded by
  the exact predicates quoted in the paper::

      IF ((p3b .le. p4b) .and. (h1b .le. h2b)) ...
      IF ((p3b .le. p4b) .and. (h2b .le. h1b)) ...
      IF ((p4b .le. p3b) .and. (h1b .le. h2b)) ...
      IF ((p4b .le. p3b) .and. (h2b .le. h1b)) ...

  which are not mutually exclusive: when ``h1b == h2b`` and/or
  ``p3b == p4b`` two or four of them fire, so a chain performs one,
  two, or four sorted writes (Section IV-A);
- a TCE-style symmetry filter voids odd-parity loop iterations — what
  the PaRSEC inspection phase has to discover at run time.

The general machinery lives in :mod:`repro.tce.terms`; this module
binds it to the specific term the paper evaluates: the ``t2_7``
workload is :class:`~repro.tce.terms.TermStructure` over
:data:`T2_7_SPEC`.
"""

from __future__ import annotations

from repro.tce.terms import TermSpec

__all__ = ["T2_7_SPEC"]

#: icsd_t2_7 is a ring term: contraction over one hole + one particle.
T2_7_SPEC = TermSpec("icsd_t2_7", "hp", level=0)
