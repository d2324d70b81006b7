"""The original NWChem coarse-grain-parallel (CGP) execution model.

This is the baseline the paper measures against (the green line of
Figure 9, the traces of Figures 12/13): one MPI rank per core, each rank
stealing whole GEMM chains through the NXTVAL shared counter, executing
each chain with *blocking* ``GET_HASH_BLOCK`` calls issued immediately
before each GEMM — so communication is interleaved with computation but
never overlapped — then performing the IF-guarded SORT_4 +
``ADD_HASH_BLOCK`` sequence serially, with barrier-separated work
levels.
"""
