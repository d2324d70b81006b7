"""The inspection phase.

Section III-B: "our modified code starts with an inspection phase.
During this phase the code computes the set of iteration vectors that
lead to task executions ... In addition, the code queries the Global
Array library to discover the physical location of the program data."

The inspector walks the control-flow slice of the subroutine (here: the
resolved chain IR, which plays the role of the sliced DO/IF nest),
evaluates the segment decomposition for the variant's chain height,
builds the binary reduction tree over segments, asks each operand
tensor's GA distribution for ``find_last_segment_owner`` (READ task
placement, Figure 1) and splits each chain's target block into
per-owner write segments (Figure 8). Chains are placed round-robin
across nodes (Section IV-D).
"""

from __future__ import annotations

import threading

from repro.core.metadata import (
    ChainMeta,
    GemmMeta,
    Metadata,
    ReduceMeta,
    SegmentMeta,
    SortMeta,
    WriteSegMeta,
)
from repro.core.variants import VariantSpec
from repro.sim.cluster import Cluster
from repro.tce.subroutine import ChainSpec, Subroutine
from repro.util.errors import ConfigurationError

__all__ = ["MEMO_MAX_GEMMS", "PROCESS_MEMO", "InspectionCache", "inspect_subroutine"]


#: Bound of :data:`PROCESS_MEMO`, in inspected GEMMs summed over its
#: entries. Measured (t2_7/rbgs/ccsd at tiny/small/paper, both chain
#: heights): 0.86-1.21 kB resident and 145-191 B pickled per GEMM, so
#: 113-159 MB per process at most. Sized for one chain height of the
#: largest registered workload, because consecutive cells of a sweep
#: walk the same keys in a cycle and a cycle one GEMM over the bound
#: misses every time: on the paper's 32 nodes ``t2_7:paper`` is 8 100
#: GEMMs per height, ``rbgs:paper`` 4 992, ``ccsd:paper`` 93 620 (7
#: entries, 0.7-1.2 s to inspect). Both heights of ``ccsd:paper`` do
#: not fit: its sweep re-inspects where the height changes (v1 -> v2).
MEMO_MAX_GEMMS = 1 << 17

#: One lock for every cache (so none is pickled with an instance); only
#: the process memo is ever shared between threads.
_LOCK = threading.Lock()


class InspectionCache:
    """Memoized chain metadata across runs.

    The inspected :class:`ChainMeta` list is pure data: every field is
    derived from the chain IR, the variant's chain height, and the GA
    block distribution — and a :class:`~repro.ga.distribution.Distribution`
    is a pure function of ``(total elements, n_nodes)``. So two runs
    whose subroutines share a ``structure_token`` and whose clusters
    share a node count produce *identical* chains for the same variant
    height, regardless of cores per node. Figure 9's cores/node sweep
    re-inspects the same workload at every cell; sharing one cache
    across the sweep skips all but the first inspection per
    (workload, n_nodes, height) combination.

    The cache never holds :class:`Metadata` itself — that object carries
    live :class:`GlobalArray` references and must be rebuilt per run.
    Cached chains are shared, not copied: nothing mutates a
    :class:`ChainMeta` after inspection, so two threads may simulate on
    one entry. Values are pure-data dataclasses keyed by plain tuples:
    a cache **pickles cleanly**.

    With ``max_gemms`` the cache is least-recently-used over its keys
    and evicts until the GEMMs it holds fit; an entry larger than the
    whole bound is handed back uncached and evicts nothing. A call
    holds the lock from lookup to store, so concurrent callers of one
    key inspect once and ``hits + misses`` (host-side bookkeeping that
    reaches no report) is the number of calls.
    """

    def __init__(self, max_gemms: int | None = None) -> None:
        #: insertion order is recency order: a hit re-inserts its key
        self._chains: dict[tuple, list[ChainMeta]] = {}
        self.max_gemms = max_gemms
        self.n_gemms = 0
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._chains)

    def chains_for(
        self, subroutine: Subroutine, cluster: Cluster, variant: VariantSpec
    ) -> list[ChainMeta]:
        """The inspected chains, computed at most once per cache key."""
        token = subroutine.structure_token
        key = (token, cluster.n_nodes, variant.segment_height)
        with _LOCK:
            # a hand-built subroutine has no token, hence no safe identity
            chains = self._chains.pop(key, None) if token is not None else None
            if chains is not None:
                self.hits += 1
                self._chains[key] = chains
                return chains
            self.misses += 1
            chains = [
                _inspect_chain(chain, cluster, variant)
                for chain in subroutine.chains
            ]
            n_gemms = sum(chain.length for chain in chains)
            bound = self.max_gemms
            if token is not None and (bound is None or n_gemms <= bound):
                self._chains[key] = chains
                self.n_gemms += n_gemms
                while bound is not None and self.n_gemms > bound:
                    oldest = self._chains.pop(next(iter(self._chains)))
                    self.n_gemms -= sum(chain.length for chain in oldest)
            return chains


#: The memo of a process that runs experiment cells:
#: :func:`repro.experiments.calibration.cell_config` hands it to every
#: cell whose caller brought no cache, so a pool process (or the one
#: process of a serial sweep) inspects a structure the first time it
#: meets it and never again, and no cell ships a cache. A plain
#: ``repro.run`` does not use it: a run leaves nothing behind. A forked
#: pool process is safe: the lock is held only inside a cell, and no
#: process that forks is inside one — the job service forks its pools
#: before any thread exists and then runs no cell itself, a CLI sweep
#: forks from a single-threaded parent that only dispatches. A child
#: starts with a copy of what its parent had memoised.
PROCESS_MEMO = InspectionCache(max_gemms=MEMO_MAX_GEMMS)


def _build_segments(n_gemms: int, height: int | None) -> list[SegmentMeta]:
    if height is None:
        return [SegmentMeta(0, 0, n_gemms)]
    segments = []
    start = 0
    seg_id = 0
    while start < n_gemms:
        length = min(height, n_gemms - start)
        segments.append(SegmentMeta(seg_id, start, length))
        start += length
        seg_id += 1
    return segments


def _build_reduce_tree(
    n_segments: int,
) -> tuple[list[ReduceMeta], dict[tuple[str, int], int]]:
    """Pairwise binary tree over segment outputs.

    Returns the reduce steps plus the consumer map: which step consumes
    each ``('seg', i)`` / ``('red', s)`` source. The final step is the
    root (its output goes to the SORT stage).
    """
    if n_segments <= 1:
        return [], {}
    reduces: list[ReduceMeta] = []
    consumer: dict[tuple[str, int], int] = {}
    frontier: list[tuple[str, int]] = [("seg", i) for i in range(n_segments)]
    step = 0
    while len(frontier) > 1:
        next_frontier: list[tuple[str, int]] = []
        for i in range(0, len(frontier) - 1, 2):
            left, right = frontier[i], frontier[i + 1]
            reduces.append(ReduceMeta(step, left, right, is_root=False))
            consumer[left] = step
            consumer[right] = step
            next_frontier.append(("red", step))
            step += 1
        if len(frontier) % 2 == 1:
            next_frontier.append(frontier[-1])
        frontier = next_frontier
    # mark the root
    root = reduces[-1]
    reduces[-1] = ReduceMeta(root.step, root.left, root.right, is_root=True)
    return reduces, consumer


def _inspect_chain(
    chain: ChainSpec, cluster: Cluster, variant: VariantSpec
) -> ChainMeta:
    n_nodes = cluster.n_nodes
    segments = _build_segments(chain.length, variant.segment_height)
    reduces, consumer = _build_reduce_tree(len(segments))

    gemms: list[GemmMeta] = []
    for seg in segments:
        for pos_in_seg in range(seg.length):
            gemm = chain.gemms[seg.start + pos_in_seg]
            gemms.append(
                GemmMeta(
                    position=gemm.position,
                    seg_id=seg.seg_id,
                    pos_in_seg=pos_in_seg,
                    seg_len=seg.length,
                    a_lo=gemm.a.lo,
                    a_hi=gemm.a.hi,
                    a_owner=gemm.a.tensor.array.distribution.last_segment_owner(
                        gemm.a.lo, gemm.a.hi
                    ),
                    b_lo=gemm.b.lo,
                    b_hi=gemm.b.hi,
                    b_owner=gemm.b.tensor.array.distribution.last_segment_owner(
                        gemm.b.lo, gemm.b.hi
                    ),
                    m=gemm.m,
                    n=gemm.n,
                    k=gemm.k,
                    a_array=gemm.a.tensor.array.name,
                    b_array=gemm.b.tensor.array.name,
                )
            )

    sorts = [
        SortMeta(sw.sort_index, sw.guard, sw.perm, sw.sign)
        for sw in chain.sort_writes
    ]
    active = [sw for sw in chain.sort_writes if sw.guard]
    if not active:
        raise ConfigurationError(f"chain {chain.chain_id} has no active sort branch")
    # all active sorts target the same block (their permutations only
    # differ when the permuted key equals the original key)
    target_ranges = {(sw.target.lo, sw.target.hi) for sw in active}
    if len(target_ranges) != 1:
        raise ConfigurationError(
            f"chain {chain.chain_id}: active sorts target distinct blocks "
            f"{sorted(target_ranges)} — the WRITE_C organization assumes one"
        )
    target_lo, target_hi = target_ranges.pop()
    i2_array = active[0].target.tensor.array
    write_segs = [
        WriteSegMeta(index, seg.node, seg.lo, seg.hi)
        for index, seg in enumerate(i2_array.distribution.segments(target_lo, target_hi))
    ]

    return ChainMeta(
        chain_id=chain.chain_id,
        node=chain.chain_id % n_nodes,
        key=chain.key,
        tile_shape=chain.tile_shape,
        m=chain.m,
        n=chain.n,
        gemms=gemms,
        segments=segments,
        reduces=reduces,
        consumer_of=consumer,
        sorts=sorts,
        target_lo=target_lo,
        target_hi=target_hi,
        write_segs=write_segs,
        target_array=i2_array.name,
    )


def inspect_subroutine(
    subroutine: Subroutine,
    cluster: Cluster,
    variant: VariantSpec,
    cache: InspectionCache | None = None,
) -> Metadata:
    """Run the inspection phase; returns the filled metadata arrays.

    With ``cache`` given, the chain walk is skipped when an equivalent
    inspection (same workload structure, node count, and chain height)
    was already performed; the Metadata wrapper — which holds live
    array references — is still built fresh for this run's cluster.
    """
    if not subroutine.chains:
        raise ConfigurationError(f"subroutine {subroutine.name} has no chains")
    if cache is None:  # not `or`: an empty cache is falsy
        cache = InspectionCache()
    chains = cache.chains_for(subroutine, cluster, variant)
    first = subroutine.chains[0]
    # Live-handle map resolved fresh per run: the cached ChainMeta
    # entries carry array *names*; the task bodies look the handles up
    # here. Subroutine.inputs is the contract for which arrays chains
    # may reference (plus the output).
    arrays = {subroutine.output.array.name: subroutine.output.array}
    for tensor in subroutine.inputs:
        arrays[tensor.array.name] = tensor.array
    return Metadata(
        chains=chains,
        variant=variant,
        n_nodes=cluster.n_nodes,
        va_array=first.gemms[0].a.tensor.array,
        tb_array=first.gemms[0].b.tensor.array,
        i2_array=subroutine.output.array,
        subroutine_name=subroutine.name,
        arrays=arrays,
        level=subroutine.level,
    )
