"""The inspection phase.

Section III-B: "our modified code starts with an inspection phase.
During this phase the code computes the set of iteration vectors that
lead to task executions ... In addition, the code queries the Global
Array library to discover the physical location of the program data."

The inspector walks the control-flow slice of the subroutine (here: the
resolved chain IR, which plays the role of the sliced DO/IF nest), asks
each operand tensor's GA distribution for ``find_last_segment_owner``
(READ task placement, Figure 1) and splits each chain's target block
into per-owner write segments (Figure 8). Chains are placed round-robin
across nodes (Section IV-D). Of the variant's chain height it keeps one
int per chain, the segment length: the segments and their reduction
tree are arithmetic on it (:mod:`repro.core.metadata`).
"""

from __future__ import annotations

import threading
from collections import Counter
from typing import Callable, Optional, Sized

from repro.core.metadata import ChainMeta, Metadata
from repro.core.variants import VariantSpec
from repro.ga.distribution import Distribution
from repro.sim.cluster import Cluster
from repro.tce.subroutine import ChainSpec, Subroutine
from repro.util.errors import ConfigurationError
from repro.util.rng import seeded_normal

__all__ = ["MEMO_MAX_BYTES", "PROCESS_MEMO", "InspectionCache", "inspect_subroutine"]


#: Bytes each memoised product is weighed at, per unit of its size:
#: ``tracemalloc`` over t2_7 / rbgs / ccsd at small and paper on 4 and 32
#: nodes (``tests/data/memo_weights.py``), the largest reading kept. The
#: chain IR of a structure, 241-587 B per GEMM (one shared ``BlockRef``
#: per block, slotted records); the inspected ``ChainMeta``, 32-112 B
#: per GEMM, the largest level of either chain height (node, owners,
#: segment length and write segments — no copy of the IR, no record per
#: segment or reduction step); a validated task template with its
#: resolved successors, 14-18 B per task, v1 and v5 (typed columns, the
#: narrowest int type that holds each). A seeded draw weighs its
#: ``nbytes``: 8 B per element.
IR_BYTES_PER_GEMM = 587
CHAIN_BYTES_PER_GEMM = 112
TEMPLATE_BYTES_PER_TASK = 18

#: Bound of :data:`PROCESS_MEMO`, in the bytes above summed over its
#: entries. Sized so that a ``ccsd:small`` REAL sweep on 8 nodes and a
#: ``t2_7:paper`` one on 32 fit together (the figures are in DESIGN.md
#: §10, "The bound") — a sweep walks its keys in a cycle, and a
#: least-recently-used memo one entry smaller than the cycle misses on
#: every call.
MEMO_MAX_BYTES = 320 << 20

#: One lock for every cache (so none is pickled with an instance); only
#: the process memo is ever shared between threads.
_LOCK = threading.Lock()


class InspectionCache:
    """The inspector half of a run, memoised: everything that depends
    only on a workload's structure.

    Each product is keyed by exactly what it depends on:

    - ``structure`` — a workload's chain IR and tensor layouts
      (:class:`~repro.workloads.base.Structure`), by canonical token and
      skew;
    - ``draw`` — the seeded standard-normal contents of an input
      tensor, read-only, by (seed, stream, size); runs adopt it
      copy-on-write (:meth:`~repro.ga.array.GlobalArray.adopt`), so no
      run can write into it;
    - ``chains`` — the inspected :class:`ChainMeta` list, by
      (``structure_token``, ``n_nodes``, chain height): every field
      derives from the chain IR, the height and the GA block
      distribution, a pure function of (elements, ``n_nodes``), so
      cores per node, data mode and seed do not enter;
    - ``template`` — a PTG's validated task table, by
      (``structure_token``, variant, ``n_nodes``)
      (:meth:`repro.parsec.ptg.PTG.instantiate`).

    Nothing a run binds is kept: not the cluster, not an array, not a
    :class:`Metadata` (it holds live array handles). Products are
    shared, not copied — nothing mutates one after it is built, so two
    threads may simulate on one entry — and they pickle.

    With ``max_bytes`` the cache is one least-recently-used order over
    all its entries, each weighed in estimated resident bytes, and
    evicts from the old end until they fit; an entry larger than the
    whole bound is handed back uncached and evicts nothing. A call holds
    the lock from lookup to store, so concurrent callers of one key
    compute it once. ``hits`` and ``misses`` count calls per product
    kind — host-side bookkeeping that reaches no report.
    """

    def __init__(self, max_bytes: Optional[int] = None) -> None:
        #: (kind, key) -> (product, bytes); insertion order is recency
        #: order: a hit re-inserts its key
        self._entries: dict[tuple, tuple[object, int]] = {}
        self.max_bytes = max_bytes
        self.n_bytes = 0
        self.hits: Counter = Counter()
        self.misses: Counter = Counter()

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self, kind: str) -> list:
        """The keys of ``kind`` held, least recently used first."""
        return [key for entry_kind, key in self._entries if entry_kind == kind]

    def _memo(
        self,
        kind: str,
        key,
        compute: Callable[[], object],
        weigh: Callable[[object], int],
    ):
        """``compute()`` at most once per ``(kind, key)``; a None key
        (a structure without a token) is never stored."""
        with _LOCK:
            entry = self._entries.pop((kind, key), None) if key is not None else None
            if entry is not None:
                self.hits[kind] += 1
                self._entries[(kind, key)] = entry
                return entry[0]
            self.misses[kind] += 1
            product = compute()
            if key is None:
                return product
            nbytes = weigh(product)
            bound = self.max_bytes
            if bound is None or nbytes <= bound:
                self._entries[(kind, key)] = (product, nbytes)
                self.n_bytes += nbytes
                while bound is not None and self.n_bytes > bound:
                    self.n_bytes -= self._entries.pop(next(iter(self._entries)))[1]
            return product

    def structure(self, key: tuple, build: Callable[[], object]):
        """The workload structure ``build()`` makes, once per ``key``."""
        return self._memo(
            "structure", key, build, lambda built: IR_BYTES_PER_GEMM * built.n_gemms
        )

    def draw(self, seed: int, stream: str, size: int):
        """The read-only seeded draw of ``size`` elements from ``stream``."""
        return self._memo(
            "draw",
            (seed, stream, size),
            lambda: seeded_normal(seed, stream, size),
            lambda values: values.nbytes,
        )

    def chains_for(
        self, subroutine: Subroutine, cluster: Cluster, variant: VariantSpec
    ) -> list[ChainMeta]:
        """The inspected chains, computed at most once per cache key."""
        token = subroutine.structure_token
        height = variant.segment_height
        # a hand-built subroutine has no token, hence no safe identity
        key = None if token is None else (token, cluster.n_nodes, height)
        return self._memo(
            "chains",
            key,
            lambda: _inspect_chains(subroutine, cluster.n_nodes, variant),
            lambda chains: CHAIN_BYTES_PER_GEMM * subroutine.n_gemms,
        )

    def template(self, key: tuple, build: Callable[[], Sized]):
        """The validated task template ``build()`` makes, once per ``key``
        (:class:`~repro.parsec.ptg.Template`; its length is its task count)."""
        return self._memo(
            "template",
            key,
            build,
            lambda template: TEMPLATE_BYTES_PER_TASK * len(template),
        )


#: The memo of a process that runs experiment cells:
#: :func:`repro.experiments.calibration.cell_config` hands it to every
#: cell whose caller brought no cache, so a pool process (or the one
#: process of a serial sweep) builds a structure, draws an input,
#: inspects a chain height and validates a task table the first time it
#: meets them and never again, and no cell ships a cache. A plain
#: ``repro.run`` does not use it: a run leaves nothing behind. A forked
#: pool process is safe: the lock is held only inside a cell, and no
#: process that forks is inside one — the job service forks its pools
#: before any thread exists and then runs no cell itself, a CLI sweep
#: forks from a single-threaded parent that only dispatches. A child
#: starts with a copy of what its parent had memoised.
PROCESS_MEMO = InspectionCache(max_bytes=MEMO_MAX_BYTES)


def _inspect_chains(
    subroutine: Subroutine, n_nodes: int, variant: VariantSpec
) -> list[ChainMeta]:
    """The chain walk: every chain of ``subroutine`` on ``n_nodes``."""
    distributions = {
        tensor.name: Distribution(tensor.total, n_nodes)
        for tensor in (*subroutine.inputs, subroutine.output)
    }
    output = subroutine.output.name
    return [
        _inspect_chain(chain, n_nodes, variant, distributions, output)
        for chain in subroutine.chains
    ]


def _inspect_chain(
    chain: ChainSpec,
    n_nodes: int,
    variant: VariantSpec,
    distributions: dict[str, Distribution],
    output: str,
) -> ChainMeta:
    active = [sw for sw in chain.sort_writes if sw.guard]
    if not active:
        raise ConfigurationError(f"chain {chain.chain_id} has no active sort branch")
    # all active sorts target the same block of the subroutine's output
    # (their permutations only differ when the permuted key equals the
    # original key)
    targets = {(sw.target.tensor.name, sw.target.lo, sw.target.hi) for sw in active}
    if len(targets) != 1 or next(iter(targets))[0] != output:
        raise ConfigurationError(
            f"chain {chain.chain_id}: active sorts target {sorted(targets)}"
            f" — the WRITE_C organization assumes one block of {output}"
        )
    _, lo, hi = targets.pop()
    # list comprehensions, not generators: one call each, not one per GEMM
    a_owner = [
        distributions[g.a.tensor.name].last_segment_owner(g.a.lo, g.a.hi)
        for g in chain.gemms
    ]
    b_owner = [
        distributions[g.b.tensor.name].last_segment_owner(g.b.lo, g.b.hi)
        for g in chain.gemms
    ]
    height = variant.segment_height
    return ChainMeta(
        node=chain.chain_id % n_nodes,
        a_owner=tuple(a_owner),
        b_owner=tuple(b_owner),
        seg_len=len(a_owner) if height is None else min(height, len(a_owner)),
        write_segs=tuple(distributions[output].segments(lo, hi)),
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
    was already performed, and the metadata carries the cache on to the
    PTG's task template. The tensor names the chains use resolve to this
    run's arrays through the cluster's GA runtime, fresh per run.
    """
    if not subroutine.chains:
        raise ConfigurationError(f"subroutine {subroutine.name} has no chains")
    if cache is None:  # not `or`: an empty cache is falsy
        chains = InspectionCache().chains_for(subroutine, cluster, variant)
    else:
        chains = cache.chains_for(subroutine, cluster, variant)
    ga = cluster.ga
    return Metadata(
        subroutine,
        chains,
        variant,
        cluster.n_nodes,
        arrays={
            tensor.name: ga.lookup(tensor.name)
            for tensor in (subroutine.output, *subroutine.inputs)
        },
        cache=cache,
    )
