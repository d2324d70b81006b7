"""What a read hands out is a read-only snapshot (``repro.ga.array``).

A read returns a ``writeable=False`` view of the owner segment; the
array's next write to that segment goes to a private copy first, so the
view keeps the bytes a copy taken at read time would have had. The model
here *does* copy on every read.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core import api, dtd_port, ptg_build
from repro.core.inspector import InspectionCache
from repro.experiments.chaos import default_plan
from repro.ga.distribution import Segment
from repro.ga.runtime import GlobalArrays
from repro.legacy import chain_exec
from repro.parsec.stealing import StealPolicy
from repro.sim.cluster import Cluster, ClusterConfig

N_NODES = 3
TOTAL = 30  # 10 elements per owner


def make_array(n_nodes=N_NODES, total=TOTAL):
    cluster = Cluster(ClusterConfig(n_nodes=n_nodes))
    ga = GlobalArrays(cluster)
    return cluster, ga, ga.create("t", total)


# ----------------------------------------------------------------------
# the model: a flat array that copies on every read
# ----------------------------------------------------------------------
class CopyingModel:
    def __init__(self, distribution, ordered):
        self.distribution = distribution
        self.ordered = ordered
        self.values = np.zeros(distribution.total)
        self.pending = {}
        #: per owner: read since its segment was last copied (or created)?
        self.shared = [False] * distribution.n_nodes
        self.copies = 0

    def _write(self, lo, hi):
        """The owners a write to ``[lo, hi)`` touches each pay one copy
        if — and only if — a snapshot of them is out."""
        for segment in self.distribution.segments(lo, hi):
            if self.shared[segment.node]:
                self.shared[segment.node] = False
                self.copies += 1

    def flush(self):
        for key in sorted(self.pending):
            _, lo, hi = key
            self._write(lo, hi)
            self.values[lo:hi] += self.pending[key]
        self.pending.clear()

    def read(self, lo, hi):
        self.flush()
        for segment in self.distribution.segments(lo, hi):
            self.shared[segment.node] = True
        return self.values[lo:hi].copy()

    def accumulate(self, lo, hi, data, tag):
        if self.ordered and tag is not None:
            self.pending[(repr(tag), lo, hi)] = data.copy()
            return
        self._write(lo, hi)
        self.values[lo:hi] += data

    def overwrite(self, values):
        self._write(0, self.distribution.total)
        self.values[:] = values


# ----------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------
@st.composite
def ranges(draw):
    """A non-empty ``[lo, hi)`` over one, two or three owners."""
    lo = draw(st.integers(0, TOTAL - 1))
    hi = draw(st.integers(lo + 1, TOTAL))
    return lo, hi


@st.composite
def owner_segments(draw):
    """A non-empty range inside one owner's segment."""
    node = draw(st.integers(0, N_NODES - 1))
    per_node = TOTAL // N_NODES
    lo = draw(st.integers(0, per_node - 1))
    hi = draw(st.integers(lo + 1, per_node))
    return Segment(node, node * per_node + lo, node * per_node + hi)


tags = st.one_of(st.none(), st.tuples(st.integers(0, 1), st.integers(0, 3)))
seeds = st.integers(0, 2**16)

operations = st.one_of(
    st.tuples(st.just("read_range"), ranges()),
    st.tuples(st.just("read_segment"), owner_segments()),
    st.tuples(st.just("accumulate_range"), ranges(), tags, seeds),
    st.tuples(st.just("accumulate_segment"), owner_segments(), tags, seeds),
    st.tuples(st.just("flush")),
    st.tuples(st.just("scatter"), seeds),
    st.tuples(st.just("zero")),
)


def data_for(seed, size):
    return np.random.default_rng(seed).standard_normal(size)


class TestSnapshotsAgainstACopyingModel:
    @settings(max_examples=200, deadline=None)
    @given(ordered=st.booleans(), script=st.lists(operations, max_size=40))
    def test_random_interleavings(self, ordered, script):
        _, _, array = make_array()
        model = CopyingModel(array.distribution, ordered)
        if ordered:
            array.enable_ordered_accumulation()
        handed_out = []  # (snapshot, the model's copy at that time)
        for op, *args in script:
            if op == "read_range":
                (lo, hi), = args
                handed_out.append((array.read_range_direct(lo, hi), model.read(lo, hi)))
            elif op == "read_segment":
                (segment,) = args
                handed_out.append(
                    (array.read_segment(segment), model.read(segment.lo, segment.hi))
                )
            elif op == "accumulate_range":
                (lo, hi), tag, seed = args
                data = data_for(seed, hi - lo)
                array.accumulate_range_direct(lo, hi, data, tag=tag)
                model.accumulate(lo, hi, data, tag)
            elif op == "accumulate_segment":
                segment, tag, seed = args
                data = data_for(seed, segment.size)
                # the GA owner handler's write: a range on one owner
                array.accumulate_range_direct(segment.lo, segment.hi, data, tag=tag)
                model.accumulate(segment.lo, segment.hi, data, tag)
            elif op == "flush":
                array.flush_accumulations()
                model.flush()
            elif op == "scatter":
                values = data_for(args[0], TOTAL)
                array.scatter(values)
                model.overwrite(values)
            else:
                array.zero()
                model.overwrite(0.0)
            if op.startswith("read"):
                # every later read sees the writes
                snapshot, copy = handed_out[-1]
                assert not snapshot.flags.writeable
                np.testing.assert_array_equal(snapshot, copy)
            # one copy per shared owner written, none otherwise: a segment
            # is copied at most once between two reads of it
            assert array.segment_copies == model.copies
        # every snapshot ever handed out still holds its read-time bytes
        for snapshot, copy in handed_out:
            np.testing.assert_array_equal(snapshot, copy)
        np.testing.assert_array_equal(array.gather(), model.read(0, TOTAL))


class TestCopyOnWrite:
    def test_an_in_flight_view_keeps_its_bytes(self):
        _, _, array = make_array()
        array.scatter(np.arange(TOTAL, dtype=float))
        view = array.read_range_direct(2, 8)  # inside owner 0
        assert view.base is not None and not view.flags.writeable
        assert array.segment_copies == 0
        array.accumulate_range_direct(0, TOTAL, np.ones(TOTAL))
        np.testing.assert_array_equal(view, np.arange(2, 8, dtype=float))
        np.testing.assert_array_equal(
            array.read_range_direct(2, 8), np.arange(3, 9, dtype=float)
        )
        # only the owner whose segment was shared paid a copy
        assert array.segment_copies == 1

    def test_writes_without_a_reader_copy_nothing(self):
        _, _, array = make_array()
        for _ in range(5):
            array.accumulate_range_direct(0, TOTAL, np.ones(TOTAL))
        array.scatter(np.zeros(TOTAL))
        array.zero()
        assert array.segment_copies == 0

    def test_a_straddling_range_is_one_fresh_read_only_array(self):
        _, _, array = make_array()
        array.scatter(np.arange(TOTAL, dtype=float))
        block = array.read_range_direct(5, 25)  # all three owners
        assert block.base is None and not block.flags.writeable
        np.testing.assert_array_equal(block, np.arange(5, 25, dtype=float))


# ----------------------------------------------------------------------
# a consumer that writes into a delivered payload fails loudly
# ----------------------------------------------------------------------
def scribble(payload):
    with pytest.raises(ValueError, match="read-only"):
        payload[...] = 0.0


class TestDeliveredPayloadsAreReadOnly:
    CONFIG = api.RunConfig(n_nodes=4, cores_per_node=2)

    def test_fetch_results(self):
        cluster, ga, array = make_array()
        array.scatter(np.arange(TOTAL, dtype=float))
        got = {}

        def driver():
            got["one"] = yield from ga.fetch(2, array, 2, 8)
            got["three"] = yield from ga.fetch(2, array, 5, 25)

        cluster.engine.process(driver())
        cluster.run()
        for block in got.values():
            scribble(block)
        np.testing.assert_array_equal(array.gather(), np.arange(TOTAL, dtype=float))

    def test_ptg_read_tasks(self, monkeypatch):
        gemm_run, seen = ptg_build._gemm_run, []

        def scribbling(ctx):
            scribble(ctx.inputs["A"])
            scribble(ctx.inputs["B"])
            seen.append(ctx.params)
            yield from gemm_run(ctx)

        monkeypatch.setattr(ptg_build, "_gemm_run", scribbling)
        result = repro.run("t2_7:tiny", runtime="v5", config=self.CONFIG)
        assert len(seen) == result.tasks_per_class["GEMM"] > 0

    def test_dtd_read_tasks(self, monkeypatch):
        gemm_body, seen = dtd_port.GEMM.body, []

        def scribbling(ctx):
            a, b, _ = ctx.values
            scribble(a)
            scribble(b)
            seen.append(ctx.params)
            yield from gemm_body(ctx)

        monkeypatch.setattr(dtd_port.GEMM, "body", scribbling)
        repro.run("t2_7:tiny", runtime="dtd", config=self.CONFIG)
        assert seen

    def test_legacy_get_hash_block(self, monkeypatch):
        get_hash_block, seen = chain_exec.get_hash_block, []

        def scribbling(*args, **kwargs):
            block = yield from get_hash_block(*args, **kwargs)
            scribble(block)
            seen.append(block.size)
            return block

        monkeypatch.setattr(chain_exec, "get_hash_block", scribbling)
        repro.run("t2_7:tiny", runtime="legacy", config=self.CONFIG)
        assert seen


# ----------------------------------------------------------------------
# an input adopts its seeded draw: nothing a run does reaches the memo
# ----------------------------------------------------------------------
class TestAdoptedDraws:
    """A memoised build's inputs are views of the memo's read-only draw.
    Every mutator copies an adopted segment before its first write, so
    the draw, and with it the next build's inputs, keep their bytes."""

    NAME = "v:hppp"

    def build(self, memo, **knobs):
        config = api.RunConfig(
            n_nodes=4, cores_per_node=2, inspection_cache=memo, **knobs
        )
        return api.build("t2_7:tiny", config), config

    def owners(self, array, lo, hi):
        return len(array.distribution.segments(lo, hi))

    def test_every_mutator_copies_before_its_first_write(self):
        memo = InspectionCache()
        workload, _ = self.build(memo)
        total = workload.arrays[self.NAME].total
        draw = memo.draw(workload.seed, self.NAME, total)
        pristine = draw.copy()
        assert not draw.flags.writeable
        lo, hi = total // 5, total - total // 7  # a range over several owners

        def ordered(array):
            copies = array.segment_copies
            array.enable_ordered_accumulation()
            array.accumulate_range_direct(lo, hi, np.ones(hi - lo), tag=("x", 1))
            assert array.segment_copies == copies  # logged, not yet applied
            array.flush_accumulations()

        def through_ga_access(array):
            node_lo, node_hi = array.distribution.node_range(1)
            array.ga_access(1, node_lo, node_hi)[:] = 5.0

        mutators = [  # (mutation, owners it writes)
            (lambda a: a.scatter(np.ones(total)), 4),
            (lambda a: a.zero(), 4),
            (lambda a: a.accumulate_range_direct(0, total, np.ones(total)), 4),
            (lambda a: a.accumulate_range_direct(lo, hi, np.ones(hi - lo)), None),
            (ordered, None),
            (through_ga_access, 1),
        ]
        for mutate, owners in mutators:
            workload, _ = self.build(memo)
            array = workload.arrays[self.NAME]
            assert array._segments[0].base is draw and array.segment_copies == 0
            mutate(array)
            mutate(array)  # a second write to a private segment copies nothing
            expected = owners if owners is not None else self.owners(array, lo, hi)
            assert array.segment_copies == expected
            np.testing.assert_array_equal(draw, pristine)
        assert memo.misses["draw"] == 2  # v and t, drawn once for every build
        fresh, _ = self.build(memo)
        np.testing.assert_array_equal(fresh.arrays[self.NAME].gather(), pristine)

    def test_a_faulted_stealing_run_writes_no_input(self):
        memo = InspectionCache()
        workload, config = self.build(memo, stealing=StealPolicy())
        horizon = repro.run(workload, runtime="v5", config=config).execution_time
        inputs = [t for t in workload.structure.tensors if t.stream is not None]
        pristine = {t.name: memo.draw(7, t.name, t.total).copy() for t in inputs}
        workload, _ = self.build(memo, stealing=StealPolicy())
        workload.output.array.enable_ordered_accumulation()
        workload.cluster.install_faults(default_plan(11, horizon, 4))
        repro.run(workload, runtime="v5", config=config)
        report = workload.cluster.faults.report
        assert report.nodes_crashed == 1 and report.retransmits > 0
        for tensor in inputs:
            assert workload.arrays[tensor.name].segment_copies == 0
            np.testing.assert_array_equal(
                memo.draw(7, tensor.name, tensor.total), pristine[tensor.name]
            )
        fresh, _ = self.build(memo)
        for tensor in inputs:
            np.testing.assert_array_equal(
                fresh.arrays[tensor.name].gather(), pristine[tensor.name]
            )
