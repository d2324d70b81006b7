"""Oracle properties: the engine, the network and the fault decisions
against the code they replaced (``reference_models.py``).

Each rewrite is exact only if nothing can tell it from its predecessor,
so each is checked against it on random programs:

- the engine calls a resumed timer's continuation in place when its lane
  entry would have been the next thing run (``timeline.py``, "In-place
  rule"). Random process programs — delays from a tiny set, so ties are
  the norm, zero-delay spawns and joins, checkpoints, re-armed and
  cancelled timers, lane callbacks, a run cut at ``until`` — must leave
  the same execution trace, end at the same time and at the same
  position of the sequence counter as under the loop that always hopped
  through the lane, which also shed stale heads before every event; three
  fixed shapes pin what dropping a stale row only when popping it must
  get right, with ``peek()`` leaving a live head;
- a message is a callback chain, not a process over a generator. Random
  sends over 2-4 nodes, contending for the NICs under drop / delay / dup
  plans, must deliver at the same times in the same order, leave the
  same ``FaultReport``, NIC and registry counters, and the same sequence
  position;
- a crash abort is a process check, not a wrapper generator. Random task
  bodies — timeouts, checkpoints, succeeding and failing events, nested
  sub-generators, cleanup that yields, a swallowed kill, a commit point,
  a genuine exception, charges of CPU time and bytes — under a crash at
  a random instant must leave the same step trace, outcomes, end time,
  sequence position and bytes moved as under ``killable`` with each
  charge the generator helper it was;
- a fault draw hashes a cached seed prefix: random seeds and keys must
  derive the same seed as hashing the whole text;
- the bandwidth server charges and re-arms inline, with a lone-job path:
  random arrivals of random sizes, capped or not, must finish at the
  same times, leave the same busy time and the same sequence position;
- a mailbox is a callback-chain server, not a parked process. Random
  items from several senders — over the network under drop / delay /
  dup plans, or put locally — with random service times (zero
  included), memory charges against a competing transfer, several
  stages, and handlers that put more work into their own mailbox must
  be handled in the same order at the same instants, and leave the same
  end time, fault counters and memory-bandwidth totals; the sequence
  position differs by exactly the start-up step of each process the
  server replaced.

The steal index is checked against the full rescan at every request of
the steal and golden chaos suites instead (the ``steal_index_oracle``
fixture). CI's ``golden-digests`` job runs this file under the
``oracle-ci`` profile (``tests/sim/conftest.py``): derandomized, with a
fixed example count.
"""

from contextlib import ExitStack, contextmanager
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.registry import MetricsRegistry
from repro.sim.cost import MachineModel, OpCost
from repro.sim import faults
from repro.sim import network as network_module
from repro.sim.engine import Engine
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.network import Message, Network
from repro.sim.node import Node
from repro.sim.resources import BandwidthResource
from repro.sim.trace import TraceRecorder
from repro.util.errors import TaskKilled
from repro.util.rng import derive_seed
from tests.sim import reference_models
from tests.sim.reference_models import (
    ReferenceBandwidth,
    ReferenceEngine,
    killable,
    reference_derive_seed,
    reference_send,
    reference_server,
)

DELAYS = st.sampled_from([0.0, 0.5, 1.0])

LEAF_OPS = st.one_of(
    st.tuples(st.just("timeout"), DELAYS),
    st.tuples(st.just("timer"), DELAYS),
    st.tuples(st.just("checkpoint")),
    st.tuples(st.just("event"), DELAYS),
    st.tuples(st.just("cancel"), DELAYS),
    st.tuples(st.just("rearm"), DELAYS, DELAYS),
    st.tuples(st.just("call_soon")),
)


def run_program(engine_cls, roots, children, until):
    """Run root programs (which may spawn or join children) on a fresh
    ``engine_cls``; returns the trace, the end time and the next seq."""
    engine = engine_cls()
    trace = []

    def record(label):
        trace.append((engine.now, label))

    def body(pid, ops):
        own = engine.timeline.timer()
        for k, op in enumerate(ops):
            kind = op[0]
            record((pid, k, kind))
            if kind == "timeout":
                yield engine.timeout(op[1])
            elif kind == "timer":
                yield own.after(op[1])
            elif kind == "checkpoint":
                yield engine.checkpoint
            elif kind == "event":
                event = engine.event()
                engine.schedule(op[1], event.succeed, (pid, k))
                record((pid, k, (yield event)))
            elif kind == "cancel":
                engine.schedule(op[1], record, (pid, k, "cancelled")).cancel()
            elif kind == "rearm":
                timer = engine.schedule(op[1], record, (pid, k, "rearmed"))
                timer.cancel()
                timer.after(op[2])
            elif kind == "call_soon":
                engine.call_soon(record, (pid, k, "soon"))
            elif kind == "spawn":
                engine.process(body(f"{pid}.{k}", children[op[1]]))
            else:  # join
                child = engine.process(body(f"{pid}.{k}", children[op[1]]))
                record((pid, k, (yield child)))
        return pid

    for i, ops in enumerate(roots):
        engine.process(body(str(i), ops))
    if until is not None:
        engine.run(until=until)
        record("until")
    end = engine.run()
    return trace, end, next(engine._seq)


@settings(deadline=None)
@given(st.data())
def test_in_place_resume_matches_the_lane_hop_loop(data):
    children = data.draw(
        st.lists(st.lists(LEAF_OPS, max_size=5), min_size=1, max_size=3)
    )
    child = st.integers(0, len(children) - 1)
    root_ops = st.one_of(
        LEAF_OPS,
        st.tuples(st.just("spawn"), child),
        st.tuples(st.just("join"), child),
    )
    roots = data.draw(
        st.lists(st.lists(root_ops, max_size=6), min_size=1, max_size=4)
    )
    until = data.draw(st.sampled_from([None, 0.5, 1.0, 1.5]))
    live = run_program(Engine, roots, children, until)
    assert live == run_program(ReferenceEngine, roots, children, until)


# Three shapes the loop must get right now that it drops a stale row when
# popping it instead of shedding stale heads ahead of time. ``peek`` is
# the checked one: it must leave a live row at the head of the heap.
def _tie_with_cancelled_rows(engine, record, peek):
    """Cancelled rows at the instant of two resumed rows, one before
    them and one after them in sequence order."""
    before = engine.schedule(1.0, record, "before")

    def proc(name):
        yield engine.timeout(1.0)
        record((name, peek()))
        yield engine.timeout(0.0)
        record(name + "'")

    def arm_after(_):
        after = engine.schedule(1.0, record, "after")
        engine.schedule(0.5, after.cancel)

    engine.process(proc("a"))
    engine.process(proc("b"))
    engine.call_soon(arm_after)
    engine.schedule(0.5, before.cancel)
    return None


def _only_stale_rows_beyond_until(engine, record, peek):
    """A run cut at ``until`` with nothing but cancelled rows past it."""

    def proc():
        yield engine.timeout(0.5)
        record("ran")
        for delay in (0.5, 1.5):
            engine.schedule(delay, record, delay).cancel()

    engine.process(proc())
    return 0.75


def _burst_before_a_later_head(engine, record, peek):
    """A lane burst while the heap head lies strictly later; entries and
    zero-delay rows pushed mid-burst, and a cancelled head."""
    engine.schedule(1.0, record, "head")
    engine.schedule(0.5, record, "cancelled").cancel()

    def proc(name):
        record(name)
        engine.call_soon(record, name + ":soon")
        engine.schedule(0.0, record, name + ":row")
        yield engine.checkpoint
        record((name + ":resumed", peek()))
        yield engine.timeout(0.0)
        record(name + ":zero")

    for name in "abcd":
        engine.process(proc(name))
    return None


def run_shape(engine_cls, shape):
    """Run one shape on a fresh ``engine_cls``; returns the trace, the
    clock after a cut run, the end time, the final peek and the next seq."""
    engine = engine_cls()
    trace = []

    def record(label):
        trace.append((engine.now, label))

    def peek():
        time = engine.peek()
        heap = engine.timeline._heap
        assert not heap or heap[0][1] == heap[0][2].armed  # a live head
        return time

    until = shape(engine, record, peek)
    if until is not None:
        trace.append(("until", engine.run(until=until), engine.now, peek()))
    end = engine.run()
    return trace, end, peek(), next(engine._seq)


@pytest.mark.parametrize(
    "shape",
    [
        _tie_with_cancelled_rows,
        _only_stale_rows_beyond_until,
        _burst_before_a_later_head,
    ],
)
def test_pop_time_stale_drop_matches_the_shedding_loop(shape):
    live = run_shape(Engine, shape)
    assert live == run_shape(ReferenceEngine, shape)
    assert live[0]  # the shape ran


# ----------------------------------------------------------------------
# the network
# ----------------------------------------------------------------------
#: 10 B/s and 1 s of latency: wire times of 0, 0.5 and 1 s tie with the
#: send instants and with each other
MACHINE = MachineModel(
    gemm_gflops=1.0,
    mem_bw_bytes_per_s=100.0,
    nic_bw_bytes_per_s=10.0,
    net_latency_s=1.0,
)

#: a drawn plan comes with the recovery timings to run it under: delays
#: and timeouts that tie with the wire times, a cap the doubling reaches
#: and 1-3 retransmits (the production values are far from any tie)
PLANS = st.one_of(
    st.none(),
    st.tuples(
        st.builds(
            FaultPlan,
            master_seed=st.integers(0, 10_000),
            drop_prob=st.sampled_from([0.0, 0.3]),
            delay_prob=st.sampled_from([0.0, 0.3]),
            dup_prob=st.sampled_from([0.0, 0.3]),
        ),
        st.fixed_dictionaries(
            {
                "MSG_DELAY_S": st.sampled_from([0.5, 1.0]),
                "RETRANSMIT_TIMEOUT_S": st.sampled_from([0.5, 1.0]),
                "MAX_BACKOFF_S": st.just(4.0),
                "MAX_RETRANSMITS": st.integers(1, 3),
            }
        ),
    ),
)

#: the modules that read each recovery timing (module constants)
TIMING_READERS = {
    "MSG_DELAY_S": (network_module, reference_models),
    "RETRANSMIT_TIMEOUT_S": (faults,),
    "MAX_BACKOFF_S": (faults,),
    "MAX_RETRANSMITS": (faults,),
}


@contextmanager
def planned(drawn):
    """A drawn ``(plan, timings)`` as the plan, its timings patched in
    where the live code and the reference models read them."""
    if drawn is None:
        yield None
        return
    plan, timings = drawn
    with ExitStack() as stack:
        for name, value in timings.items():
            for module in TIMING_READERS[name]:
                stack.enter_context(mock.patch.object(module, name, value))
        yield plan


def run_sends(engine_cls, send, n_nodes, plan, sends):
    """Drive ``sends`` — ``(at, src, dst, size, how)`` — through ``send``
    on a fresh engine and network; returns everything observable."""
    engine = engine_cls()
    metrics = MetricsRegistry(clock=lambda: engine.now)
    network = Network(engine, MACHINE, metrics)
    trace = TraceRecorder()
    nodes = [Node(engine, i, MACHINE, cores=1, trace=trace) for i in range(n_nodes)]
    for node in nodes:
        network.register(node)
    if plan is not None:
        network.faults = FaultInjector(SimpleNamespace(n_nodes=n_nodes), plan)
    log = []

    def on_deliver(message):
        log.append(("callback", message.payload, message.seq, engine.now))

    def sender(k, at, src, dst, size, how):
        yield engine.timeout(at)
        tag = f"t{k % 3}"
        if how == "callback":
            send(network, src, dst, size, k, tag=tag, on_deliver=on_deliver)
            return
        transfer = send(network, src, dst, size, k, inbox="in", tag=tag)
        if how == "wait":
            message = yield transfer
            log.append(("confirmed", k, message.seq, engine.now))

    def receive(message):
        log.append(("inbox", message.payload, message.dst, engine.now))

    for node in nodes:
        node.serve("in", lambda message: (0.0, 0.0), receive)
    for k, spec in enumerate(sends):
        engine.process(sender(k, *spec))
    end = engine.run()
    report = network.faults.report if plan is not None else None
    nics = [
        (channel.total_acquisitions, channel.total_wait_time, channel.in_use)
        for node in nodes
        for channel in (node.nic.tx, node.nic.rx)
    ]
    return (
        log,
        end,
        next(engine._seq),
        next(network._seq),
        report,
        network.dup_bytes,
        nics,
        metrics.snapshot(),
    )


@settings(deadline=None)
@given(st.data())
def test_callback_chain_matches_the_transfer_process(data):
    n_nodes = data.draw(st.integers(2, 4))
    node = st.integers(0, n_nodes - 1)
    sends = data.draw(
        st.lists(
            st.tuples(
                DELAYS,
                node,
                node,
                st.sampled_from([0.0, 5.0, 10.0]),
                st.sampled_from(["inbox", "callback", "wait"]),
            ),
            min_size=1,
            max_size=12,
        )
    )
    with planned(data.draw(PLANS)) as plan:
        live = run_sends(Engine, Network.send, n_nodes, plan, sends)
        reference = run_sends(ReferenceEngine, reference_send, n_nodes, plan, sends)
    assert live == reference


# ----------------------------------------------------------------------
# crash aborts
# ----------------------------------------------------------------------
class Boom(Exception):
    """What a failing event carries; bodies catch it and go on."""


BODY_OPS = st.one_of(
    st.tuples(st.just("timeout"), DELAYS),
    st.tuples(st.just("checkpoint")),
    st.tuples(st.just("event"), DELAYS),
    st.tuples(st.just("fail"), DELAYS),
    st.tuples(st.just("nested"), DELAYS, DELAYS),
    st.tuples(st.just("cleanup"), DELAYS, DELAYS),
    st.tuples(st.just("swallow"), DELAYS),
    st.tuples(st.just("commit")),
    st.tuples(st.just("raise")),
    st.tuples(st.just("charge"), DELAYS, st.sampled_from([0.0, 50.0])),
)


def _waitable_charge(node, cost):
    yield node.charge(cost)


def _generator_charge(node, cost):
    """The generator helper a charge was before it became one waitable."""
    if cost.cpu > 0:
        yield node.engine.timeout(cost.cpu)
    if cost.bytes > 0:
        yield node.membw.transfer(cost.bytes)


def run_bodies(mechanism, bodies, crash_at, committable, charge):
    """Run each ``(start, ops)`` body in its own process under the abort
    predicate, through ``mechanism``, charging through ``charge``;
    returns the trace, the end time, the next seq and the bytes the
    charges moved."""
    engine = Engine()
    node = Node(engine, 0, MACHINE, cores=1, trace=TraceRecorder())
    trace = []
    dead = [False]
    if crash_at is not None:
        engine.schedule(crash_at, dead.__setitem__, 0, True)

    def record(*label):
        trace.append((engine.now, *label))

    def inner(pid, k, first, second):
        yield engine.timeout(first)
        record(pid, k, "inner")
        yield engine.timeout(second)

    def body(pid, ops, committed):
        for k, op in enumerate(ops):
            kind = op[0]
            record(pid, k, kind)
            try:
                if kind == "timeout":
                    yield engine.timeout(op[1])
                elif kind == "checkpoint":
                    yield engine.checkpoint
                elif kind == "event":
                    event = engine.event()
                    engine.schedule(op[1], event.succeed, (pid, k))
                    record(pid, k, (yield event))
                elif kind == "fail":
                    event = engine.event()
                    engine.schedule(op[1], event.fail, Boom(pid, k))
                    yield event
                elif kind == "nested":
                    yield from inner(pid, k, op[1], op[2])
                elif kind == "cleanup":
                    try:
                        yield engine.timeout(op[1])
                    finally:
                        yield engine.timeout(op[2])
                        record(pid, k, "cleaned")
                elif kind == "swallow":
                    try:
                        yield engine.timeout(op[1])
                    except TaskKilled:
                        record(pid, k, "swallowed")
                elif kind == "commit":
                    committed[0] = True
                elif kind == "charge":
                    yield from charge(node, OpCost(op[1], op[2]))
                else:  # raise
                    raise ValueError(pid, k)
            except Boom as exc:
                record(pid, k, "boom", exc.args)
        return pid

    def driver(box, pid, start, ops):
        yield engine.timeout(start)
        committed = [False]
        if committable:
            abort = lambda: dead[0] and not committed[0]
        else:
            abort = lambda: dead[0]
        try:
            outcome = yield from mechanism(box[0], body(pid, ops, committed), abort)
        except ValueError as exc:
            outcome = ("raised", exc.args)
        record(pid, "outcome", outcome)
        # steps after the body are never checked
        yield engine.timeout(0.5)
        record(pid, "after")

    for pid, (start, ops) in enumerate(bodies):
        box = []
        box.append(engine.process(driver(box, pid, start, ops)))
    end = engine.run()
    return trace, end, next(engine._seq), node.membw.total_work


def _abortable(process, body, abort):
    return process.abortable(body, abort)


def _killable(_process, body, abort):
    return killable(body, abort)


@settings(deadline=None)
@given(
    st.lists(
        st.tuples(DELAYS, st.lists(BODY_OPS, max_size=6)), min_size=1, max_size=3
    ),
    st.sampled_from([None, 0.0, 0.25, 0.5, 1.0, 1.5, 2.5]),
    st.booleans(),
)
def test_abort_rule_matches_killable(bodies, crash_at, committable):
    live = run_bodies(_abortable, bodies, crash_at, committable, _waitable_charge)
    assert live == run_bodies(
        _killable, bodies, crash_at, committable, _generator_charge
    )


# ----------------------------------------------------------------------
# fault draws
# ----------------------------------------------------------------------
@settings(deadline=None)
@given(st.integers(0, 2**70), st.text(max_size=40), st.text(max_size=40))
def test_cached_seed_prefix_matches_the_full_hash(seed, first, second):
    for purpose in (first, second, first):  # a cold, then warm prefix
        assert derive_seed(seed, purpose) == reference_derive_seed(seed, purpose)


def test_seeds_that_share_a_dict_key_keep_their_own_text():
    for seed in (1, True, 1.0, 1, True):
        assert derive_seed(seed, "k") == reference_derive_seed(seed, "k")


# ----------------------------------------------------------------------
# memory bandwidth
# ----------------------------------------------------------------------
def run_transfers(server_cls, capacity, per_job_cap, arrivals):
    """Drive ``(at, amount)`` arrivals through one bandwidth server;
    returns completion log, end time, next seq and the statistics."""
    engine = Engine()
    server = server_cls(engine, capacity, per_job_cap=per_job_cap)
    log = []

    def job(k, at, amount):
        yield engine.timeout(at)
        yield server.transfer(amount)
        log.append((k, engine.now))

    for k, (at, amount) in enumerate(arrivals):
        engine.process(job(k, at, amount))
    end = engine.run()
    return log, end, next(engine._seq), server.busy_time, server.total_work


@settings(deadline=None)
@given(
    st.sampled_from([1.0, 3.0, 7.0]),
    st.sampled_from([None, 0.5, 2.0, 100.0]),
    st.lists(
        st.tuples(
            st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 1e3]),
            # 1e-14 at t=1e3 and beyond: completion delays that underflow
            st.sampled_from([0.0, 0.1, 0.5, 1.0, 1.0 / 3.0, 2.0, 1e-14]),
        ),
        min_size=1,
        max_size=40,
    ),
)
def test_inlined_bandwidth_matches_the_helpers(capacity, per_job_cap, arrivals):
    live = run_transfers(BandwidthResource, capacity, per_job_cap, arrivals)
    assert live == run_transfers(ReferenceBandwidth, capacity, per_job_cap, arrivals)


# ----------------------------------------------------------------------
# mailbox servers
# ----------------------------------------------------------------------
class _Job:
    """One mailbox item: per stage a (seconds, bytes, echo) charge spec;
    an echo stage puts a one-stage follow-up into the same mailbox."""

    __slots__ = ("k", "stages", "stage")

    def __init__(self, k, stages):
        self.k = k
        self.stages = stages
        self.stage = 0


def _job(item):
    return item.payload if isinstance(item, Message) else item


def run_servers(open_server, plan, arrivals, competitors):
    """Drive ``arrivals`` — ``(at, src, mailbox, how, stages)`` — into two
    servers on node 0 of three, beside ``competitors`` — ``(at, bytes)``
    transfers through node 0's memory bandwidth; returns everything
    observable and the next sequence number."""
    engine = Engine()
    network = Network(engine, MACHINE)
    trace = TraceRecorder()
    nodes = [Node(engine, i, MACHINE, cores=1, trace=trace) for i in range(3)]
    for node in nodes:
        network.register(node)
    if plan is not None:
        network.faults = FaultInjector(SimpleNamespace(n_nodes=3), plan)
    home = nodes[0]
    log = []

    def service(item):
        job = _job(item)
        return job.stages[job.stage][:2]

    def handler(name):
        def handle(item):
            job = _job(item)
            log.append((name, job.k, job.stage, engine.now))
            echo = job.stages[job.stage][2]
            job.stage += 1
            if echo:
                home.inbox(name).put(_Job(("echo", job.k), [(0.5, 0.0, False)]))
            return job.stage < len(job.stages)

        return handle

    for name in ("a", "b"):
        open_server(home, name, service, handler(name))

    def sender(k, at, src, name, how, stages):
        yield engine.timeout(at)
        job = _Job(k, stages)
        if how == "local":
            home.inbox(name).put(job)
        else:
            network.send(src, 0, 8.0, job, inbox=name, tag=f"t{k % 3}")

    def competitor(k, at, nbytes):
        yield engine.timeout(at)
        yield home.membw.transfer(nbytes)
        log.append(("membw", k, engine.now))

    for k, spec in enumerate(arrivals):
        engine.process(sender(k, *spec))
    for k, spec in enumerate(competitors):
        engine.process(competitor(k, *spec))
    end = engine.run()
    report = network.faults.report if plan is not None else None
    return (
        (log, end, report, home.membw.busy_time, home.membw.total_work),
        next(engine._seq),
    )


STAGES = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.5, 1.0]),
        st.sampled_from([0.0, 0.0, 50.0, 100.0]),
        st.booleans(),
    ),
    min_size=1,
    max_size=3,
)


@settings(deadline=None)
@given(
    PLANS,
    st.lists(
        st.tuples(
            DELAYS,
            st.integers(0, 2),
            st.sampled_from(["a", "b"]),
            st.sampled_from(["local", "net"]),
            STAGES,
        ),
        min_size=1,
        max_size=10,
    ),
    st.lists(st.tuples(DELAYS, st.sampled_from([50.0, 200.0])), max_size=3),
)
def test_callback_server_matches_the_service_loop(drawn, arrivals, competitors):
    with planned(drawn) as plan:
        live, live_seq = run_servers(Node.serve, plan, arrivals, competitors)
        reference, reference_seq = run_servers(
            reference_server, plan, arrivals, competitors
        )
    assert live == reference
    # each replaced process drew one start-up step, which only parked
    assert reference_seq == live_seq + 2
