"""Oracle properties: the engine and the network against the code they
replaced (``reference_models.py``).

Two rewrites are exact only if nothing can tell them from their
predecessors, so both are checked against them on random programs:

- the engine calls a resumed timer's continuation in place when its lane
  entry would have been the next thing run (``timeline.py``, "In-place
  rule"). Random process programs — delays from a tiny set, so ties are
  the norm, zero-delay spawns and joins, checkpoints, re-armed and
  cancelled timers, lane callbacks, a run cut at ``until`` — must leave
  the same execution trace, end at the same time and at the same
  position of the sequence counter as under the loop that always hopped
  through the lane;
- a message is a callback chain, not a process over a generator. Random
  sends over 2-4 nodes, contending for the NICs under drop / delay / dup
  plans, must deliver at the same times in the same order, leave the
  same ``FaultReport``, NIC and registry counters, and the same sequence
  position.

CI's ``golden-digests`` job runs both under the ``oracle-ci`` profile
(``tests/sim/conftest.py``): derandomized, with a fixed example count.
"""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.registry import MetricsRegistry
from repro.sim.cost import MachineModel
from repro.sim.engine import Engine
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.trace import TraceRecorder
from tests.sim.reference_models import ReferenceEngine, reference_send

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

PLANS = st.one_of(
    st.none(),
    st.builds(
        FaultPlan,
        master_seed=st.integers(0, 10_000),
        drop_prob=st.sampled_from([0.0, 0.3]),
        delay_prob=st.sampled_from([0.0, 0.3]),
        dup_prob=st.sampled_from([0.0, 0.3]),
        msg_delay_s=st.sampled_from([0.5, 1.0]),
        retransmit_timeout_s=st.sampled_from([0.5, 1.0]),
        max_backoff_s=st.just(4.0),
        max_retransmits=st.integers(1, 3),
    ),
)


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

    def receiver(node):
        inbox = node.inbox("in")
        while True:
            message = yield inbox.get()
            log.append(("inbox", message.payload, message.dst, engine.now))

    for node in nodes:
        engine.process(receiver(node))
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
    plan = data.draw(PLANS)
    live = run_sends(Engine, Network.send, n_nodes, plan, sends)
    assert live == run_sends(ReferenceEngine, reference_send, n_nodes, plan, sends)
