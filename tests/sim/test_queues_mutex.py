"""Unit tests for the Store/LifoStore/RankStore mailboxes, the SimMutex
model, and the waiter protocol every blocking primitive shares."""

import pytest

from repro.ga.sync import Barrier
from repro.sim.engine import Engine
from repro.sim.mutex import SimMutex
from repro.sim.queues import LifoStore, RankStore, Store
from repro.sim.resources import Resource


@pytest.fixture
def engine():
    return Engine()


class TestStore:
    def test_put_then_get_fifo(self, engine):
        store = Store(engine)
        store.put("a")
        store.put("b")
        got = []

        def worker():
            got.append((yield store.get()))
            got.append((yield store.get()))

        engine.process(worker())
        engine.run()
        assert got == ["a", "b"]

    def test_get_blocks_until_put(self, engine):
        store = Store(engine)
        got = []

        def consumer():
            got.append(((yield store.get()), engine.now))

        def producer():
            yield engine.timeout(3.0)
            store.put("late")

        engine.process(consumer())
        engine.process(producer())
        engine.run()
        assert got == [("late", 3.0)]

    def test_multiple_getters_served_fifo(self, engine):
        store = Store(engine)
        got = []

        def consumer(tag):
            item = yield store.get()
            got.append((tag, item))

        engine.process(consumer(0))
        engine.process(consumer(1))
        engine.schedule(1.0, store.put, "x")
        engine.schedule(2.0, store.put, "y")
        engine.run()
        assert got == [(0, "x"), (1, "y")]

    def test_try_get(self, engine):
        store = Store(engine)
        assert store.try_get() == (False, None)
        store.put(7)
        assert store.try_get() == (True, 7)
        assert len(store) == 0

    def test_len_counts_buffered(self, engine):
        store = Store(engine)
        store.put(1)
        store.put(2)
        assert len(store) == 2


class TestPriorityStore:
    """The priority discipline of a ready queue — highest priority
    first, FIFO on ties — as :class:`RankStore` keeps it: a priority is
    put as its rank among the distinct priorities (0 = the highest)."""

    def test_highest_priority_first(self, engine):
        store = RankStore(engine, span=3)
        priorities = {0: 1.0, 1: 10.0, 2: 5.0}  # item -> priority
        rank = {p: r for r, p in enumerate(sorted(priorities.values(), reverse=True))}
        for item, priority in priorities.items():
            store.put(item, rank[priority])
        got = []

        def worker():
            for _ in range(3):
                got.append((yield store.get()))

        engine.process(worker())
        engine.run()
        assert got == [1, 2, 0]

    def test_equal_priority_is_fifo(self, engine):
        store = RankStore(engine, span=4)
        for item in (2, 0, 3, 1):
            store.put(item, 3)
        got = []

        def worker():
            for _ in range(4):
                got.append((yield store.get()))

        engine.process(worker())
        engine.run()
        assert got == [2, 0, 3, 1]

    def test_blocking_get_wakes_on_put(self, engine):
        store = RankStore(engine, span=8)
        got = []

        def worker():
            got.append(((yield store.get()), engine.now))

        engine.process(worker())
        engine.schedule(2.0, store.put, 7, 0)
        engine.run()
        assert got == [(7, 2.0)]

    def test_peek_priority(self, engine):
        # the scheduler takes the best item, it never peeks at its
        # priority: the store keeps no accessor for it
        store = RankStore(engine, span=2)
        store.put(1, 4)
        with pytest.raises(AttributeError):
            store.peek_priority()

    def test_try_get_best(self, engine):
        store = RankStore(engine, span=2)
        store.put(0, 1)
        store.put(1, 0)
        assert store.try_get() == (True, 1)


class TestRankStore:
    def test_lowest_rank_first_fifo_on_ties(self, engine):
        store = RankStore(engine, span=10)
        for item, rank in ((4, 2), (7, 0), (1, 2), (9, 1), (0, 0)):
            store.put(item, rank)
        got = [store.try_get()[1] for _ in range(5)]
        assert got == [7, 0, 9, 4, 1]
        assert store.try_get() == (False, None)

    def test_blocking_get_wakes_on_put(self, engine):
        store = RankStore(engine, span=4)
        got = []

        def worker():
            got.append(((yield store.get()), engine.now))

        engine.process(worker())
        engine.schedule(2.0, store.put, 3, 5)
        engine.run()
        assert got == [(3, 2.0)]

    def test_a_queued_item_is_one_int(self, engine):
        store = RankStore(engine, span=40000)
        store.put(39999, 600)
        (entry,) = store._items
        assert type(entry) is int
        assert store.try_get() == (True, 39999)


class TestSimMutex:
    def test_mutual_exclusion(self, engine):
        mutex = SimMutex(engine)
        active = []
        max_active = []

        def worker():
            yield from mutex.lock()
            active.append(1)
            max_active.append(len(active))
            yield engine.timeout(1.0)
            active.pop()
            yield from mutex.unlock()

        for _ in range(4):
            engine.process(worker())
        engine.run()
        assert max(max_active) == 1
        assert mutex.total_locks == 4

    def test_lock_overhead_charged_per_operation(self, engine):
        mutex = SimMutex(engine, lock_overhead=0.5, unlock_overhead=0.25)
        times = []

        def worker():
            yield from mutex.lock()
            times.append(("locked", engine.now))
            yield from mutex.unlock()
            times.append(("unlocked", engine.now))

        engine.process(worker())
        engine.run()
        assert times == [("locked", 0.5), ("unlocked", 0.75)]

    def test_critical_section_helper(self, engine):
        mutex = SimMutex(engine)
        spans = []

        def worker(tag):
            start = engine.now
            yield from mutex.critical_section(2.0)
            spans.append((tag, start, engine.now))

        engine.process(worker("a"))
        engine.process(worker("b"))
        engine.run()
        assert spans == [("a", 0.0, 2.0), ("b", 0.0, 4.0)]

    def test_contended_wait_time_accumulates(self, engine):
        mutex = SimMutex(engine)

        def holder():
            yield from mutex.lock()
            yield engine.timeout(5.0)
            yield from mutex.unlock()

        def contender():
            yield engine.timeout(1.0)
            yield from mutex.lock()
            yield from mutex.unlock()

        engine.process(holder())
        engine.process(contender())
        engine.run()
        # the wait is the mutex resource's queueing time
        assert mutex._resource.total_wait_time == pytest.approx(4.0)

    def test_locked_flag(self, engine):
        mutex = SimMutex(engine)

        def worker():
            yield from mutex.lock()
            assert mutex.locked
            yield from mutex.unlock()

        engine.process(worker())
        engine.run()
        assert not mutex.locked


def _rank_store(engine):
    return RankStore(engine, span=8)


#: each store discipline, its priority one by that name; items are
#: small ints, which every store holds
STORES = pytest.mark.parametrize(
    "store_cls",
    [Store, LifoStore, _rank_store],
    ids=["Store", "LifoStore", "PriorityStore"],
)


class TestAbandonedGetters:
    """Dead consumers must not eat items (see engine.WaitQueue)."""

    @STORES
    def test_put_skips_abandoned_getter(self, engine, store_cls):
        store = store_cls(engine)
        corpse = store.get()  # a consumer that will die while parked
        corpse.abandon()
        got = []

        def live():
            item = yield store.get()
            got.append(item)

        engine.process(live())
        engine.run(until=0.0)  # park the live getter behind the corpse
        store.put(5)
        engine.run()
        assert got == [5]
        assert not corpse.triggered

    @STORES
    def test_abandon_getters_then_put_buffers_item(self, engine, store_cls):
        store = store_cls(engine)
        store.get()  # pending getter
        assert store.abandon_getters() == 1
        assert store.abandon_getters() == 0  # idempotent
        store.put(3)
        assert len(store) == 1
        ok, item = store.try_get()
        assert ok and item == 3

    def test_triggered_getter_not_double_served(self, engine):
        # a getter satisfied immediately (items available) never re-enters
        # the getter queue, so put() must simply buffer
        store = Store(engine)
        store.put(1)
        first = store.get()
        assert first.triggered and first.value == 1
        store.put(2)
        assert len(store) == 1


# ----------------------------------------------------------------------
# one waiter protocol: every primitive that parks callers
# ----------------------------------------------------------------------
# Each case builds a primitive in the state where the next caller must
# block, and returns (park, wake, kept): ``park()`` blocks one caller and
# returns its event, ``wake()`` makes one item/slot/release available,
# ``kept()`` says the item or slot is still there for a future caller.


def _store_case(cls):
    def make(engine):
        store = cls(engine)
        return store.get, lambda: store.put(1), lambda: len(store) == 1

    make.__name__ = cls.__name__
    return make


def _resource_case(engine):
    resource = Resource(engine)
    resource.acquire()  # the slot is taken: later acquirers park
    return resource.acquire, resource.release, lambda: resource.in_use == 0


def _mutex_case(engine):
    mutex = SimMutex(engine)
    next(mutex.lock())  # held: later lockers park on their first yield
    return (
        lambda: next(mutex.lock()),
        lambda: list(mutex.unlock()),
        lambda: not mutex.locked,
    )


def _barrier_case(engine):
    barrier = Barrier(engine, parties=3)

    def arrive():
        return next(barrier.arrive())

    # the third arrival releases the generation; nothing is "kept" but
    # the barrier must have cycled cleanly
    return arrive, arrive, lambda: barrier.generation == 1 and barrier.arrived == 0


WAITER_CASES = [
    _store_case(Store),
    _store_case(LifoStore),
    _store_case(_rank_store),
    _resource_case,
    _mutex_case,
    _barrier_case,
]
CASE_IDS = ["Store", "LifoStore", "PriorityStore", "Resource", "SimMutex", "Barrier"]


def _kill(event, how):
    if how == "abandoned":
        event.abandon()  # its process died while parked
    else:
        event.succeed("elsewhere")  # fired behind the queue's back


@pytest.mark.parametrize("how", ["abandoned", "triggered"])
@pytest.mark.parametrize("make", WAITER_CASES, ids=CASE_IDS)
class TestDeadWaiters:
    """An abandoned or already-triggered waiter is never woken, and the
    item or slot it would have swallowed is not lost."""

    def test_wake_skips_the_corpse_and_serves_the_next_live_waiter(
        self, engine, make, how
    ):
        park, wake, _ = make(engine)
        corpse, live = park(), park()
        _kill(corpse, how)
        wake()  # must neither raise "already triggered" nor feed the corpse
        assert live.triggered and live.ok
        if how == "abandoned":
            assert not corpse.triggered
        else:
            assert corpse.value == "elsewhere"

    def test_only_dead_waiters_means_nothing_is_lost(self, engine, make, how):
        park, wake, kept = make(engine)
        _kill(park(), how)
        _kill(park(), how)
        wake()
        assert kept()
