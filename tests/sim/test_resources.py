"""Unit tests for stores, resources, and token pools."""

import pytest

from repro.sim import Engine, PriorityStore, Resource, SimulationError, Store, TokenPool


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------


def test_store_put_then_get():
    eng = Engine()
    store = Store(eng)
    got = []

    def consumer():
        item = yield store.get()
        got.append(item)

    eng.process(consumer())
    store.put("msg")
    eng.run()
    assert got == ["msg"]


def test_store_get_blocks_until_put():
    eng = Engine()
    store = Store(eng)
    got = []

    def consumer():
        item = yield store.get()
        got.append((eng.now, item))

    def producer():
        yield eng.timeout(5.0)
        store.put("late")

    eng.process(consumer())
    eng.process(producer())
    eng.run()
    assert got == [(5.0, "late")]


def test_store_fifo_order():
    eng = Engine()
    store = Store(eng)
    for i in range(5):
        store.put(i)
    got = []

    def consumer():
        for _ in range(5):
            got.append((yield store.get()))

    eng.process(consumer())
    eng.run()
    assert got == [0, 1, 2, 3, 4]


def test_store_getters_served_in_arrival_order():
    eng = Engine()
    store = Store(eng)
    got = []

    def consumer(tag):
        item = yield store.get()
        got.append((tag, item))

    eng.process(consumer("first"))
    eng.process(consumer("second"))

    def producer():
        yield eng.timeout(1.0)
        store.put("a")
        store.put("b")

    eng.process(producer())
    eng.run()
    assert got == [("first", "a"), ("second", "b")]


def test_store_none_item_roundtrip():
    eng = Engine()
    store = Store(eng)
    store.put(None)
    got = []

    def consumer():
        got.append((yield store.get()))

    eng.process(consumer())
    eng.run()
    assert got == [None]


def test_store_len():
    eng = Engine()
    store = Store(eng)
    store.put(1)
    store.put(2)
    assert len(store) == 2


# ---------------------------------------------------------------------------
# PriorityStore
# ---------------------------------------------------------------------------


def test_priority_store_orders_by_priority():
    eng = Engine()
    store = PriorityStore(eng, priority=lambda item: item[0])
    store.put((5, "low"))
    store.put((1, "high"))
    store.put((3, "mid"))
    got = []

    def consumer():
        for _ in range(3):
            got.append((yield store.get())[1])

    eng.process(consumer())
    eng.run()
    assert got == ["high", "mid", "low"]


def test_priority_store_fifo_among_equal():
    eng = Engine()
    store = PriorityStore(eng, priority=lambda item: 0)
    for label in "abc":
        store.put(label)
    got = []

    def consumer():
        for _ in range(3):
            got.append((yield store.get()))

    eng.process(consumer())
    eng.run()
    assert got == ["a", "b", "c"]


# ---------------------------------------------------------------------------
# Resource
# ---------------------------------------------------------------------------


def test_resource_grants_up_to_capacity():
    eng = Engine()
    res = Resource(eng, capacity=2)
    r1, r2, r3 = res.request(), res.request(), res.request()
    eng.run()
    assert r1.processed and r2.processed and not r3.triggered
    assert res.in_use == 2 and len(res._waiters) == 1


def test_resource_release_grants_waiter():
    eng = Engine()
    res = Resource(eng, capacity=1)
    order = []

    def user(tag, hold):
        req = res.request()
        yield req
        order.append((tag, "acq", eng.now))
        yield eng.timeout(hold)
        res.release(req)
        order.append((tag, "rel", eng.now))

    eng.process(user("a", 2.0))
    eng.process(user("b", 1.0))
    eng.run()
    assert order == [("a", "acq", 0.0), ("a", "rel", 2.0), ("b", "acq", 2.0), ("b", "rel", 3.0)]


def test_resource_priority_order():
    eng = Engine()
    res = Resource(eng, capacity=1)
    order = []

    def user(tag, prio):
        req = res.request(priority=prio)
        yield req
        order.append(tag)
        yield eng.timeout(1.0)
        res.release(req)

    def setup():
        hold = res.request()
        yield hold
        eng.process(user("low", 10))
        eng.process(user("high", 0))
        yield eng.timeout(1.0)
        res.release(hold)

    eng.process(setup())
    eng.run()
    assert order == ["high", "low"]


def test_resource_multi_unit_request_all_or_nothing():
    eng = Engine()
    res = Resource(eng, capacity=3)
    r_big = res.request(amount=3)
    eng.run()
    assert r_big.processed
    r_small = res.request(amount=1)
    eng.run()
    assert not r_small.triggered
    res.release(r_big)
    eng.run()
    assert r_small.processed


def test_resource_invalid_amount():
    res = Resource(Engine(), capacity=2)
    with pytest.raises(ValueError):
        res.request(amount=3)
    with pytest.raises(ValueError):
        res.request(amount=0)


def test_resource_release_unheld_raises():
    eng = Engine()
    res = Resource(eng, capacity=1)
    granted = res.request()
    eng.run()
    res.release(granted)
    with pytest.raises(SimulationError):
        res.release(granted)


# ---------------------------------------------------------------------------
# TokenPool
# ---------------------------------------------------------------------------


def test_token_pool_acquire_release():
    eng = Engine()
    pool = TokenPool(eng, capacity=4)
    a = pool.acquire(3)
    eng.run()
    assert a.processed and pool.level == 1
    b = pool.acquire(2)
    eng.run()
    assert not b.triggered
    pool.release(3)
    eng.run()
    assert b.processed and pool.level == 2


def test_token_pool_fifo_all_or_nothing():
    eng = Engine()
    pool = TokenPool(eng, capacity=4)
    hold = pool.acquire(4)
    first = pool.acquire(3)  # queued first, needs 3
    second = pool.acquire(1)  # queued second, needs 1
    eng.run()
    assert hold.processed and not first.triggered and not second.triggered
    pool.release(2)
    eng.run()
    # FIFO: first (needs 3) still blocks; second must wait behind it.
    assert not first.triggered and not second.triggered
    pool.release(1)
    eng.run()
    assert first.processed and not second.triggered  # first drained the pool
    pool.release(1)
    eng.run()
    assert second.processed


def test_token_pool_over_release_raises():
    eng = Engine()
    pool = TokenPool(eng, capacity=2)
    with pytest.raises(SimulationError):
        pool.release(1)


def test_token_pool_invalid_acquire():
    pool = TokenPool(Engine(), capacity=2)
    with pytest.raises(ValueError):
        pool.acquire(3)
    with pytest.raises(ValueError):
        pool.acquire(0)
