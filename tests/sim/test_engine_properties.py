"""Property-based tests for the DES kernel itself."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Engine, PriorityStore, Resource, Store


@settings(max_examples=50, deadline=None)
@given(delays=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=40))
def test_property_time_is_monotone_and_ends_at_max(delays):
    eng = Engine()
    observed = []
    for d in delays:
        eng.timeout(d).add_callback(lambda e: observed.append(eng.now))
    eng.run()
    assert observed == sorted(observed)
    assert eng.now == max(delays)


@settings(max_examples=50, deadline=None)
@given(
    jobs=st.lists(
        st.tuples(st.floats(0.0, 5.0), st.floats(0.001, 2.0)),  # (arrival, hold)
        min_size=1,
        max_size=20,
    ),
    capacity=st.integers(1, 4),
)
def test_property_resource_conserves_capacity(jobs, capacity):
    eng = Engine()
    res = Resource(eng, capacity=capacity)
    max_in_use = [0]

    def user(arrival, hold):
        yield eng.timeout(arrival)
        req = res.request()
        yield req
        max_in_use[0] = max(max_in_use[0], res.in_use)
        assert res.in_use <= capacity
        yield eng.timeout(hold)
        res.release(req)

    for arrival, hold in jobs:
        eng.process(user(arrival, hold))
    eng.run()
    assert res.in_use == 0
    assert not res._waiters
    assert 1 <= max_in_use[0] <= capacity


@settings(max_examples=50, deadline=None)
@given(items=st.lists(st.integers(-1000, 1000), min_size=1, max_size=50))
def test_property_priority_store_is_a_total_sort(items):
    eng = Engine()
    store = PriorityStore(eng, priority=lambda x: x)
    for item in items:
        store.put(item)
    got = []

    def consumer():
        for _ in items:
            got.append((yield store.get()))

    eng.process(consumer())
    eng.run()
    assert got == sorted(items)


@settings(max_examples=50, deadline=None)
@given(
    n_items=st.integers(1, 30),
    n_consumers=st.integers(1, 5),
)
def test_property_store_items_consumed_exactly_once(n_items, n_consumers):
    eng = Engine()
    store = Store(eng)
    got = []

    def consumer():
        while True:
            got.append((yield store.get()))

    for _ in range(n_consumers):
        eng.process(consumer())
    for i in range(n_items):
        store.put(i)
    eng.run()
    assert sorted(got) == list(range(n_items))


@settings(max_examples=30, deadline=None)
@given(
    seed_delays=st.lists(st.floats(0.001, 10.0), min_size=2, max_size=15),
)
def test_property_runs_are_bit_deterministic(seed_delays):
    def simulate():
        eng = Engine()
        log = []

        def proc(i, d):
            yield eng.timeout(d)
            log.append((i, eng.now))
            yield eng.timeout(d / 2)
            log.append((i, eng.now))

        for i, d in enumerate(seed_delays):
            eng.process(proc(i, d))
        eng.run()
        return log, eng.now

    assert simulate() == simulate()
