"""Unit tests for the DES kernel: events, processes, conditions, clock."""

import pytest

from repro.sim import (
    AllOf,
    Engine,
    EventAlreadyTriggered,
    ProcessCrashed,
    SimulationError,
)


def test_clock_starts_at_zero():
    assert Engine().now == 0.0


def test_clock_custom_start():
    assert Engine(start_time=5.0).now == 5.0


def test_timeout_advances_clock():
    eng = Engine()
    eng.timeout(3.5)
    eng.run()
    assert eng.now == 3.5


def test_negative_timeout_rejected():
    eng = Engine()
    with pytest.raises(ValueError):
        eng.timeout(-1.0)


def test_timeouts_fire_in_time_order():
    eng = Engine()
    fired = []
    for d in (5.0, 1.0, 3.0):
        eng.timeout(d).add_callback(lambda ev, d=d: fired.append(d))
    eng.run()
    assert fired == [1.0, 3.0, 5.0]


def test_equal_time_events_fire_in_schedule_order():
    eng = Engine()
    fired = []
    for i in range(10):
        eng.timeout(1.0).add_callback(lambda ev, i=i: fired.append(i))
    eng.run()
    assert fired == list(range(10))


def test_run_until_stops_clock_at_until():
    eng = Engine()
    eng.timeout(10.0)
    eng.run(until=4.0)
    assert eng.now == 4.0
    eng.run()
    assert eng.now == 10.0


def test_run_until_beyond_last_event_sets_clock():
    eng = Engine()
    eng.timeout(1.0)
    eng.run(until=100.0)
    assert eng.now == 100.0


def test_event_succeed_carries_value():
    eng = Engine()
    ev = eng.event()
    got = []
    ev.add_callback(lambda e: got.append(e.value))
    ev.succeed(42)
    eng.run()
    assert got == [42]


def test_event_double_succeed_raises():
    eng = Engine()
    ev = eng.event()
    ev.succeed()
    with pytest.raises(EventAlreadyTriggered):
        ev.succeed()


def test_event_fail_requires_exception():
    eng = Engine()
    with pytest.raises(TypeError):
        eng.event().fail("not an exception")  # type: ignore[arg-type]


def test_callback_on_processed_event_fires_immediately():
    eng = Engine()
    ev = eng.event()
    ev.succeed("x")
    eng.run()
    got = []
    ev.add_callback(lambda e: got.append(e.value))
    assert got == ["x"]


def test_process_returns_value():
    eng = Engine()

    def proc():
        yield eng.timeout(1.0)
        return "done"

    p = eng.process(proc())
    eng.run()
    assert p.ok and p.value == "done"


def test_process_receives_event_value():
    eng = Engine()
    results = []

    def proc():
        v = yield eng.timeout(1.0, value="hello")
        results.append(v)

    eng.process(proc())
    eng.run()
    assert results == ["hello"]


def test_process_waits_on_process():
    eng = Engine()
    order = []

    def child():
        yield eng.timeout(2.0)
        order.append("child")
        return 7

    def parent():
        v = yield eng.process(child())
        order.append(("parent", v))

    eng.process(parent())
    eng.run()
    assert order == ["child", ("parent", 7)]


def test_process_crash_propagates_from_run():
    eng = Engine()

    def bad():
        yield eng.timeout(1.0)
        raise RuntimeError("boom")

    eng.process(bad())
    with pytest.raises(ProcessCrashed) as ei:
        eng.run()
    assert isinstance(ei.value.__cause__, RuntimeError)


def test_waiting_process_receives_child_exception():
    eng = Engine()
    caught = []

    def bad():
        yield eng.timeout(1.0)
        raise ValueError("inner")

    def parent():
        try:
            yield eng.process(bad())
        except ValueError as exc:
            caught.append(str(exc))

    eng.process(parent())
    eng.run()
    assert caught == ["inner"]


def test_yield_non_event_crashes_process():
    eng = Engine()

    def bad():
        yield "not an event"  # type: ignore[misc]

    eng.process(bad())
    with pytest.raises(ProcessCrashed):
        eng.run()


def test_yield_bare_number_pauses():
    # `yield delay` makes the push `eng.after(delay, fn)` makes: a pooled
    # delay, resume value None, ints and floats both accepted.
    eng = Engine()
    log = []

    def proc():
        got = yield 1.5
        log.append((eng.now, got))
        got = yield 2
        log.append((eng.now, got))

    eng.process(proc())
    eng.run()
    assert log == [(1.5, None), (3.5, None)]


def test_yield_negative_number_crashes_process():
    eng = Engine()

    def bad():
        yield -0.1

    eng.process(bad())
    with pytest.raises(ProcessCrashed):
        eng.run()


def test_process_requires_generator():
    eng = Engine()
    with pytest.raises(TypeError):
        eng.process(lambda: None)  # type: ignore[arg-type]


def test_all_of_waits_for_every_event():
    eng = Engine()
    done = []

    def proc():
        vals = yield eng.all_of([eng.timeout(1.0, value="a"), eng.timeout(3.0, value="b")])
        done.append((eng.now, vals))

    eng.process(proc())
    eng.run()
    assert done == [(3.0, None)]  # joins carry no value


def test_all_of_empty_triggers_immediately():
    eng = Engine()
    ev = eng.all_of([])
    assert ev.triggered


def test_all_of_fails_if_child_fails():
    eng = Engine()
    caught = []

    def bad():
        yield eng.timeout(1.0)
        raise RuntimeError("child died")

    def parent():
        try:
            yield eng.all_of([eng.process(bad()), eng.timeout(10.0)])
        except RuntimeError as exc:
            caught.append((eng.now, str(exc)))

    eng.process(parent())
    eng.run()
    assert caught == [(1.0, "child died")]


def test_mixing_engines_rejected():
    a, b = Engine(), Engine()
    with pytest.raises(SimulationError):
        AllOf(a, [b.event()])


def test_run_until_complete_returns_values():
    eng = Engine()

    def proc(d):
        yield eng.timeout(d)
        return d * 10

    p1, p2 = eng.process(proc(1.0)), eng.process(proc(2.0))
    vals = eng.run_until_complete(p1, p2)
    assert vals == [10.0, 20.0]
    assert eng.now == 2.0


def test_run_until_complete_detects_deadlock():
    eng = Engine()
    never = eng.event()
    with pytest.raises(SimulationError, match="deadlock"):
        eng.run_until_complete(never)


def test_run_until_complete_raises_on_crash():
    eng = Engine()

    def bad():
        yield eng.timeout(1.0)
        raise KeyError("x")

    with pytest.raises(ProcessCrashed):
        eng.run_until_complete(eng.process(bad()))


def test_run_until_complete_raises_on_unwatched_crash():
    """A crash nobody waits on ends ``run_until_complete`` exactly as it
    ends ``run``, even when the awaited events would still succeed."""
    eng = Engine()

    def bad():
        yield eng.timeout(1.0)
        raise KeyError("x")

    eng.process(bad(), name="bad")
    with pytest.raises(ProcessCrashed, match="bad"):
        eng.run_until_complete(eng.timeout(5.0))
    assert eng.now == 1.0


def test_max_events_guard():
    eng = Engine()

    def forever():
        while True:
            yield eng.timeout(1.0)

    eng.process(forever())
    with pytest.raises(SimulationError, match="max_events"):
        eng.run(max_events=50)


def test_max_events_exact_budget_run_and_run_until_complete():
    """Regression: ``run`` and ``run_until_complete`` agree — a program of
    exactly N events completes under ``max_events=N`` and raises under
    ``max_events=N - 1`` (previously ``run`` allowed one extra event)."""
    n = 5

    def fresh_timeouts(eng):
        return [eng.timeout(float(i)) for i in range(n)]  # exactly n events

    eng = Engine()
    fresh_timeouts(eng)
    eng.run(max_events=n)  # exact budget: fine
    assert eng.now == n - 1

    eng = Engine()
    fresh_timeouts(eng)
    with pytest.raises(SimulationError, match=f"max_events={n - 1}"):
        eng.run(max_events=n - 1)

    eng = Engine()
    timeouts = fresh_timeouts(eng)
    values = eng.run_until_complete(*timeouts, max_events=n)  # exact budget
    assert len(values) == n

    eng = Engine()
    timeouts = fresh_timeouts(eng)
    with pytest.raises(SimulationError, match=f"max_events={n - 1}"):
        eng.run_until_complete(*timeouts, max_events=n - 1)


def test_nested_processes_deep_chain():
    eng = Engine()

    def chain(depth):
        if depth == 0:
            yield eng.timeout(1.0)
            return 0
        v = yield eng.process(chain(depth - 1))
        return v + 1

    p = eng.process(chain(50))
    eng.run()
    assert p.value == 50
    assert eng.now == 1.0
