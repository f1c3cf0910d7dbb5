"""Seam tests for the fast-dispatch event kernel.

The hot-path refactor (pooled pause events, the bare-number yield, the
bare/observed run-loop variants, Store handoff fast paths, vectorized
latency matrices) must be *observably invisible*: same event ordering,
same values, same trace digests, same ``max_events`` semantics.  Each test
here pins one seam where a fast path could diverge from the slow path it
replaced.
"""

import pytest

from repro.hardware.specs import NicSpec, TopologySpec
from repro.hardware.topology import FatTree
from repro.obs import MetricsRegistry
from repro.sim import (
    Engine,
    Probe,
    ProcessCrashed,
    SimulationError,
    Store,
)
from repro.validate import CANONICAL_CONFIGS, GoldenStore, golden_entry


# ---------------------------------------------------------------------------
# Same-timestamp ordering
# ---------------------------------------------------------------------------


def test_urgent_beats_normal_at_equal_time():
    eng = Engine()
    fired = []
    normal = eng.event("n")
    urgent = eng.event("u")
    normal.add_callback(lambda ev: fired.append("normal"))
    urgent.add_callback(lambda ev: fired.append("urgent"))
    # NORMAL scheduled *first* (earlier seq) still runs after URGENT.
    normal.succeed()
    urgent.succeed(priority=0)  # URGENT
    eng.run()
    assert fired == ["urgent", "normal"]


def test_same_time_fifo_across_event_kinds():
    """Timeout, pause, and the bare-number yield all land at the same
    timestamp with NORMAL priority: the sequence number alone must order
    them, i.e. strictly in creation order regardless of kind."""
    eng = Engine()
    fired = []

    def via_bare(tag):
        yield 1.0
        fired.append(tag)

    def via_pause(tag):
        yield eng.pause(1.0)
        fired.append(tag)

    expected = []
    for i in range(12):
        kind = i % 3
        if kind == 0:
            eng.timeout(1.0).add_callback(lambda ev, i=i: fired.append(i))
        elif kind == 1:
            eng.process(via_bare(i))
        else:
            eng.process(via_pause(i))
        expected.append(i)
    eng.run()
    # Timeouts take their sequence number at creation (t=0); the processes'
    # pauses take theirs during the t=0 resume, after every timeout.  So at
    # t=1 all timeouts fire first in creation order, then the processes in
    # start order — with bare yields and pause() interleaving purely by
    # sequence number, never by kind.
    timeouts = [i for i in expected if i % 3 == 0]
    processes = [i for i in expected if i % 3 != 0]
    assert fired == timeouts + processes


def test_bare_yield_schedules_identically_to_timeout():
    """`yield delay` must consume exactly one sequence number and one heap
    push per hop, like `yield engine.timeout(delay)` — same event count,
    same final clock, same interleaving."""

    def run(style):
        eng = Engine()
        log = []

        def chain(tag, delay):
            for _ in range(5):
                if style == "bare":
                    yield delay
                else:
                    yield eng.timeout(delay)
                log.append((eng.now, tag))

        eng.process(chain("a", 2.0))
        eng.process(chain("b", 3.0))
        eng.run()
        return log, eng.now, eng.events_executed, eng._seq

    bare, timeouts = run("bare"), run("timeout")
    assert bare == timeouts


# ---------------------------------------------------------------------------
# Free-list hygiene
# ---------------------------------------------------------------------------


def test_pause_value_delivered_and_not_leaked():
    eng = Engine()
    seen = []

    def proc():
        seen.append((yield eng.pause(1.0, value="payload")))
        seen.append((yield eng.pause(1.0)))  # recycled object: value reset
        seen.append((yield 1.0))  # bare yield: no stale value either

    eng.process(proc())
    eng.run()
    assert seen == ["payload", None, None]


def test_free_list_stays_bounded_by_in_flight_pauses():
    """The no-leak guarantee: a 100-hop create-yield-discard chain recycles
    a constant number of pooled objects (the fired event is recycled right
    after its waiter draws the *next* one, so each chain ping-pongs between
    two objects), never one object per hop."""
    eng = Engine()

    def chain():
        for _ in range(100):
            yield 0.5

    eng.process(chain())
    eng.run()
    assert len(eng._event_pool) == 2  # not 100
    for ev in eng._event_pool:
        assert ev._value is None and ev._waiter is None
        assert ev.callbacks == [] and ev._ok


def test_pool_survives_interleaved_pause_styles():
    """pause() handouts and bare-yield handouts draw from the same pool;
    concurrent chains need at most one pooled event per in-flight pause."""
    eng = Engine()

    def chain(delay):
        for _ in range(50):
            yield delay

    for d in (0.5, 0.75, 1.0):
        eng.process(chain(d))
    eng.run()
    # At most one in-flight pause per chain plus the one being recycled.
    assert 1 <= len(eng._event_pool) <= 4
    assert all(e._value is None and e._waiter is None for e in eng._event_pool)


def test_conditions_reject_pooled_events():
    eng = Engine()
    with pytest.raises(SimulationError, match="pooled"):
        eng.all_of([eng.pause(1.0)])


def test_negative_pause_keeps_the_free_list():
    """A rejected delay must not consume a pooled event."""
    eng = Engine()
    for _ in range(2):
        eng.pause(1.0)
    eng.run()
    assert len(eng._event_pool) == 2
    with pytest.raises(SimulationError, match="past"):
        eng.pause(-1.0)
    assert len(eng._event_pool) == 2


# ---------------------------------------------------------------------------
# max_events and crash semantics across run-loop variants
# ---------------------------------------------------------------------------


def test_max_events_unchanged_with_pooled_events():
    def chains(eng, hops):
        def chain():
            for _ in range(hops):
                yield 1.0

        eng.process(chain())

    # 1 start event + `hops` pause ticks + the Process completion event
    # itself = hops + 2 events total.
    eng = Engine()
    chains(eng, 10)
    eng.run(max_events=12)  # exact budget: completes without raising
    assert eng.events_executed == 12

    eng = Engine()
    chains(eng, 10)
    with pytest.raises(SimulationError, match="max_events"):
        eng.run(max_events=11)


def test_bare_loop_event_count_after_crash():
    """The bare variant derives its pop count arithmetically; a crash
    ending the run with events left on the heap must still count exactly
    the events that executed."""
    eng = Engine()
    for i in range(7):
        eng.timeout(float(i + 1))

    def bad():
        yield 2.5
        raise RuntimeError("boom")

    eng.process(bad())
    with pytest.raises(ProcessCrashed):
        eng.run()  # no observers, no bounds: the bare loop
    # The start, the timeouts at t=1 and t=2, the pause and the failure.
    assert eng.events_executed == 5
    assert len(eng._heap) == 5  # the rest stayed scheduled


def test_observed_loop_counts_match_bare_loop():
    """Attaching an ``on_event`` subscriber selects the observed loop; the
    event count and schedule must not change, and the metrics registry's
    derived event counters agree with both."""

    class Count(Probe):
        seen = 0

        def on_event(self, _time, _event):
            self.seen += 1

    def program(eng):
        def chain():
            for _ in range(25):
                yield 0.5

        eng.process(chain())
        eng.run()
        return eng.events_executed, eng.now

    bare = program(Engine())
    eng = Engine()
    registry = MetricsRegistry().attach(eng)
    counter = Count().attach(eng)
    observed = program(eng)
    assert observed == bare
    assert counter.seen == bare[0]
    assert registry.counter("sim.events.executed").value() == bare[0]
    assert registry.counter("sim.events.scheduled").value() == bare[0]


# ---------------------------------------------------------------------------
# Pooled process start and fire-and-forget spawn
# ---------------------------------------------------------------------------


def _fan_out(eng, start, n=6):
    """n short processes started through ``start`` (process or spawn), each
    interleaved at t=0 with a timeout and a plain event; returns the log."""
    log = []

    def worker(i):
        log.append(("start", i, eng.now))
        yield 0.5 * (i % 3)
        log.append(("mid", i, eng.now))
        yield eng.timeout(1.0)
        log.append(("end", i, eng.now))

    for i in range(n):
        eng.timeout(0.0).add_callback(lambda _ev, i=i: log.append(("timeout", i, eng.now)))
        start(worker(i), name=f"w{i}")
        ev = eng.event()
        ev.add_callback(lambda _ev, i=i: log.append(("event", i, eng.now)))
        ev.succeed()
    return log


def test_spawn_drops_exactly_one_event_per_process():
    """A spawned process schedules exactly like a started one, minus the
    completion event nobody waits on."""
    eng_p, eng_s = Engine(), Engine()
    log_p = _fan_out(eng_p, eng_p.process)
    log_s = _fan_out(eng_s, eng_s.spawn)
    eng_p.run()
    eng_s.run()
    assert log_s == log_p
    assert eng_s.now == eng_p.now
    assert eng_p.events_executed - eng_s.events_executed == 6
    assert eng_p._seq - eng_s._seq == 6


def test_pooled_start_keeps_same_timestamp_order():
    """The start takes its sequence number at creation, so a process's
    first step interleaves with same-time timeouts and events strictly in
    creation order — and the start event is drawn from the pool."""
    eng = Engine()
    log = _fan_out(eng, eng.process)
    eng.run()
    at_zero = [(kind, i) for kind, i, t in log if t == 0.0 and kind != "mid"]
    assert at_zero == [(kind, i) for i in range(6) for kind in ("timeout", "start", "event")]
    pooled = len(eng._event_pool)
    eng.process(x for x in ())
    assert len(eng._event_pool) == pooled - 1


def test_spawned_failure_raises_process_crashed_naming_it():
    eng = Engine()

    def broken():
        yield 1.0
        raise ValueError("bad transfer")

    eng.spawn(broken(), name="net.xfer")
    with pytest.raises(ProcessCrashed, match="net.xfer.*bad transfer"):
        eng.run()


def test_spawned_process_waited_on_still_completes():
    eng = Engine()
    seen = []

    def child():
        yield 1.0
        return "value"

    def parent(proc):
        seen.append((yield proc))

    eng.process(parent(eng.spawn(child())))
    eng.run()
    assert seen == ["value"]


def test_finished_process_drops_self_bound_methods():
    eng = Engine()

    def short():
        yield 1.0

    proc = eng.process(short())
    assert proc._resume_cb is not None
    eng.run()
    assert (proc._resume_cb, proc._send, proc._throw) == (None, None, None)


# ---------------------------------------------------------------------------
# Store handoff
# ---------------------------------------------------------------------------


def test_store_handoff_order_identical_across_paths():
    """Store's direct producer→consumer handoff to a waiting getter and its
    buffered path must deliver the same values in put order."""
    eng = Engine()
    store = Store(eng, name="s")
    got = []

    def consumer():
        for _ in range(6):
            got.append((yield store.get()))

    def producer():
        for i in range(3):  # getters already waiting: direct handoff
            store.put(i)
            yield 1.0
        for i in range(3, 6):  # no getter yet: buffered then drained
            store.put(i)
        yield 1.0

    eng.process(consumer())
    eng.process(producer())
    eng.run()
    assert got == [0, 1, 2, 3, 4, 5]


def test_simple_store_invariant_items_xor_getters():
    """The handoff's justification: a Store never holds buffered items and
    blocked getters simultaneously.  Audit after every event."""
    eng = Engine()
    store = Store(eng, name="s")
    violations = []

    class Audit(Probe):
        def on_event(self, _time, _event):
            if store.items and store._getters:
                violations.append((eng.now, list(store.items)))

    Audit().attach(eng)

    def churn(i):
        for n in range(10):
            if (i + n) % 2:
                store.put((i, n))
            else:
                yield store.get()
            yield 0.25 + 0.25 * i

    for i in range(4):
        eng.process(churn(i))
    eng.run()
    assert violations == []


# ---------------------------------------------------------------------------
# Vectorized latency matrix bit-identity
# ---------------------------------------------------------------------------


def test_latency_matrix_bit_equal_to_scalar_path():
    nic = NicSpec()
    tree = FatTree(TopologySpec(nodes_per_switch=2, levels=2), radix=2)
    n = 8
    matrix = tree.latency_matrix(n, nic)
    for a in range(n):
        for b in range(n):
            scalar = tree.latency(a, b, nic)
            assert matrix[a][b] == scalar  # bitwise, not approx
            assert isinstance(matrix[a][b], float)  # no numpy scalars


# ---------------------------------------------------------------------------
# Trace-digest bit-identity vs the committed golden store
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(CANONICAL_CONFIGS))
def test_bare_loop_digest_matches_committed_golden(name):
    """Golden entries are recorded with the invariant monitor attached
    (the observed loop).  Re-running unvalidated — which selects the bare
    fast-dispatch loop — must reproduce the committed digest bit-for-bit:
    the strongest end-to-end proof that the kernel variants are
    observationally identical."""
    from repro.apps import run_app
    from repro.sim import Tracer
    from repro.validate import trace_digest

    committed = GoldenStore().load(name)
    assert committed is not None, f"no committed golden entry for {name}"
    tracer = Tracer()
    run_app(CANONICAL_CONFIGS[name], tracer=tracer)  # validate=False: bare loop
    assert trace_digest(tracer) == committed["trace_digest"]
    assert len(tracer.records) == committed["trace_records"]


def test_validated_entry_matches_bare_digest_spot_check():
    """One config through `golden_entry` (observed loop, invariant monitor
    on) vs the committed store — the complement of the bare-loop sweep."""
    entry = golden_entry(CANONICAL_CONFIGS["charm-d"])
    committed = GoldenStore().load("charm-d")
    assert entry["trace_digest"] == committed["trace_digest"]
    assert entry["summary"] == committed["summary"]
