"""Seam tests for the fast-dispatch event kernel.

The hot-path refactor (pooled delay events, the bare-number yield, the
bare/observed run-loop variants, Store handoff fast paths, vectorized
latency matrices) must be *observably invisible*: same event ordering,
same values, same trace digests, same ``max_events`` semantics.  Each test
here pins one seam where a fast path could diverge from the slow path it
replaced.
"""

import gc

import pytest

from repro.hardware.specs import NicSpec, TopologySpec
from repro.hardware.topology import FatTree
from repro.sim import (
    Driver,
    Engine,
    Latch,
    Probe,
    ProcessCrashed,
    SimulationError,
    Store,
)
from repro.sim.engine import GC_GEN0_THRESHOLD, NORMAL
from repro.validate.golden import CANONICAL_CONFIGS, GoldenStore, golden_entry


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
    """Timeout, after() and the bare-number yield all land at the same
    timestamp with NORMAL priority: the sequence number alone must order
    them, i.e. strictly in creation order regardless of kind."""
    eng = Engine()
    fired = []

    def via_bare(tag):
        yield 1.0
        fired.append(tag)

    def via_after(tag):
        eng.after(1.0, lambda _ev: fired.append(tag))
        yield from ()

    expected = []
    for i in range(12):
        kind = i % 3
        if kind == 0:
            eng.timeout(1.0).add_callback(lambda ev, i=i: fired.append(i))
        elif kind == 1:
            eng.process(via_bare(i))
        else:
            eng.process(via_after(i))
        expected.append(i)
    eng.run()
    # Timeouts take their sequence number at creation (t=0); the processes'
    # delays take theirs during the t=0 resume, after every timeout.  So at
    # t=1 all timeouts fire first in creation order, then the processes in
    # start order — with bare yields and after() interleaving purely by
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


def test_recycled_event_value_is_reset():
    """A failed latch fires a pooled event carrying the child's exception;
    once recycled, the next handouts (a bare yield, an after()) see no
    stale value and no stale failure."""
    eng = Engine()
    seen = []
    bad = eng.event("bad")
    Latch(eng, [bad], lambda ev: seen.append((ev.ok, ev.value)))
    boom = RuntimeError("boom")
    bad.fail(boom)
    eng.run()
    assert seen == [(False, boom)]
    assert len(eng._event_pool) == 1

    def proc():
        seen.append((True, (yield 1.0)))

    eng.process(proc())
    eng.after(2.0, lambda ev: seen.append((ev.ok, ev.value)))
    eng.run()
    assert seen == [(False, boom), (True, None), (True, None)]


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
    """after() handouts and bare-yield handouts draw from the same pool;
    concurrent chains need at most one pooled event per in-flight delay."""
    eng = Engine()

    def chain(delay):
        for _ in range(50):
            yield delay

    def step(hops):
        if hops:
            eng.after(0.6, lambda _ev: step(hops - 1))

    for d in (0.5, 0.75):
        eng.process(chain(d))
    step(50)
    eng.run()
    # At most one in-flight delay per chain plus the one being recycled.
    assert 1 <= len(eng._event_pool) <= 4
    assert all(e._value is None and e._waiter is None for e in eng._event_pool)


def test_conditions_reject_pooled_events():
    """A waiter handed a pooled event cannot join on it."""
    eng = Engine()
    eng.after(1.0, lambda ev: eng.all_of([ev]))
    with pytest.raises(SimulationError, match="pooled"):
        eng.run()


def test_negative_after_keeps_the_free_list():
    """A rejected delay must not consume a pooled event."""
    eng = Engine()
    for _ in range(2):
        eng.after(1.0, lambda _ev: None)
    eng.run()
    assert len(eng._event_pool) == 2
    with pytest.raises(SimulationError, match="past"):
        eng.after(-1.0, lambda _ev: None)
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
    event count and schedule must not change."""

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
    counter = Count().attach(eng)
    observed = program(eng)
    assert observed == bare
    assert counter.seen == bare[0]


# ---------------------------------------------------------------------------
# Pooled process start
# ---------------------------------------------------------------------------


def _fan_out(eng, start, n=6):
    """n short processes started through ``start``, each interleaved at t=0
    with a timeout and a plain event; returns the log."""
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


def test_finished_process_drops_self_bound_methods():
    eng = Engine()

    def short():
        yield 1.0

    proc = eng.process(short())
    assert proc._resume_cb is not None
    eng.run()
    assert (proc._resume_cb, proc._send, proc._throw) == (None, None, None)


# ---------------------------------------------------------------------------
# Callback drivers: after(), Latch and the crash report
# ---------------------------------------------------------------------------


def test_after_pushes_what_a_bare_yield_pushes():
    """``after(d, fn)`` makes the heap entry a process's ``yield d`` makes:
    same time, same priority, same sequence number."""
    eng_y, eng_a = Engine(), Engine()

    def proc():
        yield 1.5

    eng_y.process(proc())
    eng_a.after(0.0, lambda _ev: eng_a.after(1.5, lambda _ev: None))
    for eng in (eng_y, eng_a):
        eng.run(until=0.0)  # runs the start, which schedules the 1.5 hop
    [(t_y, prio_y, seq_y, _)] = eng_y._heap
    [(t_a, prio_a, seq_a, _)] = eng_a._heap
    assert (t_y, prio_y, seq_y) == (t_a, prio_a, seq_a) == (1.5, NORMAL, 1)


def test_after_interleaves_with_yields_by_sequence_number():
    eng = Engine()
    fired = []

    def via_yield(i):
        yield 1.0
        fired.append(i)

    def via_after(i):
        eng.after(0.0, lambda _ev: eng.after(1.0, lambda _ev: fired.append(i)))

    for i in range(8):
        if i % 2:
            eng.process(via_yield(i))
        else:
            via_after(i)
    eng.run()
    assert fired == list(range(8))
    with pytest.raises(SimulationError, match="past"):
        eng.after(-1.0, lambda _ev: None)


def test_latch_completes_in_the_all_of_heap_slot():
    """A latch pushes its continuation where ``all_of`` pushes its join
    (URGENT, at the last child's processing): same order against
    same-time events, same event count, same sequence numbers."""

    def run(join):
        eng = Engine()
        log = []
        a, b, late = eng.event("a"), eng.event("b"), eng.event("late")
        late.add_callback(lambda _ev: log.append(("late", eng.now)))
        eng.timeout(1.0).add_callback(lambda _ev: a.succeed())
        eng.timeout(2.0).add_callback(lambda _ev: (b.succeed(), late.succeed()))
        eng.timeout(2.0).add_callback(lambda _ev: log.append(("tie", eng.now)))
        if join == "all_of":
            eng.all_of([a, b]).add_callback(lambda _ev: log.append(("join", eng.now)))
        else:
            Latch(eng, [a, b], lambda _ev: log.append(("join", eng.now)))
        eng.run()
        return log, eng.events_executed, eng._seq

    latch, all_of = run("latch"), run("all_of")
    assert latch == all_of
    assert latch[0] == [("tie", 2.0), ("join", 2.0), ("late", 2.0)]


def test_latch_fails_on_its_first_failed_child():
    eng = Engine()
    seen = []
    a, b, c = eng.event("a"), eng.event("b"), eng.event("c")
    Latch(eng, [a, b, c], lambda ev: seen.append((eng.now, ev.ok, ev.value)))
    first = ValueError("first")
    eng.timeout(1.0).add_callback(lambda _ev: b.fail(first))
    eng.timeout(2.0).add_callback(lambda _ev: (a.succeed(), c.fail(ValueError("second"))))
    eng.run()
    assert seen == [(1.0, False, first)]
    assert all(ev._ok and ev._value is None for ev in eng._event_pool)
    with pytest.raises(SimulationError, match="at least one"):
        Latch(eng, [], lambda _ev: None)


def test_driver_step_failure_raises_process_crashed_naming_it():
    eng = Engine()

    class Broken(Driver):
        __slots__ = ()
        component = "net.xfer"

        def _start(self, _ev):
            eng.after(1.0, self._fail)

        def _fail(self, _ev):
            raise ValueError("bad transfer")

    eng.after(0.0, Broken()._start)
    with pytest.raises(ProcessCrashed, match="'net.xfer' crashed.*bad transfer"):
        eng.run()


def test_plain_callback_failure_is_not_reported_as_a_driver():
    eng = Engine()
    eng.timeout(1.0).add_callback(lambda _ev: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        eng.run()


# ---------------------------------------------------------------------------
# GC policy around the run loop
# ---------------------------------------------------------------------------


def _gc_settings():
    return gc.get_threshold(), gc.get_freeze_count(), gc.isenabled()


@pytest.mark.parametrize("ending", ["run", "run_until_complete", "crash", "max_events"])
def test_gc_policy_restores_the_collector(ending):
    eng = Engine()
    inside = []

    def proc():
        inside.append((gc.get_threshold()[0], gc.get_freeze_count() > 0))
        yield 1.0
        if ending == "crash":
            raise RuntimeError("boom")

    before = _gc_settings()
    proc_ev = eng.process(proc())
    if ending == "run":
        eng.run()
    elif ending == "run_until_complete":
        eng.run_until_complete(proc_ev)
    elif ending == "crash":
        with pytest.raises(ProcessCrashed):
            eng.run()
    else:
        with pytest.raises(SimulationError, match="max_events"):
            eng.run(max_events=1)
    assert inside == [(GC_GEN0_THRESHOLD, True)]
    assert _gc_settings() == before


def test_nested_run_leaves_the_outer_policy_alone():
    outer, inner = Engine(), Engine()
    seen = []

    def nested(_ev):
        frozen = gc.get_freeze_count()
        inner.timeout(1.0)
        inner.run()
        seen.append((gc.get_threshold()[0], gc.get_freeze_count() == frozen))

    outer.timeout(1.0).add_callback(nested)
    before = _gc_settings()
    outer.run()
    assert seen == [(GC_GEN0_THRESHOLD, True)]
    assert _gc_settings() == before


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
    from repro.validate.golden import trace_digest

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
