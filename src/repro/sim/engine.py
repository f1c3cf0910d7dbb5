"""Discrete-event simulation kernel.

A small, deterministic, generator-based DES in the style of SimPy, written
from scratch for this reproduction.  Simulated entities are *processes*:
plain Python generators that ``yield`` events (timeouts, other events,
other processes, or an :class:`AllOf` join) and are resumed by the
:class:`Engine` when those events trigger.

Per-message and per-op machinery (network transfers, UCX sends, GPU stream
executors) does not run as processes: it is written as :class:`Driver`
callback state machines, each step scheduled with :meth:`Engine.after`
(the push a ``yield delay`` makes) or registered on the event it waits
for, with :class:`Latch` for joins only a driver observes.

Determinism rules
-----------------
* The event heap orders by ``(time, priority, sequence)``; the sequence
  number breaks ties in scheduling order, so two runs of the same program
  interleave identically.
* All randomness must come from :mod:`repro.sim.rng` named streams.

Example
-------
>>> eng = Engine()
>>> log = []
>>> def proc(name, delay):
...     yield eng.timeout(delay)
...     log.append((eng.now, name))
>>> _ = eng.process(proc("a", 2.0)); _ = eng.process(proc("b", 1.0))
>>> eng.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from __future__ import annotations

import gc
import heapq
from contextlib import contextmanager
from heapq import heappush as _heappush
from typing import Any, Callable, Generator, Iterable, Optional

from .errors import EventAlreadyTriggered, ProcessCrashed, SimulationError

__all__ = [
    "Engine",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "Driver",
    "Latch",
    "PENDING",
    "TRIGGERED",
    "PROCESSED",
]

# Event lifecycle states.
PENDING = 0  # not yet succeeded/failed
TRIGGERED = 1  # succeeded/failed, callbacks scheduled but not yet run
PROCESSED = 2  # callbacks have run

# Scheduling priorities: lower runs first at equal times.  URGENT is used for
# internal bookkeeping (join completion) so user-visible ordering stays
# intuitive.
URGENT = 0
NORMAL = 1


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*, is *triggered* exactly once via
    :meth:`succeed` or :meth:`fail`, and becomes *processed* once its
    callbacks have executed at the trigger time.
    """

    __slots__ = ("engine", "callbacks", "_value", "_state", "_ok", "name")

    #: Class-level flags read by the run loop instead of ``isinstance``
    #: checks (one monomorphic attribute load per event).  ``_crashable``
    #: marks events whose unwatched failure must abort the run
    #: (:class:`Process`); ``_poolable`` marks engine-recycled events that
    #: must never be retained past their trigger time (see
    #: :class:`_PooledEvent`).
    _crashable = False
    _poolable = False

    def __init__(self, engine: "Engine", name: str = ""):
        self.engine = engine
        self.callbacks: list[Callable[[Event], None]] = []
        self._value: Any = None
        self._state = PENDING
        self._ok = True
        self.name = name

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has succeeded or failed."""
        return self._state != PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._state == PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The value passed to :meth:`succeed` (or the failure exception)."""
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._state != PENDING:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._state = TRIGGERED
        self._ok = True
        self._value = value
        engine = self.engine
        _heappush(engine._heap, (engine.now, priority, engine._seq, self))
        engine._seq += 1
        return self

    def fail(self, exc: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event as failed; ``exc`` is thrown into waiters."""
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        if self._state != PENDING:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._state = TRIGGERED
        self._ok = False
        self._value = exc
        engine = self.engine
        _heappush(engine._heap, (engine.now, priority, engine._seq, self))
        engine._seq += 1
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event is processed.

        If the event has already been processed the callback fires
        immediately (at the current simulation time).
        """
        if self._state == PROCESSED:
            fn(self)
        else:
            self.callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = {PENDING: "pending", TRIGGERED: "triggered", PROCESSED: "processed"}[self._state]
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state} at t={self.engine.now:g}>"


class Timeout(Event):
    """An event that triggers ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: Any = None, name: str = ""):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # Flattened Event.__init__ plus the heap push: one constructor
        # frame instead of two on a path taken once per timeout.
        self.engine = engine
        self.callbacks = []
        self._value = value
        self._state = TRIGGERED
        self._ok = True
        self.name = name
        self.delay = delay
        _heappush(engine._heap, (engine.now + delay, NORMAL, engine._seq, self))
        engine._seq += 1


class _PooledEvent(Event):
    """A recyclable pre-triggered delay, reused through the engine's
    free-list by :meth:`Engine.after`, the bare-number yield, process
    start-up and :class:`Latch`.  Never constructed by user code and never
    safe to retain after it fires: the run loop resets and recycles the
    object as soon as its callbacks have run.

    ``_waiter`` is the single-waiter fast lane used by the bare-number
    yield in :meth:`Process._resume` — one slot store instead of a
    callbacks-list append, one call instead of a list iteration.  A pooled
    event may carry a ``_waiter``, ``callbacks``, or both (fired in that
    order, matching registration order: the waiter is only ever installed
    at creation time)."""

    __slots__ = ("_waiter",)

    _poolable = True

    def __init__(self, engine: "Engine", name: str = ""):
        super().__init__(engine, name=name)
        self._waiter = None


class _ConditionBase(Event):
    """The join behind :class:`AllOf`: a countdown over the child events
    that succeeds, with no value, when the last child succeeds and fails
    on the first failed child.  (``hostbench`` counts joins by this
    class's constructor.)"""

    __slots__ = ("events", "_pending")

    def __init__(self, engine: "Engine", events: Iterable[Event], name: str = ""):
        super().__init__(engine, name=name)
        self.events = tuple(events)
        for ev in self.events:
            if ev.engine is not engine:
                raise SimulationError("cannot mix events from different engines")
            if ev._poolable:
                # ``events`` keeps every child past its trigger time (the
                # sanitizer reads it), which a recycled event must not be.
                raise SimulationError(
                    "joins cannot wait on pooled events")
        self._pending = len(self.events)
        if not self._pending:
            self.succeed()
            return
        for ev in self.events:
            ev.add_callback(self._on_child)

    def _on_child(self, ev: Event) -> None:
        if self._state != PENDING:
            return
        if not ev._ok:
            self.fail(ev._value, priority=URGENT)
            return
        self._pending -= 1
        if not self._pending:
            self.succeed(priority=URGENT)


class AllOf(_ConditionBase):
    """Triggers, with no value, once *all* child events have succeeded;
    fails with the exception of the first child that fails."""

    __slots__ = ()


class Driver:
    """Base of the callback drivers: per-message and per-op state machines
    whose steps are bound methods, each fired by one event.

    A step schedules the next one with :meth:`Engine.after` (where a
    process would ``yield delay``), registers it with
    :meth:`Event.add_callback` on the event it waits for (where a process
    would ``yield event``), or counts child events with a :class:`Latch`
    (where a process would ``yield engine.all_of(...)``).  A bound-method
    continuation lives on one event and is dropped when that event fires,
    so a finished driver is freed by reference counting.

    An exception escaping a step ends the run with :class:`ProcessCrashed`
    naming :attr:`component`, after :meth:`_abort` has undone any
    accounting the driver holds across steps.
    """

    __slots__ = ()

    #: The name a crash report gives this driver.
    component = "driver"

    def _abort(self) -> None:
        """Hook run before a crash is raised out of the run loop."""


class Latch:
    """A join only a driver observes: counts ``events`` toward one
    continuation ``then(event)``.

    When the last child succeeds it pushes one pooled ``URGENT`` event
    whose waiter is ``then`` — the push :meth:`AllOf.succeed` makes at that
    point, with no tuple, no :class:`Event` and no per-child join callback
    on a fresh object.  The first failed child fires it at once instead,
    with ``event.ok`` false and the child's exception as ``event.value``.
    ``events`` must be a non-empty sequence.
    """

    __slots__ = ("engine", "_pending", "_then")

    def __init__(self, engine: "Engine", events: list, then: Callable[[Event], None]):
        if not events:
            raise SimulationError("a latch needs at least one child event")
        self.engine = engine
        self._then = then
        self._pending = len(events)
        on_child = self._on_child
        for ev in events:
            ev.add_callback(on_child)

    def _on_child(self, ev: Event) -> None:
        then = self._then
        if then is None:  # already fired
            return
        if ev._ok:
            self._pending -= 1
            if self._pending:
                return
        self._then = None
        engine = self.engine
        pool = engine._event_pool
        fired = pool.pop() if pool else _PooledEvent(engine, name="<pause>")
        fired._state = TRIGGERED
        if not ev._ok:
            fired._ok = False
            fired._value = ev._value
        fired._waiter = then
        _heappush(engine._heap, (engine.now, URGENT, engine._seq, fired))
        engine._seq += 1


def _driver_crash(exc: Exception) -> Optional[ProcessCrashed]:
    """The :class:`ProcessCrashed` for ``exc`` when it escaped a
    :class:`Driver` step called by the run loop, else ``None``.

    The frame below the loop's own in the traceback is the callback the
    loop called; a driver step is a bound method, so its ``self`` names
    the driver.  (Checked only once an exception is already propagating,
    so the run loop pays nothing for it.)
    """
    tb = exc.__traceback__.tb_next
    driver = tb.tb_frame.f_locals.get("self") if tb is not None else None
    if not isinstance(driver, Driver):
        return None
    driver._abort()
    return ProcessCrashed(f"process {driver.component!r} crashed: {exc!r}")


#: Gen-0 threshold of the cyclic collector while a run loop is active.
GC_GEN0_THRESHOLD = 50_000
# The collector's settings are process-wide, so the flag marking an active
# policy is too: a run nested in another engine's run must see it.
_gc_policy_active = False


@contextmanager
def _gc_policy():
    """Around the outermost run loop: freeze every object that exists at
    entry (the machine and the app built before the run) out of the
    collector's scans, and raise the gen-0 threshold.  Restores the
    threshold and unfreezes on exit; never enables or disables the
    collector.  Per-message objects die by reference counting (see
    ``docs/performance.md``), so the collector has little to find during a
    run but would otherwise rescan the long-lived object graph."""
    global _gc_policy_active
    if _gc_policy_active:
        yield
        return
    _gc_policy_active = True
    threshold = gc.get_threshold()
    gc.freeze()
    gc.set_threshold(GC_GEN0_THRESHOLD, *threshold[1:])
    try:
        yield
    finally:
        gc.set_threshold(*threshold)
        gc.unfreeze()
        _gc_policy_active = False


ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A running simulated activity wrapping a generator.

    The process is itself an :class:`Event` that triggers with the
    generator's return value when it finishes (or fails with its unhandled
    exception).
    """

    __slots__ = ("_generator", "_send", "_throw", "_resume_cb")

    _crashable = True

    def __init__(self, engine: "Engine", generator: ProcessGenerator, name: str = ""):
        if not hasattr(generator, "throw"):
            raise TypeError(f"process requires a generator, got {type(generator).__name__}")
        super().__init__(engine, name=name or getattr(generator, "__name__", ""))
        self._generator = generator
        # Bound methods cached once: _resume runs once per wakeup and the
        # attribute chain through the generator is measurable there.
        self._send = generator.send
        self._throw = generator.throw
        # One bound method for the process's whole life: _resume re-registers
        # itself on every yielded event, and `self._resume` builds a fresh
        # bound object each time it is evaluated.  All three bound methods
        # point back at the process, so _release drops them when it
        # finishes: a finished process must be freed by reference counting.
        self._resume_cb = self._resume
        # Kick off at the current time through the pooled path: the same
        # push and sequence number as an immediately-triggered start event,
        # without allocating one.
        pool = engine._event_pool
        start = pool.pop() if pool else _PooledEvent(engine, name="<pause>")
        start._state = TRIGGERED
        start._waiter = self._resume_cb
        _heappush(engine._heap, (engine.now, NORMAL, engine._seq, start))
        engine._seq += 1

    def _release(self) -> None:
        """Drop the self-bound methods once the generator is done, breaking
        the process -> bound method -> process cycles."""
        self._resume_cb = self._send = self._throw = None

    def _abort(self, exc: SimulationError) -> None:
        """Fail the process for an invalid yield, closing its generator."""
        self._generator.close()
        self._release()
        self.fail(exc)

    def _resume(self, trigger: Event) -> None:
        # Each wakeup was registered on exactly one event, which fires once,
        # so a finished process is never resumed.
        engine = self.engine
        try:
            if trigger._ok:
                target = self._send(trigger._value)
            else:
                target = self._throw(trigger._value)
        except StopIteration as stop:
            self._release()
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate as failure
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            self._release()
            self.fail(exc)
            return
        # Monomorphic accept: the dominant yields are bare delays and
        # fresh Events; fall back to isinstance otherwise.
        cls = target.__class__
        if cls is float or cls is int:
            # `yield delay`: the push `Engine.after(delay, ...)` makes (one
            # pooled event, one sequence number) with the resume as its
            # waiter: no constructor, no dispatch checks.
            if target < 0:
                self._abort(SimulationError(f"cannot schedule into the past (delay={target})"))
                return
            pool = engine._event_pool
            ev = pool.pop() if pool else _PooledEvent(engine, name="<pause>")
            ev._state = TRIGGERED
            ev._waiter = self._resume_cb
            _heappush(engine._heap, (engine.now + target, NORMAL, engine._seq, ev))
            engine._seq += 1
            return
        if cls is not _PooledEvent and cls is not Event and not isinstance(target, Event):
            crash = SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must yield Event objects"
            )
            self._abort(crash)
            return
        if target.engine is not engine:
            self._abort(SimulationError("yielded event belongs to a different engine"))
            return
        if target._state != PROCESSED:
            target.callbacks.append(self._resume_cb)
        else:  # already-processed target: resume immediately (add_callback semantics)
            self._resume(target)


class Engine:
    """The simulation clock and event loop.

    Attributes
    ----------
    now:
        Current simulation time (seconds by convention throughout
        :mod:`repro`).
    """

    def __init__(self, start_time: float = 0.0):
        self.now = float(start_time)
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        #: The observer bus (:mod:`repro.sim.probe`): ``None`` when nothing
        #: is attached, else the one subscriber or a fan-out over several.
        self.probe = None
        #: Events processed over the engine's lifetime (plain int: the
        #: ``sim.events`` count of ``hostbench/``).
        self.events_executed = 0
        #: Free-list of recycled :class:`_PooledEvent` objects (see
        #: :meth:`after`); the run loop returns fired pooled events here.
        self._event_pool: list[_PooledEvent] = []

    # -- event construction ------------------------------------------------
    def event(self, name: str = "") -> Event:
        """A fresh pending event."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None, name: str = "") -> Timeout:
        """An event triggering ``delay`` after now."""
        return Timeout(self, delay, value=value, name=name)

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start a new process from ``generator`` at the current time."""
        return Process(self, generator, name=name)

    def after(self, delay: float, fn: Callable[[Event], None]) -> None:
        """Call ``fn(event)`` ``delay`` from now: a driver's ``yield delay``.

        Makes exactly the push a process's ``yield delay`` makes (a pooled
        event at ``NORMAL`` priority, one sequence number) with ``fn`` as
        its single waiter, so a driver step scheduled here fires where the
        resumed generator would have.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        pool = self._event_pool
        event = pool.pop() if pool else _PooledEvent(self, name="<pause>")
        event._state = TRIGGERED
        event._waiter = fn
        _heappush(self._heap, (self.now + delay, NORMAL, self._seq, event))
        self._seq += 1

    def all_of(self, events: Iterable[Event], name: str = "") -> AllOf:
        """A join triggering, with no value, once all of ``events`` have
        succeeded; it fails with the first child failure."""
        return AllOf(self, events, name=name)

    # -- running -----------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the heap drains, ``until`` is reached, or ``max_events``.

        Parameters
        ----------
        until:
            Stop (with ``now = until``) before processing events scheduled
            after this time.
        max_events:
            Safety valve: raise :class:`SimulationError` once exactly
            ``max_events`` events have been processed and more remain
            (catches accidental infinite event loops in tests).  A program
            that finishes in exactly ``max_events`` events does not raise.
            Same semantics as in :meth:`run_until_complete`.

        Raises
        ------
        ProcessCrashed
            If any process dies with an unhandled exception and nobody is
            waiting on it, or an exception escapes a :class:`Driver` step.

        Notes
        -----
        This is the simulator's innermost loop: locals are hoisted and the
        event-processing protocol (callbacks plus the crash check) is
        inlined.  With no ``until``, no ``max_events`` and no attached
        probe observing processed events (``on_event``) at entry, a bare
        variant runs with no per-event bound or observer checks; otherwise
        the checked loop of :meth:`_run` does.  Attach observers before
        calling ``run``; an ``on_event`` subscriber attached mid-run (from
        a callback) is not seen until the next call.

        The outermost run loop runs under the GC policy of
        :func:`_gc_policy`.
        """
        with _gc_policy():
            if until is not None or max_events is not None or (
                    self.probe is not None and self.probe.handler("on_event") is not None):
                self._run(until, max_events, None)
            else:
                self._run_bare()

    def _run_bare(self) -> None:
        """The bare fast-dispatch kernel: no bounds, no observers.  The pop
        count falls out of arithmetic (pops = starting heap size + pushes −
        leftovers), so the loop body carries no counter either."""
        heap = self._heap
        pop = heapq.heappop
        pool = self._event_pool
        start_len = len(heap)
        seq0 = self._seq
        try:
            while heap:
                time, _prio, _seq, event = pop(heap)
                self.now = time
                event._state = PROCESSED
                if event._poolable:
                    # Pooled events have no outside watchers by contract,
                    # so nothing appends to `callbacks` while it runs — the
                    # list object itself is recycled with the event.  (Only
                    # a failed Latch sets `_ok` False on a pooled event.)
                    waiter = event._waiter
                    if waiter is not None:
                        event._waiter = None
                        waiter(event)
                    callbacks = event.callbacks
                    if callbacks:
                        for fn in callbacks:
                            fn(event)
                        del callbacks[:]
                    event._value = None
                    event._ok = True
                    pool.append(event)
                else:
                    callbacks = event.callbacks
                    if callbacks:
                        event.callbacks = []
                        for fn in callbacks:
                            fn(event)
                    elif event._crashable and not event._ok:
                        self._raise_crash(event)
        except Exception as exc:
            crash = _driver_crash(exc)
            if crash is None:
                raise
            raise crash from exc
        finally:
            self.events_executed += start_len + (self._seq - seq0) - len(heap)

    def _run(self, until: Optional[float], max_events: Optional[int],
             done: Optional[Event]) -> None:
        """The checked loop: the bare loop's dispatch plus the ``until`` and
        ``max_events`` bounds and the ``on_event`` observer, stopping early
        once ``done`` (if given) has triggered."""
        heap = self._heap
        pop = heapq.heappop
        pool = self._event_pool
        on_event = self.probe.handler("on_event") if self.probe is not None else None
        count = 0
        try:
            while heap:
                if done is not None and done._state != PENDING:
                    return
                if until is not None and heap[0][0] > until:
                    self.now = until
                    return
                if max_events is not None and count >= max_events:
                    raise SimulationError(f"exceeded max_events={max_events}")
                time, _prio, _seq, event = pop(heap)
                count += 1
                self.now = time
                if on_event is not None:
                    on_event(time, event)
                event._state = PROCESSED
                if event._poolable:
                    # Pooled events have no outside watchers by contract,
                    # so nothing appends to `callbacks` while it runs — the
                    # list object itself is recycled with the event.
                    waiter = event._waiter
                    if waiter is not None:
                        event._waiter = None
                        waiter(event)
                    callbacks = event.callbacks
                    if callbacks:
                        for fn in callbacks:
                            fn(event)
                        del callbacks[:]
                    event._value = None
                    event._ok = True
                    pool.append(event)
                else:
                    callbacks = event.callbacks
                    if callbacks:
                        event.callbacks = []
                        for fn in callbacks:
                            fn(event)
                    elif event._crashable and not event._ok:
                        self._raise_crash(event)
        except Exception as exc:
            crash = _driver_crash(exc)
            if crash is None:
                raise
            raise crash from exc
        finally:
            self.events_executed += count
        if until is not None and until > self.now:
            self.now = until

    def run_until_complete(self, *events: Event, max_events: Optional[int] = None) -> list[Any]:
        """Run until every event in ``events`` has triggered; return values.

        Runs the checked loop of :meth:`run`, so ``max_events`` has the
        same semantics and an unwatched process crash raises
        :class:`ProcessCrashed` here too, as does a failed awaited event.
        Raises :class:`SimulationError` if the heap drains first.  Runs
        under the same GC policy as :meth:`run`.
        """
        done = self.all_of(events)
        with _gc_policy():
            self._run(None, max_events, done)
        if done._state == PENDING:
            raise SimulationError("event heap drained before awaited events triggered (deadlock?)")
        if not done._ok:
            exc = done._value
            raise ProcessCrashed(f"awaited event failed: {exc!r}") from exc
        return [ev.value for ev in events]

    @staticmethod
    def _raise_crash(process: Process) -> None:
        exc = process.value
        raise ProcessCrashed(f"process {process.name!r} crashed: {exc!r}") from exc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Engine t={self.now:g} pending={len(self._heap)}>"
