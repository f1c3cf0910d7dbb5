"""The observer bus: one ``engine.probe`` slot, one attach/detach lifecycle
shared by every subscriber, and a fan-out that binds each hook once."""

from types import SimpleNamespace

import pytest

from repro.sanitize.sanitizer import Sanitizer
from repro.sim import Engine, Event, Probe, SimulationError, Tracer
from repro.validate.invariants import InvariantChecker


def _run_one_event(eng):
    eng.timeout(1.0)
    eng.run()


def _dispatch_one_op(eng):
    op = SimpleNamespace(done=Event(eng), reads=(), writes=(), name="k")
    eng.probe.on_op_dispatch(SimpleNamespace(name="s0"), op, ())


#: subscriber class -> (emit one observable event on an engine, count seen).
SUBSCRIBERS = {
    Tracer: (lambda eng: eng.probe.on_iter_done(SimpleNamespace(index=(0,)), 0),
             lambda sub: len(sub.records)),
    InvariantChecker: (_run_one_event, lambda sub: sub.events_processed),
    Sanitizer: (_dispatch_one_op, lambda sub: sub.ops_checked),
}


@pytest.mark.parametrize("cls", list(SUBSCRIBERS), ids=lambda cls: cls.__name__)
def test_subscriber_lifecycle(cls):
    emit, count = SUBSCRIBERS[cls]
    eng1, eng2 = Engine(), Engine()
    sub = cls()
    assert sub.attach(eng1) is sub
    assert sub.attach(eng1) is sub          # re-attach: no second registration
    assert eng1.probe is sub
    emit(eng1)
    assert count(sub) == 1

    sub.attach(eng2)                        # migration
    assert eng1.probe is None and eng2.probe is sub
    emit(eng2)
    assert count(sub) == 2

    other = Probe().attach(eng2)            # a second subscriber: fan-out
    emit(eng2)
    assert count(sub) == 3                  # still once per event
    sub.detach()                            # detaching one keeps the other
    assert eng2.probe is other
    sub.detach()                            # no-op when detached

    with cls().attach(eng1) as scoped:
        assert eng1.probe is scoped
    assert eng1.probe is None
    other.detach()
    assert eng2.probe is None


def test_fan_out_binds_each_hook_once():
    class Grants(Probe):
        def __init__(self):
            self.seen = []

        def on_grant(self, resource, amount):
            self.seen.append(amount)

    eng = Engine()
    a, b, quiet = Grants().attach(eng), Grants().attach(eng), Probe().attach(eng)
    fan = eng.probe
    assert fan not in (a, b, quiet)
    fan.on_grant(None, 2)
    assert a.seen == b.seen == [2]
    assert fan.handler("on_event") is None  # nobody overrides: the no-op
    b.detach()
    assert eng.probe.on_grant == a.on_grant  # sole overrider, bound directly
    a.detach()
    assert eng.probe is quiet


def test_one_sanitizer_per_engine():
    eng = Engine()
    first = Sanitizer().attach(eng)
    with pytest.raises(SimulationError, match="clock_snapshot"):
        Sanitizer().attach(eng)
    assert eng.probe is first
