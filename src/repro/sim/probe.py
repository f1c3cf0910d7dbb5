"""The observer bus: one probe slot per engine, ``engine.probe``.

The tracer, the invariant checker and the sanitizer are the three
:class:`Probe` subscribers that override the hooks they observe.  An
instrumented site reads ``probe = engine.probe`` once and emits one typed
event behind one ``if probe is not None`` guard, so a run with no observer
pays one attribute test per site and allocates nothing.  The slot holds the
subscriber itself when exactly one is attached, and a fan-out when several
are: the fan-out binds each hook once, at attach time, to the sole
overrider's bound method, a loop over the overriders, or the base no-op.
Subscribers are pure observers: no hook may change the event schedule.
"""

from __future__ import annotations

from .errors import SimulationError

__all__ = ["Probe"]


class Probe:
    """Base subscriber: every hook is a no-op and both queries answer ``None``.

    :meth:`attach` is idempotent, moves the probe off a previous engine and
    composes with the engine's other subscribers; :meth:`detach` removes
    only this subscriber.
    """

    #: The engine this subscriber is attached to (``None`` when detached).
    engine = None

    def attach(self, engine) -> "Probe":
        """Subscribe to ``engine``'s events (idempotent on the same engine)."""
        if self.engine is not engine:
            combined = _combine(_subscribers(engine.probe) + [self])  # may raise
            self.detach()
            self.engine = engine
            engine.probe = combined
        return self

    def detach(self) -> None:
        """Unsubscribe from the current engine (no-op when detached)."""
        engine, self.engine = self.engine, None
        if engine is not None:
            engine.probe = _combine([s for s in _subscribers(engine.probe) if s is not self])

    def __enter__(self) -> "Probe":
        return self

    def __exit__(self, *exc) -> None:
        self.detach()

    def handler(self, name: str):
        """The callable behind hook ``name``, or ``None`` for the base no-op
        (the engine's run loops skip events nobody observes)."""
        fn = getattr(self, name)
        return None if getattr(fn, "__func__", None) is getattr(Probe, name) else fn

    # -- hooks (dummy implementations; docs/observability.md lists them) ----
    # sim: an event popped at `time` before its callbacks run; grants/releases
    def on_event(self, time, event) -> None: pass
    def on_grant(self, resource, amount) -> None: pass
    def on_release(self, resource, amount) -> None: pass
    # hardware and comm: network messages, UCX posts, GPU stream operations
    def on_net_send(self, net, message) -> None: pass
    def on_net_deliver(self, net, message) -> None: pass
    def on_ucx_post(self, handle) -> None: pass
    def on_ucx_pipeline(self, send, chunks) -> None: pass
    def on_op_enqueue(self, stream, op) -> None: pass
    def on_op_dispatch(self, stream, op, deps) -> None: pass
    def on_op_start(self, device, op, kind, duration) -> None: pass
    def on_op_done(self, op) -> None: pass
    def on_event_record(self, stream, cuda_event) -> None: pass
    # runtimes: `owner` is the issuing chare or rank
    def on_launch_issue(self, owner, op, graph=False) -> None: pass
    def on_msg_deposit(self, msg, owner=None, event=None) -> None: pass
    def on_msg_consume(self, owner, msg) -> None: pass
    def on_wake(self, owner, event) -> None: pass
    def on_transfer_post(self, handle, owner, snapshot=None) -> None: pass
    def on_task_attach(self, space, key, done_event) -> None: pass
    # apps: a chare or rank finished an iteration
    def on_iter_done(self, unit, iteration) -> None: pass

    # -- queries (at most one attached subscriber may answer each) ----------
    def clock_snapshot(self, owner):
        """A causality snapshot of ``owner``, handed back to
        :meth:`on_transfer_post` when the post itself happens later."""
        return None

    def explain_deadlock(self):
        """Text appended to a runtime deadlock error."""
        return None


_HOOKS = tuple(name for name in vars(Probe) if name.startswith("on_"))
_QUERIES = ("clock_snapshot", "explain_deadlock")


class _FanOut(Probe):
    """Several subscribers behind one slot; each hook bound at construction."""

    def __init__(self, subscribers: list):
        self.subscribers = subscribers
        for name in _HOOKS + _QUERIES:
            handlers = [h for h in (s.handler(name) for s in subscribers) if h is not None]
            if len(handlers) > 1 and name in _QUERIES:
                raise SimulationError(f"at most one probe on an engine may answer {name}()")
            if handlers:
                setattr(self, name, handlers[0] if len(handlers) == 1 else _broadcast(handlers))


def _broadcast(handlers: list):
    def fan_out(*args, **kwargs):
        for handler in handlers:
            handler(*args, **kwargs)
    return fan_out


def _subscribers(probe) -> list:
    if probe is None:
        return []
    return list(probe.subscribers) if isinstance(probe, _FanOut) else [probe]


def _combine(subscribers: list):
    if len(subscribers) < 2:
        return subscribers[0] if subscribers else None
    return _FanOut(subscribers)
