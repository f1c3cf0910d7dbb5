"""Discrete-event simulation kernel (the substrate for all of :mod:`repro`).

Public surface:

* :class:`Engine`, :class:`Event`, :class:`Timeout`, :class:`Process`,
  :class:`AllOf` — the event loop, the process model and the one join.
* :class:`Driver`, :class:`Latch` — callback state machines for
  per-message and per-op work, and the join only they observe.
* :class:`Store`, :class:`PriorityStore`, :class:`Resource`,
  :class:`TokenPool` — queueing primitives.
* :class:`Probe` — the observer bus every observer subscribes to
  (``engine.probe``); :class:`Tracer`, :class:`IntervalTracker` —
  instrumentation.
* :class:`RandomStreams` — reproducible named RNG streams.
"""

from .engine import AllOf, Driver, Engine, Event, Latch, Process, Timeout
from .errors import EventAlreadyTriggered, ProcessCrashed, SimulationError
from .probe import Probe
from .resources import PriorityStore, Request, Resource, Store, TokenPool
from .rng import RandomStreams
from .tracing import (IntervalTracker, Tracer, TraceRecord, merge_intervals, overlap_seconds, to_chrome_trace)

__all__ = [
    "AllOf",
    "Driver",
    "Engine",
    "Event",
    "Latch",
    "Process",
    "Timeout",
    "EventAlreadyTriggered",
    "ProcessCrashed",
    "SimulationError",
    "PriorityStore",
    "Request",
    "Resource",
    "Store",
    "TokenPool",
    "Probe",
    "RandomStreams",
    "IntervalTracker",
    "Tracer",
    "TraceRecord",
    "merge_intervals",
    "overlap_seconds",
    "to_chrome_trace",
]
