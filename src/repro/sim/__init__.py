"""Discrete-event simulation kernel (the substrate for all of :mod:`repro`).

Public surface:

* :class:`Engine`, :class:`Event`, :class:`Timeout`, :class:`Process`,
  :class:`AllOf`, :class:`AnyOf` — the event loop and process model.
* :class:`Store`, :class:`FilterStore`, :class:`PriorityStore`,
  :class:`Resource`, :class:`TokenPool` — queueing primitives.
* :class:`Probe` — the observer bus every observer subscribes to
  (``engine.probe``); :class:`Tracer`, :class:`IntervalTracker` —
  instrumentation.
* :class:`RandomStreams` — reproducible named RNG streams.
"""

from .engine import AllOf, AnyOf, Engine, Event, Process, Timeout
from .errors import (
    EventAlreadyTriggered,
    Interrupt,
    ProcessCrashed,
    SimulationError,
    StopEngine,
)
from .probe import Probe
from .resources import FilterStore, PriorityStore, Request, Resource, Store, TokenPool
from .rng import RandomStreams
from .tracing import (IntervalTracker, Tracer, TraceRecord, merge_intervals, overlap_seconds, to_chrome_trace)

__all__ = [
    "AllOf",
    "AnyOf",
    "Engine",
    "Event",
    "Process",
    "Timeout",
    "EventAlreadyTriggered",
    "Interrupt",
    "ProcessCrashed",
    "SimulationError",
    "StopEngine",
    "FilterStore",
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
