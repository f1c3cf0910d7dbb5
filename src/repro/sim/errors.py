"""Exception types for the discrete-event simulation kernel."""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for all simulation-kernel errors."""


class EventAlreadyTriggered(SimulationError):
    """Raised when an event is succeeded or failed more than once."""


class ProcessCrashed(SimulationError):
    """Raised out of :meth:`Engine.run` (or :meth:`Engine.run_until_complete`)
    when a process dies with an unhandled exception that nobody waits on,
    or an awaited event fails.

    The original exception is available as ``__cause__``.
    """
