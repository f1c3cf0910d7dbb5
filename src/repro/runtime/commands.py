"""Commands yielded by chare entry-method coroutines.

A chare's long-running entry method (the SDAG-style ``run``) is a Python
generator.  It communicates with its PE's scheduler by yielding command
objects; the scheduler charges the modeled CPU time, performs the action,
and sends the result back into the generator:

======================  =======================================  ==========
command                 semantics                                 yields back
======================  =======================================  ==========
``Work(s)``             occupy the PE for ``s`` seconds           ``None``
``Launch(stream, w)``   pay launch cost, enqueue GPU work         the ``GpuOp``
``LaunchGraph(exec)``   pay graph-launch cost, run the DAG        completion ``Event``
``When(method, ref)``   SDAG ``when``: wait for a matching         the ``EntryMessage``
                        mailbox message
``Await(event)``        HAPI-style wait: suspend; a completion    the event's value
                        callback re-enters the scheduler queue
======================  =======================================  ==========

Suspending commands (``When``/``Await``) release the PE so the scheduler
can process other chares' messages — this is exactly the mechanism that
produces automatic computation-communication overlap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from ..hardware.graphs import GraphExec
from ..hardware.gpu import CudaStream, WorkModel
from ..sim import Event
from .costs import MsgPriority

__all__ = ["Command", "Work", "Launch", "LaunchGraph", "When", "Await", "ComputeCommands"]


class Command:
    """Base marker for scheduler commands."""

    __slots__ = ()


@dataclass(frozen=True)
class Work(Command):
    """Occupy the PE for ``seconds`` of modeled CPU time."""

    seconds: float

    def __post_init__(self):
        if self.seconds < 0:
            raise ValueError("negative work")


@dataclass(frozen=True)
class Launch(Command):
    """Launch GPU work onto ``stream``; yields back the :class:`GpuOp`.

    ``reads``/``writes`` declare the logical buffers the op touches for
    the concurrency sanitizer (docs/sanitizer.md); they never affect
    scheduling."""

    stream: CudaStream
    work: WorkModel
    name: str = ""
    wait_events: tuple = ()
    reads: tuple = ()
    writes: tuple = ()


@dataclass(frozen=True)
class LaunchGraph(Command):
    """Launch an instantiated CUDA graph; yields back its completion event."""

    exec: GraphExec
    priority: int = 0
    after: tuple = ()


@dataclass(frozen=True)
class When(Command):
    """SDAG ``when method[ref]``: wait for a matching mailbox message."""

    method: str
    ref: Any = None


@dataclass(frozen=True)
class Await(Command):
    """Suspend until ``event`` triggers (asynchronous completion detection).

    The wake-up travels through the scheduler queue at ``priority`` —
    completion is detected *asynchronously*, never by blocking the PE
    (paper Fig. 4)."""

    event: Event
    priority: float = MsgPriority.GPU_COMPLETION


class ComputeCommands:
    """The compute-command constructors chares and MPI ranks share (use
    with ``yield``)."""

    __slots__ = ()

    def work(self, seconds: float) -> Work:
        """Model ``seconds`` of CPU work."""
        return Work(seconds)

    def launch(
        self,
        stream: CudaStream,
        work: WorkModel,
        name: str = "",
        wait: Iterable[Event] = (),
        reads: Iterable[tuple] = (),
        writes: Iterable[tuple] = (),
    ) -> Launch:
        """Launch GPU work (pays the host-side launch cost); yields the op.
        ``reads``/``writes`` declare the buffers touched, for the sanitizer."""
        return Launch(stream, work, name=name, wait_events=tuple(wait),
                      reads=tuple(reads), writes=tuple(writes))

    def launch_graph(self, graph_exec: GraphExec, priority: int = 0,
                     after: Iterable[Event] = ()) -> LaunchGraph:
        """Launch a pre-instantiated CUDA graph; yields its completion event."""
        return LaunchGraph(graph_exec, priority=priority, after=tuple(after))
