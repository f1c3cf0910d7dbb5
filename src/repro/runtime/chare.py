"""Chares: message-driven objects placed on one PE for their lifetime.

A :class:`Chare` subclass defines *entry methods*:

* **generator methods** (e.g. ``run``) — long-running SDAG-style control
  flow.  They yield :mod:`~repro.runtime.commands` objects and are driven
  by the PE's scheduler, suspending at ``when``/``wait`` points so other
  chares can interleave (this interleaving *is* the automatic overlap).
* **plain methods** — short callbacks executed to completion.

Every entry method receives the triggering :class:`EntryMessage` as its
single argument.  Messages whose ``method`` names no real method are
*mailbox deposits*, consumed by ``yield self.when(name, ref)`` — the
equivalent of SDAG's ``when name[ref]`` for data-only entry methods like
the paper's ``recvHalo``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterable, Iterator, Optional

from ..sim import Event
from .commands import Await, ComputeCommands, When
from .costs import MsgPriority
from .messages import EntryMessage

__all__ = ["Chare", "Frame"]


class Frame:
    """One executing SDAG continuation (a generator being driven)."""

    __slots__ = ("chare", "coroutine", "waiting_when", "finished", "method", "_name")

    def __init__(self, chare: "Chare", coroutine, name: str = "", method: str = ""):
        self.chare = chare
        self.coroutine = coroutine
        self.waiting_when: Optional[When] = None
        self.finished = False
        self.method = method
        self._name = name

    @property
    def name(self) -> str:
        """Diagnostic label, built lazily — frames are created per entry
        message, so the hot path must not pay for a repr nobody reads."""
        if self._name:
            return self._name
        if self.method:
            return f"{self.chare!r}.{self.method}"
        return ""

    def matches(self, method: str, ref: Any) -> bool:
        w = self.waiting_when
        return w is not None and w.method == method and (w.ref is None or w.ref == ref)


class Chare(ComputeCommands):
    """Base class for user chares.

    Attributes set by the runtime at construction: ``runtime``, ``array``,
    ``index`` (tuple), ``pe`` (the :class:`~repro.hardware.cluster.PE`),
    ``gpu`` (its device).  Subclasses implement ``init()`` for setup instead
    of overriding ``__init__``.
    """

    def __init__(self, runtime, array, index):
        self.runtime = runtime
        self.array = array
        self.index = index
        self.pe = runtime.cluster.pe(array.mapping[index])
        self.gpu = self.pe.gpu
        # Mailbox deposits indexed method -> ref -> FIFO of (deposit number,
        # message).  A ref's queue is deleted when it empties; the deposit
        # number orders deposits across refs for ``when(method)`` without a
        # ref.  Only the methods below touch this layout.
        self._mailboxes: dict[str, dict[Any, deque]] = {}
        self._deposits = 0
        self._frames: list[Frame] = []
        self._reduction_seq = 0
        self.init()

    def init(self) -> None:
        """Subclass hook: allocate buffers, create streams, etc."""

    # -- command constructors (use with ``yield``; ``work``/``launch``/
    # ``launch_graph`` come from ComputeCommands) ----------------------------
    def when(self, method: str, ref: Any = None) -> When:
        """SDAG ``when method[ref]``; yields the matching message."""
        return When(method, ref)

    def wait(self, event: Event, priority: float = MsgPriority.GPU_COMPLETION) -> Await:
        """HAPI-style asynchronous completion wait; yields the event value."""
        return Await(event, priority)

    def wait_all(self, events: Iterable[Event],
                 priority: float = MsgPriority.GPU_COMPLETION) -> Await:
        """Wait for several events (one scheduler wake-up at the end)."""
        return Await(self.runtime.engine.all_of(list(events)), priority)

    # -- communication ---------------------------------------------------------
    def send(
        self,
        index,
        method: str,
        ref: Any = None,
        data_bytes: int = 0,
        payload: Any = None,
        priority: float = MsgPriority.HALO_DATA,
    ) -> None:
        """Asynchronously invoke ``method`` on element ``index`` of this
        chare's own array (non-blocking; cost charged at the next yield)."""
        self.array.send(self, index, method, ref=ref, data_bytes=data_bytes,
                        payload=payload, priority=priority)

    def channel_to(self, index) -> "Channel":
        """A Channel-API endpoint to a neighbouring element (cached)."""
        from .channel import Channel  # local import to avoid a cycle

        return Channel.get(self, index)

    def gpu_send(self, index, method: str, size: int, ref: Any = None) -> None:
        """GPU Messaging API send (metadata message + posted receive on the
        target — the slower, pre-Channel-API mechanism, §II-B)."""
        from .gpu_messaging import gpu_message_send

        gpu_message_send(self, index, method, size, ref)

    def charge(self, seconds: float) -> None:
        """Account CPU time from a *plain* entry method (no yield needed)."""
        self.runtime.scheduler_of(self.pe.index).add_charge(seconds)

    # -- collectives ----------------------------------------------------------
    def allreduce(self, value, op: str = "sum"):
        """Array-wide allreduce; use as ``result = yield from self.allreduce(x)``.

        Modeled with real messages: per-PE partial combining, a partial
        message per PE to the root, and a broadcast back.
        """
        seq = self._reduction_seq
        self._reduction_seq += 1
        self.runtime.reductions.contribute(self, seq, value, op)
        msg = yield self.when("_reduction_result", ref=seq)
        return msg.payload

    # -- mailbox internals (used by the scheduler) -------------------------------
    def _mailbox_push(self, msg: EntryMessage) -> None:
        boxes = self._mailboxes.get(msg.method)
        if boxes is None:
            boxes = self._mailboxes[msg.method] = {}
        box = boxes.get(msg.ref)
        if box is None:
            box = boxes[msg.ref] = deque()
        box.append((self._deposits, msg))
        self._deposits += 1

    def _mailbox_pop(self, method: str, ref: Any) -> Optional[EntryMessage]:
        """The oldest deposit into ``method`` with this ``ref`` (with any
        ref when ``ref`` is None), removed; ``None`` if there is none."""
        boxes = self._mailboxes.get(method)
        if not boxes:
            return None
        if ref is None:
            # Oldest across refs: compare the heads of the live queues.
            ref = min(boxes, key=lambda r: boxes[r][0][0])
        box = boxes.get(ref)
        if box is None:
            return None
        msg = box.popleft()[1]
        if not box:
            del boxes[ref]
        return msg

    def leftover_deposits(self) -> Iterator[EntryMessage]:
        """Deposits no ``when`` consumed, per method (in order of each
        method's first deposit), oldest first within a method."""
        for boxes in self._mailboxes.values():
            # Deposit numbers are unique, so the sort never compares messages.
            for _n, msg in sorted(entry for box in boxes.values() for entry in box):
                yield msg

    def _take_waiting_frame(self, method: str, ref: Any) -> Optional[Frame]:
        for frame in self._frames:
            if frame.matches(method, ref):
                frame.waiting_when = None
                return frame
        return None

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__}{self.index} on pe{self.pe.index}>"
