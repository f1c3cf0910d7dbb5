"""UCX-like two-sided communication engine over the simulated network.

This is the substrate beneath both CUDA-aware MPI (:mod:`repro.mpi`) and the
Charm++ Channel API (:mod:`repro.runtime.channel`) — the paper notes both
ride UCX on Summit.

Semantics
---------
``isend``/``irecv`` are matched by ``(src_pe, dst_pe, tag)`` in FIFO order
(no wildcards — the reproduced workloads never use them).  Each returns a
:class:`TransferHandle` whose ``done`` event triggers when:

* send: the source buffer is reusable (eager: after local buffering;
  rendezvous: when the wire has drained the source);
* recv: the payload is fully in the destination buffer (for device
  transfers: in GPU memory).

Protocol timing (see :mod:`repro.comm.protocols` for selection):

* **eager** — sender buffers into a bounce buffer (plus a tiny D2H staging
  copy for device buffers) and completes immediately; the wire transfer and
  a receive-side copy-out happen asynchronously.
* **rendezvous host** — waits for the matching receive, pays an RTS/CTS
  round trip, then streams at full bandwidth.
* **rendezvous GPUDirect** — as above plus memory-registration overhead;
  bytes move NIC<->GPU with *no* host copies and no copy-engine usage.
* **rendezvous pipelined host staging** — the message is chopped into
  chunks; each chunk is staged D2H on the sending GPU's copy engine through
  a bounded host bounce pool, sent (at reduced port efficiency — chunk
  synchronization gaps), and un-staged H2D on the receiver.  The staging
  copies contend with the *application's* copies and with other chares'
  chunks on the same device: this contention is precisely the "stacked
  slowdown" of Fig. 7a under overdecomposition.
"""

from __future__ import annotations

import math
import weakref
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Optional

from ..hardware import Cluster, GpuDevice, Message
from ..hardware.gpu import COPY_D2D, COPY_D2H, COPY_H2D, CopyWork
from ..hardware.specs import UcxSpec
from ..sim import Driver, Engine, Event, Latch, TokenPool
from .protocols import Protocol, select_protocol

__all__ = ["TransferHandle", "UcxContext", "PRIORITY_COMM", "PRIORITY_COMPUTE"]

# Handle event labels, interned once (isend/irecv run per message).
_DONE_NAMES = {"send": "ucx.send.done", "recv": "ucx.recv.done"}

# Engine-arbitration priorities shared across the stack: communication and
# its helper operations outrank bulk compute (paper §III-A).
PRIORITY_COMM = 0
PRIORITY_COMPUTE = 10


@dataclass(eq=False)
class TransferHandle:
    """One side of a point-to-point transfer.

    ``matched`` exists on send handles only: it fires, with the receive
    handle as its value, once the send is matched.  ``peer`` is the other
    side once matched.  A send holds its receive strongly (the send's
    driver needs it until delivery); a receive holds its send weakly, so
    the pair forms no reference cycle and both are freed by reference
    counting when the message completes.  A receive's ``peer`` therefore
    reads ``None`` once its send handle has been freed.
    """

    kind: str  # "send" | "recv"
    src_pe: int
    dst_pe: int
    size: int
    tag: object
    on_device: bool
    done: Event
    payload: object = None
    protocol: Optional[Protocol] = None
    matched: Optional[Event] = None
    _peer: object = field(default=None, repr=False)

    @property
    def peer(self) -> Optional["TransferHandle"]:
        peer = self._peer
        if peer is None or self.kind == "send":
            return peer
        return peer()  # a receive's weak link to its send


class _DeviceCommState:
    """Per-GPU UCX internals: one high-priority staging stream per copy
    direction plus the bounded host bounce-buffer pool."""

    def __init__(self, engine: Engine, gpu: GpuDevice, spec: UcxSpec):
        self.d2h = gpu.create_stream(priority=PRIORITY_COMM, name=f"{gpu.name}.ucx_d2h")
        self.h2d = gpu.create_stream(priority=PRIORITY_COMM, name=f"{gpu.name}.ucx_h2d")
        self.pool = TokenPool(engine, capacity=spec.staging_pool_bytes, name=f"{gpu.name}.ucx_pool")
        self.active_pipelines = 0  # concurrent pipelined sends from this device


class UcxContext:
    """The communication engine for one simulated cluster."""

    def __init__(self, cluster: Cluster, spec: Optional[UcxSpec] = None):
        self.cluster = cluster
        self.engine = cluster.engine
        self.net = cluster.network
        self.spec = spec or cluster.spec.ucx
        # Unmatched handles by (src_pe, dst_pe, tag); a key is deleted as
        # soon as its queue empties, so matched traffic leaves nothing behind.
        self._pending_sends: dict[tuple, deque] = {}
        self._pending_recvs: dict[tuple, deque] = {}
        self._devices: dict[int, _DeviceCommState] = {}
        self.protocol_counts: dict[Protocol, int] = defaultdict(int)

    # -- public API -----------------------------------------------------------
    def isend(
        self,
        src_pe: int,
        dst_pe: int,
        size: int,
        tag: object = None,
        on_device: bool = False,
        priority: float = PRIORITY_COMM,
        payload: object = None,
    ) -> TransferHandle:
        """Post a nonblocking send; returns a handle with a ``done`` event.

        ``payload`` is optional functional-mode data (e.g. a numpy halo
        face); it is handed to the matching receive's ``done`` event value
        and never affects timing (the explicit ``size`` does).
        """
        handle = self._make_handle("send", src_pe, dst_pe, size, tag, on_device)
        handle.payload = payload
        same_node = self.net.node_of_pe(src_pe) == self.net.node_of_pe(dst_pe)
        handle.protocol = select_protocol(self.spec, size, on_device, same_node=same_node)
        self.protocol_counts[handle.protocol] += 1
        probe = self.engine.probe
        if probe is not None:
            probe.on_ucx_post(handle)
        self._match(handle)
        driver = _SEND_DRIVERS.get(handle.protocol, _RendezvousSend)(self, handle, priority)
        self.engine.after(0.0, driver._start)
        return handle

    def irecv(
        self,
        src_pe: int,
        dst_pe: int,
        size: int,
        tag: object = None,
        on_device: bool = False,
    ) -> TransferHandle:
        """Post a nonblocking receive; ``done`` fires with data in place."""
        handle = self._make_handle("recv", src_pe, dst_pe, size, tag, on_device)
        probe = self.engine.probe
        if probe is not None:
            probe.on_ucx_post(handle)
        self._match(handle)
        return handle

    # -- matching ---------------------------------------------------------------
    def _make_handle(self, kind, src_pe, dst_pe, size, tag, on_device) -> TransferHandle:
        if size < 0:
            raise ValueError("negative size")
        return TransferHandle(
            kind=kind,
            src_pe=src_pe,
            dst_pe=dst_pe,
            size=size,
            tag=tag,
            on_device=on_device,
            done=Event(self.engine, name=_DONE_NAMES[kind]),
            matched=Event(self.engine, name="ucx.send.matched") if kind == "send" else None,
        )

    def _match(self, handle: TransferHandle) -> None:
        key = (handle.src_pe, handle.dst_pe, handle.tag)
        is_send = handle.kind == "send"
        mine, theirs = (
            (self._pending_sends, self._pending_recvs)
            if is_send
            else (self._pending_recvs, self._pending_sends)
        )
        queue = theirs.get(key)
        if queue:
            peer = queue.popleft()
            if not queue:
                del theirs[key]
            send, recv = (handle, peer) if is_send else (peer, handle)
            send._peer = recv
            recv._peer = weakref.ref(send)
            send.matched.succeed(recv)
        else:
            mine.setdefault(key, deque()).append(handle)

    # -- protocol state ------------------------------------------------------------
    def _device_state(self, pe: int) -> _DeviceCommState:
        state = self._devices.get(pe)
        if state is None:
            state = _DeviceCommState(self.engine, self.cluster.gpu(pe), self.spec)
            self._devices[pe] = state
        return state

    def _pipeline_efficiency(self, src_state: Optional[_DeviceCommState], same_node: bool) -> float:
        """Achieved fraction of port bandwidth for one pipelined chunk.

        Inter-node efficiency degrades once the source device runs more
        concurrent pipelined transfers than its progress context sustains
        (the overdecomposition "stacking" of Fig. 7a)."""
        spec = self.spec
        if same_node:
            return spec.pipeline_intra_efficiency
        base = spec.pipeline_wire_efficiency
        n = src_state.active_pipelines if src_state is not None else 1
        n = min(n, spec.pipeline_concurrency_cap)
        over = max(0, n - spec.pipeline_concurrency_free)
        return base / (1.0 + spec.pipeline_concurrency_penalty * over)

    # -- diagnostics ----------------------------------------------------------------
    def pending_counts(self) -> tuple[int, int]:
        """(unmatched sends, unmatched recvs) — for leak/deadlock tests."""
        sends = sum(len(q) for q in self._pending_sends.values())
        recvs = sum(len(q) for q in self._pending_recvs.values())
        return sends, recvs


class _Send(Driver):
    """The driver of one :meth:`UcxContext.isend`; one subclass per protocol
    family.  Each holds its send handle, and the matched receive once
    known, until the receive completes."""

    __slots__ = ("ucx", "send", "priority", "recv")

    component = "ucx.send"

    def __init__(self, ucx: UcxContext, send: TransferHandle, priority: float):
        self.ucx = ucx
        self.send = send
        self.priority = priority

    def _message(self, size: int, wire_time_scale: float = 1.0) -> Message:
        send = self.send
        return Message(send.src_pe, send.dst_pe, size, tag=send.tag,
                       priority=self.priority, wire_time_scale=wire_time_scale)

    def _finish(self, ev) -> None:
        """The payload is in place at the receiver (``ev`` is a latch's
        event, or ``None`` when nothing was joined)."""
        if ev is not None and not ev.ok:
            raise ev.value
        self.recv.done.succeed(self.send.payload)


class _EagerSend(_Send):
    """Eager: stage (device buffers) into the bounce buffer and complete
    the send; the wire transfer, the match and the receive-side copy-out
    follow asynchronously."""

    __slots__ = ()

    def _start(self, _ev) -> None:
        send = self.send
        if send.on_device:
            # Tiny staging copy into the pre-registered bounce buffer.
            op = self.ucx._device_state(send.src_pe).d2h.enqueue(
                CopyWork(send.size, COPY_D2H), name="ucx.eager_d2h")
            op.done.add_callback(self._staged)
        else:
            self._staged(None)

    def _staged(self, _ev) -> None:
        self.ucx.engine.after(self.ucx.spec.eager_overhead_s, self._buffered)

    def _buffered(self, _ev) -> None:
        send = self.send
        send.done.succeed()  # source buffer reusable: data is buffered
        delivery = self.ucx.net.transfer(self._message(send.size))
        Latch(self.ucx.engine, [delivery, send.matched], self._arrived)

    def _arrived(self, ev) -> None:
        if not ev.ok:
            raise ev.value
        recv = self.recv = self.send.peer
        assert recv is not None
        self.ucx.engine.after(self.ucx.spec.eager_overhead_s, self._copied_out)  # receive-side copy-out

    def _copied_out(self, _ev) -> None:
        recv = self.recv
        if recv.on_device:
            op = self.ucx._device_state(recv.dst_pe).h2d.enqueue(
                CopyWork(recv.size, COPY_H2D), name="ucx.eager_h2d")
            op.done.add_callback(self._finish)
        else:
            self._finish(None)


class _RendezvousSend(_Send):
    """Rendezvous over host memory, GPUDirect (plus memory registration)
    or device IPC (a same-GPU pair is one device-to-device copy)."""

    __slots__ = ()

    def _start(self, _ev) -> None:
        self.send.matched.add_callback(self._matched)

    def _matched(self, _ev) -> None:
        """The match is in: pay the RTS/CTS round trip."""
        recv = self.recv = self.send.peer
        assert recv is not None
        self.ucx.engine.after(self.ucx.cluster.spec.node.nic.rendezvous_rtt_s, self._handshaken)

    def _handshaken(self, _ev) -> None:
        if self.send.protocol is Protocol.RNDV_GPUDIRECT:
            self.ucx.engine.after(self.ucx.spec.gpudirect_reg_overhead_s, self._stream)
        else:
            self._stream(None)

    def _stream(self, _ev) -> None:
        send = self.send
        if send.protocol is Protocol.DEVICE_IPC and send.src_pe == send.dst_pe:
            # Same GPU: a device-to-device copy on its comm stream, no transport.
            stream = self.ucx._device_state(send.src_pe).d2h
            done = stream.enqueue(CopyWork(send.size, COPY_D2D), name="ucx.ipc_d2d").done
        else:
            done = self.ucx.net.transfer(self._message(send.size))
        done.add_callback(self._drained)

    def _drained(self, _ev) -> None:
        self.send.done.succeed()
        self._finish(None)


class _PipelinedSend(_RendezvousSend):
    """Chunked host staging: D2H -> wire -> H2D per chunk, serial within a
    message (chunk synchronization), overlapping freely across messages.
    The source device counts the send in ``active_pipelines`` from the
    first chunk until the chunk loop ends (or a step raises)."""

    __slots__ = ("src_state", "dst_state", "same_node", "chunk", "chunks_left",
                 "remaining", "csize", "unstaged", "active")

    def __init__(self, ucx: UcxContext, send: TransferHandle, priority: float):
        super().__init__(ucx, send, priority)
        self.active = False

    def _handshaken(self, _ev) -> None:
        ucx = self.ucx
        spec = ucx.spec
        send, recv = self.send, self.recv
        self.src_state = src_state = ucx._device_state(send.src_pe) if send.on_device else None
        self.dst_state = ucx._device_state(recv.dst_pe) if recv.on_device else None
        self.same_node = ucx.net.node_of_pe(send.src_pe) == ucx.net.node_of_pe(send.dst_pe)
        self.chunk = min(spec.pipeline_chunk_bytes, spec.staging_pool_bytes)
        self.chunks_left = max(1, math.ceil(send.size / self.chunk))
        self.unstaged = []
        self.remaining = send.size
        probe = ucx.engine.probe
        if probe is not None:
            probe.on_ucx_pipeline(send, self.chunks_left)
        if src_state is not None:
            self.active = True
            src_state.active_pipelines += 1
        self._next_chunk()

    def _next_chunk(self) -> None:
        if not self.chunks_left:
            self._leave_pipeline()
            self.send.done.succeed()
            if self.unstaged:
                Latch(self.ucx.engine, self.unstaged, self._finish)
            else:
                self._finish(None)
            return
        self.chunks_left -= 1
        csize = self.csize = min(self.chunk, self.remaining)
        self.remaining -= csize
        if self.src_state is not None:
            self.src_state.pool.acquire(csize).add_callback(self._granted)
        else:
            self._staged(None)

    def _granted(self, _ev) -> None:
        stage = self.src_state.d2h.enqueue(CopyWork(self.csize, COPY_D2H), name="ucx.stage")
        stage.done.add_callback(self._staged)

    def _staged(self, _ev) -> None:
        self.ucx.engine.after(self.ucx.spec.per_chunk_overhead_s, self._send_chunk)

    def _send_chunk(self, _ev) -> None:
        efficiency = self.ucx._pipeline_efficiency(self.src_state, self.same_node)
        delivery = self.ucx.net.transfer(self._message(self.csize, 1.0 / efficiency))
        delivery.add_callback(self._delivered)

    def _delivered(self, _ev) -> None:
        csize = self.csize
        if self.src_state is not None:
            self.src_state.pool.release(csize)
        if self.dst_state is not None:
            unstage = self.dst_state.h2d.enqueue(CopyWork(csize, COPY_H2D), name="ucx.unstage")
            self.unstaged.append(unstage.done)
        self._next_chunk()

    def _leave_pipeline(self) -> None:
        """The chunk loop's ``finally``: runs once, when the loop ends or a
        step raises."""
        if self.active:
            self.active = False
            self.src_state.active_pipelines -= 1

    _abort = _leave_pipeline


_SEND_DRIVERS = {Protocol.EAGER: _EagerSend, Protocol.RNDV_PIPELINED: _PipelinedSend}
