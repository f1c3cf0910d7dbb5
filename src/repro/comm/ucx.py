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
from ..sim import Engine, Event, TokenPool
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
        self.engine.spawn(self._send_proc(handle, priority), name="ucx.send")
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

    # -- protocol drivers ----------------------------------------------------------
    def _device_state(self, pe: int) -> _DeviceCommState:
        state = self._devices.get(pe)
        if state is None:
            state = _DeviceCommState(self.engine, self.cluster.gpu(pe), self.spec)
            self._devices[pe] = state
        return state

    def _send_proc(self, send: TransferHandle, priority: float):
        if send.protocol is Protocol.EAGER:
            yield from self._run_eager(send, priority)
        elif send.protocol is Protocol.RNDV_PIPELINED:
            yield from self._run_pipelined(send, priority)
        else:
            yield from self._run_rendezvous(send, priority)

    def _run_eager(self, send: TransferHandle, priority: float):
        eng = self.engine
        spec = self.spec
        if send.on_device:
            # Tiny staging copy into the pre-registered bounce buffer.
            op = self._device_state(send.src_pe).d2h.enqueue(
                CopyWork(send.size, COPY_D2H), name="ucx.eager_d2h"
            )
            yield op.done
        yield spec.eager_overhead_s
        send.done.succeed()  # source buffer reusable: data is buffered
        delivery = self.net.transfer(
            Message(send.src_pe, send.dst_pe, send.size, tag=send.tag, priority=priority)
        )
        yield eng.all_of([delivery, send.matched])
        recv = send.peer
        assert recv is not None
        yield spec.eager_overhead_s  # receive-side copy-out
        if recv.on_device:
            op = self._device_state(recv.dst_pe).h2d.enqueue(
                CopyWork(recv.size, COPY_H2D), name="ucx.eager_h2d"
            )
            yield op.done
        recv.done.succeed(send.payload)

    def _run_rendezvous(self, send: TransferHandle, priority: float):
        eng = self.engine
        spec = self.spec
        yield send.matched
        recv = send.peer
        assert recv is not None
        yield self.cluster.spec.node.nic.rendezvous_rtt_s
        if send.protocol is Protocol.RNDV_GPUDIRECT:
            yield spec.gpudirect_reg_overhead_s
        if send.protocol is Protocol.DEVICE_IPC and send.src_pe == send.dst_pe:
            # Same GPU: a device-to-device copy on its comm stream, no transport.
            stream = self._device_state(send.src_pe).d2h
            op = stream.enqueue(CopyWork(send.size, COPY_D2D), name="ucx.ipc_d2d")
            yield op.done
        else:
            delivery = self.net.transfer(
                Message(send.src_pe, send.dst_pe, send.size, tag=send.tag, priority=priority)
            )
            yield delivery
        send.done.succeed()
        recv.done.succeed(send.payload)

    def _run_pipelined(self, send: TransferHandle, priority: float):
        """Chunked host staging: D2H -> wire -> H2D per chunk, serial within a
        message (chunk synchronization), overlapping freely across messages."""
        eng = self.engine
        spec = self.spec
        yield send.matched
        recv = send.peer
        assert recv is not None
        yield self.cluster.spec.node.nic.rendezvous_rtt_s
        src_state = self._device_state(send.src_pe) if send.on_device else None
        dst_state = self._device_state(recv.dst_pe) if recv.on_device else None
        same_node = self.net.node_of_pe(send.src_pe) == self.net.node_of_pe(send.dst_pe)
        chunk = min(spec.pipeline_chunk_bytes, spec.staging_pool_bytes)
        n_chunks = max(1, math.ceil(send.size / chunk))
        unstage_events: list[Event] = []
        remaining = send.size
        probe = eng.probe
        if probe is not None:
            probe.on_ucx_pipeline(send, n_chunks)
        if src_state is not None:
            src_state.active_pipelines += 1
        try:
            for _ in range(n_chunks):
                csize = min(chunk, remaining)
                remaining -= csize
                if src_state is not None:
                    grant = src_state.pool.acquire(csize)
                    yield grant
                    stage = src_state.d2h.enqueue(CopyWork(csize, COPY_D2H), name="ucx.stage")
                    yield stage.done
                yield spec.per_chunk_overhead_s
                delivery = self.net.transfer(
                    Message(
                        send.src_pe,
                        send.dst_pe,
                        csize,
                        tag=send.tag,
                        priority=priority,
                        wire_time_scale=1.0 / self._pipeline_efficiency(src_state, same_node),
                    )
                )
                yield delivery
                if src_state is not None:
                    src_state.pool.release(csize)
                if dst_state is not None:
                    unstage = dst_state.h2d.enqueue(CopyWork(csize, COPY_H2D), name="ucx.unstage")
                    unstage_events.append(unstage.done)
        finally:
            if src_state is not None:
                src_state.active_pipelines -= 1
        send.done.succeed()
        if unstage_events:
            yield eng.all_of(unstage_events)
        recv.done.succeed(send.payload)

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
