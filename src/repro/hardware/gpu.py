"""GPU device model: streams, copy engines, kernels, CUDA events.

The model captures exactly the mechanisms the paper's optimizations exploit:

* **Asynchronous streams with priorities** — each stream is a FIFO of
  operations; operations from different streams compete for the device's
  engines, with lower `priority` values winning ties (CUDA's
  ``cudaStreamCreateWithPriority``).  A queued high-priority packing kernel
  therefore jumps ahead of other chares' queued update kernels — but never
  preempts a running one.
* **Separate copy engines** — D2H and H2D DMA engines are independent of the
  compute engine, so copies overlap with kernels *iff* they are issued on
  different streams (the paper's §III-C optimization).
* **CUDA events** — cross-stream dependencies (``cudaStreamWaitEvent``).
* **Launch overheads** — host-side launch cost is charged to the *calling
  PE* via :meth:`GpuDevice.cpu_launch_cost`; device-side launch gap is part
  of the operation duration.  These overheads are what kernel fusion and
  CUDA Graphs (see :mod:`repro.hardware.graphs`) attack.

Durations are computed from :class:`~repro.hardware.specs.GpuSpec` via
:class:`WorkModel` subclasses, keeping "what runs" separate from "how long
it takes".
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional

from ..sim import Driver, Engine, Event, IntervalTracker, Latch, Resource, SimulationError
from .specs import GpuSpec, HostLinkSpec

__all__ = [
    "WorkModel",
    "KernelWork",
    "CopyWork",
    "GpuOp",
    "CudaEvent",
    "CudaStream",
    "GpuDevice",
    "COMPUTE",
    "COPY_D2H",
    "COPY_H2D",
    "COPY_D2D",
]

# Engine kinds on a device.
COMPUTE = "compute"
COPY_D2H = "copy_d2h"
COPY_H2D = "copy_h2d"
COPY_D2D = "copy_d2d"


class WorkModel:
    """How long an operation occupies its engine, given the device specs."""

    engine = COMPUTE

    def duration(self, gpu: GpuSpec, link: HostLinkSpec) -> float:  # pragma: no cover
        raise NotImplementedError

    def device_overhead(self, gpu: GpuSpec) -> float:
        """Device-side launch gap (amortized away inside CUDA graphs)."""
        return gpu.kernel_launch_device_s

    def cpu_launch_cost(self, gpu: GpuSpec, link: HostLinkSpec) -> float:
        """Host-side cost of issuing this op (charged to the calling PE)."""
        return gpu.kernel_launch_cpu_s


@dataclass(frozen=True)
class KernelWork(WorkModel):
    """A compute kernel; duration is the roofline max of its memory and
    flop demands, plus a fixed efficiency factor.

    Parameters
    ----------
    bytes_moved:
        Total DRAM traffic (reads + writes).
    flops:
        Floating-point operations.
    efficiency:
        Fraction of peak the kernel achieves (fused kernels with divergent
        warps use < 1).
    """

    bytes_moved: float
    flops: float = 0.0
    efficiency: float = 1.0

    engine = COMPUTE

    def __post_init__(self):
        if self.bytes_moved < 0 or self.flops < 0:
            raise ValueError("negative work")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError(f"efficiency must be in (0, 1], got {self.efficiency}")

    def duration(self, gpu: GpuSpec, link: HostLinkSpec) -> float:
        mem_t = self.bytes_moved / gpu.mem_bandwidth
        flop_t = self.flops / gpu.flops
        return max(mem_t, flop_t) / self.efficiency


@dataclass(frozen=True)
class CopyWork(WorkModel):
    """A DMA copy.  ``direction`` selects the engine; host-link bandwidth
    applies to D2H/H2D, device memory bandwidth (both a read and a write)
    to D2D."""

    size: int
    direction: str = COPY_D2H

    def __post_init__(self):
        if self.size < 0:
            raise ValueError("negative copy size")
        if self.direction not in (COPY_D2H, COPY_H2D, COPY_D2D):
            raise ValueError(f"bad copy direction {self.direction!r}")

    @property
    def engine(self) -> str:  # type: ignore[override]
        return self.direction

    def duration(self, gpu: GpuSpec, link: HostLinkSpec) -> float:
        if self.direction == COPY_D2D:
            return 2.0 * self.size / gpu.mem_bandwidth
        return link.latency + self.size / link.bandwidth

    def cpu_launch_cost(self, gpu: GpuSpec, link: HostLinkSpec) -> float:
        return link.copy_setup_cpu_s


_op_ids = itertools.count()


class GpuOp:
    """One operation enqueued on a stream.

    ``done`` triggers when the operation completes on the device.
    ``wait_events`` are extra dependencies (CUDA events from other streams).
    ``reads``/``writes`` are the logical buffers the op touches — pure
    declarations for the concurrency sanitizer (docs/sanitizer.md); the
    device model never reads them.
    """

    __slots__ = ("work", "name", "done", "wait_events", "op_id",
                 "in_graph_overhead", "reads", "writes")

    def __init__(
        self,
        engine: Engine,
        work: WorkModel,
        name: str = "",
        wait_events: Optional[Iterable[Event]] = None,
        reads: tuple = (),
        writes: tuple = (),
    ):
        self.work = work
        self.name = name or type(work).__name__
        self.done = Event(engine, self.name)
        self.wait_events = list(wait_events or ())
        self.op_id = next(_op_ids)
        self.in_graph_overhead: Optional[float] = None  # set when run via CUDA graph
        self.reads = tuple(reads)
        self.writes = tuple(writes)


class CudaEvent:
    """``cudaEventRecord`` equivalent: triggers when the stream reaches it
    (all prior ops in the stream complete)."""

    __slots__ = ("fired",)

    def __init__(self, engine: Engine, name: str = "cuda_event"):
        self.fired = engine.event(name=name)


class _Executor(Driver):
    """Runs ops on a device's engines one at a time: request the op's
    engine at ``priority``, hold it for the op's duration, release it and
    succeed ``op.done``, then call ``_op_done()``, which each subclass
    defines.  A :class:`CudaStream` and each CUDA-graph node
    (:mod:`repro.hardware.graphs`) are executors."""

    __slots__ = ("device", "priority", "_op", "_kind", "_req", "_token")

    def _execute(self, op: GpuOp) -> None:
        self._op = op
        kind = self._kind = op.work.engine
        req = self._req = self.device.engines[kind].request(priority=self.priority)
        req.add_callback(self._granted)

    def _granted(self, _req) -> None:
        device = self.device
        op = self._op
        kind = self._kind
        if op.in_graph_overhead is not None:
            overhead = op.in_graph_overhead
        else:
            overhead = op.work.device_overhead(device.spec)
        duration = overhead + op.work.duration(device.spec, device.link)
        if device._has_scaling:
            duration *= device._duration_scale(kind, op.name)
        self._token = device.trackers[kind].begin()
        probe = device.engine.probe
        if probe is not None:
            probe.on_op_start(device, op, kind, duration)
        device.engine.after(duration, self._finished)

    def _finished(self, _ev) -> None:
        device = self.device
        op = self._op
        device.trackers[self._kind].end(self._token)
        device.engines[self._kind].release(self._req)
        probe = device.engine.probe
        if probe is not None:
            probe.on_op_done(op)
        self._op = self._req = None
        op.done.succeed()
        self._op_done()


class CudaStream(_Executor):
    """A FIFO of GPU operations with a scheduling priority.

    Lower ``priority`` values are more urgent (matches
    ``cudaStreamCreateWithPriority`` where -1 is higher priority than 0; we
    simply use the raw number for engine arbitration).

    The stream is its own executor: ops, recorded CUDA events and wait
    markers queue in ``queued`` and are taken one per event, in order; an
    op waits for its CUDA-event dependencies (a :class:`~repro.sim.Latch`)
    and then runs on the device.
    """

    __slots__ = ("name", "ops_issued", "queued", "_idle", "_waits", "_deps")

    def __init__(self, device: "GpuDevice", priority: int = 0, name: str = ""):
        self.device = device
        self.priority = priority
        self.name = name or f"{device.name}.stream"
        self.ops_issued = 0
        #: Items put but not yet taken by the executor.
        self.queued: deque = deque()
        self._idle = False  # True while the executor waits for an item
        self._waits: list[Event] = []  # wait markers taken since the last op
        self._deps = ()
        device.engine.after(0.0, self._next)

    @property
    def component(self) -> str:
        return f"{self.name}.proc"

    # -- public API ----------------------------------------------------------
    def enqueue(self, work: WorkModel, name: str = "", wait_events=None,
                reads: tuple = (), writes: tuple = ()) -> GpuOp:
        """Submit an operation; returns the op (``op.done`` = completion)."""
        op = GpuOp(self.device.engine, work, name=name, wait_events=wait_events,
                   reads=reads, writes=writes)
        probe = self.device.engine.probe
        if probe is not None:
            probe.on_op_enqueue(self, op)
        self._put(op)
        self.ops_issued += 1
        return op

    def record_event(self, name: str = "") -> CudaEvent:
        """Record a CUDA event at the current tail of the stream."""
        ev = CudaEvent(self.device.engine, name=name or f"{self.name}.event")
        self._put(ev)
        return ev

    def wait_event(self, event: CudaEvent) -> None:
        """Make all subsequently-enqueued ops wait for ``event``
        (``cudaStreamWaitEvent``)."""
        self._put(_WaitMarker(event))

    def synchronize_event(self) -> Event:
        """A sim event that triggers when all currently-enqueued work done
        (``cudaStreamSynchronize`` as an awaitable, for HAPI-style use)."""
        return self.record_event().fired

    # -- stream executor -------------------------------------------------------
    def _put(self, item) -> None:
        self.queued.append(item)
        if self._idle:
            self._idle = False
            self.device.engine.after(0.0, self._take)

    def _next(self, _ev=None) -> None:
        """Take the next item with one push, or wait for a put."""
        if self.queued:
            self.device.engine.after(0.0, self._take)
        else:
            self._idle = True

    def _take(self, _ev) -> None:
        item = self.queued.popleft()
        cls = item.__class__
        if cls is not GpuOp:
            if isinstance(item, CudaEvent):
                probe = self.device.engine.probe
                if probe is not None:
                    probe.on_event_record(self, item)
                item.fired.succeed()
            elif isinstance(item, _WaitMarker):
                self._waits.append(item.event.fired)
            self._next()
            return
        self._op = item
        if self._waits or item.wait_events:
            self._deps = self._waits + item.wait_events
            self._waits = []
            Latch(self.device.engine, self._deps, self._deps_done)
        else:
            self._dispatch()

    def _deps_done(self, ev) -> None:
        if not ev.ok:
            raise ev.value
        self._dispatch()

    def _dispatch(self) -> None:
        op, deps = self._op, self._deps
        self._deps = ()
        probe = self.device.engine.probe
        if probe is not None:
            probe.on_op_dispatch(self, op, deps)
        self._execute(op)

    _op_done = _next


class _WaitMarker:
    __slots__ = ("event",)

    def __init__(self, event: CudaEvent):
        self.event = event


class GpuDevice:
    """One GPU: engines, memory accounting, utilization trackers.

    Parameters
    ----------
    engine:
        The simulation engine.
    spec / link:
        Performance characteristics.
    name:
        E.g. ``"node3.gpu2"`` (appears in traces).
    """

    def __init__(self, engine: Engine, spec: GpuSpec, link: HostLinkSpec, name: str = "gpu"):
        self.engine = engine
        self.spec = spec
        self.link = link
        self.name = name
        self.engines: dict[str, Resource] = {
            COMPUTE: Resource(engine, capacity=spec.max_concurrent_kernels, name=f"{name}.compute"),
            COPY_D2H: Resource(engine, capacity=spec.copy_engine_count, name=f"{name}.d2h"),
            COPY_H2D: Resource(engine, capacity=spec.copy_engine_count, name=f"{name}.h2d"),
            COPY_D2D: Resource(engine, capacity=1, name=f"{name}.d2d"),
        }
        self.trackers: dict[str, IntervalTracker] = {
            kind: IntervalTracker(engine, f"{name}.{kind}") for kind in self.engines
        }
        self.mem_allocated = 0
        self._streams: list[CudaStream] = []
        # What-if duration scaling (specs.GpuSpec knobs), resolved once so
        # the neutral default costs a single boolean test per op.
        self._copy_scales = {
            COPY_D2H: spec.d2h_scale,
            COPY_H2D: spec.h2d_scale,
            COPY_D2D: spec.d2d_scale,
        }
        self._op_scales = spec.op_scales
        self._has_scaling = bool(spec.op_scales) or any(
            s != 1.0 for s in self._copy_scales.values())

    # -- streams ---------------------------------------------------------------
    def create_stream(self, priority: int = 0, name: str = "") -> CudaStream:
        stream = CudaStream(self, priority=priority, name=name or f"{self.name}.s{len(self._streams)}")
        self._streams.append(stream)
        return stream

    # -- memory accounting -------------------------------------------------------
    def malloc(self, size: int) -> None:
        """Track a device allocation; raises on out-of-memory."""
        if size < 0:
            raise ValueError("negative allocation")
        if self.mem_allocated + size > self.spec.mem_capacity:
            raise MemoryError(
                f"{self.name}: device OOM "
                f"({(self.mem_allocated + size) / 2**30:.2f} GiB > "
                f"{self.spec.mem_capacity / 2**30:.2f} GiB)"
            )
        self.mem_allocated += size

    def free(self, size: int) -> None:
        if size > self.mem_allocated:
            raise SimulationError(f"{self.name}: freeing more than allocated")
        self.mem_allocated -= size

    # -- cost helpers (paid by the calling PE, not the device) -------------------
    def cpu_launch_cost(self, work: WorkModel) -> float:
        return work.cpu_launch_cost(self.spec, self.link)

    # -- execution ----------------------------------------------------------------
    def _duration_scale(self, kind: str, name: str) -> float:
        """The what-if factor for one op (see ``GpuSpec.op_scales``)."""
        if kind == COMPUTE:
            if name.startswith("graph."):
                name = name[len("graph."):]
            for prefix, scale in self._op_scales:
                if name.startswith(prefix):
                    return scale
            return 1.0
        return self._copy_scales[kind]

    # -- introspection --------------------------------------------------------------
    def busy_seconds(self, kind: str = COMPUTE) -> float:
        return self.trackers[kind].busy_seconds()

    def utilization(self, kind: str = COMPUTE, t0: float = 0.0, t1: Optional[float] = None) -> float:
        return self.trackers[kind].utilization(t0, t1)
