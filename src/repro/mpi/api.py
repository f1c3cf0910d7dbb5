"""An MPI model on the simulated cluster (the paper's baseline).

One :class:`MpiProcess` runs per PE/GPU (the paper's mapping).  A process'
``main()`` is a generator yielding commands; unlike the Charm++ scheduler,
completion waits are **blocking**: the CPU core spins in ``MPI_Wait*`` /
``cudaStreamSynchronize`` (the behaviour that forfeits overlap, §II-A).

Supported surface:

* ``isend``/``irecv`` (host or device buffers — device = CUDA-aware MPI),
  returning :class:`Request` objects;
* ``wait``/``waitall`` (blocking, with per-request completion cost);
* ``sync(event)`` — blocking GPU sync (``cudaStreamSynchronize``);
* ``work``/``launch``/``launch_graph`` — same semantics as the runtime's;
* ``barrier()`` and ``allreduce()`` — binomial-tree collectives built from
  real point-to-point messages (``yield from`` helpers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Sequence

from ..comm import UcxContext
from ..comm.ucx import PRIORITY_COMM
from ..hardware import Cluster
from ..hardware.gpu import CudaStream, WorkModel
from ..hardware.graphs import GraphExec
from ..sim import Event, SimulationError
from ..runtime.commands import Await, Launch, LaunchGraph, Work

__all__ = ["MpiCosts", "Request", "MpiProcess", "MpiWorld"]

US = 1e-6


@dataclass(frozen=True)
class MpiCosts:
    """Per-call CPU overheads of the MPI library."""

    call_overhead_s: float = 0.7 * US
    completion_s: float = 0.4 * US
    collective_setup_s: float = 1.0 * US


class Request:
    """A nonblocking-communication request (``MPI_Request``)."""

    __slots__ = ("handle", "kind")

    def __init__(self, handle, kind: str):
        self.handle = handle
        self.kind = kind

    @property
    def done(self) -> Event:
        return self.handle.done

    @property
    def data(self) -> Any:
        """Received payload (valid after completion; ``None`` for sends)."""
        return self.handle.done.value


@dataclass(frozen=True)
class _Isend:
    dest: int
    size: int
    tag: Any
    device: bool
    payload: Any


@dataclass(frozen=True)
class _Irecv:
    source: int
    size: int
    tag: Any
    device: bool


@dataclass(frozen=True)
class _WaitAll:
    requests: tuple


class MpiProcess:
    """Base class for rank programs; subclass and implement ``main()``."""

    def __init__(self, world: "MpiWorld", rank: int):
        self.world = world
        self.rank = rank
        self.pe = world.cluster.pe(rank)
        self.gpu = self.pe.gpu
        self._coll_seq = 0
        self.init()

    def init(self) -> None:
        """Subclass hook: allocate buffers, create streams."""

    def main(self, msg=None):  # pragma: no cover - must be overridden
        raise NotImplementedError
        yield  # repro-lint: disable=RPL003 -- unreachable generator-marker idiom

    @property
    def size(self) -> int:
        return self.world.size

    # -- command constructors ---------------------------------------------------
    def work(self, seconds: float) -> Work:
        return Work(seconds)

    def launch(self, stream: CudaStream, work: WorkModel, name: str = "",
               wait: Iterable[Event] = (), reads: Iterable[tuple] = (),
               writes: Iterable[tuple] = ()) -> Launch:
        return Launch(stream, work, name=name, wait_events=tuple(wait),
                      reads=tuple(reads), writes=tuple(writes))

    def launch_graph(self, graph_exec: GraphExec, priority: int = 0,
                     after: Iterable[Event] = ()) -> LaunchGraph:
        return LaunchGraph(graph_exec, priority=priority, after=tuple(after))

    def isend(self, dest: int, size: int, tag: Any = 0, device: bool = False,
              payload: Any = None) -> _Isend:
        """Nonblocking send to ``dest``; yields back a :class:`Request`."""
        return _Isend(dest, size, tag, device, payload)

    def irecv(self, source: int, size: int, tag: Any = 0, device: bool = False) -> _Irecv:
        """Nonblocking receive; yields back a :class:`Request`."""
        return _Irecv(source, size, tag, device)

    def wait(self, request: Request) -> _WaitAll:
        """Blocking wait for one request."""
        return _WaitAll((request,))

    def waitall(self, requests: Sequence[Request]) -> _WaitAll:
        """Blocking ``MPI_Waitall``."""
        return _WaitAll(tuple(requests))

    def sync(self, event: Event) -> Await:
        """Blocking GPU sync (``cudaStreamSynchronize``-style)."""
        return Await(event)

    # -- collectives (use with ``yield from``) --------------------------------------
    def barrier(self):
        """Dissemination barrier out of zero-byte point-to-point messages."""
        gen = ("bar", self._coll_seq)
        self._coll_seq += 1
        yield from barrier_algorithm(self, gen)

    def allreduce(self, value, op: Callable[[Any, Any], Any] = None, bytes_per_item: int = 8):
        """Binomial-tree reduce to rank 0 + binomial broadcast; returns the
        reduced value.  ``op`` defaults to addition."""
        gen = ("ared", self._coll_seq)
        self._coll_seq += 1
        result = yield from allreduce_algorithm(self, gen, value, op, bytes_per_item)
        return result

    def notify(self, event: str, **data) -> None:
        """Report an application event to world observers (free)."""
        self.world._notify(event, self, **data)


class MpiWorld:
    """All ranks of one MPI job (one rank per PE)."""

    def __init__(self, cluster: Cluster, costs: Optional[MpiCosts] = None,
                 ucx: Optional[UcxContext] = None):
        self.cluster = cluster
        self.engine = cluster.engine
        self.costs = costs or MpiCosts()
        self.ucx = ucx or UcxContext(cluster)
        self.size = cluster.n_pes
        self.ranks: list[MpiProcess] = []
        self._observers: list[Callable] = []
        self._procs = []

    def launch(self, process_cls, **kwargs) -> list[MpiProcess]:
        """Instantiate ``process_cls`` on every PE and start its ``main``."""
        if self.ranks:
            raise SimulationError("MpiWorld.launch called twice")
        self.ranks = [process_cls(self, r, **kwargs) for r in range(self.size)]
        self._procs = [
            self.engine.process(self._drive(p), name=f"mpi.rank{p.rank}") for p in self.ranks
        ]
        return self.ranks

    def run(self, max_events: Optional[int] = None) -> None:
        """Run until every rank's ``main`` returns (raises on deadlock)."""
        if not self._procs:
            raise SimulationError("launch() before run()")
        from ..sim import ProcessCrashed

        try:
            self.engine.run(max_events=max_events)
        except ProcessCrashed as crash:
            # Surface the rank's own exception, not the harness wrapper.
            raise crash.__cause__ from None
        stuck = [p.name for p in self._procs if not p.triggered]
        if stuck:
            raise SimulationError(f"MPI deadlock: ranks never finished: {stuck}")
        for p in self._procs:
            if not p.ok:
                raise p.value

    # -- the per-rank driver -----------------------------------------------------
    def _drive(self, proc: MpiProcess):
        engine = self.engine
        costs = self.costs
        pe = proc.pe
        coroutine = proc.main()
        value = None

        def busy(seconds):
            if seconds > 0:
                token = pe.busy.begin()
                yield seconds
                pe.busy.end(token)

        def blocking_wait(event):
            # MPI blocks with the CPU captive (polling) — tracked as
            # ``blocked``, not ``busy``: the core does no work, it waits on
            # activity recorded elsewhere (GPU engines, the wire).
            token = pe.blocked.begin()
            yield event
            pe.blocked.end(token)

        while True:
            try:
                cmd = coroutine.send(value)
            except StopIteration:
                return
            value = None
            if isinstance(cmd, Work):
                yield from busy(cmd.seconds)
            elif isinstance(cmd, Launch):
                yield from busy(cmd.stream.device.cpu_launch_cost(cmd.work))
                value = cmd.stream.enqueue(cmd.work, name=cmd.name,
                                           wait_events=list(cmd.wait_events),
                                           reads=cmd.reads, writes=cmd.writes)
                probe = engine.probe
                if probe is not None:
                    probe.on_launch_issue(proc, value)
            elif isinstance(cmd, LaunchGraph):
                yield from busy(cmd.exec.cpu_launch_cost)
                value = cmd.exec.launch(priority=cmd.priority, after=list(cmd.after))
            elif isinstance(cmd, _Isend):
                yield from busy(costs.call_overhead_s)
                handle = self.ucx.isend(
                    proc.rank, cmd.dest, cmd.size, tag=("mpi", cmd.tag),
                    on_device=cmd.device, priority=PRIORITY_COMM, payload=cmd.payload,
                )
                probe = engine.probe
                if probe is not None:
                    probe.on_transfer_post(handle, proc)
                value = Request(handle, "send")
            elif isinstance(cmd, _Irecv):
                yield from busy(costs.call_overhead_s)
                handle = self.ucx.irecv(
                    cmd.source, proc.rank, cmd.size, tag=("mpi", cmd.tag),
                    on_device=cmd.device,
                )
                probe = engine.probe
                if probe is not None:
                    probe.on_transfer_post(handle, proc)
                value = Request(handle, "recv")
            elif isinstance(cmd, _WaitAll):
                yield from busy(costs.completion_s * max(1, len(cmd.requests)))
                pending = [r.done for r in cmd.requests if not r.done.processed]
                if pending:
                    yield from blocking_wait(engine.all_of(pending))
                probe = engine.probe
                if probe is not None:
                    for r in cmd.requests:
                        probe.on_wake(proc, r.done)
                value = [r.data for r in cmd.requests]
            elif isinstance(cmd, Await):
                if not cmd.event.processed:
                    yield from blocking_wait(cmd.event)
                probe = engine.probe
                if probe is not None:
                    probe.on_wake(proc, cmd.event)
                value = cmd.event.value
            else:
                raise SimulationError(f"rank {proc.rank} yielded unknown command {cmd!r}")

    # -- observers -------------------------------------------------------------------
    def observe(self, fn: Callable) -> None:
        self._observers.append(fn)

    def _notify(self, event: str, proc: MpiProcess, **data) -> None:
        for fn in self._observers:
            fn(event, proc, **data)


# ---------------------------------------------------------------------------
# Collective algorithms, shared with AMPI (anything exposing rank/size and
# the isend/irecv/wait command constructors can run them).
# ---------------------------------------------------------------------------


def barrier_algorithm(proc, gen):
    """Dissemination barrier over point-to-point messages."""
    size = proc.size
    mask = 1
    while mask < size:
        to = (proc.rank + mask) % size
        frm = (proc.rank - mask) % size
        rs = yield proc.isend(to, 1, tag=(gen, mask))
        rr = yield proc.irecv(frm, 1, tag=(gen, mask))
        yield proc.waitall([rs, rr])
        mask <<= 1


def allreduce_algorithm(proc, gen, value, op=None, bytes_per_item: int = 8):
    """Binomial reduce-to-0 followed by binomial broadcast."""
    if op is None:
        op = lambda a, b: a + b  # noqa: E731
    size = proc.size
    acc = value
    mask = 1
    while mask < size:
        if proc.rank & mask:
            req = yield proc.isend(proc.rank - mask, bytes_per_item,
                                   tag=(gen, "r", mask), payload=acc)
            yield proc.wait(req)
            break
        partner = proc.rank + mask
        if partner < size:
            req = yield proc.irecv(partner, bytes_per_item, tag=(gen, "r", mask))
            yield proc.wait(req)
            acc = op(acc, req.data)
        mask <<= 1
    mask = 1
    while mask < size:
        if proc.rank < mask:
            partner = proc.rank + mask
            if partner < size:
                req = yield proc.isend(partner, bytes_per_item,
                                       tag=(gen, "b", mask), payload=acc)
                yield proc.wait(req)
        elif proc.rank < 2 * mask:
            req = yield proc.irecv(proc.rank - mask, bytes_per_item, tag=(gen, "b", mask))
            yield proc.wait(req)
            acc = req.data
        mask <<= 1
    return acc
