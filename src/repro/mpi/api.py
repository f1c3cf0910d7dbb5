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
* ``work``/``launch``/``launch_graph`` — the runtime's own commands;
* ``barrier()`` and ``allreduce()`` — binomial-tree collectives built from
  real point-to-point messages (``yield from`` helpers).

One rank model, hosted two ways: :meth:`MpiWorld.interpret` is the only
command interpreter.  It lowers ``isend``/``irecv``/``waitall`` onto the
base ``Work``/``Await`` commands, which :meth:`MpiWorld._drive` runs
blocking on the rank's PE — and which AMPI (:mod:`repro.ampi`, a subclass
of both classes here) hands to the hosting chare's scheduler instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from ..comm import UcxContext
from ..comm.ucx import PRIORITY_COMM
from ..hardware import Cluster
from ..sim import Event, ProcessCrashed, SimulationError
from ..runtime.commands import Await, ComputeCommands, Launch, LaunchGraph, Work

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


#: Commands a rank's ``main`` may yield that its host runs as they are.
_BASE_COMMANDS = (Work, Launch, LaunchGraph, Await)


class MpiProcess(ComputeCommands):
    """Base class for rank programs; subclass and implement ``main()``."""

    #: Prefix of the collectives' tags (AMPI keeps its own namespace).
    _coll_prefix = ""

    def __init__(self, world: "MpiWorld", rank: int):
        self.world = world
        self.rank = rank
        self._coll_seq = 0
        self._bind_pe()
        self.init()

    def _bind_pe(self) -> None:
        """An MPI rank owns PE ``rank`` and its GPU from construction on."""
        self.pe = self.world.cluster.pe(self.rank)
        self.gpu = self.pe.gpu

    def init(self) -> None:
        """Subclass hook: allocate buffers, create streams."""

    def main(self, msg=None):  # pragma: no cover - must be overridden
        raise NotImplementedError
        yield  # repro-lint: disable=RPL003 -- unreachable generator-marker idiom

    @property
    def size(self) -> int:
        return self.world.size

    # -- command constructors ---------------------------------------------------
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
        gen = (self._coll_prefix + "bar", self._coll_seq)
        self._coll_seq += 1
        size = self.size
        mask = 1
        while mask < size:
            to = (self.rank + mask) % size
            frm = (self.rank - mask) % size
            rs = yield self.isend(to, 1, tag=(gen, mask))
            rr = yield self.irecv(frm, 1, tag=(gen, mask))
            yield self.waitall([rs, rr])
            mask <<= 1

    def allreduce(self, value, op: Callable[[Any, Any], Any] = None, bytes_per_item: int = 8):
        """Binomial-tree reduce to rank 0 + binomial broadcast; returns the
        reduced value.  ``op`` defaults to addition."""
        gen = (self._coll_prefix + "ared", self._coll_seq)
        self._coll_seq += 1
        if op is None:
            op = lambda a, b: a + b  # noqa: E731
        rank = self.rank
        size = self.size
        acc = value
        mask = 1
        while mask < size:
            if rank & mask:
                req = yield self.isend(rank - mask, bytes_per_item,
                                       tag=(gen, "r", mask), payload=acc)
                yield self.wait(req)
                break
            partner = rank + mask
            if partner < size:
                req = yield self.irecv(partner, bytes_per_item, tag=(gen, "r", mask))
                yield self.wait(req)
                acc = op(acc, req.data)
            mask <<= 1
        mask = 1
        while mask < size:
            if rank < mask:
                partner = rank + mask
                if partner < size:
                    req = yield self.isend(partner, bytes_per_item,
                                           tag=(gen, "b", mask), payload=acc)
                    yield self.wait(req)
            elif rank < 2 * mask:
                req = yield self.irecv(rank - mask, bytes_per_item, tag=(gen, "b", mask))
                yield self.wait(req)
                acc = req.data
            mask <<= 1
        return acc


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
        self._procs = []

    def launch(self, process_cls, **kwargs) -> list[MpiProcess]:
        """Instantiate ``process_cls`` for every rank and start its ``main``."""
        if self.ranks:
            raise SimulationError(f"{type(self).__name__}.launch called twice")
        self.ranks = [process_cls(self, r, **kwargs) for r in range(self.size)]
        self._start()
        return self.ranks

    def _start(self) -> None:
        """Start every rank: one blocking driver process per PE."""
        self._procs = [
            self.engine.process(self._drive(p), name=f"mpi.rank{p.rank}") for p in self.ranks
        ]

    def run(self, max_events: Optional[int] = None) -> None:
        """Run until every rank's ``main`` returns (raises on deadlock)."""
        if not self._procs:
            raise SimulationError("launch() before run()")
        self._run_ranks(self.engine.run, max_events)
        stuck = [p.name for p in self._procs if not p.triggered]
        if stuck:
            raise SimulationError(f"MPI deadlock: ranks never finished: {stuck}")
        for p in self._procs:
            if not p.ok:
                raise p.value

    @staticmethod
    def _run_ranks(run, max_events: Optional[int]) -> None:
        """Call ``run(max_events=max_events)``; a rank's exception escapes as
        itself, not as the :class:`ProcessCrashed` of the process hosting
        it, so a failing rank program raises the same error on every host."""
        try:
            run(max_events=max_events)
        except ProcessCrashed as crash:
            raise crash.__cause__ from None

    def _route(self, src: int, dst: int, tag: Any) -> tuple:
        """UCX source PE, destination PE and tag of a message from rank
        ``src`` to rank ``dst`` (rank = PE under MPI)."""
        return src, dst, ("mpi", tag)

    # -- the one command interpreter --------------------------------------------------
    def interpret(self, proc: MpiProcess, owner):
        """Run ``proc.main()``, yielding only base commands to its host.

        ``Work``/``Launch``/``LaunchGraph``/``Await`` pass through (their
        results are sent back into ``main``); ``isend``/``irecv`` become the
        MPI call overhead (``Work``) and a UCX post; ``waitall`` becomes the
        per-request completion cost (``Work``) and one ``Await`` on the
        pending requests.  ``owner`` is the rank's identity on the probe bus:
        the rank itself under MPI, its hosting chare under AMPI.
        """
        engine = self.engine
        costs = self.costs
        ucx = self.ucx
        route = self._route
        rank = proc.rank
        call = Work(costs.call_overhead_s)
        coroutine = proc.main()
        value = None
        while True:
            try:
                cmd = coroutine.send(value)
            except StopIteration:
                return
            cls = cmd.__class__
            if cls is _Isend or cls is _Irecv:
                yield call
                if cls is _Isend:
                    src, dst, tag = route(rank, cmd.dest, cmd.tag)
                    handle = ucx.isend(src, dst, cmd.size, tag=tag, on_device=cmd.device,
                                       priority=PRIORITY_COMM, payload=cmd.payload)
                else:
                    src, dst, tag = route(cmd.source, rank, cmd.tag)
                    handle = ucx.irecv(src, dst, cmd.size, tag=tag, on_device=cmd.device)
                probe = engine.probe
                if probe is not None:
                    probe.on_transfer_post(handle, owner)
                value = Request(handle, handle.kind)
            elif cls is _WaitAll:
                requests = cmd.requests
                yield Work(costs.completion_s * max(1, len(requests)))
                pending = [r.done for r in requests if not r.done.processed]
                if pending:
                    yield Await(engine.all_of(pending))
                probe = engine.probe
                if probe is not None:
                    for r in requests:
                        probe.on_wake(owner, r.done)
                value = [r.data for r in requests]
            elif isinstance(cmd, _BASE_COMMANDS):
                value = yield cmd
            else:
                raise SimulationError(f"rank {rank} yielded unknown command {cmd!r}")

    def _drive(self, proc: MpiProcess):
        """Run ``proc``'s base commands blocking on its PE.

        Work and launch costs keep the core ``busy``; a wait keeps it
        captive (polling), tracked as ``blocked``: the core does no work, it
        waits on activity recorded elsewhere (GPU engines, the wire).
        """
        engine = self.engine
        pe = proc.pe
        commands = self.interpret(proc, proc)
        value = None
        while True:
            try:
                cmd = commands.send(value)
            except StopIteration:
                return
            value = None
            if isinstance(cmd, Await):
                event = cmd.event
                if not event.processed:
                    token = pe.blocked.begin()
                    yield event
                    pe.blocked.end(token)
                probe = engine.probe
                if probe is not None:
                    probe.on_wake(proc, event)
                value = event.value
                continue
            if isinstance(cmd, Work):
                seconds = cmd.seconds
            elif isinstance(cmd, Launch):
                seconds = cmd.stream.device.cpu_launch_cost(cmd.work)
            else:
                seconds = cmd.exec.cpu_launch_cost
            if seconds > 0:
                token = pe.busy.begin()
                yield seconds
                pe.busy.end(token)
            if isinstance(cmd, Launch):
                value = cmd.stream.enqueue(cmd.work, name=cmd.name,
                                           wait_events=list(cmd.wait_events),
                                           reads=cmd.reads, writes=cmd.writes)
                probe = engine.probe
                if probe is not None:
                    probe.on_launch_issue(proc, value)
            elif isinstance(cmd, LaunchGraph):
                value = cmd.exec.launch(priority=cmd.priority, after=list(cmd.after))
