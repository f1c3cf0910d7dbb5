"""AMPI: virtualized MPI ranks running as chares.

Same programming surface as :class:`repro.mpi.MpiProcess` — but an
:class:`AmpiProcess` is hosted by a chare on the Charm++-like runtime, so:

* ``waitall``/``wait``/``sync`` *suspend the chare* instead of spinning the
  CPU: other virtual ranks on the same PE keep working (automatic
  computation-communication overlap, no code changes);
* the number of ranks is decoupled from the number of PEs
  (*virtualization ratio* = ranks per PE, AMPI's +vp option);
* ranks inherit the runtime's scheduling, priorities and (between phases)
  migratability.

Limitations (faithful to the scope of the paper's future-work remark):
collectives and point-to-point work across any virtualization ratio, but
ranks must not migrate while communication is in flight.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..comm.ucx import PRIORITY_COMM
from ..hardware import Cluster
from ..mpi.api import MpiCosts, Request, _Irecv, _Isend, _WaitAll
from ..mpi.api import allreduce_algorithm, barrier_algorithm
from ..runtime import Chare, CharmRuntime
from ..runtime.commands import Await, Launch, LaunchGraph, Work
from ..sim import SimulationError

__all__ = ["AmpiProcess", "AmpiWorld"]


class AmpiProcess:
    """Base class for AMPI rank programs; subclass and implement ``main()``.

    The command constructors are identical to :class:`repro.mpi.MpiProcess`
    (the same ``main()`` generator usually runs under both worlds).
    """

    def __init__(self, world: "AmpiWorld", rank: int):
        self.world = world
        self.rank = rank
        self._chare: Optional[Chare] = None  # bound by the hosting chare
        self._coll_seq = 0
        self.init()

    def init(self) -> None:
        """Subclass hook (note: ``pe``/``gpu`` are bound *after* init when
        the hosting chare attaches; allocate device state in ``main``)."""

    def main(self, msg=None):  # pragma: no cover - must be overridden
        raise NotImplementedError
        yield  # repro-lint: disable=RPL003 -- unreachable generator-marker idiom

    @property
    def size(self) -> int:
        return self.world.size

    @property
    def pe(self):
        return self._chare.pe

    @property
    def gpu(self):
        return self._chare.gpu

    # -- command constructors (identical surface to MpiProcess) ----------------
    def work(self, seconds: float) -> Work:
        return Work(seconds)

    def launch(self, stream, work, name: str = "", wait=(), reads=(),
               writes=()) -> Launch:
        return Launch(stream, work, name=name, wait_events=tuple(wait),
                      reads=tuple(reads), writes=tuple(writes))

    def launch_graph(self, graph_exec, priority: int = 0, after=()) -> LaunchGraph:
        return LaunchGraph(graph_exec, priority=priority, after=tuple(after))

    def isend(self, dest: int, size: int, tag=0, device: bool = False,
              payload=None) -> _Isend:
        return _Isend(dest, size, tag, device, payload)

    def irecv(self, source: int, size: int, tag=0, device: bool = False) -> _Irecv:
        return _Irecv(source, size, tag, device)

    def wait(self, request: Request) -> _WaitAll:
        return _WaitAll((request,))

    def waitall(self, requests) -> _WaitAll:
        return _WaitAll(tuple(requests))

    def sync(self, event) -> Await:
        return Await(event)

    def barrier(self):
        gen = ("ampi-bar", self._coll_seq)
        self._coll_seq += 1
        yield from barrier_algorithm(self, gen)

    def allreduce(self, value, op: Optional[Callable] = None, bytes_per_item: int = 8):
        gen = ("ampi-ared", self._coll_seq)
        self._coll_seq += 1
        result = yield from allreduce_algorithm(self, gen, value, op, bytes_per_item)
        return result

    def notify(self, event: str, **data) -> None:
        self.world._notify(event, self, **data)


def _make_rank_chare(world: "AmpiWorld"):
    """A chare class hosting one virtual rank each."""

    class AmpiRank(Chare):
        def init(self):
            self.vrank = self.index[0]
            self.proc = world.ranks[self.vrank]
            self.proc._chare = self

        def run(self, msg):
            proc = self.proc
            costs = world.costs
            ucx = self.runtime.ucx
            engine = self.runtime.engine
            coroutine = proc.main()
            value = None
            while True:
                try:
                    cmd = coroutine.send(value)
                except StopIteration:
                    world._finished += 1
                    return
                value = None
                if isinstance(cmd, (Work, Launch, LaunchGraph)):
                    value = yield cmd  # the scheduler handles these natively
                elif isinstance(cmd, _Isend):
                    yield self.work(costs.call_overhead_s)
                    handle = ucx.isend(
                        self.pe.index,
                        world.pe_of(cmd.dest),
                        cmd.size,
                        tag=("ampi", proc.rank, cmd.dest, cmd.tag),
                        on_device=cmd.device,
                        priority=PRIORITY_COMM,
                        payload=cmd.payload,
                    )
                    probe = engine.probe
                    if probe is not None:
                        probe.on_transfer_post(handle, self)
                    value = Request(handle, "send")
                elif isinstance(cmd, _Irecv):
                    yield self.work(costs.call_overhead_s)
                    handle = ucx.irecv(
                        world.pe_of(cmd.source),
                        self.pe.index,
                        cmd.size,
                        tag=("ampi", cmd.source, proc.rank, cmd.tag),
                        on_device=cmd.device,
                    )
                    probe = engine.probe
                    if probe is not None:
                        probe.on_transfer_post(handle, self)
                    value = Request(handle, "recv")
                elif isinstance(cmd, _WaitAll):
                    yield self.work(costs.completion_s * max(1, len(cmd.requests)))
                    pending = [r.done for r in cmd.requests if not r.done.processed]
                    if pending:
                        # The AMPI difference: suspend, don't spin — the PE
                        # is free for other virtual ranks meanwhile.
                        yield self.wait_all(pending)
                    probe = engine.probe
                    if probe is not None:
                        for r in cmd.requests:
                            probe.on_wake(self, r.done)
                    value = [r.data for r in cmd.requests]
                elif isinstance(cmd, Await):
                    if not cmd.event.processed:
                        yield self.wait(cmd.event)
                    elif engine.probe is not None:
                        engine.probe.on_wake(self, cmd.event)
                    value = cmd.event.value
                else:
                    raise SimulationError(
                        f"virtual rank {proc.rank} yielded unknown command {cmd!r}"
                    )

    return AmpiRank


class AmpiWorld:
    """All virtual ranks of one AMPI job.

    Parameters
    ----------
    cluster:
        The machine.
    vranks:
        Total virtual ranks; the virtualization ratio is ``vranks / n_pes``
        (need not be an integer multiple, but usually is).
    """

    def __init__(self, cluster: Cluster, vranks: Optional[int] = None,
                 costs: Optional[MpiCosts] = None,
                 runtime: Optional[CharmRuntime] = None):
        self.cluster = cluster
        self.engine = cluster.engine
        self.costs = costs or MpiCosts()
        self.runtime = runtime or CharmRuntime(cluster)
        self.size = vranks if vranks is not None else cluster.n_pes
        if self.size < 1:
            raise ValueError("need at least one virtual rank")
        self.ranks: list[AmpiProcess] = []
        self._array = None
        self._observers: list[Callable] = []
        self._finished = 0

    @property
    def virtualization_ratio(self) -> float:
        return self.size / self.cluster.n_pes

    def pe_of(self, vrank: int) -> int:
        if self._array is None:
            raise SimulationError("launch() before communication")
        return self._array.mapping[(vrank,)]

    def launch(self, process_cls, **kwargs) -> list[AmpiProcess]:
        if self.ranks:
            raise SimulationError("AmpiWorld.launch called twice")
        self.ranks = [process_cls(self, r, **kwargs) for r in range(self.size)]
        self._array = self.runtime.create_array(
            _make_rank_chare(self), shape=(self.size,), mapping="block", name="ampi"
        )
        self._array.broadcast("run")
        return self.ranks

    def run(self, max_events: Optional[int] = None) -> None:
        """Run to completion of every virtual rank (raises on deadlock)."""
        if self._array is None:
            raise SimulationError("launch() before run()")
        self.runtime.run(max_events=max_events)
        if self._finished != self.size:
            raise SimulationError(
                f"AMPI deadlock: {self.size - self._finished} virtual ranks unfinished"
            )

    def observe(self, fn: Callable) -> None:
        self._observers.append(fn)

    def _notify(self, event: str, proc: AmpiProcess, **data) -> None:
        for fn in self._observers:
            fn(event, proc, **data)
