"""AMPI: virtualized MPI ranks running as chares.

The same rank model as :mod:`repro.mpi` — :class:`AmpiProcess` is an
:class:`~repro.mpi.MpiProcess` and its commands go through the same
interpreter, :meth:`~repro.mpi.MpiWorld.interpret` — but each rank is
hosted by a chare on the Charm++-like runtime, so:

* ``waitall``/``wait``/``sync`` *suspend the chare* instead of spinning the
  CPU: other virtual ranks on the same PE keep working (automatic
  computation-communication overlap, no code changes);
* the number of ranks is decoupled from the number of PEs
  (*virtualization ratio* = ranks per PE, AMPI's +vp option);
* ranks inherit the runtime's scheduling and priorities.

Collectives and point-to-point work across any virtualization ratio.  A
rank stays on the PE it was placed on (rank migration is out of scope).
"""

from __future__ import annotations

from typing import Any, Optional

from ..hardware import Cluster
from ..mpi.api import MpiCosts, MpiProcess, MpiWorld
from ..runtime import Chare, CharmRuntime
from ..sim import SimulationError

__all__ = ["AmpiProcess", "AmpiWorld"]


class AmpiProcess(MpiProcess):
    """Base class for AMPI rank programs; subclass and implement ``main()``.

    Only two things differ from :class:`~repro.mpi.MpiProcess` (the same
    ``main()`` usually runs under both worlds): ``pe``/``gpu`` are the
    hosting chare's, and collective tags carry an ``ampi-`` prefix.
    """

    _coll_prefix = "ampi-"
    #: The hosting chare, bound when it attaches (after ``init``).
    _chare: Optional[Chare] = None

    def _bind_pe(self) -> None:
        """Nothing to bind yet: ``pe``/``gpu`` follow the hosting chare,
        which attaches *after* ``init`` — allocate device state in ``main``."""

    @property
    def pe(self):
        return self._chare.pe

    @property
    def gpu(self):
        return self._chare.gpu


def _make_rank_chare(world: "AmpiWorld"):
    """A chare class hosting one virtual rank each."""

    class AmpiRank(Chare):
        def init(self):
            self.proc = world.ranks[self.index[0]]
            self.proc._chare = self

        def run(self, msg):
            # The scheduler runs the interpreter's base commands: a wait
            # suspends this chare instead of spinning, and the PE is free
            # for other virtual ranks meanwhile.
            yield from world.interpret(self.proc, self)
            world._finished += 1

    return AmpiRank


class AmpiWorld(MpiWorld):
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
        self.runtime = runtime or CharmRuntime(cluster)
        super().__init__(cluster, costs, ucx=self.runtime.ucx)
        if vranks is not None:
            self.size = vranks
        if self.size < 1:
            raise ValueError("need at least one virtual rank")
        self._array = None
        self._finished = 0

    @property
    def virtualization_ratio(self) -> float:
        return self.size / self.cluster.n_pes

    def pe_of(self, vrank: int) -> int:
        if self._array is None:
            raise SimulationError("launch() before communication")
        return self._array.mapping[(vrank,)]

    def _route(self, src: int, dst: int, tag: Any) -> tuple:
        return self.pe_of(src), self.pe_of(dst), ("ampi", src, dst, tag)

    def _start(self) -> None:
        """Start every rank: one hosting chare each, block-mapped on PEs."""
        self._array = self.runtime.create_array(
            _make_rank_chare(self), shape=(self.size,), name="ampi"
        )
        self._array.broadcast("run")

    def run(self, max_events: Optional[int] = None) -> None:
        """Run to completion of every virtual rank (raises on deadlock)."""
        if self._array is None:
            raise SimulationError("launch() before run()")
        self._run_ranks(self.runtime.run, max_events)
        if self._finished != self.size:
            raise SimulationError(
                f"AMPI deadlock: {self.size - self._finished} virtual ranks unfinished"
            )
