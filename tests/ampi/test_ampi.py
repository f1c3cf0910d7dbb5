"""Tests for AMPI: virtualized MPI ranks on the Charm++-like runtime."""

import pytest

from repro.ampi import AmpiProcess, AmpiWorld
from repro.hardware import Cluster, KernelWork, KiB, MachineSpec
from repro.mpi import MpiProcess, MpiWorld
from repro.sim import Engine, SimulationError


def make_world(n_nodes=2, vranks=None):
    eng = Engine()
    cluster = Cluster(eng, MachineSpec.small_debug(), n_nodes)
    return eng, cluster, AmpiWorld(cluster, vranks=vranks)


class PingPong(AmpiProcess):
    log = {}

    def main(self, msg=None):
        if self.rank == 0:
            req = yield self.isend(1, 1 * KiB, tag=1, payload="ping")
            yield self.wait(req)
            rr = yield self.irecv(1, 1 * KiB, tag=2)
            yield self.wait(rr)
            PingPong.log[self.rank] = rr.data
        elif self.rank == 1:
            rr = yield self.irecv(0, 1 * KiB, tag=1)
            yield self.wait(rr)
            PingPong.log[self.rank] = rr.data
            rs = yield self.isend(0, 1 * KiB, tag=2, payload="pong")
            yield self.wait(rs)
        else:
            yield self.work(0)


def test_pingpong_roundtrip():
    eng, cluster, world = make_world()
    PingPong.log = {}
    world.launch(PingPong)
    world.run()
    assert PingPong.log[1] == "ping" and PingPong.log[0] == "pong"


def test_virtualization_more_ranks_than_pes():
    eng, cluster, world = make_world(n_nodes=1, vranks=8)
    assert world.virtualization_ratio == 4.0
    PingPong.log = {}
    world.launch(PingPong)
    world.run()
    assert PingPong.log[1] == "ping"


class AllreduceRank(AmpiProcess):
    results = {}

    def main(self, msg=None):
        total = yield from self.allreduce(self.rank + 1)
        AllreduceRank.results[self.rank] = total


@pytest.mark.parametrize("vranks", [3, 4, 8, 13])
def test_allreduce_any_virtualization(vranks):
    eng, cluster, world = make_world(n_nodes=1, vranks=vranks)
    AllreduceRank.results = {}
    world.launch(AllreduceRank)
    world.run()
    expected = vranks * (vranks + 1) // 2
    assert set(AllreduceRank.results.values()) == {expected}
    assert len(AllreduceRank.results) == vranks


class BarrierRank(AmpiProcess):
    after = {}

    def main(self, msg=None):
        yield self.work(self.rank * 1e-4)
        yield from self.barrier()
        BarrierRank.after[self.rank] = self.world.engine.now


def test_barrier_virtualized():
    eng, cluster, world = make_world(n_nodes=1, vranks=6)
    BarrierRank.after = {}
    world.launch(BarrierRank)
    world.run()
    times = list(BarrierRank.after.values())
    assert len(times) == 6
    assert min(times) >= 5e-4  # nobody leaves before the last arrival


class Deadlock(AmpiProcess):
    def main(self, msg=None):
        req = yield self.irecv((self.rank + 1) % self.size, 64, tag=7)
        yield self.wait(req)


def test_deadlock_detected():
    eng, cluster, world = make_world()
    world.launch(Deadlock)
    with pytest.raises(SimulationError):
        world.run()


def test_launch_twice_rejected():
    eng, cluster, world = make_world()
    world.launch(PingPong)
    with pytest.raises(SimulationError):
        world.launch(PingPong)


def test_run_before_launch_rejected():
    eng, cluster, world = make_world()
    with pytest.raises(SimulationError):
        world.run()


def test_invalid_vranks():
    eng = Engine()
    cluster = Cluster(eng, MachineSpec.small_debug(), 1)
    with pytest.raises(ValueError):
        AmpiWorld(cluster, vranks=0)


class YieldsNonCommand:
    """Rank program valid under both worlds until rank 1 yields a value
    that is no command."""

    def main(self, msg=None):
        if self.rank == 1:
            yield "not a command"
        yield self.work(0)


@pytest.mark.parametrize("world_cls,base", [(MpiWorld, MpiProcess), (AmpiWorld, AmpiProcess)],
                         ids=["mpi", "ampi"])
def test_unknown_command_names_the_rank(world_cls, base):
    """The one interpreter rejects a non-command under either host, naming
    the rank that yielded it."""
    eng = Engine()
    cluster = Cluster(eng, MachineSpec.small_debug(), 1)
    world = world_cls(cluster)
    world.launch(type("Rank", (YieldsNonCommand, base), {}))
    with pytest.raises(SimulationError, match="rank 1 yielded unknown command"):
        world.run()


class RaisesInRankOne:
    """Rank program valid under both worlds until rank 1 raises."""

    def main(self, msg=None):
        yield self.work(0)
        if self.rank == 1:
            raise ValueError("boom in rank 1")


@pytest.mark.parametrize("world_cls,base", [(MpiWorld, MpiProcess), (AmpiWorld, AmpiProcess)],
                         ids=["mpi", "ampi"])
def test_rank_exception_is_the_same_on_both_hosts(world_cls, base):
    """A rank's own exception escapes ``run`` unwrapped, whichever process
    hosts the rank (an MPI rank process or an AMPI PE scheduler)."""
    eng = Engine()
    cluster = Cluster(eng, MachineSpec.small_debug(), 1)
    world = world_cls(cluster)
    world.launch(type("Rank", (RaisesInRankOne, base), {}))
    with pytest.raises(ValueError) as excinfo:
        world.run()
    assert type(excinfo.value) is ValueError
    assert str(excinfo.value) == "boom in rank 1"


# ---------------------------------------------------------------------------
# The AMPI value proposition: blocking waits overlap under virtualization
# ---------------------------------------------------------------------------


class GpuWaiter:
    """Rank program valid under both MPI and AMPI worlds: launch a 2 ms
    kernel and block on it; with virtualization the blocks overlap.
    Each rank records when its sync returned in ``done_at``."""

    done_at = []

    def main(self, msg=None):
        stream = self.gpu.create_stream(priority=10)
        op = yield self.launch(stream, KernelWork(bytes_moved=780e9 * 2e-3))
        yield self.sync(op.done)
        GpuWaiter.done_at.append((self.rank, self.world.engine.now))


class MpiGpuWaiter(GpuWaiter, MpiProcess):
    pass


class AmpiGpuWaiter(GpuWaiter, AmpiProcess):
    pass


def test_ampi_blocking_sync_frees_the_pe():
    """Under plain MPI a rank spins during sync; under AMPI the chare
    suspends, so the PE stays nearly idle — measurably."""
    GpuWaiter.done_at = []
    eng1 = Engine()
    c1 = Cluster(eng1, MachineSpec.small_debug(), 1)
    w1 = MpiWorld(c1)
    w1.launch(MpiGpuWaiter)
    w1.run()
    assert sorted(r for r, _t in GpuWaiter.done_at) == [0, 1]
    # The spin window lands on the captive-core tracker (pe.blocked).
    mpi_pe_busy = sum(pe.blocked.busy_seconds() for pe in c1.all_pes())

    eng2 = Engine()
    c2 = Cluster(eng2, MachineSpec.small_debug(), 1)
    w2 = AmpiWorld(c2)
    w2.launch(AmpiGpuWaiter)
    w2.run()
    ampi_pe_busy = sum(pe.busy.busy_seconds() for pe in c2.all_pes())

    assert mpi_pe_busy > 3e-3  # two ranks spinning ~2 ms each
    assert ampi_pe_busy < 1e-3  # chares suspended during the kernel


def test_ampi_overlap_with_virtualization():
    """4 virtual ranks on 2 GPUs: kernels pipeline, blocking syncs overlap;
    total time approaches 2 kernels' worth per GPU, not 4 serial blocks."""
    GpuWaiter.done_at = []
    eng, cluster, world = make_world(n_nodes=1, vranks=4)
    world.launch(AmpiGpuWaiter)
    world.run()
    # 2 GPUs x 2 kernels of 2 ms: ideal ~4 ms; far below 4 serial = 8 ms.
    assert eng.now < 5e-3
    assert sorted(r for r, _t in GpuWaiter.done_at) == [0, 1, 2, 3]
    assert max(t for _r, t in GpuWaiter.done_at) < 5e-3
