"""Tests for the MPI model: point-to-point, blocking waits, collectives."""

import pytest

from repro.hardware import Cluster, KiB, KernelWork, MachineSpec
from repro.mpi import MpiProcess, MpiWorld
from repro.sim import Engine, SimulationError


def make_world(n_nodes=2):
    eng = Engine()
    cluster = Cluster(eng, MachineSpec.small_debug(), n_nodes)
    return eng, cluster, MpiWorld(cluster)


class PingPong(MpiProcess):
    log = {}

    def main(self, msg=None):
        if self.rank == 0:
            req = yield self.isend(1, 1 * KiB, tag=1, payload="ping")
            yield self.wait(req)
            rr = yield self.irecv(1, 1 * KiB, tag=2)
            (data,) = yield self.waitall([rr])
            PingPong.log[self.rank] = data
        elif self.rank == 1:
            rr = yield self.irecv(0, 1 * KiB, tag=1)
            yield self.wait(rr)
            PingPong.log[self.rank] = rr.data
            rs = yield self.isend(0, 1 * KiB, tag=2, payload="pong")
            yield self.wait(rs)
        else:
            yield self.work(0)


def test_pingpong_payload_roundtrip():
    eng, cluster, world = make_world()
    PingPong.log = {}
    world.launch(PingPong)
    world.run()
    assert PingPong.log[1] == "ping"
    assert PingPong.log[0] == "pong"


def test_world_size_and_ranks():
    eng, cluster, world = make_world(n_nodes=2)
    assert world.size == 4
    procs = world.launch(PingPong)
    assert [p.rank for p in procs] == [0, 1, 2, 3]
    assert procs[3].pe is cluster.pe(3)


def test_launch_twice_rejected():
    eng, cluster, world = make_world()
    world.launch(PingPong)
    with pytest.raises(SimulationError):
        world.launch(PingPong)


def test_run_before_launch_rejected():
    eng, cluster, world = make_world()
    with pytest.raises(SimulationError):
        world.run()


class Deadlock(MpiProcess):
    def main(self, msg=None):
        # Everyone receives, nobody sends.
        req = yield self.irecv((self.rank + 1) % self.size, 64, tag=9)
        yield self.wait(req)


def test_deadlock_detected():
    eng, cluster, world = make_world()
    world.launch(Deadlock)
    with pytest.raises(SimulationError, match="deadlock"):
        world.run()


class Crash(MpiProcess):
    def main(self, msg=None):
        yield self.work(1e-6)
        raise ValueError("rank exploded")


def test_rank_exception_propagates():
    eng, cluster, world = make_world()
    world.launch(Crash)
    with pytest.raises(ValueError, match="exploded"):
        world.run()


class BlockingWaiter(MpiProcess):
    def main(self, msg=None):
        if self.rank == 0:
            req = yield self.irecv(1, 1 * KiB, tag=0)
            yield self.wait(req)  # blocks ~1 ms while rank 1 dawdles
        elif self.rank == 1:
            yield self.work(1e-3)
            req = yield self.isend(0, 1 * KiB, tag=0)
            yield self.wait(req)
        else:
            yield self.work(0)


def test_blocking_wait_captures_the_core():
    """MPI_Wait spins: the core is captive for the whole wait (this is
    what Charm++'s asynchronous completion avoids).  The window lands on
    the ``blocked`` tracker, not ``busy`` — the core does no work, so
    profilers attribute the wait to whatever gates it."""
    eng, cluster, world = make_world()
    world.launch(BlockingWaiter)
    world.run()
    assert cluster.pe(0).blocked.busy_seconds() >= 1e-3
    assert cluster.pe(0).busy.busy_seconds() < 1e-3


class BarrierProc(MpiProcess):
    after = {}

    def main(self, msg=None):
        yield self.work(self.rank * 1e-4)  # staggered arrival
        yield from self.barrier()
        BarrierProc.after[self.rank] = self.world.engine.now


def test_barrier_synchronizes_all_ranks():
    eng, cluster, world = make_world()
    BarrierProc.after = {}
    world.launch(BarrierProc)
    world.run()
    times = list(BarrierProc.after.values())
    assert len(times) == 4
    slowest_arrival = 3e-4
    assert min(times) >= slowest_arrival  # nobody exits before the last arrives
    assert max(times) - min(times) < 1e-4  # and all exit together-ish


class AllreduceProc(MpiProcess):
    results = {}

    def main(self, msg=None):
        total = yield from self.allreduce(self.rank + 1)
        AllreduceProc.results[self.rank] = total


@pytest.mark.parametrize("n_nodes", [1, 2, 3])
def test_allreduce_sum_any_size(n_nodes):
    eng, cluster, world = make_world(n_nodes=n_nodes)
    AllreduceProc.results = {}
    world.launch(AllreduceProc)
    world.run()
    n = world.size
    expected = n * (n + 1) // 2
    assert set(AllreduceProc.results.values()) == {expected}
    assert len(AllreduceProc.results) == n


class AllreduceMax(MpiProcess):
    results = {}

    def main(self, msg=None):
        best = yield from self.allreduce(self.rank, op=max)
        AllreduceMax.results[self.rank] = best


def test_allreduce_custom_op():
    eng, cluster, world = make_world()
    AllreduceMax.results = {}
    world.launch(AllreduceMax)
    world.run()
    assert set(AllreduceMax.results.values()) == {world.size - 1}


class GpuRank(MpiProcess):
    events = []

    def init(self):
        self.stream = self.gpu.create_stream(priority=10)

    def main(self, msg=None):
        op = yield self.launch(self.stream, KernelWork(bytes_moved=780e9 * 0.001))
        yield self.sync(op.done)
        GpuRank.events.append(("kernel_done", self.rank))


def test_gpu_launch_and_blocking_sync():
    eng, cluster, world = make_world(n_nodes=1)
    GpuRank.events = []
    world.launch(GpuRank)
    world.run()
    assert sorted(GpuRank.events) == [("kernel_done", 0), ("kernel_done", 1)]
    assert eng.now >= 0.001


class DeviceExchange(MpiProcess):
    """CUDA-aware halo-style exchange between two ranks on different nodes."""

    def main(self, msg=None):
        peer = 2 if self.rank == 0 else 0
        if self.rank in (0, 2):
            rr = yield self.irecv(peer, 96 * KiB, tag=5, device=True)
            rs = yield self.isend(peer, 96 * KiB, tag=5, device=True)
            yield self.waitall([rr, rs])
        else:
            yield self.work(0)


def test_device_exchange_uses_gpudirect():
    from repro.comm import Protocol

    eng, cluster, world = make_world()
    world.launch(DeviceExchange)
    world.run()
    assert world.ucx.protocol_counts[Protocol.RNDV_GPUDIRECT] == 2
