"""Tests for checkpoint/restart (double in-memory, PUP idiom)."""

import numpy as np
import pytest

from repro.hardware import Cluster, MachineSpec
from repro.runtime import (
    Chare,
    CharmRuntime,
    Checkpoint,
    restore_array,
    take_checkpoint,
)
from repro.sim import Engine, SimulationError


class Counter(Chare):
    """A chare whose state is a counter plus an array."""

    def init(self):
        self.count = 0
        self.field = np.zeros(8)

    def run(self, msg):
        yield self.work(1e-6)
        self.count += 1
        self.field += self.index[0] + 1

    def pup(self):
        return {"count": self.count, "field": self.field.copy()}

    def unpup(self, state):
        self.count = state["count"]
        self.field = state["field"].copy()


def make_world(n_nodes=2):
    eng = Engine()
    cluster = Cluster(eng, MachineSpec.small_debug(), n_nodes)
    return eng, cluster, CharmRuntime(cluster)


def run_phase(rt, arr):
    arr.broadcast("run")
    rt.run()


def test_checkpoint_captures_state_and_costs_time():
    eng, cluster, rt = make_world()
    arr = rt.create_array(Counter, shape=(4,))
    run_phase(rt, arr)
    t0 = eng.now
    ckpt = take_checkpoint(rt, arr)
    assert len(ckpt.states) == 4
    assert ckpt.states[(0,)]["count"] == 1
    assert (ckpt.states[(1,)]["field"] == 2.0).all()
    assert ckpt.cost_seconds > 0  # buddy copies crossed the network
    assert eng.now == t0 + ckpt.cost_seconds
    assert ckpt.total_bytes > 4 * 64  # arrays + envelope


def test_checkpoint_is_a_copy_not_a_view():
    eng, cluster, rt = make_world()
    arr = rt.create_array(Counter, shape=(2,))
    run_phase(rt, arr)
    ckpt = take_checkpoint(rt, arr)
    run_phase(rt, arr)  # mutate further
    assert ckpt.states[(0,)]["count"] == 1
    assert arr.element((0,)).count == 2


def test_restore_on_new_runtime_with_fewer_nodes():
    eng1, c1, rt1 = make_world(n_nodes=2)
    arr1 = rt1.create_array(Counter, shape=(4,))
    run_phase(rt1, arr1)
    run_phase(rt1, arr1)
    ckpt = take_checkpoint(rt1, arr1)

    # "Node 1 failed": restart everything on a 1-node cluster.
    eng2, c2, rt2 = make_world(n_nodes=1)
    arr2 = rt2.create_array(Counter, shape=(4,))
    restored = restore_array(arr2, ckpt, failed_nodes=[1])
    assert restored == 4
    assert arr2.element((3,)).count == 2
    assert (arr2.element((3,)).field == 8.0).all()
    run_phase(rt2, arr2)  # continues from the restored state
    assert arr2.element((3,)).count == 3


def test_buddy_placement_survives_single_node_failure():
    eng, cluster, rt = make_world(n_nodes=2)
    arr = rt.create_array(Counter, shape=(4,))
    run_phase(rt, arr)
    ckpt = take_checkpoint(rt, arr)
    for node in (0, 1):
        assert ckpt.survives([node])
    assert not ckpt.survives([0, 1])
    assert len(ckpt.lost_chares([0, 1])) == 4


def test_restore_refuses_lost_checkpoint():
    eng, cluster, rt = make_world(n_nodes=2)
    arr = rt.create_array(Counter, shape=(2,))
    run_phase(rt, arr)
    ckpt = take_checkpoint(rt, arr)
    eng2, c2, rt2 = make_world(n_nodes=1)
    arr2 = rt2.create_array(Counter, shape=(2,))
    with pytest.raises(SimulationError, match="lost"):
        restore_array(arr2, ckpt, failed_nodes=[0, 1])


def test_restore_shape_mismatch():
    eng, cluster, rt = make_world()
    arr = rt.create_array(Counter, shape=(2,))
    run_phase(rt, arr)
    ckpt = take_checkpoint(rt, arr)
    eng2, c2, rt2 = make_world()
    arr2 = rt2.create_array(Counter, shape=(3,))
    with pytest.raises(ValueError, match="shape"):
        restore_array(arr2, ckpt)


def test_checkpoint_requires_pup():
    class NoPup(Chare):
        def run(self, msg):
            yield self.work(1e-9)

    eng, cluster, rt = make_world()
    arr = rt.create_array(NoPup, shape=(1,))
    run_phase(rt, arr)
    with pytest.raises(SimulationError, match="pup"):
        take_checkpoint(rt, arr)


def test_single_node_checkpoint_has_no_network_cost():
    eng, cluster, rt = make_world(n_nodes=1)
    arr = rt.create_array(Counter, shape=(2,))
    run_phase(rt, arr)
    ckpt = take_checkpoint(rt, arr)
    assert ckpt.cost_seconds == 0.0
    assert ckpt.home_node[(0,)] == ckpt.buddy_node[(0,)] == 0


# ---------------------------------------------------------------------------
# End-to-end: Jacobi3D survives a node failure with bit-exact numerics
# ---------------------------------------------------------------------------


def test_jacobi3d_restart_is_bit_exact():
    from repro.apps import Jacobi3DConfig, StencilContext, run_app
    from repro.kernels import reference_solve

    grid = (20, 20, 20)
    ref = reference_solve(grid, 6)[1:-1, 1:-1, 1:-1]

    # Phase 1: 3 iterations on 2 nodes (4 GPUs), ODF 2 -> 8 blocks.
    cfg1 = Jacobi3DConfig(version="charm-d", nodes=2, grid=grid, odf=2,
                          iterations=3, warmup=0, data_mode="functional",
                          machine=MachineSpec.small_debug())
    res1 = run_app(cfg1)

    # "Failure": restart the SAME 8 blocks on 1 node (2 GPUs) at ODF 4.
    cfg2 = Jacobi3DConfig(version="charm-d", nodes=1, grid=grid, odf=4,
                          iterations=3, warmup=0, data_mode="functional",
                          machine=MachineSpec.small_debug())
    assert cfg1.n_blocks() == cfg2.n_blocks()
    res2 = run_app(cfg2, initial_state=res1.blocks)

    final = res2.assemble_grid(StencilContext(cfg2).geometry)
    assert np.array_equal(final, ref)
