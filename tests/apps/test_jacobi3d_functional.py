"""Functional-mode integration tests: every version and variant of Jacobi3D
must produce grids bit-identical to the serial reference solver.

This is the strongest statement the suite makes about the runtime: whatever
the message timing, protocol, fusion strategy, or graph mode, the right
halo bytes reach the right ghost cells at the right iterations.
"""

import numpy as np
import pytest

from repro.apps import Jacobi3DConfig, StencilContext, run_app
from repro.hardware import MachineSpec
from repro.kernels import reference_solve, residual, max_principle_holds

GRID = (20, 20, 20)
ITERS = 4
MACHINE = MachineSpec.small_debug()


@pytest.fixture(scope="module")
def reference():
    return reference_solve(GRID, ITERS)[1:-1, 1:-1, 1:-1]


def run_case(**kw):
    kw.setdefault("nodes", 1)
    kw.setdefault("grid", GRID)
    kw.setdefault("iterations", ITERS)
    kw.setdefault("warmup", 0)
    kw.setdefault("data_mode", "functional")
    kw.setdefault("machine", MACHINE)
    cfg = Jacobi3DConfig(**kw)
    res = run_app(cfg)
    return res, res.assemble_grid(StencilContext(cfg).geometry)


@pytest.mark.parametrize("version", ["mpi-h", "mpi-d", "charm-h", "charm-d"])
def test_all_versions_match_reference(version, reference):
    _res, grid = run_case(version=version)
    assert np.array_equal(grid, reference)


@pytest.mark.parametrize("odf", [2, 4])
@pytest.mark.parametrize("version", ["charm-h", "charm-d"])
def test_overdecomposition_matches_reference(version, odf, reference):
    _res, grid = run_case(version=version, odf=odf)
    assert np.array_equal(grid, reference)


@pytest.mark.parametrize("fusion", ["A", "B", "C"])
def test_fusion_strategies_match_reference(fusion, reference):
    _res, grid = run_case(version="charm-d", odf=2, fusion=fusion)
    assert np.array_equal(grid, reference)


@pytest.mark.parametrize("fusion", ["none", "B", "C"])
def test_cuda_graphs_match_reference(fusion, reference):
    _res, grid = run_case(version="charm-d", odf=2, cuda_graphs=True,
                          fusion=fusion if fusion != "none" else None)
    assert np.array_equal(grid, reference)


def test_legacy_baseline_matches_reference(reference):
    _res, grid = run_case(version="charm-h", odf=2, legacy_sync=True)
    assert np.array_equal(grid, reference)


@pytest.mark.parametrize("version", ["mpi-h", "mpi-d"])
def test_mpi_manual_overlap_matches_reference(version, reference):
    _res, grid = run_case(version=version, mpi_overlap=True)
    assert np.array_equal(grid, reference)


def test_multi_node_matches_reference(reference):
    _res, grid = run_case(version="charm-d", nodes=2, odf=2)
    assert np.array_equal(grid, reference)


def test_round_robin_style_grid_anisotropic():
    """Non-cubic grid with uneven splits still matches the reference."""
    grid_shape = (13, 9, 17)
    ref = reference_solve(grid_shape, 3)[1:-1, 1:-1, 1:-1]
    _res, grid = run_case(version="charm-h", grid=grid_shape, odf=2, iterations=3)
    assert np.array_equal(grid, ref)


def test_longer_run_converges_and_respects_max_principle():
    res, grid = run_case(version="charm-d", odf=2, iterations=60)
    full = np.zeros((GRID[0] + 2, GRID[1] + 2, GRID[2] + 2))
    full[1:-1, 1:-1, 1:-1] = grid
    full[-1, :, :] = 1.0  # hot face boundary for the residual check
    assert max_principle_holds(full)
    # 60 iterations must be closer to the fixed point than 4.
    _res4, grid4 = run_case(version="charm-d", odf=2)
    ref_inf = reference_solve(GRID, 400)[1:-1, 1:-1, 1:-1]
    assert np.abs(grid - ref_inf).max() < np.abs(grid4 - ref_inf).max()


def test_warmup_iterations_count_toward_physics(reference):
    """warmup affects timing only — the grid must reflect ALL iterations."""
    ref6 = reference_solve(GRID, 6)[1:-1, 1:-1, 1:-1]
    _res, grid = run_case(version="charm-d", odf=2, iterations=4, warmup=2)
    assert np.array_equal(grid, ref6)


def test_blocks_field_has_every_block():
    res, _ = run_case(version="charm-h", odf=2)
    cfg = res.config
    assert len(res.blocks) == cfg.n_blocks()
    for interior in res.blocks.values():
        assert interior.ndim == 3


def test_assemble_grid_requires_functional():
    cfg = Jacobi3DConfig(version="charm-h", nodes=1, grid=GRID, iterations=2,
                         machine=MACHINE)
    res = run_app(cfg)
    assert res.blocks is None
    with pytest.raises(ValueError):
        res.assemble_grid(StencilContext(cfg).geometry)
