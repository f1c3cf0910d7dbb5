"""Unit and property tests for the 3D grid decomposition."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import BlockGeometry, factor_tuples, partition_dims
from repro.kernels import FACES, opposite


def test_factor_triples_product():
    triples = list(factor_tuples(12, 3))
    assert all(a * b * c == 12 for a, b, c in triples)
    assert (1, 1, 12) in triples and (2, 2, 3) in triples
    assert len(set(triples)) == len(triples)


def test_factor_triples_invalid():
    with pytest.raises(ValueError):
        list(factor_tuples(0, 3))


def test_partition_minimizes_surface_cube():
    # A cube into 8 parts: the 2x2x2 split has minimal cut surface.
    assert partition_dims(8, (64, 64, 64)) == (2, 2, 2)


def test_partition_six_parts_summit_node():
    # The paper's single-node case: 6 GPUs.  1x2x3 beats 1x1x6 on surface.
    px, py, pz = partition_dims(6, (1536, 1536, 1536))
    assert sorted((px, py, pz)) == [1, 2, 3]


def test_partition_respects_grid_limits():
    # Cannot split a 4-cell axis into 8 parts.
    assert partition_dims(8, (4, 64, 64))[0] <= 4
    with pytest.raises(ValueError):
        partition_dims(128, (2, 2, 2))


def test_partition_anisotropic_grid_prefers_long_axis():
    px, py, pz = partition_dims(4, (64, 64, 1024))
    assert pz == 4  # cutting the long axis makes the smallest faces


def test_block_geometry_auto():
    geo = BlockGeometry.auto(12, (96, 96, 96))
    assert geo.n_blocks == 12
    px, py, pz = geo.parts
    assert px * py * pz == 12


def test_block_dims_remainders():
    geo = BlockGeometry((10, 4, 4), (3, 1, 1))
    dims = [geo.block_dims((i, 0, 0))[0] for i in range(3)]
    assert dims == [4, 3, 3]
    assert sum(dims) == 10


def test_block_offsets_contiguous():
    geo = BlockGeometry((10, 4, 4), (3, 1, 1))
    offs = [geo.block_offset((i, 0, 0))[0] for i in range(3)]
    assert offs == [0, 4, 7]


def test_neighbors_interior_and_boundary():
    geo = BlockGeometry((8, 8, 8), (2, 2, 2))
    corner = geo.neighbors((0, 0, 0))
    assert len(corner) == 3
    assert corner[(0, 1)] == (1, 0, 0)
    assert geo.neighbor((0, 0, 0), (0, -1)) is None
    assert geo.neighbor((1, 1, 1), (2, 1)) is None


def test_face_cells_cross_section():
    geo = BlockGeometry((8, 6, 4), (2, 1, 1))
    assert geo.face_cells((0, 0, 0), (0, 1)) == 6 * 4


def test_face_cells_symmetric_across_pairs():
    geo = BlockGeometry((10, 7, 5), (3, 2, 1))
    for idx in geo.indices():
        for face, nbr in geo.neighbors(idx).items():
            assert geo.face_cells(idx, face) == geo.face_cells(nbr, opposite(face))


def test_max_face_bytes_paper_numbers():
    # 1536^3 over 6 GPUs (1x2x3): biggest face is 1536x768 cells = 9 MiB.
    geo = BlockGeometry.auto(6, (1536, 1536, 1536))
    assert geo.max_face_bytes() == 1536 * 768 * 8
    # 192^3 over 6 GPUs: biggest face 192x96 cells = 144 KiB.
    geo_small = BlockGeometry.auto(6, (192, 192, 192))
    assert geo_small.max_face_bytes() == 192 * 96 * 8


def test_invalid_geometry():
    with pytest.raises(ValueError):
        BlockGeometry((4, 4, 4), (8, 1, 1))


@settings(max_examples=40, deadline=None)
@given(
    grid=st.tuples(st.integers(4, 40), st.integers(4, 40), st.integers(4, 40)),
    n=st.integers(1, 24),
)
def test_property_blocks_tile_grid_exactly(grid, n):
    try:
        geo = BlockGeometry.auto(n, grid)
    except ValueError:
        return  # grid too small for n parts: a legal refusal
    total = 0
    seen = set()
    for idx in geo.indices():
        dims = geo.block_dims(idx)
        off = geo.block_offset(idx)
        assert all(d >= 1 for d in dims)
        cells = dims[0] * dims[1] * dims[2]
        total += cells
        # Offsets + dims must tile without overlap: record cell ranges.
        seen.add((off, dims))
    assert total == grid[0] * grid[1] * grid[2]
    assert len(seen) == geo.n_blocks


@settings(max_examples=40, deadline=None)
@given(
    grid=st.tuples(st.integers(4, 32), st.integers(4, 32), st.integers(4, 32)),
    n=st.integers(1, 16),
)
def test_property_neighbor_relation_is_symmetric(grid, n):
    try:
        geo = BlockGeometry.auto(n, grid)
    except ValueError:
        return
    for idx in geo.indices():
        for face, nbr in geo.neighbors(idx).items():
            assert geo.neighbor(nbr, opposite(face)) == idx
