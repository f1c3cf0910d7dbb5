"""Unit and property tests for chare->PE mappings."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import all_indices, block_map, linearize


def test_all_indices_order_and_count():
    idx = all_indices((2, 3))
    assert len(idx) == 6
    assert idx[0] == (0, 0) and idx[1] == (0, 1) and idx[-1] == (1, 2)


def test_linearize_row_major():
    assert linearize((0, 0, 0), (2, 3, 4)) == 0
    assert linearize((0, 0, 1), (2, 3, 4)) == 1
    assert linearize((1, 2, 3), (2, 3, 4)) == 23


def test_linearize_bounds():
    with pytest.raises(IndexError):
        linearize((2, 0), (2, 3))
    with pytest.raises(ValueError):
        linearize((0,), (2, 3))


def test_block_map_contiguous_and_balanced():
    m = block_map((4, 2), 4)  # 8 chares over 4 PEs
    loads = [sum(1 for pe in m.values() if pe == p) for p in range(4)]
    assert loads == [2, 2, 2, 2]
    # Linearly consecutive chares share PEs.
    order = [m[idx] for idx in all_indices((4, 2))]
    assert order == sorted(order)


def test_block_map_remainders_spread():
    m = block_map((7,), 3)
    loads = [sum(1 for pe in m.values() if pe == p) for p in range(3)]
    assert sorted(loads) == [2, 2, 3]


def test_invalid_pe_count():
    with pytest.raises(ValueError):
        block_map((4,), 0)


@settings(max_examples=60, deadline=None)
@given(
    shape=st.lists(st.integers(1, 6), min_size=1, max_size=3).map(tuple),
    n_pes=st.integers(1, 12),
)
def test_property_every_chare_mapped_exactly_once_and_balanced(shape, n_pes):
    m = block_map(shape, n_pes)
    assert set(m.keys()) == set(all_indices(shape))
    assert all(0 <= pe < n_pes for pe in m.values())
    loads = [sum(1 for pe in m.values() if pe == p) for p in range(n_pes)]
    assert max(loads) - min(loads) <= 1
