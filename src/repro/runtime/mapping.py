"""Chare-array to PE mappings.

With overdecomposition factor ODF, a 3D chare array has ``ODF × n_pes``
elements; the mapping decides which PE owns each element.  The default
*block map* keeps lexicographically-consecutive chares on the same PE,
which maximizes the fraction of halo exchanges that stay PE-local or
node-local — the same locality goal as Charm++'s default 3D block mapping.
"""

from __future__ import annotations

import itertools
from typing import Sequence

__all__ = ["linearize", "delinearize", "all_indices", "block_map"]


def all_indices(shape: Sequence[int]) -> list[tuple]:
    """All index tuples of an N-D array shape, lexicographic order."""
    return [tuple(idx) for idx in itertools.product(*(range(s) for s in shape))]


def linearize(index: Sequence[int], shape: Sequence[int]) -> int:
    """Row-major linear rank of ``index`` within ``shape``."""
    if len(index) != len(shape):
        raise ValueError(f"index {index} does not match shape {shape}")
    rank = 0
    for i, (x, s) in enumerate(zip(index, shape)):
        if not 0 <= x < s:
            raise IndexError(f"index {index} out of bounds for shape {shape}")
        rank = rank * s + x
    return rank


def delinearize(rank: int, shape: Sequence[int]) -> tuple:
    """Inverse of :func:`linearize`: the index tuple of row-major ``rank``."""
    total = 1
    for s in shape:
        total *= s
    if not 0 <= rank < total:
        raise IndexError(f"rank {rank} out of bounds for shape {shape}")
    out = []
    for s in reversed(tuple(shape)):
        rank, r = divmod(rank, s)
        out.append(r)
    return tuple(reversed(out))


def block_map(shape: Sequence[int], n_pes: int) -> dict[tuple, int]:
    """Contiguous blocks of the linearized array per PE (locality-friendly).

    Distributes remainders so PE loads differ by at most one chare.
    """
    total = 1
    for s in shape:
        total *= s
    if n_pes < 1:
        raise ValueError("need at least one PE")
    base, extra = divmod(total, n_pes)
    mapping: dict[tuple, int] = {}
    pe, used, quota = 0, 0, base + (1 if 0 < extra else 0)
    for idx in all_indices(shape):
        if used >= quota:
            pe += 1
            used = 0
            quota = base + (1 if pe < extra else 0)
        mapping[idx] = pe
        used += 1
    return mapping
