"""N-dimensional grid decomposition for the stencil core.

The paper decomposes the global grid "in a way that minimizes the aggregate
surface area, which is tied to communication volume" (§IV-A).
:func:`partition_dims` enumerates all factorizations of the part count into
one factor per axis and picks the one with minimal total exposed surface;
:class:`BlockGeometry` then answers every per-block question the apps need:
block dims (with remainders spread), neighbours, face sizes, offsets.

Everything is generic over the dimensionality of ``grid`` — the same code
drives the 3D (paper) and 2D (second registered workload) Jacobi apps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

from ...kernels.jacobi import faces_for

__all__ = ["factor_tuples", "partition_dims", "BlockGeometry"]


def factor_tuples(n: int, k: int) -> Iterator[tuple]:
    """All ordered ``k``-tuples of positive factors with product ``n``,
    lexicographic order."""
    if n < 1:
        raise ValueError("n must be positive")
    if k < 1:
        raise ValueError("k must be positive")
    if k == 1:
        yield (n,)
        return
    for a in range(1, n + 1):
        if n % a:
            continue
        for rest in factor_tuples(n // a, k - 1):
            yield (a,) + rest


@lru_cache(maxsize=1024)
def partition_dims(n_parts: int, grid: tuple) -> tuple:
    """The per-axis split of ``grid`` into ``n_parts`` blocks that minimizes
    total inter-block surface area (communication volume).

    Ties break toward the lexicographically smallest tuple for
    reproducibility.  Parts never exceed the grid cells on an axis.
    """
    ndim = len(grid)
    best: Optional[tuple] = None
    for parts in factor_tuples(n_parts, ndim):
        if any(p > g for p, g in zip(parts, grid)):
            continue
        # Internal surface: (p_a - 1) cut planes per axis, each the product
        # of the other axes' extents ((px-1)*gy*gz + ... in 3D).
        surface = 0
        for axis in range(ndim):
            plane = 1
            for a in range(ndim):
                if a != axis:
                    plane *= grid[a]
            surface += (parts[axis] - 1) * plane
        key = (surface, parts)
        if best is None or key < best:
            best = key
    if best is None:
        raise ValueError(f"cannot split grid {grid} into {n_parts} parts")
    return best[1]


def _axis_split(cells: int, parts: int) -> list[int]:
    """Split ``cells`` into ``parts`` sizes differing by at most one."""
    base, extra = divmod(cells, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


@dataclass(frozen=True)
class BlockGeometry:
    """Geometry of a ``parts``-way block decomposition of ``grid``."""

    grid: tuple
    parts: tuple

    @classmethod
    def auto(cls, n_parts: int, grid: tuple) -> "BlockGeometry":
        """Surface-minimizing decomposition into ``n_parts`` blocks."""
        return cls(tuple(grid), partition_dims(n_parts, tuple(grid)))

    def __post_init__(self):
        if len(self.grid) != len(self.parts) or not self.grid:
            raise ValueError(f"cannot split {self.grid} as {self.parts}")
        for g, p in zip(self.grid, self.parts):
            if p < 1 or g < p:
                raise ValueError(f"cannot split {self.grid} as {self.parts}")

    @property
    def ndim(self) -> int:
        return len(self.grid)

    @property
    def faces(self) -> tuple:
        """Canonical face order for this dimensionality."""
        return faces_for(self.ndim)

    @property
    def n_blocks(self) -> int:
        total = 1
        for p in self.parts:
            total *= p
        return total

    @property
    def shape(self) -> tuple:
        return self.parts

    def indices(self) -> Iterator[tuple]:
        yield from itertools.product(*(range(p) for p in self.parts))

    def block_dims(self, index: tuple) -> tuple:
        """Interior cell counts of one block (remainders spread low-first)."""
        return tuple(
            _axis_split(self.grid[a], self.parts[a])[index[a]]
            for a in range(self.ndim)
        )

    def block_offset(self, index: tuple) -> tuple:
        """Global coordinate of the block's ghost origin (cell ``(0,...,0)``
        of the ghosted local array), in global ghost-array coordinates."""
        out = []
        for a in range(self.ndim):
            sizes = _axis_split(self.grid[a], self.parts[a])
            out.append(sum(sizes[: index[a]]))
        return tuple(out)

    def neighbor(self, index: tuple, face) -> Optional[tuple]:
        """Neighbouring block index across ``face`` (None at domain edge)."""
        axis, side = face
        moved = list(index)
        moved[axis] += side
        if not 0 <= moved[axis] < self.parts[axis]:
            return None
        return tuple(moved)

    def neighbors(self, index: tuple) -> dict:
        """``{face: neighbor_index}`` for the faces that have neighbours."""
        out = {}
        for face in self.faces:
            n = self.neighbor(index, face)
            if n is not None:
                out[face] = n
        return out

    def face_cells(self, index: tuple, face) -> int:
        """Cells in the halo exchanged across ``face`` (cross-section size).

        Identical for both sides of the face: neighbours differ only along
        ``face``'s axis, and the cross-section axes split identically.
        """
        axis, _ = face
        dims = self.block_dims(index)
        area = 1
        for a in range(self.ndim):
            if a != axis:
                area *= dims[a]
        return area

    def max_face_bytes(self, bytes_per_cell: int = 8) -> int:
        """Largest halo message in the whole decomposition (protocol driver)."""
        best = 0
        for index in self.indices():
            for face in self.faces:
                if self.neighbor(index, face) is not None:
                    best = max(best, self.face_cells(index, face) * bytes_per_cell)
        return best
