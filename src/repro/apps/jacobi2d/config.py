"""Configuration for the Jacobi2D workload.

Jacobi2D is the second registered application: a 5-point stencil on a 2D
grid, run through the *same* charm/mpi/ampi frontends, fusion strategies
and CUDA-graphs path as Jacobi3D — it exists to prove the app framework is
real (and it exercises the stencil core at a different dimensionality, a
different neighbour count, and different surface-to-volume ratios).

The default grid matches Jacobi3D's default cell count per node order of
magnitude; functional mode follows the same cell limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from ..stencil.config import StencilConfig

__all__ = ["Jacobi2DConfig"]


@dataclass(frozen=True)
class Jacobi2DConfig(StencilConfig):
    """One Jacobi2D run (see :class:`~repro.apps.stencil.config.
    StencilConfig` for the full parameter reference)."""

    APP: ClassVar[str] = "jacobi2d"
    NDIM: ClassVar[int] = 2

    grid: tuple = (1536, 1536)

