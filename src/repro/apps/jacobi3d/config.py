"""Configuration for the Jacobi3D proxy application.

Jacobi3D is the paper's workload: a 7-point stencil on a 3D grid.  All of
the configuration surface (versions, ODF, fusion, CUDA graphs, data modes)
lives in the shared :class:`~repro.apps.stencil.config.StencilConfig`; this
module only pins the app identity and the paper's default grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from ..stencil.config import StencilConfig

__all__ = ["Jacobi3DConfig"]


@dataclass(frozen=True)
class Jacobi3DConfig(StencilConfig):
    """One Jacobi3D run (see :class:`~repro.apps.stencil.config.
    StencilConfig` for the full parameter reference)."""

    APP: ClassVar[str] = "jacobi3d"
    NDIM: ClassVar[int] = 3

    grid: tuple = (192, 192, 192)

