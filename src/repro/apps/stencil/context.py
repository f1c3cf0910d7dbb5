"""Shared per-run state: geometry and per-block data.

Everything here is generic over the app's dimensionality: block indices and
faces come from :class:`~repro.apps.stencil.geometry.BlockGeometry`, and
interior slicing uses :func:`~repro.kernels.jacobi.interior_slice`.  The
boundary condition is the only app-supplied piece of physics — it defaults
by dimensionality to the canonical hot-face problems.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from ...kernels import (
    alloc_block,
    apply_boundary,
    fused_all_work,
    fused_pack_work,
    fused_unpack_work,
    hot_edge_boundary,
    hot_top_boundary,
    interior_slice,
    jacobi_update,
    pack_face,
    pack_work,
    unpack_face,
    unpack_work,
    update_work,
    interior_work,
    exterior_work,
)
from ..appbase import MetricsCollector, ResidualHistory
from .config import StencilConfig
from .geometry import BlockGeometry

__all__ = ["StencilContext", "BlockData", "default_boundary"]


def default_boundary(ndim: int) -> Callable[..., float]:
    """The canonical hot-face test problem for ``ndim`` dimensions."""
    return hot_top_boundary if ndim == 3 else hot_edge_boundary


class BlockData:
    """Everything one block needs: geometry, work models, functional arrays."""

    def __init__(self, ctx: "StencilContext", index: tuple):
        geo = ctx.geometry
        cfg = ctx.config
        self.index = tuple(index)
        self.dims = geo.block_dims(self.index)
        self.neighbors = geo.neighbors(self.index)  # face -> neighbour index
        self.face_cells = {f: geo.face_cells(self.index, f) for f in self.neighbors}
        self.face_bytes = {f: 8 * c for f, c in self.face_cells.items()}
        # Roofline work models.
        self.update = update_work(self.dims)
        self.packs = {f: pack_work(c) for f, c in self.face_cells.items()}
        self.unpacks = {f: unpack_work(c) for f, c in self.face_cells.items()}
        cells = list(self.face_cells.values())
        self.fused_pack = fused_pack_work(cells) if cells else None
        self.fused_unpack = fused_unpack_work(cells) if cells else None
        self.fused_all = fused_all_work(self.dims, cells)
        self.interior = interior_work(self.dims)
        self.exterior = exterior_work(self.dims)
        # Device memory: two block copies + send/recv halo buffers.
        vol = math.prod(self.dims)
        self.device_bytes = 2 * 8 * vol + 2 * sum(self.face_bytes.values())
        # Functional state.
        self._inner = interior_slice(len(self.dims))
        self._functional = cfg.functional
        self._residuals = ctx.residuals
        self._iteration = 0
        if self._functional:
            self.u = alloc_block(self.dims)
            apply_boundary(self.u, ctx.boundary, geo.grid,
                           offset=geo.block_offset(self.index))
            initial = ctx.initial_state.get(self.index) if ctx.initial_state else None
            if initial is not None:
                self.u[self._inner] = initial
            self.out = self.u.copy()
            self._halos: dict = {}
        else:
            self.u = self.out = None
            self._halos = {}

    # -- functional operations (no-ops in modeled mode) -------------------------
    def f_pack_all(self) -> None:
        if self._functional:
            for face in self.neighbors:
                self._halos[face] = pack_face(self.u, face)

    def f_halo(self, face) -> Optional[np.ndarray]:
        return self._halos.get(face) if self._functional else None

    def f_unpack(self, face, data) -> None:
        if self._functional and data is not None:
            unpack_face(self.u, face, data)

    def f_update(self) -> None:
        if self._functional:
            jacobi_update(self.u, self.out)
            if self._residuals is not None:
                delta = float(np.max(np.abs(
                    self.out[self._inner] - self.u[self._inner])))
                self._residuals.record(self.index, self._iteration, delta)
            self._iteration += 1
            self.u, self.out = self.out, self.u

    def f_interior(self) -> Optional[np.ndarray]:
        if not self._functional:
            return None
        return np.ascontiguousarray(self.u[self._inner])

    # -- checkpoint/restart support (PUP idiom) ------------------------------
    def snapshot(self) -> dict:
        """Serializable state for checkpointing (``pup``)."""
        if not self._functional:
            return {"device_bytes": self.device_bytes}
        return {"interior": self.f_interior()}

    def restore(self, state: dict) -> None:
        """Re-hydrate from a snapshot (``unpup``)."""
        interior = state.get("interior")
        if interior is not None and self._functional:
            if interior.shape != tuple(self.dims):
                raise ValueError(
                    f"snapshot shape {interior.shape} != block dims {self.dims}"
                )
            self.u[self._inner] = interior


class StencilContext:
    """One stencil run's immutable context, shared by all blocks.

    ``initial_state`` (optional, functional mode): block index -> interior
    array — used to continue from a checkpoint instead of the boundary-only
    initial condition.

    ``boundary`` (optional): the global boundary condition; defaults to the
    canonical hot-face problem for the config's dimensionality.
    """

    def __init__(self, config: StencilConfig, initial_state: Optional[dict] = None,
                 boundary: Optional[Callable[..., float]] = None):
        self.config = config
        self.geometry = BlockGeometry.auto(config.n_blocks(), config.grid)
        self.boundary = boundary if boundary is not None else default_boundary(config.ndim)
        self.initial_state = initial_state
        self.metrics = MetricsCollector(config.n_pes() if config.is_mpi
                                        else config.n_blocks(), config.warmup)
        self.residuals = (ResidualHistory(config.n_blocks(), config.total_iterations)
                          if config.functional else None)

    @property
    def shape(self) -> tuple:
        return self.geometry.shape

    def max_payload_bytes(self) -> int:
        """Largest single message payload (driver hook, app-agnostic): for
        stencils, the biggest halo face."""
        return self.geometry.max_face_bytes()

    def block_data(self, index) -> BlockData:
        return BlockData(self, index)
