"""Configuration and result types shared by every stencil application.

:class:`StencilConfig` is the :class:`~repro.apps.appbase.BaseAppConfig`
subclass every stencil app's config derives from: the app sets its
:attr:`~repro.apps.appbase.BaseAppConfig.APP` name and
:attr:`~StencilConfig.NDIM` (plus its default grid) and inherits the
grid/fusion/graphs/legacy-sync surface defined here.  Serialization,
the derived predicates and the version/nodes/odf/data-mode checks come
from the base.

:class:`StencilResult` is shared by all stencil apps — the measured
quantities are app-agnostic, and ``config`` pins the producing app.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, ClassVar

import numpy as np

from ...kernels.fusion import FusionStrategy
from ..appbase import AppResult, BaseAppConfig

__all__ = ["StencilConfig", "StencilResult"]

# Functional mode actually allocates and computes every block; keep it for
# test-scale grids unless explicitly overridden.
_FUNCTIONAL_CELL_LIMIT = 4_000_000


@dataclass(frozen=True)
class StencilConfig(BaseAppConfig):
    """One stencil-app run.

    Subclasses declare the app identity (:attr:`APP`), dimensionality
    (:attr:`NDIM`) and the default ``grid``; everything else is shared.
    ``version``, ``nodes``, ``odf``, ``data_mode`` and ``machine`` are the
    :class:`~repro.apps.appbase.BaseAppConfig` fields.

    Parameters
    ----------
    grid:
        Global grid dimensions (cells), one entry per :attr:`NDIM` axis.
    iterations / warmup:
        Measured iterations and untimed warmup iterations (the paper uses
        100 + 10; the model reaches steady state after one iteration).
    fusion:
        Kernel-fusion strategy (``"A"``/``"B"``/``"C"``; charm-d only,
        following the paper).
    cuda_graphs:
        Capture each iteration's kernels as alternating CUDA graphs
        (charm-d only).
    legacy_sync:
        Reproduce the *pre-optimization* baseline of Fig. 6: two host-device
        syncs per iteration and a single stream for all transfers and
        (un)packing kernels.
    mpi_overlap:
        Manual interior/exterior overlap in the MPI versions (paper Fig. 1's
        ``overlap`` branch; an extension experiment).
    allow_large_functional:
        Lift the functional-mode cell limit.
    """

    #: Dimensionality of the app's grid.
    NDIM: ClassVar[int] = 0

    grid: tuple = ()
    iterations: int = 10
    warmup: int = 1
    fusion: Any = FusionStrategy.NONE
    cuda_graphs: bool = False
    legacy_sync: bool = False
    mpi_overlap: bool = False
    allow_large_functional: bool = False

    def __post_init__(self):
        if not type(self).APP or type(self).NDIM < 1:
            raise TypeError(
                "StencilConfig is abstract: subclasses must set APP and NDIM "
                "(use a registered app's config class)"
            )
        self._validate_common()
        object.__setattr__(self, "grid", tuple(self.grid))
        object.__setattr__(self, "fusion", FusionStrategy.parse(self.fusion))
        if len(self.grid) != type(self).NDIM or any(
                type(g) is not int or g < 1 for g in self.grid):
            raise ValueError(f"bad grid {self.grid}: need {type(self).NDIM} ints >= 1")
        if self.iterations < 1 or self.warmup < 0:
            raise ValueError("need iterations >= 1 and warmup >= 0")
        if self.fusion is not FusionStrategy.NONE and self.version != "charm-d":
            raise ValueError("kernel fusion is evaluated only with charm-d (paper §III-D)")
        if self.cuda_graphs and self.version != "charm-d":
            raise ValueError("CUDA Graphs are evaluated only with charm-d (paper §III-D)")
        if self.mpi_overlap and not self.is_mpi:
            raise ValueError("mpi_overlap applies to MPI versions")
        if self.data_mode == "functional" and not self.allow_large_functional:
            cells = math.prod(self.grid)
            if cells > _FUNCTIONAL_CELL_LIMIT:
                raise ValueError(
                    f"functional mode with {cells} cells would allocate real arrays; "
                    "use modeled mode or set allow_large_functional=True"
                )

    @property
    def ndim(self) -> int:
        return type(self).NDIM


@dataclass
class StencilResult(AppResult):
    """Measured outcome of one stencil-app run (shared across stencil apps;
    the producing app is pinned by ``config``).  The measured fields live on
    :class:`~repro.apps.appbase.AppResult`; this subclass adds grid
    assembly.  In functional mode ``blocks`` maps block index -> interior
    array and ``residuals`` holds per-iteration max-norm deltas."""

    def assemble_grid(self, geometry) -> np.ndarray:
        """Stitch functional-mode block interiors into the global interior."""
        if self.blocks is None:
            raise ValueError("assemble_grid requires a functional-mode run")
        out = np.empty(tuple(geometry.grid), dtype=np.float64)
        for index, interior in self.blocks.items():
            offset = geometry.block_offset(index)
            dims = geometry.block_dims(index)
            window = tuple(slice(o, o + d) for o, d in zip(offset, dims))
            out[window] = interior
        return out

    def assemble_state(self) -> np.ndarray:
        """App-agnostic assembly hook (differential matrix): the stitched
        global interior for this run's own geometry."""
        from .geometry import BlockGeometry

        return self.assemble_grid(
            BlockGeometry.auto(self.config.n_blocks(), self.config.grid)
        )

    def summary(self) -> str:
        """One-line human-readable summary."""
        cfg = self.config
        extras = []
        if cfg.is_charm:
            extras.append(f"odf={cfg.odf}")
        if cfg.fusion is not FusionStrategy.NONE:
            extras.append(f"fusion={cfg.fusion.value}")
        if cfg.cuda_graphs:
            extras.append("graphs")
        if cfg.legacy_sync:
            extras.append("legacy")
        tag = f" ({', '.join(extras)})" if extras else ""
        return (
            f"{cfg.version}{tag} nodes={cfg.nodes} grid={cfg.grid}: "
            f"{self.time_per_iteration * 1e3:.3f} ms/iter, "
            f"GPU util {self.gpu_utilization * 100:.0f}%"
        )
