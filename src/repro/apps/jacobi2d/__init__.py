"""Jacobi2D: a 5-point 2D stencil on the shared stencil core.

The second registered workload — it reuses the charm/mpi/ampi frontends,
fusion strategies A/B/C, CUDA graphs, the legacy-sync baseline and the
functional/modeled data modes verbatim from :mod:`repro.apps.stencil`;
only the dimensionality (and with it the neighbour set: 4 faces instead
of 6) and the boundary condition (the hot-edge problem) differ.
"""

from ...hardware.specs import MachineSpec
from ..registry import AppSpec, register
from ..stencil import (
    STENCIL_PHASES,
    STENCIL_PHASE_KERNELS,
    StencilContext,
    StencilResult,
    classify_stencil_op,
    make_block_class,
    make_rank_program,
)
from .config import Jacobi2DConfig

__all__ = ["Jacobi2DConfig", "SPEC"]


def _differential_base() -> Jacobi2DConfig:
    """A functional-mode 2D problem small enough to run the full matrix in
    seconds, large enough that every block has interior cells and real
    halo traffic on all four edges."""
    return Jacobi2DConfig(
        version="charm-d",
        nodes=1,
        grid=(16, 16),
        odf=2,
        iterations=4,
        warmup=1,
        data_mode="functional",
        machine=MachineSpec.small_debug(),
    )


def _golden_configs() -> dict:
    """The canonical 2D configs pinned under ``tests/golden/<name>.json``."""
    base = Jacobi2DConfig(
        nodes=1, grid=(48, 48), odf=2, iterations=4, warmup=1,
        machine=MachineSpec.small_debug(),
    )
    return {
        "jacobi2d-charm-d": base.with_(version="charm-d"),
        "jacobi2d-mpi-h": base.with_(version="mpi-h", odf=1),
    }


SPEC = register(AppSpec(
    name="jacobi2d",
    description="5-point 2D Jacobi stencil — proves the app framework",
    config_cls=Jacobi2DConfig,
    result_cls=StencilResult,
    make_context=StencilContext,
    make_block_class=make_block_class,
    make_rank_program=make_rank_program,
    phases=STENCIL_PHASES,
    classify_op=classify_stencil_op,
    phase_kernels=STENCIL_PHASE_KERNELS,
    differential_base=_differential_base,
    golden_configs=_golden_configs,
))
