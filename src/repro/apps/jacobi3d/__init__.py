"""Jacobi3D: the paper's proxy application, in four versions.

* ``mpi-h`` — MPI with application-level host staging
* ``mpi-d`` — CUDA-aware MPI
* ``charm-h`` — Charm++ with host staging (+ automatic overlap via ODF)
* ``charm-d`` — Charm++ with GPU-aware communication (Channel API)

plus kernel-fusion strategies A/B/C, CUDA Graphs, the legacy
pre-optimization baseline of Fig. 6, and two extensions: a manual-overlap
MPI branch and AMPI frontends (``ampi-h``/``ampi-d``) running the
unchanged MPI rank program as virtualized ranks on the Charm++ runtime.

The mechanics all live in the shared stencil core
(:mod:`repro.apps.stencil`); this package pins the 3D app identity and
registers its :class:`~repro.apps.registry.AppSpec`.
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
from .config import Jacobi3DConfig

__all__ = ["Jacobi3DConfig", "SPEC"]


def _differential_base() -> Jacobi3DConfig:
    """A functional-mode problem small enough to run the full matrix in
    seconds, large enough that every block has interior cells and real
    halo traffic on all six faces."""
    return Jacobi3DConfig(
        version="charm-d",
        nodes=1,
        grid=(16, 16, 16),
        odf=2,
        iterations=4,
        warmup=1,
        data_mode="functional",
        machine=MachineSpec.small_debug(),
    )


def _golden_configs() -> dict:
    """The canonical configs pinned under ``tests/golden/<name>.json``."""
    base = Jacobi3DConfig(
        nodes=1, grid=(48, 48, 48), odf=2, iterations=4, warmup=1,
        machine=MachineSpec.small_debug(),
    )
    return {
        "charm-d": base.with_(version="charm-d"),
        "charm-h": base.with_(version="charm-h"),
        "ampi-d": base.with_(version="ampi-d"),
        "mpi-d": base.with_(version="mpi-d", odf=1),
        "mpi-h": base.with_(version="mpi-h", odf=1),
        "charm-d-fusion-b": base.with_(version="charm-d", fusion="B"),
        "charm-d-graphs": base.with_(version="charm-d", cuda_graphs=True),
        "charm-d-legacy": base.with_(version="charm-d", legacy_sync=True),
    }


SPEC = register(AppSpec(
    name="jacobi3d",
    description="7-point 3D Jacobi stencil — the paper's proxy app",
    config_cls=Jacobi3DConfig,
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
