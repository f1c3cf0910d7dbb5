"""Tiled right-looking Cholesky factorization as a task DAG.

The third registered workload, and the first *non-stencil* one: instead
of a fixed halo-exchange pattern, each elimination step spawns
POTRF/TRSM/SYRK/GEMM tile tasks whose dependencies are declared in a
:class:`~repro.runtime.taskspace.TaskSpace` ledger and enforced through
kernel-completion events — the dependency-driven workload class that
motivates overdecomposition in the first place.  Charm++, AMPI and plain
MPI frontends execute the identical DAG; functional mode validates the
assembled factor bitwise against ``numpy.linalg.cholesky`` (see
:mod:`.ops` for why bitwise equality is attainable at all).
"""

from ...hardware.specs import MachineSpec
from ..registry import AppSpec, register
from .charm_app import make_cholesky_block_class
from .config import CholeskyConfig, CholeskyResult
from .context import CholeskyContext, CholeskyData
from .ops import generate_spd
from .phases import CHOLESKY_PHASES, CHOLESKY_PHASE_KERNELS, classify_cholesky_op
from .rank_program import make_cholesky_rank_program

__all__ = [
    "CHOLESKY_PHASES",
    "CholeskyConfig",
    "CholeskyContext",
    "CholeskyData",
    "CholeskyResult",
    "SPEC",
    "classify_cholesky_op",
    "generate_spd",
]


def _differential_base() -> CholeskyConfig:
    """A functional-mode factorization small enough to run the full matrix
    in seconds, with enough tiles that every task kind and remote
    dependency shape occurs."""
    return CholeskyConfig(
        version="charm-d",
        nodes=1,
        tiles=5,
        tile=8,
        odf=2,
        data_mode="functional",
        machine=MachineSpec.small_debug(),
    )


def _differential_cases(base: CholeskyConfig, quick: bool) -> list:
    """Cholesky's own matrix: the six runtimes, plus (full mode) ODF
    variants — the factor and residuals are decomposition-independent, so
    unlike the collectives app the overdecomposition axis *can* vary."""
    base = base.with_(version="charm-d")
    cases = [
        ("charm-d", base),
        ("charm-h", base.with_(version="charm-h")),
        ("ampi-d", base.with_(version="ampi-d")),
        ("ampi-h", base.with_(version="ampi-h")),
        ("mpi-d", base.with_(version="mpi-d", odf=1)),
        ("mpi-h", base.with_(version="mpi-h", odf=1)),
    ]
    if not quick:
        cases += [
            ("charm-d odf=1", base.with_(odf=1)),
            ("charm-d odf=4", base.with_(odf=4)),
            ("ampi-d odf=4", base.with_(version="ampi-d", odf=4)),
        ]
    return cases


def _golden_configs() -> dict:
    """The canonical Cholesky configs pinned under ``tests/golden/``."""
    base = CholeskyConfig(
        nodes=1, tiles=4, tile=32, machine=MachineSpec.small_debug(),
    )
    return {
        "cholesky-charm-d": base.with_(version="charm-d", odf=2),
        "cholesky-mpi-h": base.with_(version="mpi-h", odf=1),
    }


SPEC = register(AppSpec(
    name="cholesky",
    description="tiled Cholesky factorization — dependency-driven task DAG",
    config_cls=CholeskyConfig,
    result_cls=CholeskyResult,
    make_context=CholeskyContext,
    make_block_class=make_cholesky_block_class,
    make_rank_program=make_cholesky_rank_program,
    phases=CHOLESKY_PHASES,
    classify_op=classify_cholesky_op,
    phase_kernels=CHOLESKY_PHASE_KERNELS,
    differential_base=_differential_base,
    golden_configs=_golden_configs,
    differential_cases=_differential_cases,
))
