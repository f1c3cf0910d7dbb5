"""Ring/tree allreduce collectives over the simulated network.

The fourth registered workload: not a stencil, not a task DAG, but the
communication pattern that dominates data-parallel training and many
solvers.  Ring (bandwidth-optimal reduce-scatter + allgather) and binomial
tree (latency-optimal) algorithms replay the same round schedule from
:mod:`.context` across all six frontends, with pipelined double-buffered
chunking (``chunks > 1``) overlapping chunk transfers with per-chunk fold
kernels.  Functional mode reduces *integer-valued* float64 vectors, so
ring, tree, chunked and serial reductions are all bit-identical (see
:class:`.context.AllreduceData`) and the differential matrix can compare
algorithms against each other, not just frontends.
"""

from ...hardware.specs import MachineSpec
from ..registry import AppSpec, register
from .charm_app import make_allreduce_block_class
from .config import AllreduceConfig, AllreduceResult
from .context import AllreduceContext, AllreduceData, reference_allreduce
from .phases import ALLREDUCE_PHASES, ALLREDUCE_PHASE_KERNELS, classify_allreduce_op
from .rank_program import make_allreduce_rank_program

__all__ = [
    "ALLREDUCE_PHASES",
    "AllreduceConfig",
    "AllreduceContext",
    "AllreduceData",
    "AllreduceResult",
    "SPEC",
    "classify_allreduce_op",
    "reference_allreduce",
]


def _differential_base() -> AllreduceConfig:
    """A functional-mode reduction small enough to materialize every unit's
    vector, big enough that segments and chunks are all non-empty."""
    return AllreduceConfig(
        version="charm-d",
        nodes=1,
        odf=1,
        elements=512,
        algorithm="ring",
        chunks=2,
        iterations=3,
        warmup=1,
        data_mode="functional",
        machine=MachineSpec.small_debug(),
    )


def _differential_cases(base: AllreduceConfig, quick: bool) -> list:
    """Allreduce's own matrix.  The reduced vector is the sum over *units*,
    so every case must hold the unit count fixed — all cases run odf=1 and
    the interesting axes are algorithm and chunk count instead (exact
    integer arithmetic makes ring ≡ tree ≡ chunked bitwise)."""
    base = base.with_(version="charm-d", odf=1)
    cases = [
        ("charm-d", base),
        ("charm-h", base.with_(version="charm-h")),
        ("ampi-d", base.with_(version="ampi-d")),
        ("ampi-h", base.with_(version="ampi-h")),
        ("mpi-d", base.with_(version="mpi-d")),
        ("mpi-h", base.with_(version="mpi-h")),
    ]
    if not quick:
        cases += [
            ("charm-d tree", base.with_(algorithm="tree")),
            ("charm-d ring chunks=4", base.with_(algorithm="ring", chunks=4)),
            ("charm-d tree chunks=4", base.with_(algorithm="tree", chunks=4)),
            ("mpi-d tree", base.with_(version="mpi-d", algorithm="tree")),
            ("charm-d ring chunks=1", base.with_(chunks=1)),
        ]
    return cases


def _golden_configs() -> dict:
    """The canonical allreduce configs pinned under ``tests/golden/``."""
    base = AllreduceConfig(
        nodes=1, elements=1 << 14, iterations=3, warmup=1,
        machine=MachineSpec.small_debug(),
    )
    return {
        "allreduce-charm-d-ring": base.with_(
            version="charm-d", algorithm="ring", chunks=2),
        "allreduce-mpi-h-tree": base.with_(
            version="mpi-h", algorithm="tree", chunks=1),
    }


SPEC = register(AppSpec(
    name="allreduce",
    description="ring/tree allreduce collective with pipelined chunking",
    config_cls=AllreduceConfig,
    result_cls=AllreduceResult,
    make_context=AllreduceContext,
    make_block_class=make_allreduce_block_class,
    make_rank_program=make_allreduce_rank_program,
    phases=ALLREDUCE_PHASES,
    classify_op=classify_allreduce_op,
    phase_kernels=ALLREDUCE_PHASE_KERNELS,
    differential_base=_differential_base,
    golden_configs=_golden_configs,
    differential_cases=_differential_cases,
))
