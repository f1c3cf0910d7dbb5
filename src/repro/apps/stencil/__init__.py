"""The reusable halo-exchange stencil core.

Everything the Jacobi-style apps share, parameterized by dimensionality:

* :mod:`~repro.apps.stencil.geometry` — surface-minimizing N-D block
  decomposition (:class:`BlockGeometry`);
* :mod:`~repro.apps.stencil.config` — :class:`StencilConfig` /
  :class:`StencilResult`, the stencil axes on top of
  :class:`~repro.apps.appbase.BaseAppConfig`;
* :mod:`~repro.apps.stencil.context` — per-run state: block data and work
  models;
* :mod:`~repro.apps.stencil.charm_app` / :mod:`~repro.apps.stencil.
  rank_program` — the Charm++ chare (paper Figs. 3, 5) and the MPI rank
  program (Fig. 1) the driver hosts under MPI and AMPI, all
  dimension-agnostic;
* :mod:`~repro.apps.stencil.phases` — the declared phase vocabulary and
  trace classifier the observability layer consumes.

An app built on this core is one small module: subclass
:class:`StencilConfig` (name, dimensionality, default grid), pick a
boundary condition, and register an :class:`~repro.apps.registry.AppSpec` —
see ``docs/apps.md``.
"""

from .charm_app import make_block_class
from .config import StencilConfig, StencilResult
from .context import BlockData, StencilContext, default_boundary
from .geometry import BlockGeometry, factor_tuples, partition_dims
from .phases import STENCIL_PHASES, STENCIL_PHASE_KERNELS, classify_stencil_op
from .rank_program import make_rank_program

__all__ = [
    "StencilConfig",
    "StencilResult",
    "StencilContext",
    "BlockData",
    "default_boundary",
    "BlockGeometry",
    "factor_tuples",
    "partition_dims",
    "STENCIL_PHASES",
    "STENCIL_PHASE_KERNELS",
    "classify_stencil_op",
    "make_block_class",
    "make_rank_program",
]
