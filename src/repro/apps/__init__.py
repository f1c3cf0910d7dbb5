"""Applications built on the runtime.

The app framework has three pieces:

* :mod:`~repro.apps.registry` — the :class:`AppSpec` protocol and the
  process-wide registry.  Everything downstream (cache, runner, CLI,
  differential matrix, golden store, observatory) dispatches on the
  stable ``app`` name carried in every config dict.
* :mod:`~repro.apps.appbase` — the app-agnostic contract:
  :class:`BaseAppConfig` (every app's config base), :class:`AppResult`,
  and the metrics/residual collectors every context feeds.
* :mod:`~repro.apps.stencil` — the reusable halo-exchange/stencil core:
  dimension-generic geometry, config, context, the Charm++ chare with
  fusion strategies and the CUDA-graphs path, and the MPI rank program.
* The registered workloads: :mod:`~repro.apps.jacobi3d` (the paper's
  7-point 3D proxy app), :mod:`~repro.apps.jacobi2d` (a 5-point 2D
  stencil proving the abstraction), :mod:`~repro.apps.cholesky` (a tiled
  Cholesky factorization exercising dependency-driven task DAGs), and
  :mod:`~repro.apps.allreduce` (ring/tree allreduce collectives over the
  simulated network).

Importing this package registers all apps.
"""

from . import registry as registry  # noqa: F401  (import order matters)
from .allreduce import AllreduceConfig, AllreduceResult
from .appbase import ALL_VERSIONS, VERSIONS, BaseAppConfig
from .cholesky import CholeskyConfig, CholeskyResult
from .driver import run_app
from .jacobi2d import Jacobi2DConfig
from .jacobi3d import Jacobi3DConfig
from .registry import (
    AppSpec,
    app_names,
    config_from_dict,
    get_app,
    result_from_dict,
    spec_for,
)
from .stencil import (
    BlockData,
    BlockGeometry,
    StencilConfig,
    StencilContext,
    StencilResult,
    factor_tuples,
    partition_dims,
)

__all__ = [
    "AppSpec",
    "app_names",
    "get_app",
    "spec_for",
    "config_from_dict",
    "result_from_dict",
    "run_app",
    "BaseAppConfig",
    "StencilConfig",
    "StencilContext",
    "StencilResult",
    "BlockGeometry",
    "factor_tuples",
    "partition_dims",
    "VERSIONS",
    "ALL_VERSIONS",
    "BlockData",
    "Jacobi3DConfig",
    "Jacobi2DConfig",
    "CholeskyConfig",
    "CholeskyResult",
    "AllreduceConfig",
    "AllreduceResult",
]
