"""Cross-backend differential validation.

One physical problem, many execution paths: an app's Charm++, AMPI and
plain-MPI frontends differ in decomposition (overdecomposition vs. one
block per rank), scheduling (suspending chares vs. spinning CPUs),
communication protocol (host staging vs. GPUDirect vs. device IPC), kernel
organisation (fusion strategies A/B/C, CUDA graphs) — yet they integrate
the *same* PDE.  Because the functional kernels use a fixed operand order
and the residual combiner is an exact ``max`` (:class:`~repro.apps.appbase.
ResidualHistory`), every path must produce **bitwise identical**
residual histories and final grids.  Any drift — a halo applied twice, an
iteration skipped, a mis-tagged message — shows up as a first differing
iteration.

The matrix runs for any registered app (each :class:`~repro.apps.registry.
AppSpec` contributes its ``differential_base``); every case also runs with
the :class:`~repro.validate.invariants.InvariantChecker` attached, so
scheduling-level breakage is caught even when the physics happens to
survive it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..apps import BaseAppConfig, StencilConfig, get_app, run_app

__all__ = [
    "CaseDiff",
    "DifferentialReport",
    "default_base",
    "default_matrix",
    "diff_histories",
    "run_differential_matrix",
]


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def diff_histories(a: Sequence[float], b: Sequence[float]) -> Optional[int]:
    """Index of the first *bitwise* difference between two residual
    histories (length mismatch counts at the shorter length); ``None`` if
    identical.  Bitwise, not ``==``: ``0.0 == -0.0`` would hide a sign
    drift."""
    n = min(len(a), len(b))
    for i in range(n):
        if _bits(a[i]) != _bits(b[i]):
            return i
    if len(a) != len(b):
        return n
    return None


def _grids_identical(a: np.ndarray, b: np.ndarray) -> bool:
    if a.shape != b.shape:
        return False
    return bool(np.array_equal(a.view(np.int64), b.view(np.int64)))


@dataclass(frozen=True)
class CaseDiff:
    """One matrix case compared against the reference run."""

    label: str
    config: BaseAppConfig
    ok: bool
    iterations: int
    first_diff_iteration: Optional[int] = None
    detail: str = ""

    def __str__(self) -> str:
        if self.ok:
            return f"{self.label}: OK ({self.iterations} iterations bit-identical)"
        where = ("" if self.first_diff_iteration is None
                 else f" (first differing iteration: {self.first_diff_iteration})")
        return f"{self.label}: MISMATCH{where} — {self.detail}"


@dataclass
class DifferentialReport:
    """Outcome of one differential-matrix run."""

    reference: str
    cases: list[CaseDiff] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.cases)

    def failures(self) -> list[CaseDiff]:
        return [c for c in self.cases if not c.ok]

    def report(self) -> str:
        head = (f"differential matrix vs {self.reference}: "
                f"{len(self.cases)} case(s), {len(self.failures())} failure(s)")
        lines = "\n".join(f"  {c}" for c in self.cases)
        return f"{head}\n{lines}"


def default_base(app: str = "jacobi3d") -> BaseAppConfig:
    """The registered app's functional-mode base problem: small enough to
    run the full matrix in seconds, large enough that every block has
    interior cells and real halo traffic on every face."""
    return get_app(app).differential_base()


def default_matrix(base: StencilConfig,
                   quick: bool = False) -> list[tuple[str, StencilConfig]]:
    """The stencil-shaped comparison cases for ``base``.  The first entry
    is the reference (charm-d, the paper's best version).  ``quick`` keeps
    only the cross-runtime cases; the full matrix adds fusion A/B/C and
    CUDA graphs on/off.  Apps without those axes register their own
    ``differential_cases`` on their :class:`~repro.apps.registry.AppSpec`
    instead of using this default."""
    base = base.with_(version="charm-d", fusion="none", cuda_graphs=False)
    cases = [
        ("charm-d", base),
        ("charm-h", base.with_(version="charm-h")),
        ("ampi-d", base.with_(version="ampi-d")),
        ("ampi-h", base.with_(version="ampi-h")),
        ("mpi-d", base.with_(version="mpi-d", odf=1)),
        ("mpi-h", base.with_(version="mpi-h", odf=1)),
    ]
    if not quick:
        for strategy in ("A", "B", "C"):
            cases.append((f"charm-d fusion={strategy}",
                          base.with_(fusion=strategy)))
        cases.append(("charm-d graphs", base.with_(cuda_graphs=True)))
        for strategy in ("A", "B", "C"):
            cases.append((f"charm-d fusion={strategy} graphs",
                          base.with_(fusion=strategy, cuda_graphs=True)))
    return cases


def run_differential_matrix(
    base: Optional[BaseAppConfig] = None,
    cases: Optional[list[tuple[str, BaseAppConfig]]] = None,
    quick: bool = False,
    validate: bool = True,
    progress=None,
    app: str = "jacobi3d",
) -> DifferentialReport:
    """Run every case and compare residual histories + final grids bitwise
    against the first case (the reference).

    ``app`` selects the registered app's base problem when ``base`` is not
    given.  ``progress`` (optional): ``fn(label, case_diff_or_None)`` called
    before (with ``None``) and after each case.
    """
    if base is None:
        base = default_base(app)
    if not base.functional:
        raise ValueError("the differential matrix needs data_mode='functional'")
    if cases is None:
        make_cases = get_app(base.app).differential_cases
        if make_cases is not None:
            cases = make_cases(base, quick)
        else:
            cases = default_matrix(base, quick=quick)

    report = DifferentialReport(reference=cases[0][0])
    reference = None
    ref_grid = None
    for label, config in cases:
        if progress is not None:
            progress(label, None)
        result = run_app(config, validate=validate)
        grid = result.assemble_state()
        if reference is None:
            reference = result
            ref_grid = grid
            diff = CaseDiff(label, config, True, len(result.residuals))
        else:
            diff = _compare(label, config, reference, ref_grid, result, grid)
        report.cases.append(diff)
        if progress is not None:
            progress(label, diff)
    return report


def _compare(label, config, reference, ref_grid, result, grid) -> CaseDiff:
    n_iter = len(result.residuals)
    where = diff_histories(reference.residuals, result.residuals)
    if len(reference.residuals) != n_iter:
        return CaseDiff(
            label, config, False, n_iter, first_diff_iteration=where,
            detail=(f"iteration count {n_iter} != "
                    f"reference {len(reference.residuals)}"),
        )
    if where is not None:
        return CaseDiff(
            label, config, False, n_iter, first_diff_iteration=where,
            detail=(f"residual {result.residuals[where]!r} != "
                    f"reference {reference.residuals[where]!r}"),
        )
    if not _grids_identical(ref_grid, grid):
        if ref_grid.shape != grid.shape:
            detail = f"grid shape {grid.shape} != reference {ref_grid.shape}"
        else:
            mism = int(np.sum(ref_grid.view(np.int64) != grid.view(np.int64)))
            detail = f"final grid differs in {mism} cell(s)"
        return CaseDiff(label, config, False, n_iter, detail=detail)
    return CaseDiff(label, config, True, n_iter)
