"""Exact-arithmetic tile operations for the tiled Cholesky app.

The differential harness and the DAG property suite demand **bitwise**
agreement across frontends, overdecomposition factors and
``numpy.linalg.cholesky`` — for a floating-point
factorization whose task DAG legitimately reorders work.  The trick is to
make every intermediate quantity exactly representable, so *any* correct
summation/elimination order produces the same bits:

* the input is manufactured as ``A = L0 @ L0.T`` where ``L0`` has small
  integer strictly-lower entries and power-of-two diagonal entries;
* every partial sum and product during factorization is then an integer of
  tiny magnitude (exact in float64), every square root is of a perfect
  square (1, 4 or 16 — exact), and every division is by a power of two
  (exact);
* hence the computed factor is exactly ``L0`` — independent of operation
  order, blocking, or which rank ran which task.

The one subtlety is TRSM: ``np.linalg.solve`` would LU-pivot and divide by
non-power-of-two pivots, destroying exactness, so :func:`trsm_tile` is a
plain forward substitution dividing only by the (power-of-two) diagonal.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "generate_spd",
    "potrf_tile",
    "trsm_tile",
    "syrk_update",
    "gemm_update",
]


def generate_spd(n: int, seed: int) -> tuple:
    """``(A, L0)``: an SPD matrix with an exactly-representable factor.

    ``L0`` has strictly-lower integer entries in [-3, 3] and diagonal
    entries drawn from {1, 2, 4} (powers of two).  Entry magnitudes in
    ``A`` are bounded by ``9 n + 16`` — far inside float64's exact-integer
    range for any simulable size.
    """
    rng = np.random.default_rng(seed)
    lower = rng.integers(-3, 4, size=(n, n)).astype(np.float64)
    l0 = np.tril(lower, k=-1)
    diag = np.asarray([1.0, 2.0, 4.0])[rng.integers(0, 3, size=n)]
    np.fill_diagonal(l0, diag)
    a = l0 @ l0.T
    return a, l0


def potrf_tile(a: np.ndarray) -> np.ndarray:
    """Unblocked right-looking Cholesky of one tile (lower factor)."""
    a = np.tril(a).copy()
    b = a.shape[0]
    for j in range(b):
        a[j, j] = np.sqrt(a[j, j] - np.dot(a[j, :j], a[j, :j]))
        if j + 1 < b:
            a[j + 1:, j] = (a[j + 1:, j] - a[j + 1:, :j] @ a[j, :j]) / a[j, j]
    return a


def trsm_tile(l_kk: np.ndarray, b_tile: np.ndarray) -> np.ndarray:
    """Solve ``X @ l_kk.T == b_tile`` by forward substitution (no pivoting:
    divisions hit only the power-of-two diagonal, keeping results exact)."""
    x = b_tile.astype(np.float64).copy()
    n = l_kk.shape[0]
    for j in range(n):
        x[:, j] = (x[:, j] - x[:, :j] @ l_kk[j, :j]) / l_kk[j, j]
    return x


def syrk_update(c: np.ndarray, l_jk: np.ndarray) -> np.ndarray:
    """Diagonal-tile Schur update ``C - L_jk @ L_jk.T`` (lower part)."""
    return c - l_jk @ l_jk.T


def gemm_update(c: np.ndarray, l_ik: np.ndarray, l_jk: np.ndarray) -> np.ndarray:
    """Off-diagonal Schur update ``C - L_ik @ L_jk.T``."""
    return c - l_ik @ l_jk.T

