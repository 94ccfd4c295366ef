"""Orthonormal Legendre expansion of an interpolant, read off its surpluses.

Polynomials are orthonormal with respect to the uniform *probability* measure
on [-1,1]^d (standard Legendre scaled by sqrt(2 nu + 1)), so Parseval checks
are unit-free.  The change of basis from the Newton surpluses is one upper
triangular 1-D matrix B[n, j] = <P_n, h_j> per dimension, applied along the
fibres of the grid-index set; each B comes from a 1-D Gauss-Legendre rule
that integrates its products exactly.
"""

from __future__ import annotations

import functools

import numpy as np

from .sparse_grid import _MATRIX_CACHE_SIZE, Interpolant, _fibre_apply, _newton_basis


def legendre_1d(nu: int, y):
    """Degree-nu Legendre polynomial, orthonormal under uniform probability."""
    if nu < 0:
        raise ValueError("degree must be >= 0")
    y = np.asarray(y, dtype=float)
    return _legendre_matrix(nu, y.ravel())[nu].reshape(y.shape)[()]


def _legendre_matrix(degrees: int, y: np.ndarray) -> np.ndarray:
    """Rows 0..degrees of orthonormal Legendre values at y: shape (degrees+1, len(y))."""
    out = np.empty((degrees + 1, len(y)))
    pm, p = np.zeros_like(y), np.ones_like(y)
    out[0] = p
    for j in range(degrees):
        pm, p = p, ((2 * j + 1) * y * p - j * pm) / (j + 1)
        out[j + 1] = p * np.sqrt(2 * (j + 1) + 1)
    return out


def _gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m-point Gauss-Legendre rule on [-1, 1] (Golub & Welsch), numpy's
    `leggauss` bit for bit: every floating-point operation in its order."""
    def series(x, c):  # `legval`'s Clenshaw recurrence; the first step adds 0.0 terms
        c0, c1 = c[-1], 0.0
        for nd in range(len(c), 1, -1):
            c0, c1 = c[nd - 2] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
        return c0 + c1 * x

    scl, j = 1.0 / np.sqrt(2 * np.arange(m) + 1), np.arange(m)
    # the symmetric companion matrix; eigvalsh reads its lower triangle only
    x = np.linalg.eigvalsh(np.diag(np.arange(1, m) * scl[:-1] * scl[1:], -1))
    c = np.append(np.zeros(m), 1.0)  # P_m, whose derivative has 2j + 1 at j = m-1, m-3, ...
    df = series(x, (2.0 * j + 1) * (j % 2 != m % 2))
    x -= series(x, c) / df  # one Newton step
    fm = series(x, c[1:])
    w = 1 / ((fm / np.abs(fm).max()) * (df / np.abs(df).max()))
    w = (w + w[::-1]) / 2
    return (x - x[::-1]) / 2, w * (2. / w.sum())


@functools.lru_cache(maxsize=_MATRIX_CACHE_SIZE)
def _basis_change(rule: str, m: int) -> np.ndarray:
    """B[n, j] = <P_n, h_j> for the first m Newton basis polynomials of `rule`,
    built once per (rule, m) and read-only.

    An m-point Gauss rule integrates these degree <= 2m - 2 products exactly.
    B is upper triangular because P_n is orthogonal to every degree below n;
    `triu` drops the rounding noise there.  The Gauss rule changes with m,
    and with it the rounding, so each m keeps its own matrix.  B's bits
    depend on LAPACK's symmetric eigensolver and the BLAS matmul.
    """
    y, w = _gauss_legendre(m)
    newton = np.ascontiguousarray(_newton_basis(rule, m, y).T)  # [quadrature point, j]
    basis = np.triu((_legendre_matrix(m - 1, y) * (w / 2.0)[None, :]) @ newton)
    basis.flags.writeable = False
    return basis


def grid_coeffs(interp: Interpolant) -> np.ndarray:
    """Legendre coefficients of the interpolant, aligned with the rows of
    `interp.grid.idx`: grid index j carries the degree j - 1.

    Computed from the surpluses alone, never from the underlying target.
    """
    grid = interp.grid
    if len(grid) == 0:
        return np.zeros(0)
    mmax = grid.idx.max(axis=0)
    # B[n, j] does not depend on m, so each dimension's matrix is a corner
    basis = _basis_change(interp.tensor_set.rule, int(mmax.max()))
    return _fibre_apply(grid, interp.surpluses, [basis[:m, :m] for m in mmax])

