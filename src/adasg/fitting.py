"""Least-squares estimation of anisotropic decay parameters from expansion
coefficients or hierarchical surpluses.

The regression model is log|c_nu| ~ -(C + alpha . nu + beta . log(nu + 1)).
Dimensions without enough distinct degree values to separate their columns are
excluded from the design and assigned conservative parameters afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .multiindex import MultiIndex, graded_lex_key

DEFAULT_MIN_MAGNITUDE = 1e-14


class UnfittableError(RuntimeError):
    """Raised when the data cannot support the regression; callers fall back."""


@dataclass(frozen=True)
class FitParams:
    """Estimated decay rates and bookkeeping of repairs applied to them."""

    alpha: tuple[float, ...]
    beta: tuple[float, ...]
    c_const: float
    corrected_dims: frozenset[int] = frozenset()
    excluded_dims: frozenset[int] = frozenset()
    residual: float = 0.0
    n_used: int = 0

    def __post_init__(self):
        if self.corrected_dims & self.excluded_dims:
            raise ValueError("corrected and excluded dimensions must be disjoint")
        if not all(map(math.isfinite, (*self.alpha, *self.beta, self.c_const))):
            raise ValueError(f"fit parameters must be finite, got alpha={self.alpha}, "
                             f"beta={self.beta}, c_const={self.c_const}")
        if any(not (a > 0.0) for a in self.alpha):
            raise ValueError("alpha entries must be positive after correction")


def isotropic_params(d: int) -> FitParams:
    """The fallback used before any fit succeeds: alpha = 1, beta = 0."""
    return FitParams((1.0,) * d, (0.0,) * d, 0.0)


def adhoc_correction(alpha) -> tuple[tuple[float, ...], frozenset[int]]:
    """Replace non-positive rate entries by the smallest strictly positive one."""
    alpha = [float(a) for a in alpha]
    positive = [a for a in alpha if a > 0.0]
    if not positive:
        raise UnfittableError("no positive decay rate to correct with")
    floor = min(positive)
    corrected = frozenset(k for k, a in enumerate(alpha) if a <= 0.0)
    return tuple(floor if a <= 0.0 else a for a in alpha), corrected


def fit_curved(
    coeffs: dict[MultiIndex, float],
    min_magnitude: float = DEFAULT_MIN_MAGNITUDE,
    include_beta: bool = True,
) -> FitParams:
    """Fit (alpha, beta, C) so C + alpha.nu + beta.log(nu+1) tracks -log|c_nu|.

    `min_magnitude` drops coefficients relative to the largest magnitude
    (their logs are dominated by round-off).  With `include_beta` false the
    log columns are masked and beta is pinned to zero.  The rows of the
    regression are the coefficients in graded-lex order of their degrees.
    """
    items = sorted(coeffs.items(), key=lambda kv: graded_lex_key(kv[0]))
    degrees = np.array([nu for nu, _ in items], dtype=np.int64)
    return _fit_rows(degrees, np.array([c for _, c in items], dtype=float),
                     min_magnitude, include_beta)


def _fit_rows(degrees: np.ndarray, values: np.ndarray, min_magnitude: float,
              include_beta: bool) -> FitParams:
    """`fit_curved` on coefficient `values` whose degrees are the rows of
    `degrees` (N, d), already in graded-lex order."""
    if len(values) == 0:
        raise UnfittableError("no coefficients")
    d = degrees.shape[1]
    mags = np.abs(values)
    # the largest magnitude as `max` over the rows in order finds it: a NaN
    # counts only in the first row
    cmax = float(mags[0] if np.isnan(mags[0]) else np.nanmax(mags))
    if cmax == 0.0 or not math.isfinite(cmax):
        raise UnfittableError("all coefficients are zero or non-finite")
    keep = (mags > min_magnitude * cmax) & (mags >= 1e-300)
    n_used = int(keep.sum())
    if n_used < 2 * d + 1:
        raise UnfittableError(f"only {n_used} usable coefficients")
    used = degrees[keep]
    b = -np.log(mags[keep])
    min_distinct = 3 if include_beta else 2
    # the distinct degrees of every dimension at once: row k of `seen`
    # counts the degrees of dimension k
    top = int(used.max()) + 1
    seen = np.bincount((used + top * np.arange(d)).ravel(), minlength=d * top).reshape(d, top)
    included = np.flatnonzero(np.count_nonzero(seen, axis=1) >= min_distinct).tolist()
    excluded = frozenset(range(d)) - frozenset(included)
    if not included:
        raise UnfittableError("every dimension is rank-deficient")
    q = len(included)
    A = np.empty((n_used, 1 + (2 if include_beta else 1) * q))
    A[:, 0] = 1.0
    A[:, 1:1 + q] = used[:, included]
    if include_beta:
        # the logs of a contiguous array, as each column's were
        A[:, 1 + q:] = np.log(used[:, included] + 1.0)
    # lstsq's rank counts the singular values above eps * max(M, N) * s_max,
    # the cut-off of `np.linalg.matrix_rank`
    x, _, rank, _ = np.linalg.lstsq(A, b, rcond=None)
    if rank < A.shape[1]:
        raise UnfittableError("design matrix is rank-deficient")
    c_const = float(x[0])
    # non-positive rates among the included dimensions get the smallest positive one
    alpha_in, corrected_pos = adhoc_correction(x[1:1 + len(included)])
    beta_in = x[1 + len(included):] if include_beta else np.zeros(len(included))
    alpha = [0.0] * d
    beta = [0.0] * d
    for pos, k in enumerate(included):
        alpha[k] = alpha_in[pos]
        beta[k] = float(beta_in[pos])
    corrected = frozenset(included[pos] for pos in corrected_pos)
    fill = max(alpha[k] for k in included)
    for k in excluded:
        alpha[k] = fill
        beta[k] = 0.0
    residual = float(np.linalg.norm(A @ x - b))
    return FitParams(tuple(alpha), tuple(beta), c_const, corrected, excluded,
                     residual, n_used)

