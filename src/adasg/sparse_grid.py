"""Sparse-grid interpolants: minimal tensor selection, node enumeration, and
construction/evaluation in hierarchical-surplus and combination-weight form.

The surplus (Newton) form is the production evaluation path; the
combination-weight form is kept for cross-validation, since both must agree
on lower tensor sets.  Every operator on the grid data acts on the lower set
of grid indices one dimension at a time.  The transforms (samples to
surpluses, surpluses to Legendre coefficients in `spectral`) apply one
triangular 1-D matrix along every fibre; evaluation contracts the surpluses
with the 1-D Newton basis over the prefix trie of the lex-sorted indices.
"""

from __future__ import annotations

import itertools
import json
import os
import warnings
from dataclasses import dataclass

import numpy as np

from . import rules1d
from .multiindex import (
    CurvedWeights,
    IndexSet,
    MultiIndex,
    graded_lex_key,
    is_lower,
    lambda_curved,
)


class DomainError(ValueError):
    """Evaluation point outside the interpolation hypercube."""


@dataclass(frozen=True)
class TensorSet:
    """A lower set of tensor levels together with the 1D rule fixing m and nodes."""

    theta: IndexSet
    rule: str

    def __post_init__(self):
        rules1d.growth(self.rule, 0)  # validates the kind
        if self.theta.lower_flag is None:
            is_lower(self.theta)
        if not self.theta.lower_flag:
            raise ValueError("tensor set must be downward closed")

    @property
    def dim(self) -> int:
        return self.theta.dim


def theta_opt(lam: IndexSet, rule: str) -> TensorSet:
    """Smallest lower tensor set whose interpolant range contains P_lam.

    A level index i belongs iff the degree vector (m(i_1 - 1), ..., m(i_d - 1))
    is a member of lam.
    """
    if len(lam) == 0:
        raise ValueError("need a nonempty polynomial index set")
    if lam.lower_flag is None:
        is_lower(lam)
    if not lam.lower_flag:
        raise ValueError("polynomial index set must be downward closed")
    top = max(lam.max_degrees())
    level_of = {0: 0}  # degree m(i-1) -> level i, with m(-1) = 0
    l = 0
    while True:
        m = rules1d.growth(rule, l)
        if m > top:
            break
        level_of[m] = l + 1
        l += 1
    members = []
    for nu in lam.members:
        levels = []
        for v in nu:
            li = level_of.get(v)
            if li is None:
                break
            levels.append(li)
        else:
            members.append(tuple(levels))
    return TensorSet(IndexSet(lam.dim, members, lower_flag=True), rule)


def theta_curved(w: CurvedWeights, L: float, rule: str) -> TensorSet:
    """Optimal tensor set for the curved space with weights w at level L."""
    return theta_opt(lambda_curved(w, L), rule)


@dataclass
class GridNodes:
    """1-based tensor point indices (graded-lex) and their coordinates."""

    indices: tuple[MultiIndex, ...]
    points: np.ndarray  # (N, d)

    def __len__(self) -> int:
        return len(self.indices)

    def row_of(self) -> dict[MultiIndex, int]:
        return {j: r for r, j in enumerate(self.indices)}


def grid_nodes(ts: TensorSet) -> GridNodes:
    """Union of index boxes {1 <= j <= m(i)} over the tensor set, with coordinates."""
    d = ts.dim
    seen: set[MultiIndex] = set()
    for i in ts.theta.members:
        # disjoint new block per level: m(i_k - 1) + 1 .. m(i_k)
        ranges = [
            range(rules1d.growth(ts.rule, i[k] - 1) + 1, rules1d.growth(ts.rule, i[k]) + 1)
            for k in range(d)
        ]
        seen.update(itertools.product(*ranges))
    indices = tuple(sorted(seen, key=graded_lex_key))
    if not indices:
        return GridNodes(indices, np.zeros((0, d)))
    mmax = [max(j[k] for j in indices) for k in range(d)]
    nodes1d = [rules1d.family_nodes(ts.rule, m) for m in mmax]
    pts = np.empty((len(indices), d))
    for r, j in enumerate(indices):
        for k in range(d):
            pts[r, k] = nodes1d[k][j[k] - 1]
    return GridNodes(indices, pts)


def block_size(rule: str, i: MultiIndex) -> int:
    """Nodes in the disjoint block tensor level i adds: prod_k m(i_k) - m(i_k - 1)."""
    prod = 1
    for ik in i:
        prod *= rules1d.growth(rule, ik) - rules1d.growth(rule, ik - 1)
    return prod


def grid_size(ts: TensorSet) -> int:
    """Node count via the disjoint-block formula, without enumerating points."""
    return sum(block_size(ts.rule, i) for i in ts.theta.members)


def polynomial_range(ts: TensorSet) -> IndexSet:
    """Degrees spanned by the interpolant: grid indices shifted down by one."""
    seen: set[MultiIndex] = set()
    for i in ts.theta.members:
        ranges = [
            range(rules1d.growth(ts.rule, i[k] - 1), rules1d.growth(ts.rule, i[k]))
            for k in range(ts.dim)
        ]
        seen.update(itertools.product(*ranges))
    return IndexSet(ts.dim, seen, lower_flag=True)


def combination_weights(ts: TensorSet) -> dict[MultiIndex, int]:
    """Integer weights t_i = sum over e in {0,1}^d with i+e in theta of (-1)^|e|."""
    theta = ts.theta
    out = {}
    for i in theta.members:
        t = 0
        for e in itertools.product((0, 1), repeat=ts.dim):
            succ = tuple(i[k] + e[k] for k in range(ts.dim))
            if succ in theta:
                t += -1 if sum(e) % 2 else 1
        out[i] = t
    return out


def _newton_basis(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """1-D Newton basis on nodes x at points y: H[p, j] = h_j(y_p).

    h_j(y) = prod_{t<j} (y - x_t) / prod_{t<j} (x_j - x_t), so at the nodes
    themselves (y = x) H is unit lower triangular.
    """
    def products(z):
        P = np.ones((len(z), len(x)))
        for j in range(1, len(x)):
            P[:, j] = P[:, j - 1] * (z - x[j - 1])
        return P

    return products(y) / np.diag(products(x))[None, :]


def _fibre_apply(idx: np.ndarray, data: np.ndarray, mats: list[np.ndarray],
                 inverse: bool = False) -> np.ndarray:
    """Apply mats[k] along every dimension-k fibre of a lower grid-index set.

    `idx` holds 1-based grid indices (N, d) and `data` one value per row.  On
    a lower set every fibre is a prefix 1..l, and the rows a triangular matrix
    couples stay inside the set, so for triangular mats the d one-dimensional
    passes equal the tensor-product operator restricted to the set.  With
    `inverse`, each mats[k] is unit lower triangular and its inverse is
    applied by forward substitution, which stays accurate where an explicit
    inverse does not (Clenshaw-Curtis tables from 65 nodes on).
    """
    out = np.array(data, dtype=float)
    n = len(idx)
    for k, mat in enumerate(mats):
        # sort by the other coordinates, then by coordinate k: each fibre is
        # a contiguous run with coordinate k = 1..l
        order = np.lexsort((idx[:, k],) + tuple(np.delete(idx, k, axis=1).T))
        c = idx[order, k]
        start = np.arange(n) - (c - 1)
        if inverse:
            # once every member at q is final, eliminate it from those above
            for q in range(1, len(mat)):
                at = np.flatnonzero(c > q)
                out[order[at]] -= mat[c[at] - 1, q - 1] * out[order[start[at] + q - 1]]
        else:
            fibre = np.cumsum(c == 1) - 1
            length = np.bincount(fibre, minlength=1)[fibre]
            acc = np.zeros_like(out)
            for q in range(1, len(mat) + 1):
                at = np.flatnonzero(length >= q)
                acc[order[at]] += mat[c[at] - 1, q - 1] * out[order[start[at] + q - 1]]
            out = acc
    return out


def compute_surpluses(ts: TensorSet, samples: dict[MultiIndex, float]) -> dict[MultiIndex, float]:
    """Newton-basis surpluses from samples keyed by 1-based grid index."""
    grid = grid_nodes(ts)
    values = _aligned_values(grid, samples)
    s = _solve_surpluses(ts.rule, grid, values)
    return {j: float(s[r]) for r, j in enumerate(grid.indices)}


def _aligned_values(grid: GridNodes, samples: dict[MultiIndex, float]) -> np.ndarray:
    missing = [j for j in grid.indices if j not in samples]
    if missing:
        raise ValueError(f"missing samples for {len(missing)} grid nodes, e.g. {missing[0]}")
    return np.array([samples[j] for j in grid.indices], dtype=float)


def _solve_surpluses(rule: str, grid: GridNodes, values: np.ndarray) -> np.ndarray:
    """Surpluses s with values = (tensor of Newton tables) s on the grid.

    Each dimension's Newton table T[i, j] = h_j(x_i) is unit lower triangular,
    so the solve is one forward substitution along every fibre.
    """
    idx = np.array(grid.indices, dtype=np.int64)
    mmax = idx.max(axis=0)
    x = rules1d.family_nodes(rule, int(mmax.max()))
    table = _newton_basis(x, x)  # nested nodes: each dimension's table is a corner
    mats = [table[:m, :m] for m in mmax]
    return _fibre_apply(idx, values, mats, inverse=True)


@dataclass
class Interpolant:
    """A built sparse-grid operator, immutable after construction."""

    tensor_set: TensorSet
    grid: GridNodes
    samples: np.ndarray      # aligned with grid.indices
    surpluses: np.ndarray    # aligned with grid.indices
    range: IndexSet

    @property
    def dim(self) -> int:
        return self.tensor_set.dim

    @property
    def node_count(self) -> int:
        return len(self.grid)

    def sample_map(self) -> dict[MultiIndex, float]:
        return {j: float(self.samples[r]) for r, j in enumerate(self.grid.indices)}

    def surplus_map(self) -> dict[MultiIndex, float]:
        return {j: float(self.surpluses[r]) for r, j in enumerate(self.grid.indices)}


def build_interpolant(ts: TensorSet, samples: dict[MultiIndex, float]) -> Interpolant:
    """Assemble the interpolant from samples keyed by 1-based grid index."""
    grid = grid_nodes(ts)
    values = _aligned_values(grid, samples)
    s = _solve_surpluses(ts.rule, grid, values)
    return Interpolant(ts, grid, values, s, polynomial_range(ts))


def _check_domain(Y: np.ndarray, allow_extrapolation: bool):
    if Y.size and (np.abs(Y) > 1.0).any():
        if allow_extrapolation:
            warnings.warn("evaluating outside [-1,1]^d: Newton form extrapolates wildly",
                          stacklevel=3)
        else:
            raise DomainError("evaluation point outside [-1,1]^d "
                              "(pass allow_extrapolation to override)")


def evaluate_batch(interp: Interpolant, points, allow_extrapolation: bool = False) -> np.ndarray:
    """Surplus-form evaluation at an array of points with shape (P, d).

    The sum over grid indices j of s_j h_{j_1}(y_1) ... h_{j_d}(y_d) is
    contracted one dimension at a time over the prefix trie of the
    lex-sorted indices: each distinct prefix (j_1..j_k) carries the product
    of its k basis values, one multiply on its parent prefix's product, and
    the last dimension is one matrix product with the surpluses laid out by
    (prefix of length d-1, j_d).
    """
    Y = np.atleast_2d(np.asarray(points, dtype=float))
    if Y.shape[1] != interp.dim:
        raise ValueError(f"points must have dimension {interp.dim}")
    _check_domain(Y, allow_extrapolation)
    idx = np.array(interp.grid.indices, dtype=np.int64)
    if len(idx) == 0:
        return np.zeros(len(Y))
    d = interp.dim
    order = np.lexsort(idx.T[::-1])
    idx = idx[order]
    # prefix[r, k]: id of row r's prefix of length k among the distinct ones
    new = np.ones(idx.shape, dtype=bool)
    new[1:] = np.logical_or.accumulate(idx[1:] != idx[:-1], axis=1)
    prefix = np.zeros((len(idx), d), dtype=np.int64)
    prefix[:, 1:] = np.cumsum(new[:, :-1], axis=0) - 1
    # per dimension k < d: for each prefix of length k + 1, its parent and j_k
    trie = []
    for k in range(d - 1):
        first = np.flatnonzero(new[:, k])
        trie.append((prefix[first, k], idx[first, k] - 1))
    top = prefix[:, -1]
    S = np.zeros((top[-1] + 1, idx[:, -1].max()))
    S[top, idx[:, -1] - 1] = interp.surpluses[order]
    # nested nodes: one table's basis serves every dimension
    x = rules1d.family_nodes(interp.tensor_set.rule, int(idx.max()))
    out = np.empty(len(Y))
    chunk = max(1, (1 << 16) // len(S))  # (prefixes, chunk) arrays of ~64k doubles
    for start in range(0, len(Y), chunk):
        Yc = Y[start:start + chunk]
        H = _newton_basis(x, Yc.T.ravel()).T.reshape(len(x), d, len(Yc))  # [j, k, p]
        c = np.ones((1, len(Yc)))
        for k, (parent, j) in enumerate(trie):
            c = c[parent] * H[j, k]
        out[start:start + chunk] = np.einsum("gp,gp->p", c, S @ H[:S.shape[1], -1])
    return out


def evaluate(interp: Interpolant, point, allow_extrapolation: bool = False) -> float:
    """Surplus-form evaluation at a single point in [-1,1]^d."""
    return float(evaluate_batch(interp, np.asarray(point, dtype=float)[None, :],
                                allow_extrapolation)[0])


def evaluate_combination(interp: Interpolant, points) -> np.ndarray:
    """Combination-weight evaluation (cross-validation path)."""
    Y = np.atleast_2d(np.asarray(points, dtype=float))
    d = interp.dim
    rule = interp.tensor_set.rule
    sample_of = interp.sample_map()
    out = np.zeros(len(Y))
    for i, t in combination_weights(interp.tensor_set).items():
        if t == 0:
            continue
        ms = [rules1d.growth(rule, i[k]) for k in range(d)]
        # Lagrange basis per dimension on the full tensor level
        psis = []
        for k in range(d):
            x = rules1d.family_nodes(rule, ms[k])
            psi = np.empty((len(Y), ms[k]))
            for j in range(ms[k]):
                others = np.delete(x, j)
                num = np.prod(Y[:, k, None] - others[None, :], axis=1)
                den = np.prod(x[j] - others)
                psi[:, j] = num / den
            psis.append(psi)
        F = np.empty(ms)
        for jbox in itertools.product(*[range(1, m + 1) for m in ms]):
            F[tuple(v - 1 for v in jbox)] = sample_of[jbox]
        curr = np.einsum("pa,a...->p...", psis[0], F)
        for k in range(1, d):
            curr = np.einsum("pa,pa...->p...", psis[k], curr)
        out += t * curr
    return out


# ---------------------------------------------------------------------------
# persistence

_FORMAT = "adasg-interpolant"
_VERSION = 1


def _write_text_atomic(text: str, path) -> None:
    """Write `text` to a temp file beside `path`, then rename it over `path`:
    a reader never sees a half-written file, and a write that fails part-way
    leaves the previous file intact."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def save_interpolant(interp: Interpolant, path) -> None:
    obj = {
        "format": _FORMAT,
        "version": _VERSION,
        "rule": interp.tensor_set.rule,
        "dim": interp.dim,
        "theta": [list(i) for i in interp.tensor_set.theta.members],
        "grid_indices": [list(j) for j in interp.grid.indices],
        "points": [[float(v) for v in row] for row in interp.grid.points],
        "samples": [float(v) for v in interp.samples],
        "surpluses": [float(v) for v in interp.surpluses],
    }
    _write_text_atomic(json.dumps(obj), path)


def load_interpolant(path) -> Interpolant:
    with open(path) as fh:
        obj = json.load(fh)
    if obj.get("format") != _FORMAT or obj.get("version") != _VERSION:
        raise ValueError(f"not a version-{_VERSION} {_FORMAT} file")
    ts = TensorSet(IndexSet(obj["dim"], [tuple(i) for i in obj["theta"]]), obj["rule"])
    grid = grid_nodes(ts)
    stored = [tuple(j) for j in obj["grid_indices"]]
    if list(grid.indices) != stored:
        raise ValueError("grid indices in file do not match the tensor set")
    # the grid is regenerated from the rule; a model saved on another node
    # table (e.g. an older greedy rule) would evaluate wrongly, so refuse it
    points = np.array(obj["points"], dtype=float)
    if len(points) != len(grid) or (len(grid) and points.tobytes() != grid.points.tobytes()):
        raise ValueError(f"points in file do not match the node table of rule {obj['rule']!r}")
    samples = np.array(obj["samples"], dtype=float)
    surpluses = np.array(obj["surpluses"], dtype=float)
    if len(samples) != len(grid) or len(surpluses) != len(grid):
        raise ValueError("sample/surplus arrays do not match the grid")
    return Interpolant(ts, grid, samples, surpluses, polynomial_range(ts))
