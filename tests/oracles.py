"""Reference implementations the tests compare the library against.

None of these run in the library: each is a slower, independent route to a
result the library computes another way.
"""

import heapq
import itertools
import math

import numpy as np

from adasg import rules1d
from adasg.driver import BudgetExhausted
from adasg.multiindex import IndexSet, curved_tail_min, graded_lex_key


def enumerate_grid(ts):
    """Grid indices (graded-lex tuples) and coordinates of a tensor set, by
    taking the union of every level's index box with `itertools.product`."""
    d = ts.dim
    seen = set()
    for i in ts.theta.members:
        # disjoint new block per level: m(i_k - 1) + 1 .. m(i_k)
        ranges = [
            range(rules1d.growth(ts.rule, i[k] - 1) + 1, rules1d.growth(ts.rule, i[k]) + 1)
            for k in range(d)
        ]
        seen.update(itertools.product(*ranges))
    indices = tuple(sorted(seen, key=graded_lex_key))
    if not indices:
        return indices, np.zeros((0, d))
    mmax = [max(j[k] for j in indices) for k in range(d)]
    nodes1d = [rules1d.family_nodes(ts.rule, m) for m in mmax]
    pts = np.empty((len(indices), d))
    for r, j in enumerate(indices):
        for k in range(d):
            pts[r, k] = nodes1d[k][j[k] - 1]
    return indices, pts


def degrees(ts):
    """The degrees an interpolant on `ts` spans: the grid indices of
    `enumerate_grid`, each shifted down by one."""
    return IndexSet(ts.dim, [tuple(v - 1 for v in j) for j in enumerate_grid(ts)[0]])


def combination_weights(ts):
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


def sample_map(interp):
    """The interpolant's samples keyed by 1-based grid index."""
    return {j: float(interp.samples[r]) for r, j in enumerate(interp.grid.indices)}


def evaluate_combination(interp, points):
    """Combination-weight form: the sum over tensor levels i of t_i times the
    full-tensor Lagrange interpolant on level i's box of samples."""
    Y = np.atleast_2d(np.asarray(points, dtype=float))
    d = interp.dim
    rule = interp.tensor_set.rule
    sample_of = sample_map(interp)
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


def theta_opt_levels(lam, rule):
    """The tensor levels of the minimal set for `lam`, by a dict from each
    degree m(l - 1) to its level l, walking the growth function level by level."""
    top = max(lam.max_degrees())
    level_of = {0: 0}  # m(-1) = 0
    l = 0
    while rules1d.growth(rule, l) <= top:
        level_of[rules1d.growth(rule, l)] = l + 1
        l += 1
    return {tuple(level_of[v] for v in nu) for nu in lam.members
            if all(v in level_of for v in nu)}


def block_size(rule, i):
    """Nodes in the disjoint block tensor level i adds: prod_k m(i_k) - m(i_k - 1)."""
    prod = 1
    for ik in i:
        prod *= rules1d.growth(rule, ik) - rules1d.growth(rule, ik - 1)
    return prod


def grow(fit, ts, front, nodes, batch, sample_budget):
    """The grow step as one heap over the margin `front` (a set of levels)
    and the successors it brings in, keyed by (weight, level), each weight
    summed left to right from the tail minima of a growth table computed
    afresh; every predecessor of a successor is checked.  Returns the level
    L and the levels admitted, in the order they were popped."""
    rule, d = ts.rule, ts.dim
    m = []  # m[l + 1] = m(l)
    tails = [[] for _ in range(d)]  # tails[k][l]: the weight's term at level l

    def extend(top):
        nonlocal m
        m = [0] + [rules1d.growth(rule, l) for l in range(top + 2)]
        for k, tail in enumerate(tails):
            tail += [curved_tail_min(fit.alpha[k], fit.beta[k], v) for v in m[len(tail):-1]]

    def weight(i):
        w = 0.0
        for k, ik in enumerate(i):
            w += tails[k][ik]
        return w

    members, admitted = set(ts.theta.members), set()

    def entering(nu):
        for k in range(d):
            succ = nu[:k] + (nu[k] + 1,) + nu[k + 1:]
            preds = [succ[:j] + (succ[j] - 1,) + succ[j + 1:] for j in range(d) if succ[j] > 0]
            if all(p in members or p in admitted for p in preds):
                yield succ

    extend(max(map(max, front)))
    heap = [(weight(i), i) for i in front]
    heapq.heapify(heap)
    base, added, best, kept = nodes, [], None, 0
    while True:
        L = heap[0][0]
        while heap[0][0] <= L:
            _, i = heapq.heappop(heap)
            admitted.add(i)
            added.append(i)
            nodes += block_size(rule, i)
            for succ in entering(i):
                if max(succ) + 2 > len(m):
                    extend(2 * max(succ))
                heapq.heappush(heap, (weight(succ), succ))
        if sample_budget is not None and nodes > sample_budget:
            if best is None:
                raise BudgetExhausted(
                    f"smallest growth step needs {nodes} samples, budget is {sample_budget}")
            break
        best, kept = L, len(added)
        if batch == "minimal" or nodes - base >= int(batch):
            break
    return best, added[:kept]


def fibre_solve(rule, idx, values):
    """Surpluses of the whole grid: forward substitution with each
    dimension's Newton table along every fibre, one dimension after the
    other, each pass over every row."""
    from adasg import sparse_grid

    out = np.array(values, dtype=float)
    n = len(idx)
    if n == 0:
        return out
    table = sparse_grid._newton_table(rule, int(idx.max()))
    for k, m in enumerate(idx.max(axis=0)):
        mat = table[:m, :m]
        order = np.lexsort((idx[:, k],) + tuple(np.delete(idx, k, axis=1).T))
        c = idx[order, k]
        start = np.arange(n) - (c - 1)
        # once every member at q is final, eliminate it from those above
        for q in range(1, len(mat)):
            at = np.flatnonzero(c > q)
            out[order[at]] -= mat[c[at] - 1, q - 1] * out[order[start[at] + q - 1]]
    return out


def fibre_apply(idx, data, mats):
    """mats[k] applied along every dimension-k fibre of a lower grid-index
    set, as the library computed it before it kept a fibre table on the
    grid, and its reference bit for bit: per dimension one `np.lexsort`
    (the other coordinates, then coordinate k) and a loop over the fibre
    position q, adding the q-th member's term to every row whose fibre
    reaches q, left to right from 0.0."""
    out = np.array(data, dtype=float)
    n = len(idx)
    for k, mat in enumerate(mats):
        order = np.lexsort((idx[:, k],) + tuple(np.delete(idx, k, axis=1).T))
        c = idx[order, k]
        start = np.arange(n) - (c - 1)
        fibre = np.cumsum(c == 1) - 1
        length = np.bincount(fibre, minlength=1)[fibre]
        acc = np.zeros_like(out)
        for q in range(1, len(mat) + 1):
            at = np.flatnonzero(length >= q)
            acc[order[at]] += mat[c[at] - 1, q - 1] * out[order[start[at] + q - 1]]
        out = acc
    return out


def fit_curved(coeffs, min_magnitude=1e-14, include_beta=True):
    """The curved-decay regression over a coefficient dict, row by row in
    Python: the rows sorted by `graded_lex_key`, the magnitudes filtered and
    the design assembled from lists."""
    from adasg.fitting import FitParams, UnfittableError, adhoc_correction

    if not coeffs:
        raise UnfittableError("no coefficients")
    items = sorted(coeffs.items(), key=lambda kv: graded_lex_key(kv[0]))
    d = len(items[0][0])
    cmax = max(abs(c) for _, c in items)
    if cmax == 0.0 or not math.isfinite(cmax):
        raise UnfittableError("all coefficients are zero or non-finite")
    cut = min_magnitude * cmax
    rows = [(nu, abs(c)) for nu, c in items if abs(c) > cut and abs(c) >= 1e-300]
    if len(rows) < 2 * d + 1:
        raise UnfittableError(f"only {len(rows)} usable coefficients")
    nus = np.array([nu for nu, _ in rows], dtype=float)
    b = -np.log(np.array([c for _, c in rows]))
    min_distinct = 3 if include_beta else 2
    included = [k for k in range(d) if len(set(nus[:, k])) >= min_distinct]
    excluded = frozenset(range(d)) - frozenset(included)
    if not included:
        raise UnfittableError("every dimension is rank-deficient")
    cols = [np.ones(len(rows))]
    cols += [nus[:, k] for k in included]
    if include_beta:
        cols += [np.log(nus[:, k] + 1.0) for k in included]
    A = np.stack(cols, axis=1)
    if np.linalg.matrix_rank(A) < A.shape[1]:
        raise UnfittableError("design matrix is rank-deficient")
    x, *_ = np.linalg.lstsq(A, b, rcond=None)
    alpha_in, corrected_pos = adhoc_correction(x[1:1 + len(included)])
    beta_in = x[1 + len(included):] if include_beta else np.zeros(len(included))
    alpha = [0.0] * d
    beta = [0.0] * d
    for pos, k in enumerate(included):
        alpha[k] = alpha_in[pos]
        beta[k] = float(beta_in[pos])
    fill = max(alpha[k] for k in included)
    for k in excluded:
        alpha[k] = fill
        beta[k] = 0.0
    return FitParams(tuple(alpha), tuple(beta), float(x[0]),
                     frozenset(included[pos] for pos in corrected_pos), excluded,
                     float(np.linalg.norm(A @ x - b)), len(rows))


def checkpoint_object(state):
    """The whole checkpoint of a run state as one JSON-ready object, built
    from scratch: `json.dumps` of it is the file `save_state` writes."""
    from adasg import driver

    return {
        "format": driver._STATE_FORMAT,
        "version": driver._STATE_VERSION,
        "config": driver._to_dict(state.config),
        "iteration": state.iteration,
        "theta": [list(i) for i in state.theta.theta.members],
        "cache": [[list(k), v] for k, v in sorted(state.cache.items())],
        "fit": None if state.fit is None else driver._to_dict(state.fit),
        "history": [driver._to_dict(r) for r in state.history],
    }


def evaluate_batch(interp, points):
    """Surplus-form evaluation as the library computed it before it kept a
    probe basis between iterations, and its reference bit for bit: a fresh
    column-by-column Newton basis per chunk of points, the chained
    `c[parent] * H[j, k]` prefix products over the trie of the lex-sorted
    indices, and `S @ H` over the prefixes of length d-1, summed by `einsum`.
    No domain check."""
    Y = np.atleast_2d(np.asarray(points, dtype=float))
    idx = interp.grid.idx
    if len(idx) == 0:
        return np.zeros(len(Y))
    d = interp.dim
    order = np.lexsort(idx.T[::-1])
    idx = idx[order]
    new = np.ones(idx.shape, dtype=bool)
    new[1:] = np.logical_or.accumulate(idx[1:] != idx[:-1], axis=1)
    prefix = np.zeros((len(idx), d), dtype=np.int64)
    prefix[:, 1:] = np.cumsum(new[:, :-1], axis=0) - 1
    trie = []
    for k in range(d - 1):
        first = np.flatnonzero(new[:, k])
        trie.append((prefix[first, k], idx[first, k] - 1))
    top = prefix[:, -1]
    S = np.zeros((top[-1] + 1, idx[:, -1].max()))
    S[top, idx[:, -1] - 1] = interp.surpluses[order]
    x = rules1d.family_nodes(interp.tensor_set.rule, int(idx.max()))

    def products(z):
        P = np.ones((len(z), len(x)))
        for j in range(1, len(x)):
            P[:, j] = P[:, j - 1] * (z - x[j - 1])
        return P

    out = np.empty(len(Y))
    chunk = max(1, (1 << 16) // len(S))
    for start in range(0, len(Y), chunk):
        Yc = Y[start:start + chunk]
        basis = products(Yc.T.ravel()) / np.diag(products(x))[None, :]
        H = basis.T.reshape(len(x), d, len(Yc))  # [j, k, p]
        c = np.ones((1, len(Yc)))
        for k, (parent, j) in enumerate(trie):
            c = c[parent] * H[j, k]
        out[start:start + chunk] = np.einsum("gp,gp->p", c, S @ H[:S.shape[1], -1])
    return out
