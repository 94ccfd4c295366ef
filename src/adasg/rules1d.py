"""One-dimensional nested interpolation rules.

Each rule pairs a node sequence on [-1, 1] with a strictly increasing growth
function m(l) giving the number of nodes at level l (m(-1) = 0 by convention).
Closed-form sequences (Clenshaw-Curtis, Fejer-2, R-Leja families) are generated
directly; the greedy families (Leja, max/min Lebesgue, min surplus-norm) are
grown by optimizing their objective over a Chebyshev-distributed candidate
grid followed by a golden-section refinement pass in the winning cell.  The
first 60 Leja, 12 max-Lebesgue and 8 min-delta nodes ship as frozen tables
(`_node_tables`), which the generator reproduces bit for bit; longer
sequences are generated on from a table's end, and min-Lebesgue is always
generated.
"""

from __future__ import annotations

import math

import numpy as np

from ._node_tables import NODE_TABLES

# node-generating family per kind; odd variants share their family's sequence
_FAMILY = {
    "clenshaw_curtis": "cc",
    "fejer2": "fejer2",
    "rleja": "rleja",
    "rleja_double2": "centered_rleja",
    "rleja_double4": "centered_rleja",
    "rleja_odd": "centered_rleja",
    "leja": "leja",
    "leja_odd": "leja",
    "max_lebesgue": "max_lebesgue",
    "max_lebesgue_odd": "max_lebesgue",
    "min_lebesgue": "min_lebesgue",
    "min_lebesgue_odd": "min_lebesgue",
    "min_delta": "min_delta",
    "min_delta_odd": "min_delta",
}

_CLOSED_FORM_FAMILIES = ("cc", "fejer2", "rleja", "centered_rleja")
GREEDY_FAMILIES = ("leja", "max_lebesgue", "min_lebesgue", "min_delta")

RULE_KINDS = tuple(_FAMILY)
CLOSED_FORM_KINDS = tuple(k for k, f in _FAMILY.items() if f in _CLOSED_FORM_FAMILIES)

# (C, gamma) of each family's operator-norm model lambda(l) <= C (l+1)^gamma;
# an odd variant (m(l) = 2l + 1) doubles C
_GROWTH_MODEL = {
    "cc": (2.0 * math.log(2.0) / math.pi * 2.0, 1.0),
    "fejer2": (2.0 * math.log(2.0) / math.pi * 2.0, 1.0),
    "rleja": (1.5, 1.0),
    "centered_rleja": (1.5, 1.0),
    "leja": (3.0, 0.5),
    "max_lebesgue": (4.0, 0.5),
    "min_lebesgue": (4.0, 0.5),
    "min_delta": (3.0, 0.5),
}

DEFAULT_CANDIDATE_COUNT = 2**17 + 1
# the min-max objectives pay O(candidates x probes) per node; keep their
# default candidate grid at the contract minimum
MINMAX_CANDIDATE_COUNT = 10**4 + 1
DEFAULT_PROBE_COUNT = 10**5

# relative band within which discrete objective values count as tied; each
# tied cell is refined and the tie is re-broken at refined precision
_COARSE_TIE = 1e-9
_REFINED_TIE = 1e-12
# cap on the number of tied cells refined per selection
_MAX_REFINED_CELLS = 32


def _check_kind(kind: str):
    if kind not in RULE_KINDS:
        raise ValueError(f"unknown rule kind {kind!r}")


def growth(kind: str, l: int) -> int:
    """Number of nodes m(l) at level l; m(-1) = 0 for every kind."""
    _check_kind(kind)
    if l < -1:
        raise ValueError("level must be >= -1")
    if l == -1:
        return 0
    if kind == "clenshaw_curtis":
        return 1 if l == 0 else 2**l + 1
    if kind == "fejer2":
        return 2 ** (l + 1) - 1
    if kind == "rleja_double2":
        if l <= 1:
            return 2 * l + 1
        half = l // 2
        return round(2 ** (half + 1) * (1 + l / 2 - half)) + 1
    if kind == "rleja_double4":
        if l <= 1:
            return 2 * l + 1
        quarter = (l - 2) // 4
        return round(2 ** (2 + quarter) * (1 + (l - 2) / 4 - quarter)) + 1
    if kind.endswith("_odd"):
        return 2 * l + 1
    # rleja, leja, max_lebesgue, min_lebesgue, min_delta
    return l + 1


def unit_growth(kind: str) -> bool:
    """True when m(l) = l + 1 (one new node per level)."""
    return all(growth(kind, l) == l + 1 for l in range(6))


def lambda_model(kind: str, l: int) -> float:
    """Reference operator-norm growth curve for the rule (natural logs)."""
    if l < 0:
        raise ValueError("level must be >= 0")
    if kind == "clenshaw_curtis":
        return (2.0 / math.pi) * math.log(2.0**l + 1.0)
    if kind == "fejer2":
        return (2.0 / math.pi) * math.log(2.0 ** (l + 1) - 1.0)
    c, gamma = lebesgue_growth_model(kind)
    return c * math.sqrt(l + 1.0) if gamma == 0.5 else c * (l + 1)


def lebesgue_growth_model(kind: str) -> tuple[float, float]:
    """(C_gamma, gamma) with lambda_model(kind, l) <= C_gamma * (l+1)^gamma."""
    _check_kind(kind)
    c, gamma = _GROWTH_MODEL[_FAMILY[kind]]
    return (2.0 * c if kind.endswith("_odd") else c, gamma)


# ---------------------------------------------------------------------------
# closed-form node sequences


def _rleja_thetas(n: int) -> list[float]:
    th = [0.0, math.pi, math.pi / 2.0]
    for j in range(4, n + 1):
        if j % 2 == 1:
            th.append(th[j - 2] + math.pi)
        else:
            th.append(th[j // 2] / 2.0)
    return th[:n]


def _closed_form_nodes(family: str, n: int) -> np.ndarray:
    if family == "fejer2":
        return np.array([math.cos(2.0 ** (-math.ceil(math.log2(j + 1))) * (2 * j + 1) * math.pi)
                         for j in range(1, n + 1)])
    # Clenshaw-Curtis and the centred R-Leja sequence start 0, 1, -1
    if family == "cc":
        rest = [math.cos(2.0 ** (-math.ceil(math.log2(j - 1))) * (2 * j - 3) * math.pi)
                for j in range(4, n + 1)]
    else:
        th = _rleja_thetas(max(n, 3))
        if family == "rleja":
            return np.array([math.cos(th[j]) for j in range(n)])
        rest = [math.cos(th[j]) for j in range(3, n)]
    return np.array(([0.0, 1.0, -1.0] + rest)[:n])


# ---------------------------------------------------------------------------
# greedy node sequences


def _candidates(count: int) -> np.ndarray:
    # Chebyshev-distributed, descending from +1 to -1 so that argmax/argmin
    # on exact ties selects the right-most point
    k = np.arange(count)
    return np.cos(k * math.pi / (count - 1))


def _log_abs_diff(y: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(np.abs(y[:, None] - nodes[None, :]))


def _log_weights(nodes: np.ndarray) -> np.ndarray:
    """Logs of the barycentric weights' magnitudes on `nodes`:
    -sum over t != j of log|x_j - x_t|."""
    diffs = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diffs, 1.0)
    return -np.log(np.abs(diffs)).sum(axis=1)


def _lebesgue_values(nodes: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Lebesgue function of the Lagrange basis on `nodes`, evaluated at `y`.

    Computed in log space with sign-free magnitudes; points that coincide
    with a node get the exact value 1.
    """
    n = len(nodes)
    if n == 1:
        return np.ones_like(y)
    ld = _log_abs_diff(y, nodes)
    hit = np.isneginf(ld).any(axis=1)
    S = ld.sum(axis=1)
    logw = _log_weights(nodes)
    with np.errstate(invalid="ignore"):
        vals = np.exp(S[:, None] - ld + logw[None, :]).sum(axis=1)
    vals[hit] = 1.0
    return vals


def lebesgue_constant(nodes, probe_count: int = DEFAULT_PROBE_COUNT) -> float:
    """Max of the Lebesgue function over a dense uniform probe grid."""
    nodes = np.asarray(nodes, dtype=float)
    if len(np.unique(nodes)) != len(nodes):
        raise ValueError("duplicate nodes")
    if probe_count < 2:
        raise ValueError("probe_count too small")
    probes = np.linspace(-1.0, 1.0, probe_count)
    best = 1.0
    chunk = max(1, (1 << 22) // max(1, len(nodes)))
    for start in range(0, probe_count, chunk):
        vals = _lebesgue_values(nodes, probes[start:start + chunk])
        best = max(best, float(vals.max()))
    return best


def _golden_refine(fn, lo: float, hi: float, iters: int = 90):
    """Golden-section search for a maximum of `fn`; returns (best_y,
    best_value) incl. the endpoints."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if b - a < 1e-15:
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    cands = [(lo, fn(lo)), (hi, fn(hi)), (c, fc), (d, fd)]
    best = max(v for _, v in cands)
    # right-most among refined near-ties
    y_best = max(y for y, v in cands if v >= best - abs(best) * 1e-15)
    return y_best, best


def _select_extremum(cands: np.ndarray, values: np.ndarray, fn, maximize: bool) -> float:
    """Pick the winning candidate with right-most tie-breaking, then refine.

    A minimum is found as the maximum of the negated values, negation being
    exact; non-finite values never win.  Discrete near-ties (within a
    relative band) are all refined in their own cells; the tie is broken
    right-most at refined precision.  This keeps symmetric objectives (e.g.
    twin Leja bumps) deterministic despite float noise on the discrete grid.
    At most `_MAX_REFINED_CELLS` (32) tied cells are refined: they are taken
    in (objective, right-most) order, i.e. best discrete value first and,
    among equal values, the right-most candidate (smallest index, since
    `cands` descends) first, independently of how the sort used orders equal
    keys.
    """
    sign = 1.0 if maximize else -1.0
    vals = values if maximize else -values
    finite = np.isfinite(vals)
    if not finite.any():
        raise RuntimeError("objective is non-finite at every candidate")
    vals = np.where(finite, vals, -np.inf)
    best = vals.max()
    tie = np.abs(best) * _COARSE_TIE + 1e-300
    eligible = np.flatnonzero(vals >= best - tie)
    if len(eligible) > _MAX_REFINED_CELLS:
        # lexsort is stable: equal objectives stay in index (right-most first)
        # order, whatever argsort would do with equal keys
        order = np.lexsort((eligible, -vals[eligible]))
        eligible = np.sort(eligible[order[:_MAX_REFINED_CELLS]])
    refined = []
    n = len(cands)
    for k in eligible:
        lo = cands[k + 1] if k + 1 < n else -1.0
        hi = cands[k - 1] if k >= 1 else 1.0
        refined.append(_golden_refine(lambda y: sign * fn(y), lo, hi))
    vbest = max(v for _, v in refined)
    band = abs(vbest) * _REFINED_TIE + 1e-300
    y = max(y for y, v in refined if v >= vbest - band)
    # snap exact endpoints: the hypercube boundary is always a valid node
    if abs(y - 1.0) < 1e-14:
        return 1.0
    if abs(y + 1.0) < 1e-14:
        return -1.0
    return float(y)


def greedy_sequence(
    kind: str,
    n: int,
    candidate_count: int | None = None,
    probe_count: int = DEFAULT_PROBE_COUNT,
    start_nodes: list[float] | np.ndarray | None = None,
) -> list[float]:
    """First n nodes of a greedy rule family, seeded with y_1 = 0, as
    Python floats.

    `start_nodes`, a sequence or array, continues a previously computed
    prefix of the same sequence; the result is identical to a full
    regeneration.
    """
    if kind not in GREEDY_FAMILIES:
        raise ValueError(f"{kind!r} is not a greedy family")
    if n < 1:
        raise ValueError("need n >= 1")
    if candidate_count is None:
        candidate_count = (
            MINMAX_CANDIDATE_COUNT if kind == "min_lebesgue" else DEFAULT_CANDIDATE_COUNT
        )
    if candidate_count < 10**4:
        raise ValueError("candidate_count must be at least 10^4")
    cands = _candidates(candidate_count)
    nodes = [float(y) for y in (() if start_nodes is None else start_nodes)] or [0.0]
    if nodes[0] != 0.0:
        raise ValueError("greedy sequences are seeded with y_1 = 0")
    if kind.startswith("min_"):
        probes = np.sort(np.concatenate([np.linspace(-1.0, 1.0, probe_count), cands]))
    # per kind: the objective at the candidates and as a function of y,
    # for the committed nodes `arr`
    if kind == "leja":
        # sum of log|y - y_i|, extended by each committed node in turn
        running, summed = np.zeros(candidate_count), 0

        def objective(arr):
            nonlocal summed
            for y in arr[summed:]:
                np.add(running, np.log(np.abs(cands - y)), out=running)
            summed = len(arr)
            return running, lambda y: float(np.log(np.abs(np.subtract(y, arr))).sum())
    elif kind == "max_lebesgue":
        def objective(arr):
            return (_lebesgue_values(arr, cands),
                    lambda y: float(_lebesgue_values(arr, np.array([y]))[0]))
    elif kind == "min_delta":
        # the objective decouples: max_y' A(y') is a constant factor, so
        # F(y) = (1 + LebFn(y)) * max A / A(y)
        def objective(arr):
            log_amax = float(_log_abs_diff(probes, arr).sum(axis=1).max())
            log_a = _log_abs_diff(cands, arr).sum(axis=1)
            vals = (1.0 + _lebesgue_values(arr, cands)) * np.exp(log_amax - log_a)

            def fn(y):
                ya = np.array([y])
                la = float(_log_abs_diff(ya, arr).sum())
                return (1.0 + float(_lebesgue_values(arr, ya)[0])) * math.exp(log_amax - la)
            return vals, fn
    else:
        # min_lebesgue: F(y) = Lebesgue constant of nodes + {y}, via the
        # barycentric update of the augmented node set
        def objective(arr):
            return (_augmented_lebesgue(arr, cands, probes),
                    lambda y: float(_augmented_lebesgue(arr, np.array([y]), probes)[0]))
    maximize = kind in ("leja", "max_lebesgue")
    with np.errstate(divide="ignore", over="ignore"):
        while len(nodes) < n:
            vals, fn = objective(np.array(nodes))
            nodes.append(_select_extremum(cands, vals, fn, maximize))
    return nodes[:n]


def _augmented_lebesgue(nodes: np.ndarray, cands: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """For each candidate y, the Lebesgue constant of nodes + {y} over `probes`."""
    logw = _log_weights(nodes)  # base barycentric weights
    with np.errstate(divide="ignore"):
        gapc = np.abs(cands[:, None] - nodes[None, :])   # (m, n)
        la = np.log(gapc).sum(axis=1)                    # log prod |y - x_k|
        D = 1.0 / gapc                                   # (m, n)
        inv_a = np.exp(-la)                              # (m,)
    dup = gapc.min(axis=1) == 0.0
    out = np.full(len(cands), 1.0)
    chunk = max(16, (1 << 22) // max(1, len(cands)))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for s in range(0, len(probes), chunk):
            pr = probes[s:s + chunk]
            ld = _log_abs_diff(pr, nodes)                # (P, n)
            S = ld.sum(axis=1)                           # log prod |y' - x|
            C = np.exp(S[:, None] - ld + logw[None, :])  # |w_k| A(y')/|y'-x_k|
            hit = np.isneginf(S)
            C[hit] = 0.0
            A = np.exp(S)
            A[hit] = 0.0
            vals = C @ D.T                               # (P, m)
            gap = np.abs(np.subtract(pr[:, None], cands[None, :]))
            np.multiply(vals, gap, out=vals)
            vals += A[:, None] * inv_a[None, :]
            # probe rows hitting a node of the base set give 0 here (true value
            # 1); the floor below and the running max keep them harmless
            np.maximum(out, np.nanmax(vals, axis=0), out=out)
    # a candidate equal to an existing node is degenerate: +inf objective
    out[dup] = np.inf
    return out


# ---------------------------------------------------------------------------
# sequence cache


_SEQ_CACHE: dict[str, np.ndarray] = {}


def family_nodes(kind: str, n: int) -> np.ndarray:
    """First n nodes of the sequence backing `kind` (shared across variants).
    A greedy family starts from its shipped table, if it has one, and is
    generated only past that table's end."""
    _check_kind(kind)
    family = _FAMILY[kind]
    cached = _SEQ_CACHE.get(family)
    if cached is None and family in NODE_TABLES:
        cached = _SEQ_CACHE[family] = np.array(NODE_TABLES[family])
    if cached is None or len(cached) < n:
        if family in _CLOSED_FORM_FAMILIES:
            # over-generate closed forms so repeated growth stays cheap
            cached = _closed_form_nodes(family, max(n, 65))
        else:
            cached = np.array(greedy_sequence(family, n, start_nodes=cached))
        _SEQ_CACHE[family] = cached
    return cached[:n].copy()
