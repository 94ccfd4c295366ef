"""Multi-index set algebra: lower (downward-closed) sets and weighted sublevel sets.

Multi-indices are plain tuples of non-negative ints.  Sets are stored in
graded lexicographic order (sort by entry sum, ties lexicographic) so that
output files and least-squares assembly are reproducible.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

MultiIndex = tuple[int, ...]

def graded_lex_key(nu: MultiIndex):
    return (sum(nu), nu)


def _graded_lex(idx: np.ndarray) -> np.ndarray:
    """The permutation that puts the rows `idx` (non-negative) in graded-lex
    order: by the entry sum, then lexicographically.  The keys take the
    narrowest unsigned type that holds the sums, since numpy sorts 8- and
    16-bit keys by radix: 4-5x faster on grids of thousands of rows."""
    total = idx.sum(axis=1)
    keys = np.empty((idx.shape[1] + 1, len(idx)), dtype=np.min_scalar_type(total.max(initial=0)))
    keys[:-1], keys[-1] = idx.T[::-1], total
    return np.lexsort(keys)


class IndexSet:
    """An immutable collection of d-dimensional multi-indices in graded-lex order."""

    __slots__ = ("dim", "members", "_member_set", "_lower")

    def __init__(self, dim: int, members: Iterable[MultiIndex]):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        mem = [tuple(map(int, nu)) for nu in members]
        bad = next((nu for nu in mem if len(nu) != dim or min(nu) < 0), None)
        if bad is not None:
            if len(bad) != dim:
                raise ValueError(f"multi-index {bad} does not have dimension {dim}")
            raise ValueError(f"multi-index {bad} has a negative entry")
        member_set = frozenset(mem)
        if len(member_set) != len(mem):
            raise ValueError("duplicate multi-indices")
        # graded-lex order: lexical, then stably by the entry sum.  The list
        # keeps the given order, so members given in order (a saved
        # model's) are sorted in long runs
        mem.sort()
        mem.sort(key=sum)
        self.dim = dim
        self.members = tuple(mem)
        self._member_set = member_set
        # True once the set is known to be lower; private, and set only by
        # `_grown` and `_lower_set`, whose callers build it lower by construction
        self._lower = False

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, nu) -> bool:
        return tuple(nu) in self._member_set

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IndexSet)
            and self.dim == other.dim
            and self.members == other.members
        )

    def __hash__(self):
        return hash((self.dim, self.members))

    def __repr__(self):
        return f"IndexSet(dim={self.dim}, n={len(self.members)})"

    def issubset(self, other: "IndexSet") -> bool:
        return self._member_set <= other._member_set

    def _grown(self, added: Sequence[MultiIndex]) -> "IndexSet":
        """This lower set together with `added`, levels of its margin and
        successors of them admitted in an order that keeps the set lower
        (the grow step's).  Only `added` is sorted; each is inserted by
        bisection into the members, which are in order already."""
        members = list(self.members)
        for nu in sorted(added, key=graded_lex_key):
            members.insert(bisect.bisect(members, graded_lex_key(nu), key=graded_lex_key), nu)
        out = IndexSet.__new__(IndexSet)
        out.dim = self.dim
        out.members = tuple(members)
        out._member_set = self._member_set.union(added)
        out._lower = True
        return out

    def max_degrees(self) -> MultiIndex:
        """Componentwise maximum over members; zeros for the empty set."""
        if not self.members:
            return (0,) * self.dim
        return tuple(max(nu[k] for nu in self.members) for k in range(self.dim))


@dataclass(frozen=True)
class CurvedWeights:
    """Anisotropic weights: exponential rates alpha > 0, algebraic corrections beta."""

    alpha: tuple[float, ...]
    beta: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))
        if len(self.alpha) != len(self.beta):
            raise ValueError("alpha and beta must have the same length")
        if not all(map(math.isfinite, self.alpha + self.beta)):
            raise ValueError(f"curved weights must be finite, got alpha={self.alpha}, beta={self.beta}")

    @property
    def dim(self) -> int:
        return len(self.alpha)


def _lower_set(dim: int, members: Iterable[MultiIndex]) -> IndexSet:
    """An `IndexSet` of `members`, which the caller builds lower by construction."""
    s = IndexSet(dim, members)
    s._lower = True
    return s


def _predecessors(nu: MultiIndex) -> list[MultiIndex]:
    """The indices one below `nu` in one coordinate."""
    return [nu[:k] + (nu[k] - 1,) + nu[k + 1:] for k in range(len(nu)) if nu[k] > 0]


def _entering(nu: MultiIndex, inside: Callable[[MultiIndex], bool]) -> Iterator[MultiIndex]:
    """The successors of `nu` whose predecessors all pass `inside`: once `nu`
    joins a lower set for which `inside` tests membership, the successors
    that enter its margin.  The predecessors of nu + e_k are `nu` itself,
    which is in, and nu + e_k - e_j for the j != k with nu_j > 0; only
    those are checked."""
    below = [j for j, v in enumerate(nu) if v > 0]
    for k in range(len(nu)):
        succ = nu[:k] + (nu[k] + 1,) + nu[k + 1:]
        if all(inside(succ[:j] + (succ[j] - 1,) + succ[j + 1:]) for j in below if j != k):
            yield succ


def is_lower(s: IndexSet) -> bool:
    """True iff the set is downward closed (contains all componentwise predecessors).

    Each member's int64 row, read as raw bytes, is one key: rows are equal
    iff their bytes are, so the check is exact for every d.  The keys are
    ordered once, and every predecessor is looked up among them by bisection.
    A lower set holds the members 0..v along the axis of an entry v, so an
    entry past int64 is never lower."""
    try:
        rows = np.fromiter(itertools.chain.from_iterable(s.members), np.int64, len(s) * s.dim)
    except OverflowError:
        return False
    rows = rows.reshape(len(s), s.dim)
    keys = rows.view(np.dtype((np.void, rows.itemsize * s.dim))).ravel()
    order = np.argsort(keys)
    for k in range(s.dim):
        below = rows[rows[:, k] > 0]
        below[:, k] -= 1
        at = np.searchsorted(keys, below.view(keys.dtype).ravel(), sorter=order)
        if not (rows[order[at.clip(max=len(s) - 1)]] == below).all():
            return False
    return True


def lower_completion(s: IndexSet) -> IndexSet:
    """Smallest downward-closed superset: the union of boxes {j : j <= nu}."""
    seen = set(s.members)
    stack = list(s.members)
    while stack:
        for pred in _predecessors(stack.pop()):
            if pred not in seen:
                seen.add(pred)
                stack.append(pred)
    return _lower_set(s.dim, seen)


def margin(s: IndexSet) -> list[MultiIndex]:
    """Indices outside a lower set whose predecessors all belong to it, in
    graded-lex order.  Each is reached once, from its predecessor in its
    first nonzero coordinate (from the origin, in every coordinate)."""
    members = s._member_set
    out = [] if members else [(0,) * s.dim]
    for nu in s.members:
        first = next((k for k, v in enumerate(nu) if v), s.dim - 1)
        for k in range(first + 1):
            succ = nu[:k] + (nu[k] + 1,) + nu[k + 1:]
            if succ not in members and all(p in members for p in _predecessors(succ)):
                out.append(succ)
    return sorted(out, key=graded_lex_key)


def curved_weight_1d(alpha_k: float, beta_k: float, t: int) -> float:
    return alpha_k * t + beta_k * math.log(t + 1)


def curved_tail_min(alpha_k: float, beta_k: float, start: int) -> float:
    """Minimum of alpha*t + beta*log(t+1) over integers t >= start, alpha > 0.
    The real minimum is at t* = -beta/alpha - 1, which is <= -1 for beta >= 0."""
    tstar = -beta_k / alpha_k - 1.0
    if tstar <= start:
        return curved_weight_1d(alpha_k, beta_k, start)
    return min(curved_weight_1d(alpha_k, beta_k, t) for t in (math.floor(tstar), math.ceil(tstar)))


def _tail_mins(alpha_k: float, beta_k: float, starts: list[int]) -> list[float]:
    """`curved_tail_min` at each of the ascending `starts`: those below t*
    share the interior minimum, which is computed once."""
    below = bisect.bisect_left(starts, -beta_k / alpha_k - 1.0)  # the starts < t*
    inner = [curved_tail_min(alpha_k, beta_k, starts[0])] * below if below else []
    return inner + [curved_weight_1d(alpha_k, beta_k, t) for t in starts[below:]]


def _sublevel_set(
    g: Sequence[Callable[[int], float]],
    L: float,
    combine: Callable[[float, float], float] = operator.add,
    start: float = 0.0,
) -> IndexSet:
    """The lower set {nu : combine(...combine(start, g[0](nu_0))..., g[d-1](nu_{d-1})) <= L}.

    The membership value is folded left to right, one coordinate at a
    time, by `combine` (+, max or *), which must be non-decreasing in each
    argument, and each g[k] must be non-decreasing, so the set is lower and
    each coordinate's scan stops at its first degree past L.  A level that
    is not finite is refused: at inf the scan never ends, and at NaN no
    index is a member.
    """
    if not math.isfinite(L):
        raise ValueError(f"level must be finite, got {L}")
    d = len(g)
    # least contribution of each coordinate; a prefix is pruned when even
    # these minima push it past L.  They are combined left to right, in the
    # order of the membership fold, so by monotone rounding the bound never
    # exceeds a member's value and no member is pruned.
    lows = [gk(0) for gk in g]
    out: list[MultiIndex] = []
    prefix = [0] * d

    def bound(k: int, w: float) -> float:
        for low in lows[k + 1:]:
            w = combine(w, low)
        return w

    def scan(k: int, partial: float):
        if k == d:  # the last coordinate's bound was its value
            out.append(tuple(prefix))
            return
        gk = g[k]
        t = 0
        while True:
            w = combine(partial, gk(t))
            if not bound(k, w) <= L:  # NaN ends the scan too
                break
            prefix[k] = t
            scan(k + 1, w)
            t += 1

    scan(0, start)
    return _lower_set(d, out)


def _check_alpha(alpha: Sequence[float]):
    if any(not (0.0 < a < math.inf) for a in alpha):
        raise ValueError(f"alpha entries must be finite and strictly positive, got {tuple(alpha)}")


def lambda_curved(w: CurvedWeights, L: float) -> IndexSet:
    """Lower completion of {nu : alpha.nu + beta.log(nu+1) <= L}: the sublevel
    set of the tail minima `curved_tail_min(alpha_k, beta_k, nu_k)`, the
    non-decreasing weights the grow step admits tensor levels by.

    nu is in the completion iff some mu >= nu has weight <= L.  Each tail
    minimum is the weight at some mu_k >= nu_k and at most that at any
    other, so by monotone rounding the float sums decide alike.  Membership
    uses literal floating-point <= with no tolerance.
    """
    _check_alpha(w.alpha)
    g = [functools.partial(curved_tail_min, a, b) for a, b in zip(w.alpha, w.beta)]
    return _sublevel_set(g, float(L))


# per kind: the weight of coordinate k at degree t, and the fold of the
# weights with its start value; membership is the folded value <= L
_CLASSIC = {
    "tensor": (lambda a, t: a * t, max, 0.0),
    "total_degree": (lambda a, t: a * t, operator.add, 0.0),
    "hyperbolic": (lambda a, t: (t + 1) ** a, operator.mul, 1.0),
    "smolyak": (lambda a, t: a * math.log2(t + 1), operator.add, 0.0),
}
CLASSIC_KINDS = tuple(_CLASSIC)


def lambda_classic(kind: str, alpha: Sequence[float], L: float) -> IndexSet:
    """Classic anisotropic spaces, each the sublevel set of a weight folded
    over the coordinates: max_k alpha_k nu_k (tensor), sum_k alpha_k nu_k
    (total_degree), prod_k (nu_k + 1)^alpha_k (hyperbolic) and
    sum_k alpha_k log2(nu_k + 1) (smolyak)."""
    alpha = tuple(float(a) for a in alpha)
    _check_alpha(alpha)
    if kind not in _CLASSIC:
        raise ValueError(f"unknown classic kind {kind!r}; expected one of {CLASSIC_KINDS}")
    weight, combine, start = _CLASSIC[kind]
    g = [functools.partial(weight, a) for a in alpha]
    return _sublevel_set(g, float(L), combine, start)

