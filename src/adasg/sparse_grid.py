"""Sparse-grid interpolants: minimal tensor selection, node enumeration, and
construction/evaluation in hierarchical-surplus (Newton) form.

The grid is enumerated here only, as an int array of 1-based grid indices:
`grid_nodes` expands the blocks of every tensor level in graded-lex order,
and `_extend_grid` appends the blocks of new levels to a grid, whose rows
never move: an extension's rows are the suffix past the old grid's (the
adaptive loop keeps its grid and extends it).  Every other operator reads
that array in any row order, and acts on the lower set of grid indices one
dimension at a time.  The transforms (samples to surpluses for a suffix of
new rows, `_solve_new`, in a pass buffer it grows; surpluses to Legendre
coefficients in `spectral`) apply one triangular 1-D matrix along every
fibre, read from the fibre table each grid carries per dimension.  The
fibres of the last dimension are the prefixes (j_1..j_{d-1}) of the grid
indices.  Evaluation contracts the surpluses with the 1-D Newton basis
(`_newton_basis`, point-major, from contiguous coordinates) over the trie
of those prefixes in lex order, a chunk of points at a time, from one
contiguous (G, chunk) slab of prefix products (`_contract`): `evaluate_batch`
forms each slab (`_trie_plan`), and the adaptive loop's probe
(`_FixedPoints`) keeps its slabs between calls, with the same bits.
"""

from __future__ import annotations

import bisect
import copy
import functools
import json
import operator
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import rules1d
from .multiindex import (
    IndexSet,
    MultiIndex,
    _graded_lex,
    _lower_set,
    is_lower,
)


# 1-D matrices (m x m doubles) kept per (rule, m) by each matrix cache: a run
# reuses one m until its grid reaches further, so a few entries serve it and
# the memory stays a few matrices of the largest m
_MATRIX_CACHE_SIZE = 4
# terms per chunk of rows in the fibre transform (`_fibre_apply`): ~8 MB of
# doubles however long the fibres are
_FIBRE_CHUNK_TERMS = 1 << 20
# doubles per (prefixes, chunk of points) array of an evaluation (`_chunk`)
_CHUNK_TERMS = 1 << 16


class DomainError(ValueError):
    """Evaluation point outside the interpolation hypercube."""


@dataclass(frozen=True)
class TensorSet:
    """A lower set of tensor levels together with the 1D rule fixing m and nodes."""

    theta: IndexSet
    rule: str

    def __post_init__(self):
        rules1d.growth(self.rule, 0)  # validates the kind
        if not (self.theta._lower or is_lower(self.theta)):
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
    if not (lam._lower or is_lower(lam)):
        raise ValueError("polynomial index set must be downward closed")
    nus = np.array(lam.members, dtype=np.int64)
    # m(top) > top, so the table covers every degree; position i holds
    # m(i - 1), the degree at which level i enters
    m = _growth_table(rule, int(nus.max()))
    levels = np.searchsorted(m, nus)
    keep = (m[levels] == nus).all(axis=1)
    return TensorSet(_lower_set(lam.dim, map(tuple, levels[keep].tolist())), rule)


@dataclass
class _Fibres:
    """The dimension-k fibres of a lower grid-index set: the sets of rows that
    agree in every coordinate but k.  On a lower set each fibre holds the
    coordinates k = 1..l, and its member at c sits in column c - 1 of its
    row of `members`; the columns past l hold -1, so `of` and coordinate k
    fix `members`."""

    of: np.ndarray                # (N,) the fibre of each row
    members: np.ndarray           # (F, L) int64: rows by fibre and coordinate k, padded
    ids: dict[MultiIndex, int]    # the other d - 1 coordinates of a fibre -> its id


def _with_room(buf: np.ndarray, shape: tuple[int, ...], fill=0) -> np.ndarray:
    """`buf` if it has at least `shape`, or else a copy of it, padded with
    `fill` to twice its size along each axis too short (or to `shape`)."""
    if all(map(operator.le, shape, buf.shape)):
        return buf
    out = np.full([b if s <= b else max(s, 2 * b) for s, b in zip(shape, buf.shape)], fill,
                  dtype=buf.dtype)
    out[tuple(map(slice, buf.shape))] = buf
    return out


# rows per gather of fibre keys in `_Room._enter`, so that a from-scratch
# table at high d reads ~2**18 coordinates at a time
_KEY_TERMS = 1 << 18


class _Room:
    """The buffers of a grid whose rows only append (`_extend_grid`): its
    first `n` rows of `idx` and `points`, and per dimension k the fibre of
    each row, `of[k]`, the table `members[k]` (-1 where empty) with its
    largest coordinate `top[k]`, and the fibre ids `ids[k]`.  A grid's
    arrays and fibre tables are views of their leading rows and columns.
    A buffer too short is copied to one twice its length, so appending costs
    the new rows only; the rows in the buffers never move."""

    def __init__(self, idx: np.ndarray, points: np.ndarray):
        """The room of the rows `idx` with coordinates `points`, which it
        takes as full buffers: the first row appended copies them."""
        d = idx.shape[1]
        self.n, self.idx, self.points = 0, idx, points
        self.of = np.zeros((d, 0), dtype=np.int64)
        self.members = [np.zeros((0, 0), dtype=np.int64) for _ in range(d)]
        self.ids: list[dict[MultiIndex, int]] = [{} for _ in range(d)]
        self.top = np.zeros(d, dtype=np.int64)
        # others[k]: the dimensions but k, in order
        j = np.arange(d - 1)
        self.others = j + (j >= np.arange(d)[:, None])
        self._enter(len(idx))

    def append(self, idx: np.ndarray, points: np.ndarray) -> None:
        """Add the rows `idx` with coordinates `points` after the rows held."""
        start, n = self.n, self.n + len(idx)
        self.idx = _with_room(self.idx, (n, idx.shape[1]))
        self.points = _with_room(self.points, (n, idx.shape[1]))
        self.idx[start:n], self.points[start:n] = idx, points
        self._enter(n)

    def _enter(self, n: int) -> None:
        """Enter the rows from `self.n` up to `n` into the fibre tables.  A
        row looks its fibre up by its other d - 1 coordinates, read for every
        dimension by one gather through `others`, and a fibre one of them
        opens takes the next id; then each row is written to its fibre's row
        of `members`, in column j_k - 1."""
        start, d = self.n, len(self.ids)
        rows = self.idx[start:n]
        self.of = _with_room(self.of, (d, n))
        step = max(1, _KEY_TERMS // (d * d))
        for lo in range(0, len(rows), step):
            part = rows[lo:lo + step]
            self.of[:, start + lo:start + lo + len(part)] = [
                [ids.setdefault(key, len(ids)) for key in map(tuple, keys)]
                for ids, keys in zip(self.ids, part[:, self.others].transpose(1, 0, 2).tolist())]
        self.top = np.maximum(self.top, rows.max(axis=0, initial=0))
        self.members = [_with_room(members, (len(ids), top), fill=-1)
                        for members, ids, top in zip(self.members, self.ids, self.top.tolist())]
        # each row's flat position in its table, for every dimension at once
        width = np.array([members.shape[1] for members in self.members])
        flat = self.of[:, start:n] * width[:, None] + rows.T - 1
        numbers = np.arange(start, n)
        for members, at in zip(self.members, flat):
            members.put(at, numbers)
        self.n = n

    def tables(self) -> list[_Fibres]:
        """The fibre tables of the rows held, as views."""
        return [_Fibres(of, members[:len(ids), :top], ids) for of, members, ids, top
                in zip(self.of[:, :self.n], self.members, self.ids, self.top.tolist())]


@dataclass
class GridNodes:
    """1-based grid indices (N, d) and their coordinates.

    `grid_nodes` and `load_interpolant` give the rows in graded-lex order;
    a grid `_extend_grid` extends keeps its rows in the order they came."""

    idx: np.ndarray     # (N, d) int64
    points: np.ndarray  # (N, d)
    # the buffers the rows are held in, which `_extend_grid` appends to:
    # made here from the arrays unless passed, and then the per-dimension
    # fibre tables of idx are views of them
    _room: _Room = field(default=None, repr=False, compare=False)
    _fibres: list[_Fibres] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self._room is None:
            self._room = _Room(self.idx, self.points)
        self._fibres = self._room.tables()

    def __len__(self) -> int:
        return len(self.idx)

    @classmethod
    def empty(cls, d: int) -> "GridNodes":
        return cls(np.zeros((0, d), dtype=np.int64), np.zeros((0, d)))

    @property
    def indices(self) -> tuple[MultiIndex, ...]:
        """The grid indices as tuples, the keys of a sample map."""
        return tuple(map(tuple, self.idx.tolist()))


def _reordered(grid: GridNodes, order: np.ndarray) -> GridNodes:
    """The rows of `grid` permuted by `order`, in buffers of their own, its
    fibre tables renumbered (from scratch if its buffers took later rows)."""
    room = grid._room if grid._room.n == len(grid) else _Room(grid.idx, grid.points)
    new, number = copy.copy(room), np.full(len(order) + 1, -1)  # number[-1]: -1 stays
    number[order] = np.arange(len(order))
    new.idx, new.points, new.of = room.idx[order], room.points[order], room.of[:, order]
    new.members, new.ids = [number[m] for m in room.members], [dict(i) for i in room.ids]
    return GridNodes(new.idx, new.points, new)


_GROWTH_TABLES: dict[str, np.ndarray] = {}


def _growth_table(rule: str, top: int) -> np.ndarray:
    """m[l + 1] = m(l) for the levels l = -1..top at least (m(-1) = 0), cut
    after the first entry above 2^62, which no grid or degree reaches.  One
    read-only table per rule is kept; a level past its end rebuilds it to
    at least twice its length."""
    m = _GROWTH_TABLES.get(rule)
    if m is None or (len(m) < top + 2 and m[-1] <= 1 << 62):
        top = max(top, 2 * len(m) if m is not None else 64)
        m = [0]
        for l in range(top + 1):
            m.append(rules1d.growth(rule, l))
            if m[-1] > 1 << 62:
                break
        m = _GROWTH_TABLES[rule] = np.array(m, dtype=np.int64)
        m.flags.writeable = False
    return m


def grid_nodes(ts: TensorSet) -> GridNodes:
    """Union of index boxes {1 <= j <= m(i)} over the tensor set, with coordinates."""
    return _extend_grid(GridNodes.empty(ts.dim), ts.rule, ts.theta.members)


def _extend_grid(grid: GridNodes, rule: str, levels) -> GridNodes:
    """`grid` together with the blocks of the tensor levels `levels`, whose
    rows follow those of `grid`.

    Tensor level i adds the disjoint block m(i_k - 1) + 1 .. m(i_k) in every
    dimension k.  Each block's rows are numbered 0..size-1 and the number is
    read as mixed-radix digits, one per dimension; the new rows are put in
    graded-lex order among themselves and appended after the rows of
    `grid`, which keep their places, so a grid extended from empty is in
    graded-lex order.  The points are read off the rule's node table by
    grid index, up to the largest index of the grid as a whole build reads
    them.  The rows go to the buffers of `grid` (`_Room`), whose fibre ids
    the old rows keep; the new rows look theirs up.  `grid` keeps its
    arrays, but its fibre tables see the new rows, so it is the result that
    is read from then on; a grid whose buffers have since taken other rows
    is copied to new ones first.
    """
    d = grid.idx.shape[1]
    levels = np.array(levels, dtype=np.int64).reshape(-1, d)
    if len(levels) == 0:
        return grid
    m = _growth_table(rule, int(levels.max()))
    first, size = m[levels] + 1, m[levels + 1] - m[levels]
    # place values: the product of the block's sizes in the later dimensions
    place = np.cumprod(size[:, ::-1], axis=1)[:, ::-1] // size
    count = place[:, 0] * size[:, 0]
    block = np.repeat(np.arange(len(levels)), count)  # the level each row belongs to
    number = np.arange(len(block)) - np.repeat(np.cumsum(count) - count, count)
    added = first[block] + number[:, None] // place[block] % size[block]
    if len(added) > 1:  # a block's rows come in lex order, not graded-lex
        added = added[_graded_lex(added)]
    room = grid._room
    if room.n != len(grid):
        room = GridNodes(grid.idx, grid.points)._room
    top = int(max(added.max(), room.top.max()))
    room.append(added, rules1d.family_nodes(rule, top)[added - 1])
    return GridNodes(room.idx[:room.n], room.points[:room.n], room)


def grid_size(ts: TensorSet) -> int:
    """Node count via the disjoint-block formula, without enumerating points:
    the sum over levels i of prod_k m(i_k) - m(i_k - 1)."""
    levels = np.array(ts.theta.members, dtype=np.int64).reshape(-1, ts.dim)
    m = _growth_table(ts.rule, int(levels.max(initial=0)))
    return int((m[levels + 1] - m[levels]).prod(axis=1).sum())


def _newton_products(x: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """P[j] = prod_{t<j} (y - x_t) for j < len(x) at an array y of points,
    shape (len(x),) + y.shape, written into `out` if given: each row is the
    row before times y - x_{j-1}."""
    P = np.empty((len(x),) + y.shape) if out is None else out
    P[:1] = 1.0
    np.subtract(y, x[:-1].reshape((-1,) + (1,) * y.ndim), out=P[1:])
    for j in range(2, len(x)):
        P[j] *= P[j - 1]
    return P


@functools.lru_cache(maxsize=_MATRIX_CACHE_SIZE)
def _newton_denominators(rule: str, m: int) -> np.ndarray:
    """prod_{t<j} (x_j - x_t) for the first m nodes x of `rule`, the
    denominators of the Newton basis, built once and read-only."""
    x = rules1d.family_nodes(rule, m)
    den = np.diagonal(_newton_products(x, x)).copy()
    den.flags.writeable = False
    return den


def _newton_basis(rule: str, m: int, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1-D Newton basis of the first m nodes x of `rule` at an array y of
    points, point-major: H[j] = h_j(y), shape (m,) + y.shape, written into
    `out` if given.

    h_j(y) = prod_{t<j} (y - x_t) / prod_{t<j} (x_j - x_t), so at the nodes
    themselves (y = x) H is unit upper triangular.  Row j depends on the
    nodes 0..j only: a longer node table gives the same rows, bit for bit.
    """
    H = _newton_products(rules1d.family_nodes(rule, m), y, out)
    H /= _newton_denominators(rule, m).reshape((m,) + (1,) * y.ndim)
    return H


def _fibre_apply(grid: GridNodes, data: np.ndarray, mats: list[np.ndarray]) -> np.ndarray:
    """Apply mats[k] along every dimension-k fibre of the grid's lower
    grid-index set, to one value per row.

    On a lower set every fibre is a prefix 1..l, and the rows a triangular
    matrix couples stay inside the set, so for triangular mats the d
    one-dimensional passes equal the tensor-product operator restricted to
    the set.  Row r at coordinate c takes the sum over q = 1..L of
    mats[k][c - 1, q - 1] times its fibre's member at q, folded left to
    right from 0.0; a member past the fibre's end reads 0.0, so its term is
    an exact zero.  The inverse direction, samples to surpluses, is
    `_solve_new`.
    """
    out = np.array(data, dtype=float)
    n = len(out)
    for k, (table, mat) in enumerate(zip(grid._fibres, mats)):
        padded = np.append(out, 0.0)  # row -1 reads 0.0
        # chunks of rows, of at least two rows unless the grid has one:
        # numpy reduces a C-ordered (q, row) array over q left to right,
        # where over a single column it would sum pairwise
        chunks = min(-(-n * len(mat) // _FIBRE_CHUNK_TERMS), max(1, n // 2))
        for i in range(chunks):
            part = slice(i * n // chunks, (i + 1) * n // chunks)
            terms = np.empty((len(mat), part.stop - part.start))  # q-major
            np.multiply(mat.T[:, grid.idx[part, k] - 1],
                        padded[table.members.T[:, table.of[part]]], out=terms)
            out[part] = np.add.reduce(terms, axis=0, initial=0.0)
    return out


def _aligned_values(grid: GridNodes, samples: dict[MultiIndex, float]) -> np.ndarray:
    keys = grid.indices
    missing = [j for j in keys if j not in samples]
    if missing:
        raise ValueError(f"missing samples for {len(missing)} grid nodes, e.g. {missing[0]}")
    return np.array([samples[j] for j in keys], dtype=float)


@functools.lru_cache(maxsize=_MATRIX_CACHE_SIZE)
def _newton_table(rule: str, m: int) -> np.ndarray:
    """T[i, j] = h_j(x_i) on the first m nodes of `rule`, built once and read-only."""
    table = np.ascontiguousarray(_newton_basis(rule, m, rules1d.family_nodes(rule, m)).T)
    table.flags.writeable = False
    return table


@dataclass
class Interpolant:
    """A built sparse-grid operator, immutable after construction."""

    tensor_set: TensorSet
    grid: GridNodes
    samples: np.ndarray      # aligned with grid.idx
    surpluses: np.ndarray    # aligned with grid.idx

    @property
    def dim(self) -> int:
        return self.tensor_set.dim

    @property
    def node_count(self) -> int:
        return len(self.grid)


def _solve_new(ts: TensorSet, grid: GridNodes, passes: np.ndarray, start: int,
               samples: np.ndarray) -> tuple[Interpolant, np.ndarray]:
    """The interpolant of `ts` on `grid`, whose rows from `start` on are new
    and have the values `samples`, and the pass buffer it is a view of:
    `passes` if it has room for the grid's rows, or else a longer copy.

    The buffer holds a column per row, and its columns past the grid's rows
    are room for later rows.  passes[0] holds the samples and passes[k + 1]
    the values after the solve's pass along dimension k, so passes[d] holds
    the surpluses; the rows before `start` must hold theirs already.  Each
    dimension's Newton table T[i, j] = h_j(x_i) is unit lower triangular and
    is inverted by forward substitution along every fibre: the member at c
    takes T[c - 1, q - 1] times the member at q off its value, for q = 1..c-1
    in turn.  The new rows are solved one coordinate value c at a time, from
    the bottom, so the members below each are solved before it; the grid's
    fibre table gives those members.  A row's values depend only on the rows
    below it, which a lower set keeps, so the rows before `start` keep
    theirs, and a build from scratch starts at 0.
    """
    passes = _with_room(passes, (ts.dim + 1, len(grid)))
    view = passes[:, :len(grid)]
    view[0, start:] = samples
    if start < len(grid):
        # nested nodes: one table serves every dimension
        table = _newton_table(ts.rule, int(grid.idx.max()))
        for k in range(ts.dim):
            out = view[k + 1]
            out[start:] = view[k, start:]
            c = grid.idx[start:, k]
            if c.max() == 1:
                continue  # no new row has a member below it along dimension k
            fibres = grid._fibres[k]
            for v in np.flatnonzero(np.bincount(c)[2:]) + 2:
                at = start + np.flatnonzero(c == v)
                terms = table[v - 1, :v - 1] * out[fibres.members[fibres.of[at], :v - 1]]
                # subtract.reduce folds left to right: the q-th term goes off after the (q-1)-th
                out[at] = np.subtract.reduce(np.column_stack((out[at], terms)), axis=1)
    return Interpolant(ts, grid, view[0], view[-1]), passes


def build_interpolant(ts: TensorSet, samples: dict[MultiIndex, float]) -> Interpolant:
    """Assemble the interpolant from samples keyed by 1-based grid index."""
    grid = grid_nodes(ts)
    return _solve_new(ts, grid, np.zeros((ts.dim + 1, 0)), 0, _aligned_values(grid, samples))[0]


def _check_domain(Y: np.ndarray, allow_extrapolation: bool):
    # written so that NaN, which compares False, counts as outside
    if Y.size and (~(np.abs(Y) <= 1.0)).any():
        if allow_extrapolation:
            warnings.warn("evaluating outside [-1,1]^d: Newton form extrapolates wildly",
                          stacklevel=3)
        else:
            raise DomainError("evaluation point outside [-1,1]^d "
                              "(pass allow_extrapolation to override)")


def _trie(grid: GridNodes, surpluses: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The prefixes (j_1..j_{d-1}) of the grid indices, one per fibre of the
    last dimension and in the order of its ids (G, d - 1); the ids in the
    lexical order of their prefixes; and the surpluses laid out as
    S[g, j_d - 1] by the prefixes g in that order.  A fibre's prefix is read
    off its bottom member, j_d = 1, which a lower set holds."""
    fibres = grid._fibres[-1]
    heads = grid.idx[fibres.members[:, 0], :-1]
    order = np.lexsort(heads.T[::-1]) if heads.shape[1] else np.zeros(1, dtype=np.int64)
    return heads, order, np.append(surpluses, 0.0)[fibres.members[order]]


def _chunk(rows: int) -> int:
    """Points per chunk of an evaluation whose S has `rows` rows: the (rows,
    chunk) arrays hold ~`_CHUNK_TERMS` doubles."""
    return max(1, _CHUNK_TERMS // rows)


def _trie_plan(heads: np.ndarray) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]],
                                           np.ndarray, np.ndarray]:
    """How `evaluate_batch` forms the products of the lex-sorted prefixes
    `heads` (G, d - 1) of the grid indices from the flattened Newton basis,
    whose row j*d + k holds h_j(y_{k+1}), in a table of product rows.

    The prefixes of length 1 are plain basis rows, copied to the first rows
    of the table.  A longer prefix, up to length d - 2, reads its parent's
    row if its last index is 1, and otherwise one new row: its parent's row
    times one basis row.  Every h_0 row holds 1.0, and x * 1.0 == x for
    every double, so a shared row has the bits of the chained product.
    Returns the basis rows of the first rows; the basis and parent rows of
    the new rows of lengths 2..d-2, one pair per length, in table order;
    and the basis and parent rows of the G prefixes of length d - 1, in
    order (for d = 1, the empty prefix: h_0(y_1)).
    """
    G, d = heads.shape[0], heads.shape[1] + 1
    # new[g, k]: the sorted prefix g starts a prefix (j_1..j_k) of length k
    new = np.zeros((G, d), dtype=bool)
    new[0] = True
    new[1:, 1:] = np.logical_or.accumulate(heads[1:] != heads[:-1], axis=1)
    prefix = np.cumsum(new, axis=0) - 1  # prefix[g, k]: id of its prefix of length k
    first, row, inner = np.zeros(0, dtype=np.int64), np.zeros(1, dtype=np.int64), []
    for k in range(d - 1):
        at = np.flatnonzero(new[:, k + 1])
        j, parent = heads[at, k] - 1, row[prefix[at, k]]
        basis = j * d + k
        if k == d - 2:
            return first, inner, basis, parent
        if k == 0:
            first, row, top = basis, np.arange(len(basis)), len(basis)
        else:
            fresh = np.flatnonzero(j)
            row = parent.copy()
            row[fresh] = top + np.arange(len(fresh))
            top += len(fresh)
            inner.append((basis[fresh], parent[fresh]))
    return first, inner, row, row


def _contract(S: np.ndarray, c: np.ndarray, h: np.ndarray, out: np.ndarray,
              scratch: np.ndarray) -> None:
    """sum_g c[g, p] (S @ h)[g, p] at one chunk of points, into `out`, for
    the chunk's products c (G, k), a row per row of S, and h[j, p] =
    h_j(y_{p,d}), j < S.shape[1]; S @ h goes to `scratch`.  The chunk rule,
    `_chunk(len(S))` points, fixes the bits: BLAS may sum S @ h over another
    blocking for another number of columns (on OpenBLAS 0.3.31, blocks of
    500 points differed from one product over 2000 points, where blocks of
    2-114 and of 1000 points matched); the tests' oracle chunks alike."""
    T = scratch[:c.size].reshape(c.shape)
    # BLAS reads h column-major, the layout whose sums these bits are
    np.matmul(S, np.asfortranarray(h), out=T)
    np.einsum("gp,gp->p", c, T, out=out)


def evaluate_batch(interp: Interpolant, points, allow_extrapolation: bool = False) -> np.ndarray:
    """Surplus-form evaluation at an array of points with shape (P, d).

    The sum over grid indices j of s_j h_{j_1}(y_1) ... h_{j_d}(y_d) is
    contracted one dimension at a time over the trie of the lex-sorted
    prefixes (j_1..j_{d-1}): each distinct prefix (j_1..j_k) carries the
    product of its k basis values, its parent prefix's product times one row
    of the point-major Newton basis, and the last dimension is one matrix
    product with the surpluses laid out by (prefix of length d-1, j_d).
    Below length d - 1 a prefix whose last index is 1 shares its parent's
    product (`_trie_plan`): the factors skipped are h_0 = 1.0, so the bits
    are those of the chained product.

    The trie, its plan and the buffers of one chunk of `_chunk(G)` points
    are made once per call.  A chunk's coordinates are copied to a
    contiguous (d, k) buffer, over which the basis broadcasts ~4x faster
    than over the strided Y.T, and its products fill a (G, k) slab.
    """
    Y = np.atleast_2d(np.asarray(points, dtype=float))
    if Y.shape[1] != interp.dim:
        raise ValueError(f"points must have dimension {interp.dim}")
    _check_domain(Y, allow_extrapolation)
    if len(interp.grid) == 0 or len(Y) == 0:
        return np.zeros(len(Y))
    heads, order, S = _trie(interp.grid, interp.surpluses)
    rule, m = interp.tensor_set.rule, int(interp.grid.idx.max())
    first, inner, last, parents = _trie_plan(heads[order])
    (count, d), G = Y.shape, len(S)
    n, rows = min(_chunk(G), count), len(first) + sum(len(ids) for ids, _ in inner)
    # the basis apart from the table of products, so that no take writes
    # into the array it reads, which numpy would buffer
    coords, basis, table = np.empty(d * n), np.empty(m * d * n), np.empty(rows * n)
    slab, scratch = np.empty(G * n), np.empty(G * n)  # no shorter length has more new rows than G
    out = np.empty(count)
    for start in range(0, count, n):
        part = slice(start, min(start + n, count))
        k = part.stop - start
        y = coords[:d * k].reshape(d, k)
        y[...] = Y[part].T
        # nested nodes: one table's basis serves every dimension
        H = _newton_basis(rule, m, y, basis[:m * d * k].reshape(m, d, k))  # [j, k, p]
        flat, T = H.reshape(m * d, k), table[:rows * k].reshape(rows, k)
        # mode="clip": the default mode buffers `out`
        np.take(flat, first, axis=0, out=T[:len(first)], mode="clip")
        at = len(first)
        for ids, parent in inner:
            c = np.take(flat, ids, axis=0, out=T[at:at + len(ids)], mode="clip")
            c *= np.take(T, parent, axis=0, out=scratch[:c.size].reshape(c.shape), mode="clip")
            at += len(ids)
        c = np.take(flat, last, axis=0, out=slab[:G * k].reshape(G, k), mode="clip")
        if d > 2:  # below, every parent is the empty prefix, 1.0
            c *= np.take(T, parents, axis=0, out=scratch[:c.size].reshape(c.shape), mode="clip")
        _contract(S, c, H[:S.shape[1], -1], out[part], scratch)
    return out


class _FixedPoints:
    """Evaluation at fixed points of the interpolants of one growing grid,
    bit for bit `evaluate_batch`, from state kept between calls.

    Chunk c of `_chunk(G)` points keeps the products of the G prefixes in
    lex order in a contiguous (G, k) slab at the start of row c of `slabs`;
    `order` keeps that order as fibre ids.  Fibre ids only grow with the
    grid, so the fibres past those in `order` bring the new prefixes, each
    bisected into it by the prefixes read off the grid; their products are
    multiplied out from the kept basis left to right from 1.0 (x * 1.0 ==
    x: the bits of the shared rows), and each slab's tail moves down for
    them in 1-D copies, which numpy makes in place.  Holds the m x d x P
    basis, room x P doubles of products and `scratch`, room x chunk, with
    room for a quarter more prefixes than they were made for: only a call
    whose prefixes outgrow it allocates them again.
    """

    def __init__(self, points: np.ndarray):
        self.points, self.basis = points, np.zeros((0,) + points.T.shape)
        self.order = np.zeros(0, dtype=np.int64)    # fibre ids, by their prefixes in lex order
        self.n = self.room = 0                      # points per chunk, prefixes per slab
        self.slabs, self.scratch = np.zeros((0, 0)), np.zeros(0)

    def __call__(self, interp: Interpolant) -> np.ndarray:
        count, d = self.points.shape
        grid, fibres = interp.grid, interp.grid._fibres[-1]
        used, G, m = len(self.order), len(fibres.members), int(grid.idx.max())
        if m > len(self.basis):  # from contiguous coordinates, as `evaluate_batch` builds it
            self.basis = _newton_basis(interp.tensor_set.rule, m, np.ascontiguousarray(self.points.T))
        at, rows, flat = [], np.ones((G - used, count)), self.basis.reshape(-1, count)
        if G > used:
            heads = grid.idx[fibres.members[:, 0], :-1]  # the prefix of each fibre
            for i, (key, fibre) in enumerate(sorted(zip(heads[used:].tolist(), range(used, G)))):
                at.append(bisect.bisect(self.order, key, key=lambda f: heads[f].tolist()))
                self.order = np.insert(self.order, at[i], fibre)
                for k, j in enumerate(key):
                    rows[i] *= flat[(j - 1) * d + k]
        S = np.append(interp.surpluses, 0.0)[fibres.members[self.order]]
        n, old, old_n = min(_chunk(G), count), self.slabs, self.n
        if G > self.room:  # n is the largest chunk until the room is full again
            self.room = G + G // 4
            self.slabs = np.empty((-(-count // min(_chunk(self.room), count)), self.room * n))
            self.scratch = np.empty(self.room * n)
        # a row of room x (the n it was made for) per chunk the room allows:
        # as n shrinks, chunks move to later rows, so laid out again from
        # the last, each row is read before it is written
        relaid = used > 0 and (n != old_n or old is not self.slabs)
        for c in reversed(range(-(-count // n) if relaid else 0)):
            start, k = c * n, min(n, count - c * n)
            kept = self.scratch[:used * k].reshape(used, k)
            for o in range(start // old_n, (start + k - 1) // old_n + 1):
                lo, hi = max(start, o * old_n), min(start + k, (o + 1) * old_n)
                width = min(old_n, count - o * old_n)
                slab = old[o, :used * width].reshape(used, width)
                kept[:, lo - start:hi - start] = slab[:, lo - o * old_n:hi - o * old_n]
            self.slabs[c, :used * k] = kept.ravel()
        self.n = n
        out = np.empty(count)
        for c, start in enumerate(range(0, count, n)):
            part = slice(start, min(start + n, count))
            k, end = part.stop - start, used
            slab = self.slabs[c, :G * k]
            for i in reversed(range(len(at))):  # old rows [a, end) move down past i + 1 new ones
                a = at[i] - i
                slab[(at[i] + 1) * k:(end + i + 1) * k] = slab[a * k:end * k]
                slab[at[i] * k:(at[i] + 1) * k], end = rows[i, part], a
            _contract(S, slab.reshape(G, k), self.basis[:S.shape[1], -1, part], out[part],
                      self.scratch)
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
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _write_csv(path, header, rows) -> None:
    """Write the header and each row as one comma-separated line, atomically.
    A float (numpy's float64 included) takes 17 significant digits, so that
    reruns are byte-identical and a read gives back its bits; None is an
    empty field, and anything else is written with `str`."""
    def field(v):
        return f"{v:.17g}" if isinstance(v, float) else "" if v is None else str(v)

    lines = [",".join(header)] + [",".join(map(field, row)) for row in rows]
    _write_text_atomic("\n".join(lines) + "\n", path)


def save_interpolant(interp: Interpolant, path) -> None:
    obj = {
        "format": _FORMAT,
        "version": _VERSION,
        "rule": interp.tensor_set.rule,
        "dim": interp.dim,
        "theta": [list(i) for i in interp.tensor_set.theta.members],
        "grid_indices": interp.grid.idx.tolist(),
        "points": interp.grid.points.tolist(),
        "samples": interp.samples.tolist(),
        "surpluses": interp.surpluses.tolist(),
    }
    _write_text_atomic(json.dumps(obj), path)


def _read_text(path) -> str:
    """The text of the file at `path`, its line ends as written, refused
    with the file's name unless its bytes are UTF-8."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: not UTF-8 ({err})") from None


def _load_format(text: str, path, fmt: str, version: int, keys: tuple[str, ...]) -> dict:
    """The JSON object `text`, read from the file at `path`, refused unless
    it is an object of format `fmt` at `version` that holds every key of
    `keys`.  Text that is not JSON, a value that is not an object and a
    missing key are named with the file; the format is checked before the
    keys past it, so a file of another format is refused as such."""
    try:
        obj = json.loads(text)
    except ValueError as err:
        raise ValueError(f"{path}: not JSON ({err})") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: not a JSON object")
    for key in ("format", "version") + keys:
        if key not in obj:
            raise ValueError(f"{path}: no key {key!r}")
        if key == "version" and (obj["format"] != fmt or obj["version"] != version):
            raise ValueError(f"not a version-{version} {fmt} file")
    return obj


def _reader(obj: dict, path):
    """read(key, make): make(obj[key]) for the object `obj` read from the
    file at `path`, where a TypeError, ValueError or OverflowError refuses
    the field as malformed, named with the file."""
    def read(key: str, make):
        try:
            return make(obj[key])
        except (TypeError, ValueError, OverflowError) as err:
            raise ValueError(f"{path}: malformed {key!r}: {err}") from None
    return read


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


def load_interpolant(path) -> Interpolant:
    """The interpolant a file `save_interpolant` wrote holds; a field that
    is malformed, or that does not match the fields before it, is refused
    with the file."""
    obj = _load_format(_read_text(path), path, _FORMAT, _VERSION,
                       ("rule", "dim", "theta", "grid_indices", "points", "samples", "surpluses"))
    read = _reader(obj, path)
    read("rule", lambda v: rules1d.growth(v, 0))  # validates the kind
    rule = obj["rule"]
    dim = read("dim", lambda v: IndexSet(operator.index(v), ()).dim)
    ts = read("theta", lambda v: TensorSet(IndexSet(dim, v), rule))
    grid = grid_nodes(ts)
    read("grid_indices", lambda v: _check(
        v == grid.idx.tolist(), "grid indices in file do not match the tensor set"))
    # the grid is regenerated from the rule; a model saved on another node
    # table (e.g. an older greedy rule) would evaluate wrongly, so refuse it
    read("points", lambda v: _check(np.array(v, dtype=float).tobytes() == grid.points.tobytes(),
                                    f"points in file do not match the node table of rule {rule!r}"))

    def values(v):
        out = np.array(v, dtype=float)
        _check(out.shape == (len(grid),), f"{len(out)} values for {len(grid)} grid nodes")
        return out

    return Interpolant(ts, grid, read("samples", values), read("surpluses", values))
