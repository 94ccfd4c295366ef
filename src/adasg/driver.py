"""The adaptive refinement loop: build interpolant, extract coefficients, fit
decay parameters, grow the tensor set, repeat.

Between iterations the run carries what a checkpoint holds: the tensor set,
the sample cache, the fit and the history.  Within one `run()` call it also
keeps its grid (`_RunGrid`, never serialized): the grid indices, points and
samples, the surplus solve's per-pass values, the margin of the tensor set
and the probe.  A call builds that grid once, for the tensor set it is
given, and from then on adds only the blocks of the tensor levels each grow
step admits: it samples the target at their nodes (the coordinate cache
guarantees nested rules never re-evaluate) and solves their surpluses
against the kept passes.  Old surpluses do not change when a lower set
grows, and the new rows go through the operations of a solve of the whole
grid, so a resumed run, which builds its grid from scratch, has the bits an
uninterrupted one has.  The tensor set grows on tensor levels: the grow
step admits the levels of the margin and the successors they bring in, in
order of the curved weight at which each level enters, until the batch rule
or the sample budget stops it.  It keeps the margin as an (M, d) array and
returns it grown by the levels it admits; a build computes the margin from
scratch only on the first build of a call and after the budget cut the
last round of a batch.

The checkpoint is saved once per iteration and costs the new work only.
The file is a snapshot of the whole state on its first line, followed by
one record per later save: the iteration, the fit, and the tensor levels,
cache entries and history row of the one build since.  `run()` writes a
snapshot on its first save, before an abort and on its way out, so the
file it leaves is one JSON object; every other save appends a record.  As
the first save of each run is whole, a resumed run never appends after a
record a crash cut short.  The Monte Carlo probe keeps its points' target
values, Newton basis and prefix products (`_FixedPoints`), so each
iteration multiplies out only the prefixes its new rows bring, read off the
fibre table the kept grid carries.  A clock (`_Clock`) times the phases of
each iteration into its record's `timings`.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field, fields
from itertools import islice
from time import perf_counter

import numpy as np

from . import rules1d
from .fitting import DEFAULT_MIN_MAGNITUDE, FitParams, UnfittableError, _fit_rows, isotropic_params
from .multiindex import (
    CurvedWeights,
    IndexSet,
    MultiIndex,
    _entering,
    _tail_mins,
    lambda_classic,
    lambda_curved,
    margin,
)
from .spectral import grid_coeffs
from .sparse_grid import (
    GridNodes,
    Interpolant,
    TensorSet,
    _extend_grid,
    _FixedPoints,
    _graded_lex,
    _growth_table,
    _load_format,
    _read_text,
    _solve_rows,
    _with_room,
    _write_csv,
    _write_text_atomic,
    build_interpolant,  # noqa: F401 - perfbench's tracer tests patch it under this name
    grid_size,
    theta_opt,
)
from .targets import EvaluationError, TargetSpec

FIT_SOURCES = ("legendre", "surplus")


class BudgetExhausted(RuntimeError):
    """No admissible growth step fits in the remaining sample budget."""

    # why the run stopped, for its last record (`Record.stop`)
    stop = "budget"


@dataclass(frozen=True)
class RunConfig:
    """Configuration of an adaptive run."""

    rule: str
    d: int
    fit_source: str = "legendre"
    fit_beta: bool = True          # False: dynamic total-degree (beta masked)
    fit_enabled: bool = True       # False: parameters stay isotropic (no fitting)
    batch: int | str = "minimal"   # "minimal" or a target count of new nodes
    max_iterations: int = 10
    max_samples: int = 10_000
    probe_count: int | None = None
    probe_seed: int = 20240101
    initial_kind: str = "total_degree"   # or curved/tensor/hyperbolic/smolyak
    initial_level: float = 2.0
    initial_alpha: tuple[float, ...] | None = None
    initial_beta: tuple[float, ...] | None = None
    min_magnitude: float = DEFAULT_MIN_MAGNITUDE

    def __post_init__(self):
        # the integer fields are kept as Python ints (numpy's are converted),
        # which a checkpoint saves as they are
        for name in ("d", "batch", "max_iterations", "max_samples", "probe_count", "probe_seed"):
            value = getattr(self, name)
            if (name, value) in (("batch", "minimal"), ("probe_count", None)):
                continue
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        rules1d.growth(self.rule, 0)
        if self.fit_source not in FIT_SOURCES:
            raise ValueError(f"fit_source must be one of {FIT_SOURCES}")
        if self.fit_source == "surplus" and not rules1d.unit_growth(self.rule):
            raise ValueError("surplus fitting requires a unit-growth rule")
        if self.batch != "minimal" and self.batch < 1:
            raise ValueError("batch must be 'minimal' or a positive integer")
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        if self.max_iterations < 0:  # 0 builds the initial grid only
            raise ValueError("max_iterations must be a non-negative integer")
        if self.max_samples < 1:
            raise ValueError("max_samples must be a positive integer")
        if self.probe_count is not None and self.probe_count < 1:
            raise ValueError("probe_count must be None (no probe) or a positive integer")
        if self.probe_count is not None and self.probe_seed < 0:
            raise ValueError("probe_seed must be a non-negative integer")
        # a floor at or above the largest coefficient would leave no fit
        if not -np.inf < self.min_magnitude < 1:
            raise ValueError("min_magnitude must be finite and below 1")


@dataclass
class Record:
    """One convergence-history row."""

    iteration: int
    node_count: int
    new_node_count: int
    alpha: tuple[float, ...]
    beta: tuple[float, ...]
    c_const: float
    residual: float
    n_used: int
    corrected: tuple[int, ...]
    excluded: tuple[int, ...]
    probe_error: float | None
    # never saved: the seconds of each phase
    timings: dict[str, float] = field(default_factory=dict, metadata={"saved": False})
    # never saved: on the last record of a run, why it stopped
    stop: str | None = field(default=None, metadata={"saved": False})


class _Clock:
    """Consecutive `perf_counter` stamps: a lap ends one phase, starts the
    next and adds its seconds to `laps`, so the phases sum to their span."""

    def __init__(self):
        self.last, self.laps = perf_counter(), {}

    def lap(self, phase: str) -> None:
        now = perf_counter()
        self.laps[phase] = self.laps.get(phase, 0.0) + now - self.last
        self.last = now


class _RunGrid:
    """What one `run()` call keeps between its iterations; never serialized.

    It starts empty; the first build of the call extends it by every level
    of the tensor set, and each later build by the levels the grow step
    before it admitted.  Its rows keep the order they came in: each build
    appends its own in graded-lex order (`_extend_grid`).  `passes` holds
    the surplus solve's values per pass (`_solve_rows`), a column per row:
    row 0 the samples, row d the surpluses; the columns past the grid's
    rows are room for later builds.  `margin`
    holds the (M, d) int64 rows of the margin of the tensor set, which the
    grow step returns; it is None until a build computes it from scratch.
    `probe` is set by the first probe of the call: the probe points with
    the basis and prefix products kept there (G x P doubles for the G
    distinct prefixes of length d - 1 and P points, plus the m x d x P basis
    up to the largest grid index m), and the target's values there.
    """

    def __init__(self, d: int):
        self.grid = GridNodes.empty(d)
        self.passes = np.zeros((d + 1, 0))
        self.margin: np.ndarray | None = None
        self.probe: tuple[_FixedPoints, np.ndarray] | None = None


@dataclass
class RunState:
    """Mutable state of an adaptive run between iterations: what a
    checkpoint holds, and the interpolant of the last build."""

    config: RunConfig
    theta: TensorSet
    iteration: int = 0
    cache: dict[tuple[float, ...], float] = field(default_factory=dict)
    fit: FitParams | None = None
    interpolant: Interpolant | None = None
    history: list[Record] = field(default_factory=list)


def initial_tensor_set(config: RunConfig) -> TensorSet:
    alpha = config.initial_alpha or (1.0,) * config.d
    if len(alpha) != config.d:
        raise ValueError("initial_alpha must have length d")
    if config.initial_kind == "curved":
        beta = config.initial_beta or (0.0,) * config.d
        if len(beta) != config.d:
            raise ValueError("initial_beta must have length d")
        lam = lambda_curved(CurvedWeights(alpha, beta), config.initial_level)
    else:
        lam = lambda_classic(config.initial_kind, alpha, config.initial_level)
    if len(lam) == 0:
        raise ValueError("initial level selects an empty polynomial space")
    ts = theta_opt(lam, config.rule)
    nodes = grid_size(ts)
    if nodes > config.max_samples:
        raise ValueError(f"the initial grid has {nodes} nodes, "
                         f"more than max_samples = {config.max_samples}")
    return ts


def _grow(
    fit: FitParams,
    ts: TensorSet,
    front: np.ndarray,
    nodes: int,
    batch: int | str,
    sample_budget: int | None,
) -> tuple[float, list[MultiIndex], np.ndarray | None]:
    """The grow step on `ts`, whose margin has the (M, d) rows `front` and
    grid has `nodes` nodes: the smallest level L whose curved tensor set
    theta_opt(lambda_curved(w, L)) grows `ts` (or adds >= batch nodes), the
    tensor levels admitted, and the margin of `ts` grown by them (None when
    the budget cut the last round).

    Tensor level i enters at W(i) = sum_k min_{t >= m(i_k - 1)}
    (alpha_k t + beta_k log(t + 1)), the least curved weight of a degree its
    interpolant adds.  W is non-decreasing in i, so that tensor set is
    {i : W(i) <= L} and grows through the margin, as the active set of
    Gerstner & Griebel (Computing 2003): each round takes the smallest
    weight L, admits every level with W <= L, and brings in each successor
    whose predecessors are all in.  Levels are admitted in (W, level)
    order: the front, weighed by d gathers of the tail minima summed left to
    right, is sorted once and merged with a heap of the successors.  The
    node count runs along; the budget and the batch rule are checked after
    each round.
    """
    rule, d = ts.rule, ts.dim
    m: list[int] = []  # m[l + 1] = m(l), up to one level past every tail
    tails: list[list[float]] = [[] for _ in range(d)]  # tails[k][l]: W's term at level l

    def extend(tops: list[int]) -> None:
        nonlocal m
        top = max(len(m) - 3, *tops)
        m = _growth_table(rule, top + 1)[:top + 3].tolist()
        for a, b, tail, t in zip(fit.alpha, fit.beta, tails, tops):
            tail += _tail_mins(a, b, m[len(tail):t + 1])

    def weight(i: MultiIndex) -> float:
        w = 0.0  # summed left to right, as lambda_curved sums membership
        for tail, ik in zip(tails, i):
            w += tail[ik]
        return w

    extend([t + 1 for t in front.max(axis=0).tolist()])  # one past the front
    w = np.zeros(len(front))
    for k, tail in enumerate(tails):
        w += np.array(tail)[front[:, k]]
    order = np.argsort(w, kind="stable")
    w = w[order]
    tied = w[1:] == w[:-1]
    if tied.any():  # each run of equal weights in level order, as tuples compare
        at = np.flatnonzero(np.append(tied, False) | np.insert(tied, 0, False))
        order[at] = order[at][np.lexsort(tuple(front[order[at]].T[::-1]) + (w[at],))]
    front = front[order]
    end = (math.inf, ())  # after every level

    def entry(r: int) -> tuple[float, MultiIndex]:
        return (float(w[r]), tuple(front[r].tolist())) if r < len(front) else end

    members = ts.theta._member_set
    admitted: set[MultiIndex] = set()

    def inside(p: MultiIndex) -> bool:
        return p in members or p in admitted

    heap = [end]  # the successors not admitted, above `end`, which is never popped
    r, head = 0, entry(0)  # front[:r] is admitted; head is row r's entry
    base = nodes
    added: list[MultiIndex] = []
    best: float | None = None
    kept = 0  # levels added up to the last round within the budget
    while True:
        L = min(head, heap[0])[0]
        while (nxt := min(head, heap[0]))[0] <= L:
            if nxt is head:
                r += 1
                head = entry(r)
            else:
                heapq.heappop(heap)
            i = nxt[1]
            admitted.add(i)
            added.append(i)
            size = 1
            for ik in i:
                size *= m[ik + 1] - m[ik]
            nodes += size
            for succ in _entering(i, inside):
                try:
                    heapq.heappush(heap, (weight(succ), succ))
                except IndexError:  # a tail ends below it
                    extend([2 * ik for ik in succ])
                    heapq.heappush(heap, (weight(succ), succ))
        if sample_budget is not None and nodes > sample_budget:
            if best is None:
                err = BudgetExhausted(
                    f"smallest growth step needs {nodes} samples, budget is {sample_budget}")
                err.stop = (f"budget: the smallest step needs {nodes - base} samples, "
                            f"{sample_budget - base} are left")
                raise err
            return best, added[:kept], None
        best, kept = L, len(added)
        if batch == "minimal" or nodes - base >= int(batch):
            rest = np.array([i for _, i in heap if i], dtype=np.int64).reshape(-1, d)
            return best, added, np.concatenate((front[r:], rest))


def _collect_samples(state: RunState, target: TargetSpec | None, idx: np.ndarray,
                     points: np.ndarray) -> np.ndarray:
    """The samples at the nodes `points` of the grid indices `idx`, in row
    order: the target is evaluated at the nodes not in the cache, and the
    cache extended.  Without a target every node must be cached."""
    keys = list(map(tuple, points.tolist()))
    missing_rows = [r for r, key in enumerate(keys) if key not in state.cache]
    if missing_rows and target is None:
        raise ValueError(f"the cache lacks samples at {len(missing_rows)} grid nodes")
    if missing_rows:
        pts = points[missing_rows]
        try:
            vals = target.evaluate(pts)
        except EvaluationError as err:
            rows = [missing_rows[i] for i in err.failed_ids] or missing_rows
            first = tuple(idx[rows[0]].tolist())
            raise EvaluationError(
                f"target evaluation failed at {len(rows)} nodes "
                f"(first: {first}): {err}; the run checkpoint is resumable",
                err.failed_ids,
            ) from err
        for r, v in zip(missing_rows, vals):
            state.cache[keys[r]] = float(v)
    return np.array([state.cache[key] for key in keys])


def _build_grid(state: RunState, kept: _RunGrid, levels, target: TargetSpec | None,
                clock: _Clock | None = None) -> None:
    """Extend the run grid by the blocks of the tensor levels `levels`, which
    bring it to `state.theta`, and set `state.interpolant`, a read-only
    view of the run grid in its row order: the new nodes are sampled, in
    graded-lex order, and their surpluses solved against the kept passes.
    The margin of `state.theta` is computed from scratch when the grid keeps
    none: on the first build of a call, and after the budget cut the last
    round of a batch."""
    clock = clock or _Clock()
    ts = state.theta
    start = len(kept.grid)
    grid, new = _extend_grid(kept.grid, ts.rule, levels)
    clock.lap("extend")
    samples = _collect_samples(state, target, grid.idx[start:], grid.points[start:])
    clock.lap("sample")
    kept.passes = _with_room(kept.passes, (ts.dim + 1, len(grid)))
    passes = kept.passes[:, :len(grid)]
    passes[0, start:] = samples
    _solve_rows(ts.rule, grid, passes, new)
    kept.grid = grid
    if kept.margin is None:
        kept.margin = np.array(margin(ts.theta), dtype=np.int64)
    state.interpolant = Interpolant(ts, grid, passes[0], passes[-1])
    for array in (grid.idx, grid.points, state.interpolant.samples, state.interpolant.surpluses):
        array.flags.writeable = False  # views of the run grid's buffers
    clock.lap("extend")


def _fit_from(interp: Interpolant, config: RunConfig, clock: _Clock) -> FitParams:
    """Fit the decay to the surpluses or the Legendre coefficients, each keyed
    by degree: grid index j carries the degree j - 1 (for surpluses only on
    the unit-growth rules `RunConfig` admits).  The fit's rows are put in
    graded-lex order: the bits of its least squares depend on the order."""
    values = interp.surpluses if config.fit_source == "surplus" else grid_coeffs(interp)
    clock.lap("coefficients")
    order = _graded_lex(interp.grid.idx)
    return _fit_rows(interp.grid.idx[order] - 1, values[order], config.min_magnitude,
                     config.fit_beta)


def _probe_error(state: RunState, kept: _RunGrid, target: TargetSpec) -> float:
    """Max abs deviation of the current interpolant from the target on
    `probe_count` uniform random points of the hypercube, drawn from
    `probe_seed`; the target's values there are taken once per `run()`
    call and kept on the run grid, with the Newton basis and prefix
    products at the points, so each iteration computes the products of its
    new prefixes only."""
    if kept.probe is None:
        config = state.config
        pts = np.random.default_rng(config.probe_seed).uniform(
            -1.0, 1.0, size=(config.probe_count, config.d))
        kept.probe = (_FixedPoints(pts), target.evaluate(pts))
    points, values = kept.probe
    return float(np.abs(points(state.interpolant) - values).max())


def _built(state: RunState) -> bool:
    """True when the current tensor set has already been built and recorded."""
    return bool(state.history) and state.history[-1].iteration == state.iteration


def _build_phase(state: RunState, kept: _RunGrid, levels, target: TargetSpec,
                 clock: _Clock | None = None) -> None:
    """Add the blocks of `levels` to the grid, sampling their nodes, fit,
    probe, record, lapping `clock` for the record's timings."""
    config, clock = state.config, clock or _Clock()
    prev_nodes = state.history[-1].node_count if state.history else 0
    _build_grid(state, kept, levels, target, clock)
    if state.fit is None:
        state.fit = isotropic_params(config.d)  # kept if the fit fails or is off
    if config.fit_enabled:
        try:
            state.fit = _fit_from(state.interpolant, config, clock)
        except UnfittableError:
            pass
    clock.lap("fit")
    probe = _probe_error(state, kept, target) if config.probe_count else None
    clock.lap("probe")
    state.history.append(Record(
        iteration=state.iteration,
        node_count=state.interpolant.node_count,
        new_node_count=state.interpolant.node_count - prev_nodes,
        alpha=state.fit.alpha,
        beta=state.fit.beta,
        c_const=state.fit.c_const,
        residual=state.fit.residual,
        n_used=state.fit.n_used,
        corrected=tuple(sorted(state.fit.corrected_dims)),
        excluded=tuple(sorted(state.fit.excluded_dims)),
        probe_error=probe,
        timings=clock.laps,
    ))


def _grow_phase(state: RunState, kept: _RunGrid) -> list[MultiIndex]:
    """Grow the tensor set to the next level of the fitted curved weights,
    from the margin and node count of the run grid, which covers it; the
    levels admitted, which the next build adds."""
    config, ts = state.config, state.theta
    _, added, kept.margin = _grow(state.fit, ts, kept.margin, len(kept.grid), config.batch,
                                  config.max_samples)
    state.theta = TensorSet(ts.theta._grown(added), ts.rule)
    state.iteration += 1
    return added


def run(
    config: RunConfig,
    target: TargetSpec,
    checkpoint_path=None,
    state: RunState | None = None,
) -> tuple[Interpolant, list[Record]]:
    """Iterate until the iteration or sample budget is exhausted.

    A fresh run starts from the configured initial set; passing `state`
    resumes it under `config`, which must have the state's rule and
    dimension.  The call keeps its grid and probe (`_RunGrid`) while it
    runs: it builds the grid of the state's tensor set once, a built
    state's from the cache alone, and then extends it by the levels each
    grow step admits.  When a checkpoint path is given the state is saved
    once per iteration, after each build, and before an abort on an
    `EvaluationError`, so failed runs are resumable.  The first save writes
    the whole state (`save_state`); each later save appends a record of the
    one build since (`_record`): the levels its grow step admitted, the
    cache entries it added and its history row.  The abort's save and the
    run's last, on its way out, write the whole state again, so the file a
    run leaves is one JSON object.  The grow step is not saved: it depends
    only on the tensor set, the fit and the config the saved state holds,
    so a resumed run recomputes it bit for bit.

    The interpolant returned, and left in `state.interpolant` on a return or
    a raise, is the last build's in graded-lex order, in arrays of its own.
    """
    if target.dim != config.d:
        raise ValueError("target dimension does not match config")
    if state is None:
        state = RunState(config, initial_tensor_set(config))
    elif (state.config.rule, state.config.d) != (config.rule, config.d):
        raise ValueError(f"the state was made with rule={state.config.rule}, d={state.config.d}; "
                         f"the config has rule={config.rule}, d={config.d}")
    state.config = config
    kept, last = _RunGrid(config.d), state.interpolant
    try:
        _iterate(state, kept, target, checkpoint_path)
    finally:
        if state.interpolant is not last:  # the last build's, a view of the run grid
            state.interpolant = _in_graded_lex(state.interpolant)
    return state.interpolant, state.history


def _iterate(state: RunState, kept: _RunGrid, target: TargetSpec, checkpoint_path) -> None:
    """The loop of `run()` on the run grid `kept`, which starts empty; the
    last record says why the loop stopped."""
    config = state.config
    levels = state.theta.theta.members  # the first build adds every level
    if _built(state):
        _build_grid(state, kept, levels, None)  # from the cache, as the last build was
    saved = None  # the cache's length at the last save; None before the first
    clock = _Clock()
    while True:
        if not _built(state):
            clock.laps = {}  # the laps of this iteration, through its grow step
            try:
                _build_phase(state, kept, levels, target, clock)
            except EvaluationError:
                if checkpoint_path is not None:
                    save_state(state, checkpoint_path)
                raise
            # the last build is saved on the way out
            if checkpoint_path is not None and state.iteration < config.max_iterations:
                if saved is None:
                    save_state(state, checkpoint_path)
                else:
                    cache = state.cache
                    entries = list(islice(reversed(cache.items()), len(cache) - saved))[::-1]
                    record = _record(state, levels, entries, state.history[-1:])
                    _append_text("\n" + json.dumps(record), checkpoint_path)
                saved = len(state.cache)
            clock.lap("checkpoint")
        if state.iteration >= config.max_iterations:
            state.history[-1].stop = "iterations"
            break
        try:
            levels = _grow_phase(state, kept)
        except BudgetExhausted as err:
            state.history[-1].stop = err.stop
            break
        finally:
            clock.lap("grow")
    if checkpoint_path is not None:
        save_state(state, checkpoint_path)
    clock.lap("checkpoint")


def _in_graded_lex(interp: Interpolant) -> Interpolant:
    """`interp` in new arrays and fibre tables, its rows in graded-lex order."""
    order = _graded_lex(interp.grid.idx)
    grid = GridNodes(interp.grid.idx[order], interp.grid.points[order])
    return Interpolant(interp.tensor_set, grid, interp.samples[order], interp.surpluses[order])


# ---------------------------------------------------------------------------
# persistence

_STATE_FORMAT = "adasg-checkpoint"
_STATE_VERSION = 1
_RECORD_KEYS = ("iteration", "theta", "cache", "fit", "history")


def _to_dict(obj) -> dict:
    """A dataclass's fields in declaration order, as JSON-ready values,
    but for those marked unsaved in their metadata.

    Tuples serialize as JSON arrays; frozensets are written as sorted lists.
    """
    out = {}
    for f in fields(obj):
        if f.metadata.get("saved", True):
            value = getattr(obj, f.name)
            out[f.name] = sorted(value) if isinstance(value, frozenset) else value
    return out


def _from_dict(cls, obj: dict):
    """Inverse of `_to_dict`: JSON arrays become frozensets for fields whose
    default is a frozenset and tuples otherwise; absent fields keep their
    default.  A value that is not an object, or an unknown or missing field,
    is a TypeError."""
    if not isinstance(obj, dict):
        raise TypeError(f"expected an object, got {obj!r}")
    default = {f.name: f.default for f in fields(cls)}
    kwargs = {}
    for name, value in obj.items():
        if isinstance(value, list):
            value = frozenset(value) if isinstance(default.get(name), frozenset) else tuple(value)
        kwargs[name] = value
    return cls(**kwargs)


def _record(state: RunState, levels, entries, rows) -> dict:
    """The iteration and fit of `state` with the given tensor levels, cache
    entries and history rows (without their timings), as JSON-ready values."""
    return {
        "iteration": state.iteration,
        "theta": [list(i) for i in levels],
        "cache": [[list(k), v] for k, v in entries],
        "fit": None if state.fit is None else _to_dict(state.fit),
        "history": [_to_dict(r) for r in rows],
    }


def save_state(state: RunState, path) -> None:
    """Write the whole state as one JSON object on one line, the cache sorted
    by key and the history without timings, atomically."""
    head = {"format": _STATE_FORMAT, "version": _STATE_VERSION, "config": _to_dict(state.config)}
    body = _record(state, state.theta.theta.members, sorted(state.cache.items()), state.history)
    _write_text_atomic(json.dumps(head | body), path)


def _append_text(text: str, path) -> None:
    """Append `text` to the file at `path`; it is flushed when this returns."""
    with open(path, "a", newline="") as fh:
        fh.write(text)


def load_state(path) -> RunState:
    """The state a checkpoint holds: its first line, the whole state as
    `save_state` wrote it, updated by each record after it in order.  A last
    line that is not JSON is an append cut short and is dropped.  A field
    that does not make its part of the state is refused with the file."""
    head, *lines = _read_text(path).split("\n")
    obj = _load_format(head, path, _STATE_FORMAT, _STATE_VERSION, ("config",) + _RECORD_KEYS)
    for key in ("theta", "cache", "history"):
        if not isinstance(obj[key], list):
            raise ValueError(f"{path}: malformed {key!r}: not a list")
    for n, line in enumerate(lines, start=2):
        try:
            record = json.loads(line)
        except ValueError:
            if n == len(lines) + 1:
                break
            record = None
        if not (isinstance(record, dict) and tuple(record) == _RECORD_KEYS
                and all(isinstance(record[key], list) for key in ("theta", "cache", "history"))):
            raise ValueError(f"{path}, line {n}: not a checkpoint record")
        obj["iteration"], obj["fit"] = record["iteration"], record["fit"]
        for key in ("theta", "cache", "history"):
            obj[key] += record[key]

    def read(key, make):
        try:
            return make(obj[key])
        except (TypeError, ValueError, OverflowError) as err:
            raise ValueError(f"{path}: malformed {key!r}: {err}") from None

    config = read("config", lambda v: _from_dict(RunConfig, v))
    theta = read("theta", lambda v: TensorSet(IndexSet(config.d, v), config.rule))
    state = RunState(config, theta, read("iteration", _iteration))
    state.cache = read("cache", lambda v: {tuple(k): float(x) for k, x in v})
    _check_cache_nodes(state)
    state.fit = read("fit", lambda v: None if v is None else _from_dict(FitParams, v))
    state.history = read("history", lambda v: [_history_row(r, config.d, n)
                                                for n, r in enumerate(v)])
    return state


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _iteration(value) -> int:
    if not _is_count(value):
        raise TypeError(f"expected a non-negative integer, got {value!r}")
    return value


def _history_row(value, d: int, n: int) -> Record:
    """History row `n` as `save_state` writes it: non-negative integer
    counts, d numbers in alpha and beta, numbers for the fit's scalars, a
    number or null for the probe error, and dimensions below d."""
    row = _from_dict(Record, value)

    def number(x) -> bool:
        return isinstance(x, (int, float)) and not isinstance(x, bool)

    def rates(v) -> bool:
        return isinstance(v, tuple) and len(v) == d and all(map(number, v))

    def dims(v) -> bool:
        return isinstance(v, tuple) and all(_is_count(k) and k < d for k in v)

    count = _is_count
    for name, ok in (("iteration", count), ("node_count", count), ("new_node_count", count),
                     ("alpha", rates), ("beta", rates), ("c_const", number), ("residual", number),
                     ("n_used", count), ("corrected", dims), ("excluded", dims),
                     ("probe_error", lambda x: x is None or number(x))):
        if not ok(getattr(row, name)):
            raise TypeError(f"row {n}: {name} is {getattr(row, name)!r}")
    return row


def _check_cache_nodes(state: RunState) -> None:
    """Refuse a checkpoint whose cached coordinates are not nodes of the rule.

    The cache is keyed by coordinates, so a checkpoint written with another
    node table (e.g. an older greedy rule) cannot be resumed.
    """
    rule = state.config.rule
    top = max((max(i) for i in state.theta.theta.members), default=0)
    table = set(rules1d.family_nodes(rule, rules1d.growth(rule, top)).tolist())
    if any(y not in table for key in state.cache for y in key):
        raise ValueError(f"checkpoint does not match the node table of rule {rule!r}")


def write_history_csv(history: list[Record], d: int, path) -> None:
    """One row per record; `corrected` and `excluded` list their dimensions
    1-based and `;`-joined, and a missing probe error is an empty field."""
    cols = (["iter"] + [f"alpha_{k + 1}" for k in range(d)] + [f"beta_{k + 1}" for k in range(d)]
            + ["C_hat", "residual", "n_used", "corrected", "excluded", "probe_error", "node_count"])
    _write_csv(path, cols, ([r.iteration, *r.alpha, *r.beta, r.c_const, r.residual, r.n_used,
                             *(";".join(str(k + 1) for k in ks) for ks in (r.corrected, r.excluded)),
                             r.probe_error, r.node_count] for r in history))
