import builtins
import copy
import dataclasses
import itertools
import json
import math
import os
import re
import tempfile
import tracemalloc
from itertools import islice
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from strategies import lower_sets
from adasg import driver as dr
from adasg import rules1d
from adasg import sparse_grid as sg
from adasg import targets as tg
from adasg.fitting import FitParams, UnfittableError, isotropic_params
from adasg.multiindex import (CurvedWeights, IndexSet, graded_lex_key, is_lower,
                              lambda_curved, margin)
from adasg.spectral import grid_coeffs
from test_sparse_grid import assert_fibres_are_the_rows_agreeing_off_k


RAT2 = tg.builtin_target("rational", 2, c0=2.0, c=[1.0, 0.5])


def next_level(fit, ts, batch="minimal", sample_budget=None):
    """The grow step on `ts` from its margin built afresh, and the grown set."""
    front = np.array(margin(ts.theta), dtype=np.int64).reshape(-1, ts.dim)
    L, added, _ = dr._grow(fit, ts, front, sg.grid_size(ts), batch, sample_budget)
    return L, sg.TensorSet(ts.theta._grown(added), ts.rule)


def linf_error(interp, target, count, seed):
    """Max deviation from the target on the probe's draw of `count` points."""
    pts = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(count, interp.dim))
    return float(np.abs(sg.evaluate_batch(interp, pts) - target.evaluate(pts)).max())


def test_next_level_anisotropic_example():
    ts = sg.TensorSet(IndexSet(2, [(0, 0)]), "leja")
    fit = FitParams((1.0, 2.0), (0.0, 0.0), 0.0)
    L, returned = next_level(fit, ts, "minimal")
    assert L == 1.0
    curved = sg.theta_opt(lambda_curved(CurvedWeights(fit.alpha, fit.beta), L), "leja")
    grown = IndexSet(2, set(ts.theta) | set(curved.theta))
    assert set(grown.members) == {(0, 0), (1, 0)}
    assert returned.theta == grown


def test_next_level_isotropic_ties_enter_together():
    ts = sg.TensorSet(IndexSet(2, [(0, 0)]), "leja")
    fit = isotropic_params(2)
    L, returned = next_level(fit, ts, "minimal")
    curved = sg.theta_opt(lambda_curved(CurvedWeights(fit.alpha, fit.beta), L), "leja")
    grown = IndexSet(2, set(ts.theta) | set(curved.theta))
    assert set(grown.members) == {(0, 0), (1, 0), (0, 1)}
    assert returned.theta == grown


def test_next_level_target_new_nodes():
    ts = sg.TensorSet(IndexSet(2, [(0, 0)]), "leja")
    fit = isotropic_params(2)
    L, returned = next_level(fit, ts, 6)
    curved = sg.theta_opt(lambda_curved(CurvedWeights(fit.alpha, fit.beta), L), "leja")
    grown = IndexSet(2, set(ts.theta) | set(curved.theta))
    added = sg.grid_size(sg.TensorSet(grown, "leja")) - 1
    assert added >= 6
    assert returned.theta == grown


def test_next_level_budget_exhaustion():
    ts = sg.TensorSet(IndexSet(2, [(0, 0)]), "clenshaw_curtis")
    fit = isotropic_params(2)
    with pytest.raises(dr.BudgetExhausted):
        next_level(fit, ts, "minimal", sample_budget=2)


# at a level tie the curved prune once dropped every member, and next_level
# raised "need a nonempty polynomial index set"
TIE_ALPHA = (0.28961187574712166, 0.4001640933144207, 1.1982658616793185, 1.6661069605448617)
TIE_BETA = (-2.0, -1.1, -2.4, -1.9)


def test_next_level_grows_at_a_level_tie():
    ts = sg.TensorSet(IndexSet(4, [(0, 0, 0, 0)]), "leja")
    L, grown = next_level(FitParams(TIE_ALPHA, TIE_BETA, 0.0), ts)
    assert L == -3.027581746198526
    curved = sg.theta_opt(lambda_curved(CurvedWeights(TIE_ALPHA, TIE_BETA), L), "leja")
    expected = IndexSet(4, set(ts.theta) | set(curved.theta))
    assert grown.theta == expected
    assert len(grown.theta) > 1


@settings(max_examples=150, deadline=None)
@given(theta=lower_sets(), rule=st.sampled_from(("leja", "clenshaw_curtis", "rleja_double2")),
       data=st.data(), batch=st.one_of(st.just("minimal"), st.integers(1, 12)),
       budget=st.one_of(st.none(), st.integers(1, 60)))
def test_next_level_matches_the_curved_tensor_set(theta, rule, data, batch, budget):
    d = theta.dim
    alpha = tuple(data.draw(st.lists(st.floats(0.5, 3.0), min_size=d, max_size=d)))
    beta = tuple(data.draw(st.lists(st.floats(-2.5, 1.5), min_size=d, max_size=d)))
    ts = sg.TensorSet(theta, rule)
    try:
        L, grown = next_level(FitParams(alpha, beta, 0.0), ts, batch, sample_budget=budget)
    except dr.BudgetExhausted:
        # even the smallest growth step overflows the budget
        _, smallest = next_level(FitParams(alpha, beta, 0.0), ts)
        assert sg.grid_size(smallest) > budget
        return
    curved = sg.theta_opt(lambda_curved(CurvedWeights(alpha, beta), L), rule)
    expected = IndexSet(d, set(theta) | set(curved.theta))
    assert grown.theta == expected
    assert len(grown.theta) > len(theta)
    if budget is not None:
        assert sg.grid_size(grown) <= budget


@settings(max_examples=100, deadline=None)
@given(theta=lower_sets(), rule=st.sampled_from(("leja", "clenshaw_curtis", "rleja_double2")),
       data=st.data(), batch=st.one_of(st.just("minimal"), st.integers(1, 40)))
def test_next_level_grown_set_equals_a_validated_one(theta, rule, data, batch):
    d = theta.dim
    alpha = tuple(data.draw(st.lists(st.floats(0.5, 3.0), min_size=d, max_size=d)))
    beta = tuple(data.draw(st.lists(st.floats(-2.5, 1.5), min_size=d, max_size=d)))
    _, grown = next_level(FitParams(alpha, beta, 0.0), sg.TensorSet(theta, rule), batch)
    validated = IndexSet(d, grown.theta.members)
    assert grown.theta.members == validated.members
    assert grown.theta.issubset(validated) and validated.issubset(grown.theta)
    assert grown.theta._lower and is_lower(validated)


@st.composite
def tied_fits(draw, d):
    """Fits whose weights tie often: isotropic, beta = 0, alpha and beta
    each drawn from two values, or drawn freely."""
    kind = draw(st.sampled_from(("isotropic", "no beta", "repeated", "free")))
    if kind == "isotropic":
        return isotropic_params(d)
    if kind == "repeated":
        alpha = draw(st.lists(st.sampled_from((0.7, 1.3)), min_size=d, max_size=d))
        beta = draw(st.lists(st.sampled_from((0.0, -1.2)), min_size=d, max_size=d))
    else:
        alpha = draw(st.lists(st.floats(0.5, 3.0), min_size=d, max_size=d))
        beta = ([0.0] * d if kind == "no beta"
                else draw(st.lists(st.floats(-2.5, 1.5), min_size=d, max_size=d)))
    return FitParams(tuple(alpha), tuple(beta), 0.0)


@settings(max_examples=300, deadline=None)
@given(theta=st.one_of(lower_sets(max_dim=6, max_size=12),
                       lower_sets(min_dim=12, max_dim=20, max_size=30)),
       rule=st.sampled_from(("leja", "clenshaw_curtis", "rleja_double2")), data=st.data(),
       batch=st.one_of(st.just("minimal"), st.integers(1, 12)),
       spare=st.one_of(st.none(), st.integers(0, 40)))
def test_grow_step_equals_the_heap_oracle(theta, rule, data, batch, spare):
    """The grow step admits the levels the heap over the margin admits, in
    its order, and returns the margin of the grown set; a budget that cuts
    the last round of a batch returns no margin."""
    d, ts = theta.dim, sg.TensorSet(theta, rule)
    fit, nodes = data.draw(tied_fits(d)), sg.grid_size(ts)
    budget = None if spare is None else nodes + spare
    front = margin(theta)
    rows = np.array(front, dtype=np.int64).reshape(-1, d)
    try:
        expected = oracles.grow(fit, ts, set(front), nodes, batch, budget)
    except dr.BudgetExhausted as err:
        with pytest.raises(dr.BudgetExhausted, match=re.escape(str(err))):
            dr._grow(fit, ts, rows, nodes, batch, budget)
        return
    L, added, grown_margin = dr._grow(fit, ts, rows, nodes, batch, budget)
    assert (L, added) == expected
    if grown_margin is None:
        assert budget is not None and batch != "minimal"
    else:
        assert grown_margin.dtype == np.int64
        got = sorted(map(tuple, grown_margin.tolist()), key=graded_lex_key)
        assert got == margin(theta._grown(added))


def test_grow_step_extends_one_tail_and_keeps_the_longer_ones():
    """Levels (0, 1..3) outgrow the second dimension's tail before the
    front's (10, 0) is admitted, whose block needs the first dimension's
    growth table up to level 10."""
    ts = sg.TensorSet(IndexSet(2, [(l, 0) for l in range(10)]), "leja")
    fit = FitParams((0.1, 0.3), (0.0, 0.0), 0.0)
    front = np.array([(10, 0), (0, 1)], dtype=np.int64)
    L, added, grown_margin = dr._grow(fit, ts, front, 10, 20, None)
    assert (L, added) == oracles.grow(fit, ts, {(10, 0), (0, 1)}, 10, 20, None)
    assert (10, 0) in added and (0, 3) in added
    got = sorted(map(tuple, grown_margin.tolist()), key=graded_lex_key)
    assert got == margin(ts.theta._grown(added))


@pytest.mark.parametrize("rule", ["leja", "clenshaw_curtis"])
def test_next_level_climbs_past_its_first_growth_table(rule):
    # from one level, 60 new nodes in one dimension take the levels well
    # past the table next_level starts with
    ts = sg.TensorSet(IndexSet(1, [(0,)]), rule)
    fit = isotropic_params(1)
    L, grown = next_level(fit, ts, 60)
    curved = sg.theta_opt(lambda_curved(CurvedWeights(fit.alpha, fit.beta), L), rule)
    expected = IndexSet(1, set(ts.theta) | set(curved.theta))
    assert grown.theta == expected
    assert sg.grid_size(grown) - 1 >= 60


def check_run_grid(state, run):
    """The run grid of a built state against the from-scratch routes, its
    rows put in graded-lex order."""
    ts = state.theta
    grid = sg.grid_nodes(ts)
    order = sg._graded_lex(run.grid.idx)
    assert run.grid.idx[order].tobytes() == grid.idx.tobytes()
    assert run.grid.points[order].tobytes() == grid.points.tobytes()
    samples = np.array([state.cache[key] for key in map(tuple, grid.points.tolist())])
    assert state.interpolant.samples[order].tobytes() == samples.tobytes()
    ref = oracles.fibre_solve(ts.rule, grid.idx, samples)
    assert state.interpolant.surpluses[order].tobytes() == ref.tobytes()
    assert run.margin.dtype == np.int64
    assert sorted(map(tuple, run.margin.tolist())) == sorted(margin(ts.theta))


# fast-growth rules stay at <= 63 nodes per dimension under a 60-node budget
@settings(max_examples=40, deadline=None)
@given(rule=st.sampled_from(("leja", "clenshaw_curtis", "rleja_double2", "fejer2", "leja_odd")),
       d=st.integers(1, 4), batch=st.one_of(st.just("minimal"), st.integers(1, 10)),
       budget=st.integers(10, 60), fit_source=st.sampled_from(("legendre", "surplus")))
def test_kept_grid_equals_the_from_scratch_build_every_iteration(rule, d, batch, budget,
                                                                   fit_source):
    if fit_source == "surplus" and not rules1d.unit_growth(rule):
        fit_source = "legendre"
    cfg = dr.RunConfig(rule=rule, d=d, fit_source=fit_source, batch=batch, max_iterations=12,
                       max_samples=budget, initial_level=1.0)
    target = tg.builtin_target("rational", d, c0=2.0 + d, c=[1.0 / (k + 1) for k in range(d)])
    state = dr.RunState(cfg, dr.initial_tensor_set(cfg))
    run, levels = dr._RunGrid(d), state.theta.theta.members
    for _ in range(cfg.max_iterations):
        dr._build_phase(state, run, levels, target)
        check_run_grid(state, run)
        try:
            levels = dr._grow_phase(state, run)
        except dr.BudgetExhausted:
            break


def fit_or_none(interp, cfg):
    try:
        return dr._fit_from(interp, cfg, dr._Clock())
    except UnfittableError:
        return None


@settings(max_examples=60, deadline=None)
@given(rule=st.sampled_from(("leja", "leja_odd", "clenshaw_curtis", "rleja_double2")),
       d=st.integers(1, 6), batch=st.one_of(st.just("minimal"), st.integers(1, 10)),
       spare=st.integers(0, 50), fit_source=st.sampled_from(("legendre", "surplus")))
def test_run_grid_in_arrival_order_equals_a_build_from_scratch_every_iteration(
        rule, d, batch, spare, fit_source):
    """The run grid appends each build's rows: in graded-lex order it is
    the grid of the tensor set, every kept fibre table holds the rows that
    agree off k, and the coefficients and the fit have the bits of a build
    from scratch.  The budget leaves `spare` samples past the start."""
    if fit_source == "surplus" and not rules1d.unit_growth(rule):
        fit_source = "legendre"
    cfg = dr.RunConfig(rule=rule, d=d, fit_source=fit_source, batch=batch, max_iterations=12,
                       initial_level=1.0)
    ts = dr.initial_tensor_set(cfg)
    cfg = dataclasses.replace(cfg, max_samples=sg.grid_size(ts) + spare)
    state = dr.RunState(cfg, ts)
    run, levels = dr._RunGrid(d), state.theta.theta.members
    for _ in range(cfg.max_iterations):
        dr._build_phase(state, run, levels, rational(d))
        grid = sg.grid_nodes(state.theta)
        view = dr._in_graded_lex(state.interpolant)
        assert view.grid.idx.tobytes() == grid.idx.tobytes()
        assert view.grid.points.tobytes() == grid.points.tobytes()
        assert_fibres_are_the_rows_agreeing_off_k(run.grid)
        samples = [state.cache[key] for key in map(tuple, grid.points.tolist())]
        scratch = sg.build_interpolant(state.theta, dict(zip(grid.indices, samples)))
        order = sg._graded_lex(run.grid.idx)
        coeffs = grid_coeffs(state.interpolant)[order]
        assert coeffs.tobytes() == grid_coeffs(scratch).tobytes()
        assert fit_or_none(state.interpolant, cfg) == fit_or_none(scratch, cfg)
        try:
            levels = dr._grow_phase(state, run)
        except dr.BudgetExhausted:
            break


@pytest.mark.parametrize("rule, d", [("leja", 1), ("leja", 3), ("clenshaw_curtis", 2),
                                     ("rleja_double2", 4)])
def test_graded_lex_copy_has_the_fibres_and_evaluations_of_a_build_from_scratch(rule, d):
    """After every build, the copy `run()` hands out, of that build and of
    the one before (whose buffers have since taken more rows), holds in its
    own tables the rows that agree off k, and evaluates to the bytes of
    `build_interpolant` on the same samples."""
    cfg = dr.RunConfig(rule=rule, d=d, batch=2, max_iterations=6, max_samples=120)
    state = dr.RunState(cfg, dr.initial_tensor_set(cfg))
    run, levels, built = dr._RunGrid(d), state.theta.theta.members, []
    pts = np.random.default_rng(d).uniform(-1, 1, size=(40, d))
    for _ in range(cfg.max_iterations):
        dr._build_phase(state, run, levels, rational(d))
        built.append(state.interpolant)
        for interp in built[-2:]:
            view = dr._in_graded_lex(interp)
            assert_fibres_are_the_rows_agreeing_off_k(view.grid)
            for mine, kept in zip(view.grid._fibres, run.grid._fibres):
                assert not np.shares_memory(mine.members, kept.members)
                assert not np.shares_memory(mine.of, kept.of) and mine.ids is not kept.ids
            grid = sg.grid_nodes(interp.tensor_set)
            samples = [state.cache[key] for key in map(tuple, grid.points.tolist())]
            scratch = sg.build_interpolant(interp.tensor_set, dict(zip(grid.indices, samples)))
            assert sg.evaluate_batch(view, pts).tobytes() == sg.evaluate_batch(scratch, pts).tobytes()
        try:
            levels = dr._grow_phase(state, run)
        except dr.BudgetExhausted:
            break


def test_interpolant_returned_by_run_keeps_its_bytes_when_its_state_runs_further():
    """`run()` hands out its last build in graded-lex order, in arrays and
    fibre tables of its own: running the state further leaves it as it was."""
    cfg = dr.RunConfig(rule="leja", d=2, max_iterations=3, max_samples=80)
    state = dr.RunState(cfg, dr.initial_tensor_set(cfg))
    interp, _ = dr.run(cfg, RAT2, state=state)
    assert interp is state.interpolant
    assert interp.grid.idx.tobytes() == sg.grid_nodes(interp.tensor_set).idx.tobytes()
    pts = np.random.default_rng(1).uniform(-1, 1, size=(50, 2))

    def contents():
        arrays = (interp.grid.idx, interp.grid.points, interp.samples, interp.surpluses)
        return [a.tobytes() for a in arrays], sg.evaluate_batch(interp, pts).tobytes()

    before = contents()
    dr.run(dataclasses.replace(cfg, max_iterations=8), RAT2, state=state)
    assert state.interpolant.node_count > interp.node_count
    assert contents() == before


def test_replaced_tensor_set_or_cache_is_built_from_scratch(tmp_path):
    """Between two `run()` calls on one state in memory, its tensor set is
    replaced by one inside the sampled grid, then its cache: each next call
    builds its grid from scratch and writes the files of a call on a fresh
    copy of that state."""
    cfg = dr.RunConfig(rule="leja", d=2, batch=3, max_iterations=3, max_samples=80,
                       probe_count=50, probe_seed=3)
    state = dr.RunState(cfg, dr.initial_tensor_set(cfg))
    dr.run(cfg, RAT2, state=state)
    for replaced in ("theta", "cache"):
        if replaced == "theta":
            state.theta = sg.TensorSet(IndexSet(2, [(0, 0), (1, 0), (2, 0), (0, 1)]), "leja")
        else:
            state.cache = {key: 2.0 * v for key, v in state.cache.items()}
        fresh = copy.deepcopy(state)
        cfg = dataclasses.replace(cfg, max_iterations=cfg.max_iterations + 3)
        files = {}
        for name, s in (("kept", state), ("fresh", fresh)):
            ck = tmp_path / replaced / name / "checkpoint.json"
            ck.parent.mkdir(parents=True)
            interp, hist = dr.run(cfg, RAT2, checkpoint_path=ck, state=s)
            dr.write_history_csv(hist, 2, ck.parent / "history.csv")
            sg.save_interpolant(interp, ck.parent / "interpolant.json")
            files[name] = {p.name: p.read_bytes() for p in ck.parent.iterdir()}
        assert sorted(files["kept"]) == ["checkpoint.json", "history.csv", "interpolant.json"]
        assert files["kept"] == files["fresh"]
        check_run_grid(state, built_from_cache(state))


def built_from_cache(state):
    """The run grid of a built state, built from its cache as `run()` does."""
    run = dr._RunGrid(state.theta.dim)
    dr._build_grid(state, run, state.theta.theta.members, None)
    return run


def test_grow_phase_on_a_replaced_tensor_set_grows_from_its_margin():
    """A tensor set replaced by hand inside the sampled grid: the next
    `run()` call grows it from its own margin.  A tensor set with nodes the
    cache lacks is refused before the target is called."""
    cfg = dr.RunConfig(rule="leja", d=2, batch=3, max_iterations=3, max_samples=80)
    state = dr.RunState(cfg, dr.initial_tensor_set(cfg))
    dr.run(cfg, RAT2, state=state)
    ts = sg.TensorSet(IndexSet(2, [(0, 0), (1, 0), (2, 0), (0, 1)]), "leja")
    state.theta = ts
    _, expected = next_level(state.fit, ts, cfg.batch, cfg.max_samples)
    interp, _ = dr.run(dataclasses.replace(cfg, max_iterations=cfg.max_iterations + 1), RAT2,
                       state=state)
    assert state.theta.theta == expected.theta
    assert interp is state.interpolant
    check_run_grid(state, built_from_cache(state))  # sets a from-scratch interpolant
    assert interp.samples.tobytes() == state.interpolant.samples.tobytes()
    assert interp.surpluses.tobytes() == state.interpolant.surpluses.tobytes()
    calls = []

    class Counting:
        dim = 2

        def evaluate(self, pts):
            calls.append(len(pts))
            return RAT2.evaluate(pts)

    state.theta = sg.TensorSet(IndexSet(2, [(i, 0) for i in range(40)]), "leja")
    with pytest.raises(ValueError, match="cache lacks samples"):
        dr.run(dataclasses.replace(cfg, max_iterations=20), Counting(), state=state)
    assert calls == []


def test_loaded_state_keeps_growing_from_the_grid_it_built(tmp_path):
    cfg = dr.RunConfig(rule="clenshaw_curtis", d=2, batch=4, max_iterations=5, max_samples=60)
    dr.run(cfg, RAT2, checkpoint_path=tmp_path / "ck.json")
    state = dr.load_state(tmp_path / "ck.json")
    # a built state's grid is built from the cache, as a `run()` call starts
    run = built_from_cache(state)
    check_run_grid(state, run)
    levels = dr._grow_phase(state, run)
    dr._build_phase(state, run, levels, RAT2)
    check_run_grid(state, run)


def test_interpolant_of_a_run_cannot_write_into_the_kept_grid():
    cfg = dr.RunConfig(rule="leja", d=2, max_iterations=3, max_samples=60)
    state = dr.RunState(cfg, dr.initial_tensor_set(cfg))
    run = dr._RunGrid(2)
    dr._build_phase(state, run, state.theta.theta.members, RAT2)
    levels = dr._grow_phase(state, run)
    interp = state.interpolant
    for array in (interp.samples, interp.surpluses, interp.grid.idx, interp.grid.points):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    dr._build_phase(state, run, levels, RAT2)
    check_run_grid(state, run)


def test_run_constant_target_falls_back_isotropic():
    const = tg.builtin_target("expsum", 2, c=[0.0, 0.0])
    cfg = dr.RunConfig(rule="leja", d=2, max_iterations=2, max_samples=100,
                       probe_count=50, probe_seed=7)
    interp, hist = dr.run(cfg, const)
    assert len(hist) == 3
    assert hist[0].probe_error == 0.0
    assert all(h.alpha == (1.0, 1.0) for h in hist)
    counts = [h.node_count for h in hist]
    assert counts == sorted(counts) and len(set(counts)) == len(counts)


def test_initial_grid_larger_than_the_sample_budget_is_refused_before_sampling():
    calls = []
    target = tg.builtin_target("expsum", 3, c=[1.0, 1.0, 1.0])
    target.evaluate = lambda points: calls.append(points)
    cfg = dr.RunConfig(rule="leja", d=3, max_samples=5)
    with pytest.raises(ValueError, match="initial grid has 10 nodes, more than max_samples = 5"):
        dr.run(cfg, target)
    assert calls == []


def test_run_zero_iterations_single_record():
    cfg = dr.RunConfig(rule="leja", d=2, max_iterations=0, max_samples=100)
    _, hist = dr.run(cfg, RAT2)
    assert len(hist) == 1


D24_STOP = "budget: the smallest step needs 300 samples, 275 are left"


def d24_total_degree_1():
    """d = 24 from total degree 1 (25 nodes) with 300 samples: its fit needs
    2d + 1 = 49 coefficients, so it stays isotropic, and its smallest step
    is the whole total-degree-2 layer, 300 nodes."""
    cfg = dr.RunConfig(rule="leja", d=24, initial_level=1.0, max_iterations=10, max_samples=300)
    return cfg, tg.builtin_target("rational", 24, c0=3.0, c=[(k + 1) ** -1.5 for k in range(24)])


def test_the_last_record_says_why_the_run_stopped(tmp_path):
    cfg, target = d24_total_degree_1()
    _, hist = dr.run(cfg, target, checkpoint_path=tmp_path / "ck.json")
    assert [(r.node_count, r.n_used) for r in hist] == [(25, 0)]
    assert hist[-1].stop == D24_STOP
    assert "stop" not in (tmp_path / "ck.json").read_text()
    assert dr.load_state(tmp_path / "ck.json").history[-1].stop is None
    cfg = dr.RunConfig(rule="leja", d=2, max_iterations=2, max_samples=100)
    _, hist = dr.run(cfg, RAT2)
    assert [r.stop for r in hist] == [None, None, "iterations"]


OVER_BUDGET_STOP = "budget: the grid has 36 nodes, more than max_samples = 10"


def test_a_resumed_run_over_its_budget_says_its_grid_is_too_large(tmp_path):
    """A checkpoint whose grid holds more nodes than the resumed config's
    max_samples stops at its first grow step; the stop text once gave a
    negative count of samples left."""
    cfg = dr.RunConfig(rule="leja", d=2, max_iterations=30, max_samples=40)
    target = tg.builtin_target("rational", 2, c0=3.0, c=[1.0, 0.5])
    _, hist = dr.run(cfg, target, checkpoint_path=tmp_path / "ck.json")
    assert (hist[-1].node_count, hist[-1].stop) == (36, "iterations")
    state = dr.load_state(tmp_path / "ck.json")
    _, hist = dr.run(dataclasses.replace(cfg, max_iterations=31, max_samples=10), target,
                     state=state)
    assert (len(hist), hist[-1].node_count, hist[-1].stop) == (31, 36, OVER_BUDGET_STOP)


def test_run_anisotropy_ordering_and_improvement():
    cfg = dr.RunConfig(rule="leja", d=2, fit_source="legendre", max_iterations=14,
                       max_samples=260, probe_count=400, probe_seed=3)
    _, hist = dr.run(cfg, RAT2)
    assert hist[-1].alpha[0] < hist[-1].alpha[1]
    assert hist[-1].probe_error < hist[0].probe_error


def test_theta_strictly_grows_and_nests():
    cfg = dr.RunConfig(rule="clenshaw_curtis", d=2, max_iterations=4,
                       max_samples=300)
    state = dr.RunState(cfg, dr.initial_tensor_set(cfg))
    run, levels = dr._RunGrid(2), state.theta.theta.members
    prev = None
    for _ in range(4):
        dr._build_phase(state, run, levels, RAT2)
        levels = dr._grow_phase(state, run)
        if prev is not None:
            assert prev.issubset(state.theta.theta)
            assert len(state.theta.theta) > len(prev)
        prev = state.theta.theta


def test_sample_accounting_matches_grid():
    cfg = dr.RunConfig(rule="leja", d=2, fit_source="surplus", max_iterations=6,
                       max_samples=200)
    state = dr.RunState(cfg, dr.initial_tensor_set(cfg))
    dr.run(cfg, RAT2, state=state)
    assert len(state.cache) == state.interpolant.node_count


def test_union_consistency():
    cfg = dr.RunConfig(rule="leja", d=2, fit_source="surplus", max_iterations=5,
                       max_samples=200)
    state = dr.RunState(cfg, dr.initial_tensor_set(cfg))
    run, levels = dr._RunGrid(2), state.theta.theta.members
    for _ in range(3):
        before = state.theta
        dr._build_phase(state, run, levels, RAT2)
        L, returned = next_level(state.fit, state.theta, cfg.batch,
                                 sample_budget=cfg.max_samples)
        w = CurvedWeights(state.fit.alpha, state.fit.beta)
        curved = sg.theta_opt(lambda_curved(w, L), cfg.rule)
        expected = IndexSet(2, set(before.theta) | set(curved.theta))
        levels = dr._grow_phase(state, run)
        assert state.theta.theta == expected
        assert returned.theta == expected


def test_determinism_identical_histories(tmp_path):
    cfg = dr.RunConfig(rule="leja", d=2, fit_source="legendre", max_iterations=8,
                       max_samples=150, probe_count=200, probe_seed=5)
    _, h1 = dr.run(cfg, RAT2)
    _, h2 = dr.run(cfg, RAT2)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    dr.write_history_csv(h1, 2, p1)
    dr.write_history_csv(h2, 2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_resume_bitwise(tmp_path):
    ck = tmp_path / "ck.json"
    full_cfg = dr.RunConfig(rule="leja", d=2, fit_source="surplus", max_iterations=6,
                            max_samples=150, probe_count=100, probe_seed=11)
    interp_a, hist_a = dr.run(full_cfg, RAT2, checkpoint_path=ck)
    # interrupted run: stop after 3 iterations, then resume to completion
    short_cfg = dr.RunConfig(rule="leja", d=2, fit_source="surplus", max_iterations=3,
                             max_samples=150, probe_count=100, probe_seed=11)
    dr.run(short_cfg, RAT2, checkpoint_path=ck)
    state = dr.load_state(ck)
    state.config = full_cfg
    interp_b, hist_b = dr.run(full_cfg, RAT2, state=state)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    dr.write_history_csv(hist_a, 2, pa)
    dr.write_history_csv(hist_b, 2, pb)
    assert pa.read_bytes() == pb.read_bytes()
    pts = np.random.default_rng(5).uniform(-1, 1, (40, 2))
    assert np.array_equal(sg.evaluate_batch(interp_a, pts), sg.evaluate_batch(interp_b, pts))


def test_a_resumed_run_takes_its_budget_from_the_config_it_is_given(tmp_path):
    ck = tmp_path / "ck.json"
    small = dr.RunConfig(rule="leja", d=2, max_iterations=1000, max_samples=20)
    _, hist = dr.run(small, RAT2, checkpoint_path=ck)
    assert hist[-1].node_count == 20
    large = dataclasses.replace(small, max_samples=60)
    _, resumed = dr.run(large, RAT2, state=dr.load_state(ck))
    _, fresh = dr.run(large, RAT2)
    assert resumed[-1].node_count == fresh[-1].node_count == 60
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    dr.write_history_csv(resumed, 2, pa)
    dr.write_history_csv(fresh, 2, pb)
    assert pa.read_bytes() == pb.read_bytes()


@pytest.mark.parametrize("rule, d", [("leja", 3), ("clenshaw_curtis", 2)])
def test_a_state_of_another_rule_or_dimension_is_refused(rule, d):
    cfg = dr.RunConfig(rule="leja", d=2, max_iterations=2, max_samples=60)
    state = dr.RunState(cfg, dr.initial_tensor_set(cfg))
    dr.run(cfg, RAT2, state=state)
    before = saved_as(state)
    # built to its last iteration: without the check the run would return the old interpolant
    other = dr.RunConfig(rule=rule, d=d, max_iterations=2, max_samples=60)
    with pytest.raises(ValueError, match=rf"rule=leja, d=2; the config has rule={rule}, d={d}"):
        dr.run(other, rational(d), state=state)
    assert state.config is cfg and saved_as(state) == before


class Crash(Exception):
    """Stands for the process dying at a chosen point of the loop."""


def test_resume_after_a_crash_between_grow_and_build(tmp_path, monkeypatch):
    cfg = dr.RunConfig(rule="leja", d=2, fit_source="legendre", batch=2, max_iterations=9,
                       max_samples=120, probe_count=100, probe_seed=11)
    clean = tmp_path / "clean.json"
    _, hist_clean = dr.run(cfg, RAT2, checkpoint_path=clean)
    ck = tmp_path / "ck.json"
    grow = dr._grow_phase
    calls = {"n": 0}

    def grow_then_crash(state, run):
        levels = grow(state, run)
        calls["n"] += 1
        if calls["n"] == 4:
            raise Crash
        return levels

    monkeypatch.setattr(dr, "_grow_phase", grow_then_crash)
    with pytest.raises(Crash):
        dr.run(cfg, RAT2, checkpoint_path=ck)
    monkeypatch.undo()
    state = dr.load_state(ck)
    assert state.iteration == 3 and state.history[-1].iteration == 3  # the grow is redone
    _, hist_resumed = dr.run(cfg, RAT2, checkpoint_path=ck, state=state)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    dr.write_history_csv(hist_clean, 2, pa)
    dr.write_history_csv(hist_resumed, 2, pb)
    assert pa.read_bytes() == pb.read_bytes()
    assert ck.read_bytes() == clean.read_bytes()


def test_checkpoint_saved_once_per_build_and_on_abort(tmp_path, monkeypatch):
    writes = []  # ("whole", iteration) per `save_state`, ("record", iteration) per appended line
    save, append = dr.save_state, dr._append_text
    monkeypatch.setattr(dr, "save_state", lambda state, path: (
        writes.append(("whole", state.iteration)), save(state, path)))
    monkeypatch.setattr(dr, "_append_text", lambda text, path: (
        writes.append(("record", json.loads(text)["iteration"])), append(text, path)))
    cfg = dr.RunConfig(rule="leja", d=2, max_iterations=6, max_samples=150)
    _, hist = dr.run(cfg, RAT2, checkpoint_path=tmp_path / "a.json")
    saves = [it for _, it in writes]
    assert saves == [r.iteration for r in hist] == list(range(7))
    # the first save and the last, on the way out, write the whole state
    assert [kind for kind, _ in writes] == ["whole"] + ["record"] * 5 + ["whole"]

    calls = {"n": 0}

    class FlakyTarget:
        dim = 2

        def evaluate(self, pts):
            calls["n"] += 1
            if calls["n"] > 2:
                raise tg.EvaluationError("solver died", [0])
            return RAT2.evaluate(pts)

    writes.clear()
    with pytest.raises(tg.EvaluationError):
        dr.run(cfg, FlakyTarget(), checkpoint_path=tmp_path / "b.json")
    # two builds, then the abort at iteration 2
    assert writes == [("whole", 0), ("record", 1), ("whole", 2)]


# checkpoint.json as the format's hand-written field lists wrote it
CHECKPOINT_BYTES = (
    '{"format": "adasg-checkpoint", "version": 1, "config": {"rule": "leja", "d": 3, '
    '"fit_source": "surplus", "fit_beta": false, "fit_enabled": true, "batch": 4, '
    '"max_iterations": 7, "max_samples": 90, "probe_count": 50, "probe_seed": 3, '
    '"initial_kind": "curved", "initial_level": 1.5, "initial_alpha": [1.0, 2.0, 0.5], '
    '"initial_beta": [0.0, -0.5, 0.25], "min_magnitude": 1e-12}, "iteration": 1, '
    '"theta": [[0, 0, 0], [1, 0, 0]], "cache": [[[0.0, 0.0, 0.0], 0.5], [[1.0, 0.0, 0.0], 0.25]], '
    '"fit": {"alpha": [1.5, 2.5, 1.5], "beta": [-0.25, 0.0, 0.125], "c_const": 0.375, '
    '"corrected_dims": [0, 2], "excluded_dims": [1], "residual": 0.5, "n_used": 9}, '
    '"history": [{"iteration": 0, "node_count": 1, "new_node_count": 1, '
    '"alpha": [1.0, 1.0, 1.0], "beta": [0.0, 0.0, 0.0], "c_const": 0.0, "residual": 0.0, '
    '"n_used": 0, "corrected": [], "excluded": [], "probe_error": 0.125}, '
    '{"iteration": 1, "node_count": 2, "new_node_count": 1, "alpha": [1.5, 2.5, 1.5], '
    '"beta": [-0.25, 0.0, 0.125], "c_const": 0.375, "residual": 0.5, "n_used": 9, '
    '"corrected": [0, 2], "excluded": [1], "probe_error": null}]}'
)


def test_checkpoint_bytes_and_round_trip(tmp_path):
    cfg = dr.RunConfig(rule="leja", d=3, fit_source="surplus", fit_beta=False, batch=4,
                       max_iterations=7, max_samples=90, probe_count=50, probe_seed=3,
                       initial_kind="curved", initial_level=1.5,
                       initial_alpha=(1.0, 2.0, 0.5), initial_beta=(0.0, -0.5, 0.25),
                       min_magnitude=1e-12)
    fit = FitParams((1.5, 2.5, 1.5), (-0.25, 0.0, 0.125), 0.375,
                    frozenset({2, 0}), frozenset({1}), 0.5, 9)
    ts = sg.TensorSet(IndexSet(3, [(0, 0, 0), (1, 0, 0)]), "leja")
    state = dr.RunState(cfg, ts, iteration=1, fit=fit,
                        cache={(0.0, 0.0, 0.0): 0.5, (1.0, 0.0, 0.0): 0.25})
    state.history = [
        dr.Record(0, 1, 1, (1.0,) * 3, (0.0,) * 3, 0.0, 0.0, 0, (), (), 0.125,
                  timings={"fit": 1.5}),
        dr.Record(1, 2, 1, fit.alpha, fit.beta, fit.c_const, fit.residual, fit.n_used,
                  (0, 2), (1,), None, timings={"probe": 2.5}),
    ]
    ck = tmp_path / "checkpoint.json"
    dr.save_state(state, ck)
    assert ck.read_text() == CHECKPOINT_BYTES
    back = dr.load_state(ck)
    assert back.config == cfg and back.fit == fit and back.theta == ts
    assert back.cache == state.cache and back.iteration == 1
    # timings are not serialized
    assert back.history == [dataclasses.replace(r, timings={}) for r in state.history]
    # loading builds nothing; a run() call on the built state builds it from the cache
    assert back.interpolant is None
    assert dr.run(dataclasses.replace(cfg, max_iterations=1), rational(3),
                  state=back)[0].node_count == 2


def test_load_state_refuses_cache_off_the_node_table(tmp_path):
    # a checkpoint written with another node table cannot be resumed
    ck = tmp_path / "ck.json"
    cfg = dr.RunConfig(rule="leja", d=2, max_iterations=3, max_samples=60)
    dr.run(cfg, RAT2, checkpoint_path=ck)
    obj = json.loads(ck.read_text())
    key = obj["cache"][-1][0]
    key[0] = float(np.nextafter(key[0], 2.0))
    ck.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match="node table of rule 'leja'"):
        dr.load_state(ck)


# every coordinate pair of a 6 x 6 Leja grid: nodes of the rule, so a saved
# state with any of them in its cache loads again
LEJA_KEYS = [(x, y) for x in rules1d.family_nodes("leja", 6).tolist()
             for y in rules1d.family_nodes("leja", 6).tolist()]
LEJA_TENSOR_6 = sg.TensorSet(IndexSet(2, [(i, j) for i in range(6) for j in range(6)]), "leja")
floats = st.floats(allow_nan=True, allow_infinity=True)
records = st.builds(
    dr.Record, st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6),
    st.tuples(floats, floats), st.tuples(floats, floats), floats, floats,
    st.integers(0, 10**6), st.sampled_from(((), (0,), (0, 1))), st.sampled_from(((), (1,))),
    st.none() | floats, timings=st.dictionaries(st.sampled_from(("fit", "probe")), floats))


@settings(max_examples=80, deadline=None)
@given(order=st.permutations(LEJA_KEYS), data=st.data())
def test_saved_text_equals_the_whole_object_encoding(order, data):
    """Cache keys arrive in any order, rows are appended, the state is
    reloaded, its cache or history replaced or cut: every save writes the
    bytes of one `json.dumps` of the whole state."""
    cfg = dr.RunConfig(rule="leja", d=2, max_iterations=3, max_samples=90, probe_count=5)
    fit = FitParams((1.5, 2.5), (-0.25, 0.0), 0.375, frozenset({1}), frozenset(), 0.5, 9)
    # an iteration no record has: the state is pending, so loading builds nothing
    state = dr.RunState(cfg, LEJA_TENSOR_6, iteration=10**7,
                        fit=data.draw(st.sampled_from((None, fit))))
    keys = iter(order)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.json"
        for action in data.draw(st.lists(st.sampled_from(
                ("add", "rows", "load", "replace", "shrink")), min_size=1, max_size=8)):
            if action == "add":
                for key in islice(keys, data.draw(st.integers(0, 12))):
                    state.cache[key] = data.draw(floats)
            elif action == "rows":
                state.history += data.draw(st.lists(records, max_size=4))
            elif action == "load" and path.exists():
                state = dr.load_state(path)
            elif action == "replace":
                old = data.draw(st.permutations(list(state.cache)))
                state.cache = {k: data.draw(floats)
                               for k in old[:data.draw(st.integers(0, len(old)))]}
                state.history = data.draw(st.lists(records, max_size=4))
            elif action == "shrink":
                for key in data.draw(st.lists(st.sampled_from(LEJA_KEYS), max_size=6)):
                    state.cache.pop(key, None)
                del state.history[data.draw(st.integers(0, len(state.history))):]
            dr.save_state(state, path)
            assert path.read_text() == json.dumps(oracles.checkpoint_object(state))


def test_saved_theta_levels_follow_the_grow_steps(tmp_path):
    """A save after a build, or after a grow step whose build failed, a
    reloaded state and a replaced tensor set all write the bytes of one
    `json.dumps` of the whole state."""
    cfg = dr.RunConfig(rule="leja", d=3, batch=2, max_iterations=1000, max_samples=200,
                       probe_count=None)
    target = rational(3)
    state = dr.RunState(cfg, dr.initial_tensor_set(cfg))
    run, levels = dr._RunGrid(3), state.theta.theta.members
    path = tmp_path / "checkpoint.json"
    for it in range(14):
        dr._build_phase(state, run, levels, target)
        dr.save_state(state, path)
        assert path.read_text() == json.dumps(oracles.checkpoint_object(state))
        levels = dr._grow_phase(state, run)
        dr.save_state(state, path)
        assert path.read_text() == json.dumps(oracles.checkpoint_object(state))
        if it == 5:
            state = dr.load_state(path)
        if it == 9:
            ts = dr.initial_tensor_set(cfg)
            state.theta = sg.TensorSet(ts.theta._grown([(0, 0, 3)]), ts.rule)
            dr.save_state(state, path)
            assert path.read_text() == json.dumps(oracles.checkpoint_object(state))
        if it in (5, 9):  # a new state: its grid is built again, as a run() call starts
            run, levels = dr._RunGrid(3), state.theta.theta.members


def tear_writes(monkeypatch):
    """Make the program's file writes stop after 100 characters with OSError;
    files opened for reading are left alone."""
    real_open = open

    class Torn:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[:100])
            raise OSError("disk full")

    def torn_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return Torn(fh) if "w" in mode else fh

    monkeypatch.setattr(builtins, "open", torn_open)


def test_checkpoint_write_failing_part_way_keeps_previous_file(tmp_path, monkeypatch):
    ck = tmp_path / "checkpoint.json"
    cfg = dr.RunConfig(rule="leja", d=2, max_iterations=2, max_samples=60)
    dr.run(cfg, RAT2, checkpoint_path=ck)
    before = ck.read_bytes()
    state = dr.load_state(ck)

    tear_writes(monkeypatch)
    state.iteration += 1
    with pytest.raises(OSError, match="disk full"):
        dr.save_state(state, ck)
    monkeypatch.undo()
    assert ck.read_bytes() == before
    assert dr.load_state(ck).iteration == state.iteration - 1
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.json"]


def test_checkpoint_rename_failing_leaves_no_temp_file(tmp_path, monkeypatch):
    """A save whose temp file is written whole but not renamed over the
    checkpoint removes it and keeps the previous file; a save that succeeds
    looks for no temp file."""
    ck = tmp_path / "checkpoint.json"
    cfg = dr.RunConfig(rule="leja", d=2, max_iterations=2, max_samples=60)
    dr.run(cfg, RAT2, checkpoint_path=ck)
    before = ck.read_bytes()
    state = dr.load_state(ck)
    state.iteration += 1

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        dr.save_state(state, ck)
    monkeypatch.undo()
    assert ck.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.json"]

    def stat(path):
        raise AssertionError(f"looked for {path}")

    monkeypatch.setattr(os.path, "exists", stat)
    dr.save_state(state, ck)
    monkeypatch.undo()
    assert dr.load_state(ck).iteration == state.iteration
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.json"]


def saved_as(state) -> str:
    """The text of a whole save of `state`."""
    return json.dumps(oracles.checkpoint_object(state))


def test_a_record_encodes_no_config_and_a_new_config_writes_a_snapshot(tmp_path, monkeypatch):
    """Records hold no config: a run encodes it in its whole saves only.  A
    run resumed under a new config writes the whole state first, so the file
    holds the new config from its first save on."""
    path = tmp_path / "checkpoint.json"
    writes = []  # (kind, configs encoded since the last write, the file's config)
    encoded = []
    to_dict = dr._to_dict
    monkeypatch.setattr(dr, "_to_dict", lambda obj, **kw: encoded.append(obj) or to_dict(obj, **kw))
    for kind, name in (("whole", "save_state"), ("record", "_append_text")):
        def logged(arg, path, kind=kind, write=getattr(dr, name)):
            write(arg, path)
            writes.append((kind, sum(isinstance(obj, dr.RunConfig) for obj in encoded),
                           dr.load_state(path).config))
            encoded.clear()
        monkeypatch.setattr(dr, name, logged)
    cfg = dr.RunConfig(rule="leja", d=2, max_iterations=4, max_samples=60, probe_count=None)
    dr.run(cfg, RAT2, checkpoint_path=path)
    assert writes == [("whole", 1, cfg)] + [("record", 0, cfg)] * 3 + [("whole", 1, cfg)]
    writes.clear()
    new = dataclasses.replace(cfg, max_iterations=8)
    dr.run(new, RAT2, checkpoint_path=path, state=dr.load_state(path))
    assert writes == [("whole", 1, new)] + [("record", 0, new)] * 2 + [("whole", 1, new)]


def run_until_record(cfg, target, path, n, state=None) -> bool:
    """Run with a checkpoint at `path`, stopping as a dying process would
    right after the n-th record is appended; False if the run ended first."""
    append, count = dr._append_text, iter(range(1, n + 1))

    def append_then_crash(text, path):
        append(text, path)
        if next(count) == n:
            raise Crash

    with mock.patch.object(dr, "_append_text", append_then_crash):
        try:
            dr.run(cfg, target, checkpoint_path=path, state=state)
        except Crash:
            return True
    return False


CUT_CFG = dr.RunConfig(rule="leja", d=2, max_iterations=20, max_samples=100, probe_count=50)


def test_a_cut_last_record_loads_the_previous_iteration(tmp_path):
    ck = tmp_path / "ck.json"
    assert run_until_record(CUT_CFG, RAT2, ck, 4)
    text = ck.read_bytes()
    start = text.rindex(b"\n")
    assert dr.load_state(ck).iteration == 4
    ck.write_bytes(text[:start])
    previous = saved_as(dr.load_state(ck))
    assert json.loads(previous)["iteration"] == 3
    for cut in range(start + 1, len(text)):
        ck.write_bytes(text[:cut])
        assert saved_as(dr.load_state(ck)) == previous


def test_a_malformed_record_before_the_last_names_its_line(tmp_path):
    ck = tmp_path / "ck.json"
    assert run_until_record(CUT_CFG, RAT2, ck, 3)
    lines = ck.read_text().split("\n")  # the whole state, then records at lines 2-4
    record = json.loads(lines[2])
    for bad in (lines[2][:-1], "", "[]", json.dumps({**record, "theta": 7}),
                json.dumps({k: v for k, v in record.items() if k != "fit"})):
        ck.write_text("\n".join(lines[:2] + [bad] + lines[3:]))
        with pytest.raises(ValueError, match="line 3: not a checkpoint record"):
            dr.load_state(ck)
    # a last line that is JSON but no record was not cut short
    ck.write_text("\n".join(lines[:3] + ["[]"]))
    with pytest.raises(ValueError, match="line 4: not a checkpoint record"):
        dr.load_state(ck)


CHECKPOINT_KEYS = ("format", "version", "config") + dr._RECORD_KEYS


@pytest.mark.parametrize("key", CHECKPOINT_KEYS)
def test_load_state_names_the_file_and_a_missing_key(tmp_path, key):
    ck = tmp_path / "ck.json"
    dr.run(CUT_CFG, RAT2, checkpoint_path=ck)
    obj = json.loads(ck.read_text())  # the whole state, saved as the run ends
    assert tuple(obj) == CHECKPOINT_KEYS
    del obj[key]
    ck.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match=re.escape(f"{ck}: no key {key!r}")):
        dr.load_state(ck)


# each edit of the whole-state object makes one field malformed: the field
# and the edit
MALFORMED_FIELDS = {
    "fit is a number": ("fit", lambda obj: obj.update(fit=5)),
    "fit lacks a key": ("fit", lambda obj: obj["fit"].pop("alpha")),
    "fit alpha is NaN": ("fit", lambda obj: obj["fit"].update(alpha=[math.nan, 1.0])),
    "fit c_const is infinite": ("fit", lambda obj: obj["fit"].update(c_const=math.inf)),
    "history row lacks a key": ("history", lambda obj: obj["history"][0].pop("n_used")),
    "history row is a list": ("history", lambda obj: obj["history"].__setitem__(0, [1])),
    "history node_count is a string":
        ("history", lambda obj: obj["history"][-1].update(node_count="7")),
    "history iteration is true": ("history", lambda obj: obj["history"][0].update(iteration=True)),
    "history alpha holds a string":
        ("history", lambda obj: obj["history"][1].update(alpha=["x", 1.0])),
    "history beta is one number short":
        ("history", lambda obj: obj["history"][1].update(beta=[0.0])),
    "history residual is null": ("history", lambda obj: obj["history"][0].update(residual=None)),
    "history probe error is a string":
        ("history", lambda obj: obj["history"][0].update(probe_error="0.1")),
    "history corrected dimension past d":
        ("history", lambda obj: obj["history"][0].update(corrected=[2])),
    "unknown config key": ("config", lambda obj: obj["config"].update(bogus=[1])),
    "config is a list": ("config", lambda obj: obj.update(config=[])),
    "cache entry of two numbers": ("cache", lambda obj: obj["cache"].__setitem__(0, [1, 2])),
    "cache is an object": ("cache", lambda obj: obj.update(cache={})),
    "iteration is a string": ("iteration", lambda obj: obj.update(iteration="3")),
    "iteration is negative": ("iteration", lambda obj: obj.update(iteration=-1)),
    "theta row is a string": ("theta", lambda obj: obj["theta"].__setitem__(1, "ab")),
}


@pytest.mark.parametrize("case", MALFORMED_FIELDS)
def test_load_state_names_the_file_and_a_malformed_field(tmp_path, case):
    # an AttributeError, a TypeError or a state that failed later in the run
    ck = tmp_path / "ck.json"
    dr.run(CUT_CFG, RAT2, checkpoint_path=ck)
    obj = json.loads(ck.read_text())
    key, edit = MALFORMED_FIELDS[case]
    edit(obj)
    ck.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match=re.escape(f"{ck}: malformed {key!r}")):
        dr.load_state(ck)


@pytest.mark.parametrize("field, value, message", [
    ("initial_beta", (math.nan, 0.0), "curved weights must be finite"),
    ("initial_beta", (-math.inf, 0.0), "curved weights must be finite"),
    ("initial_alpha", (math.inf, 1.0), "curved weights must be finite"),
])
def test_initial_curved_set_refuses_non_finite_weights(field, value, message):
    # a NaN or infinite beta died converting to an integer, and an infinite
    # alpha was reported as an empty polynomial space
    cfg = dr.RunConfig(rule="leja", d=2, initial_kind="curved", **{field: value})
    with pytest.raises(ValueError, match=message):
        dr.initial_tensor_set(cfg)
    if field == "initial_alpha":
        with pytest.raises(ValueError, match="alpha entries must be finite"):
            dr.initial_tensor_set(dataclasses.replace(cfg, initial_kind="total_degree"))


def test_load_state_refuses_json_that_is_not_an_object_or_another_format(tmp_path):
    ck = tmp_path / "ck.json"
    for text in ("[]", "[1, 2]", "3", "null"):
        ck.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{ck}: not a JSON object")):
            dr.load_state(ck)
    for text in ("", "not json\n"):
        ck.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{ck}: not JSON")):
            dr.load_state(ck)
    ck.write_bytes(b"\xff\xfe")
    with pytest.raises(ValueError, match=re.escape(f"{ck}: not UTF-8")):
        dr.load_state(ck)
    # the format is read before the keys past it
    ck.write_text(json.dumps({"format": "adasg-interpolant", "version": 1}))
    with pytest.raises(ValueError, match="not a version-1 adasg-checkpoint file"):
        dr.load_state(ck)


def test_load_state_refuses_a_record_off_the_node_table(tmp_path):
    ck = tmp_path / "ck.json"
    assert run_until_record(CUT_CFG, RAT2, ck, 2)
    *lines, last = ck.read_text().split("\n")
    record = json.loads(last)
    key = record["cache"][-1][0]
    key[0] = float(np.nextafter(key[0], 2.0))
    ck.write_text("\n".join(lines + [json.dumps(record)]))
    with pytest.raises(ValueError, match="node table of rule 'leja'"):
        dr.load_state(ck)


def test_a_fresh_run_renames_over_its_checkpoint_twice(tmp_path, monkeypatch):
    """Once on the first save and once on the way out, whether the run ends
    on its iteration budget or its sample budget."""
    renames = []
    replace = os.replace
    monkeypatch.setattr(os, "replace", lambda src, dst: (renames.append(dst), replace(src, dst)))
    for name, cfg in (("iterations", dr.RunConfig(rule="leja", d=2, max_iterations=8)),
                      ("samples", dr.RunConfig(rule="leja", d=2, max_iterations=1000,
                                               max_samples=40))):
        renames.clear()
        _, hist = dr.run(cfg, RAT2, checkpoint_path=tmp_path / f"{name}.json")
        assert len(hist) > 5 and renames == [tmp_path / f"{name}.json"] * 2


def test_every_save_of_a_run_loads_as_the_live_state(tmp_path, monkeypatch):
    """After each save of a run (a record, the first and last whole saves,
    the save before an abort, and the saves of the resumed run), the file
    loads as a state whose whole save is that of the live state."""
    checked = []
    live = {}
    save, append = dr.save_state, dr._append_text

    def check(path):
        assert saved_as(dr.load_state(path)) == saved_as(live["state"])
        checked.append(live["state"].iteration)

    monkeypatch.setattr(dr, "save_state", lambda state, path: (save(state, path), check(path)))
    monkeypatch.setattr(dr, "_append_text", lambda text, path: (append(text, path), check(path)))

    def run(target, ck, state):
        live["state"] = state
        return dr.run(cfg, target, checkpoint_path=ck, state=state)

    cfg = dr.RunConfig(rule="leja", d=2, batch=2, max_iterations=1000, max_samples=90,
                       probe_count=40, probe_seed=3)
    _, hist = run(RAT2, tmp_path / "clean.json", dr.RunState(cfg, dr.initial_tensor_set(cfg)))
    assert checked[-1] == hist[-1].iteration and len(checked) > len(hist)
    calls = {"n": 0}

    class FlakyTarget:
        dim = 2

        def evaluate(self, pts):
            calls["n"] += 1
            if calls["n"] == 5:
                raise tg.EvaluationError("solver died", [0])
            return RAT2.evaluate(pts)

    ck = tmp_path / "ck.json"
    with pytest.raises(tg.EvaluationError):
        run(FlakyTarget(), ck, dr.RunState(cfg, dr.initial_tensor_set(cfg)))
    checked.clear()
    run(RAT2, ck, dr.load_state(ck))
    assert checked[-1] == hist[-1].iteration
    assert ck.read_bytes() == (tmp_path / "clean.json").read_bytes()


@pytest.mark.parametrize("keep", [lambda n: 0, lambda n: 1, lambda n: n // 2, lambda n: n - 1],
                         ids=("none", "one", "half", "all_but_one"))
def test_a_resumed_run_writes_its_first_save_whole_over_a_cut_record(tmp_path, monkeypatch,
                                                                     keep):
    """A checkpoint cut partway into its last record, as by a crash inside an
    append: the resumed run's first save writes the whole state, so no save
    leaves the cut line before another, and the run ends on the files of an
    uninterrupted one."""
    outputs = {}
    for name in ("clean", "resumed"):
        ck = tmp_path / name / "checkpoint.json"
        ck.parent.mkdir()
        state = None
        if name == "resumed":
            assert run_until_record(CUT_CFG, RAT2, ck, 6)
            text = ck.read_text()
            start = text.rindex("\n") + 1
            ck.write_text(text[:start + keep(len(text) - start)])  # keep chars of the record
            state = dr.load_state(ck)
            assert state.iteration == 5
            save, append = dr.save_state, dr._append_text

            def check(path):
                *lines, _ = Path(path).read_text().split("\n")
                for line in lines:
                    json.loads(line)

            monkeypatch.setattr(dr, "save_state", lambda state, path: (save(state, path),
                                                                       check(path)))
            monkeypatch.setattr(dr, "_append_text", lambda text, path: (append(text, path),
                                                                        check(path)))
        interp, hist = dr.run(CUT_CFG, RAT2, checkpoint_path=ck, state=state)
        monkeypatch.undo()
        dr.write_history_csv(hist, 2, ck.parent / "history.csv")
        sg.save_interpolant(interp, ck.parent / "interpolant.json")
        outputs[name] = {p.name: p.read_bytes() for p in ck.parent.iterdir()}
    assert sorted(outputs["clean"]) == ["checkpoint.json", "history.csv", "interpolant.json"]
    assert outputs["resumed"] == outputs["clean"]


@settings(max_examples=60, deadline=None)
@given(theta=lower_sets(max_dim=3, max_size=5),
       rule=st.sampled_from(("leja", "rleja_double2", "clenshaw_curtis")),
       batch=st.sampled_from(("minimal", 3, 8)), extra=st.integers(1, 40), data=st.data())
def test_a_run_cut_after_any_record_resumes_to_the_same_files(theta, rule, batch, extra, data):
    """A run from a random lower set, stopped right after a random record and
    resumed from the file, writes the history, model and checkpoint bytes of
    an uninterrupted run."""
    d, ts = theta.dim, sg.TensorSet(theta, rule)
    cfg = dr.RunConfig(rule=rule, d=d, batch=batch, max_iterations=1000,
                       max_samples=sg.grid_size(ts) + extra, probe_count=20, probe_seed=1)
    target = tg.builtin_target("rational", d, c0=d + 1.0, c=[1.0 / (k + 1) for k in range(d)])
    with tempfile.TemporaryDirectory() as tmp:
        outputs = {}
        for name in ("clean", "resumed"):
            ck = Path(tmp) / name / "checkpoint.json"
            ck.parent.mkdir()
            state = dr.RunState(cfg, ts)
            if name == "resumed":
                # the clean run appended a record at each iteration after the first
                cut = data.draw(st.integers(1, max(1, len(hist) - 1)), label="cut")
                assert run_until_record(cfg, target, ck, cut, state=state) == (len(hist) > 1)
                state = dr.load_state(ck)
            interp, hist = dr.run(cfg, target, checkpoint_path=ck, state=state)
            dr.write_history_csv(hist, d, ck.parent / "history.csv")
            sg.save_interpolant(interp, ck.parent / "interpolant.json")
            outputs[name] = {p.name: p.read_bytes() for p in ck.parent.iterdir()}
        assert sorted(outputs["clean"]) == ["checkpoint.json", "history.csv", "interpolant.json"]
        assert outputs["resumed"] == outputs["clean"]


def test_history_write_failing_part_way_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "history.csv"
    cfg = dr.RunConfig(rule="leja", d=2, max_iterations=3, max_samples=60)
    _, history = dr.run(cfg, RAT2)
    dr.write_history_csv(history[:2], 2, path)
    before = path.read_bytes()
    tear_writes(monkeypatch)
    with pytest.raises(OSError, match="disk full"):
        dr.write_history_csv(history, 2, path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["history.csv"]


def test_points_write_failing_part_way_keeps_previous_file(tmp_path, monkeypatch):
    # an evaluator polling for points.csv must never read a partial request
    path = tmp_path / "points.csv"
    tg.write_points_csv(path, np.zeros((2, 3)))
    before = path.read_bytes()
    tear_writes(monkeypatch)
    with pytest.raises(OSError, match="disk full"):
        tg.write_points_csv(path, np.ones((50, 3)))
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["points.csv"]


def test_mc_linf_error_contracts():
    cfg = dr.RunConfig(rule="leja", d=2, max_iterations=2, max_samples=60)
    interp, _ = dr.run(cfg, RAT2)
    e1 = linf_error(interp, RAT2, 1, seed=123)
    e1b = linf_error(interp, RAT2, 1, seed=123)
    assert e1 == e1b
    # exactness: a polynomial inside the range is reproduced
    lam = oracles.degrees(interp.tensor_set)
    coef = {nu: 0.3 for nu in lam.members}

    class PolyTarget:
        dim = 2

        def evaluate(self, pts):
            pts = np.atleast_2d(pts)
            out = np.zeros(len(pts))
            for nu, c in coef.items():
                out += c * np.prod(pts ** np.array(nu), axis=1)
            return out

    poly = PolyTarget()
    grid = sg.grid_nodes(interp.tensor_set)
    exact = sg.build_interpolant(
        interp.tensor_set,
        {j: float(poly.evaluate(p[None, :])[0]) for j, p in zip(grid.indices, grid.points)},
    )
    assert linf_error(exact, poly, 200, seed=9) <= 1e-9


def test_the_phases_of_each_iteration_sum_to_its_span(tmp_path, monkeypatch):
    """Every clock stamp of the run is one tick: each record's phases sum to
    its own span, and the iterations tile the run from its first stamp to its last."""
    ticks = itertools.count()
    monkeypatch.setattr(dr, "perf_counter", lambda: float(next(ticks)))
    cfg = dr.RunConfig(rule="leja", d=3, max_iterations=1000, max_samples=60, probe_count=50)
    _, history = dr.run(cfg, rational(3), checkpoint_path=tmp_path / "ck.json")
    stamps = next(ticks)
    assert len(history) > 3
    for r in history:
        assert set(r.timings) == {"extend", "sample", "coefficients", "fit", "probe", "checkpoint",
                                  "grow"}
    assert sum(sum(r.timings.values()) for r in history) == stamps - 1
    # the timings are never saved
    assert "timings" not in (tmp_path / "ck.json").read_text()
    assert [r.timings for r in dr.load_state(tmp_path / "ck.json").history] == [{}] * len(history)


def test_probe_points_evaluated_once_per_run():
    sizes = []

    class Counting:
        dim = 2

        def evaluate(self, pts):
            sizes.append(len(pts))
            return RAT2.evaluate(pts)

    cfg = dr.RunConfig(rule="leja", d=2, max_iterations=4, max_samples=60, probe_count=97)
    interp, history = dr.run(cfg, Counting())
    assert len(history) == 5
    # every node sampled once, the probe points once
    assert sum(sizes) == interp.node_count + 97 and sizes.count(97) == 1
    assert history[-1].probe_error == linf_error(interp, RAT2, 97, cfg.probe_seed)
    # two run() calls on one state evaluate the probe points once each
    state = dr.RunState(cfg, dr.initial_tensor_set(cfg))
    sizes.clear()
    dr.run(dataclasses.replace(cfg, max_iterations=2), Counting(), state=state)
    dr.run(cfg, Counting(), state=state)
    assert sizes.count(97) == 2
    assert [r.probe_error for r in state.history] == [r.probe_error for r in history]


def rational(d):
    return tg.builtin_target("rational", d, c0=2.0 + d, c=[1.0 / (k + 1) for k in range(d)])


def record_probes(monkeypatch):
    """Every probe evaluation of the kept state, as (interpolant, points, values)."""
    calls = []
    real = sg._FixedPoints.__call__

    def call(self, interp):
        values = real(self, interp)
        calls.append((interp, self.points, values))
        return values

    monkeypatch.setattr(sg._FixedPoints, "__call__", call)
    return calls


# d = 8 to 80 nodes contracts a seven-level trie in two chunks of points
@pytest.mark.parametrize("rule, d, budget", [
    ("leja", 1, 25), ("rleja_double2", 2, 80), ("leja", 3, 120), ("leja", 8, 80)])
def test_probe_vector_equals_the_oracle_bitwise_every_iteration(tmp_path, monkeypatch,
                                                                 rule, d, budget):
    calls = record_probes(monkeypatch)
    cfg = dr.RunConfig(rule=rule, d=d, max_iterations=1000, max_samples=budget,
                       probe_count=1000, probe_seed=5)
    _, history = dr.run(cfg, rational(d))
    assert len(calls) == len(history) > 3
    # interrupted in the middle, then resumed from the checkpoint: the resumed
    # run builds its kept state from scratch on its first probe
    ck = tmp_path / "ck.json"
    dr.run(dataclasses.replace(cfg, max_iterations=len(history) // 2), rational(d),
           checkpoint_path=ck)
    state = dr.load_state(ck)
    state.config = cfg
    resumed = len(calls)
    _, again = dr.run(cfg, rational(d), state=state)
    assert len(calls) - resumed == len(history) - len(history) // 2 - 1
    assert [r.probe_error for r in again] == [r.probe_error for r in history]
    for interp, pts, values in calls:
        assert values.tobytes() == oracles.evaluate_batch(interp, pts).tobytes()


def test_probe_allocates_no_chunk_of_products_after_its_first_call(monkeypatch):
    """The probe keeps the lex copy of its products and its S @ h buffer: at
    the end of the benchmark's d = 8 run to 80 nodes, where it contracts two
    chunks of points (G = 69..71), no call allocates half a (G, chunk) array
    of doubles above what is live at its start (numpy reports its buffers to
    tracemalloc)."""
    calls = []
    real = sg._FixedPoints.__call__

    def call(self, interp):
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        values = real(self, interp)
        G, P = len(interp.grid._fibres[-1].members), len(self.points)
        chunk = max(1, (1 << 16) // G)
        calls.append((tracemalloc.get_traced_memory()[1] - start, G * min(chunk, P) * 8, P > chunk))
        return values

    monkeypatch.setattr(sg._FixedPoints, "__call__", call)
    cfg = dr.RunConfig(rule="leja", d=8, max_iterations=1000, max_samples=80,
                       probe_count=1000, probe_seed=5)
    target = tg.builtin_target("rational", 8, c0=8.0, c=[1.0, 0.8, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1])
    tracemalloc.start()
    try:
        dr.run(cfg, target)
    finally:
        tracemalloc.stop()
    assert len(calls) > 3
    for peak, chunk_bytes, two_chunks in calls[-3:]:
        assert two_chunks
        assert peak < chunk_bytes / 2, (peak, chunk_bytes)


def check_kept_products(kept, interp):
    """One row per distinct prefix of length d - 1 in the slab of each chunk
    of points, in lex order, each the product of its basis values left to
    right from 1.0 at the chunk's points; the lex order kept as the fibre
    ids of the prefixes."""
    fibres = interp.grid._fibres[-1]
    prefixes = sorted(fibres.ids)
    assert set(prefixes) == {j[:-1] for j in interp.grid.indices}
    assert kept.order.tolist() == [fibres.ids[p] for p in prefixes]
    G, P = len(prefixes), len(kept.points)
    assert kept.n == min(max(1, (1 << 16) // G), P)
    assert G <= kept.room <= G * 5 // 4 + 1
    rule = interp.tensor_set.rule
    for start in range(0, P, kept.n):
        k = min(kept.n, P - start)
        slab = kept.slabs[start // kept.n, :G * k].reshape(G, k)
        for row, prefix in enumerate(prefixes):
            ref = np.ones(k)
            for dim, j in enumerate(prefix):
                ref = ref * sg._newton_basis(rule, j, kept.points[start:start + k, dim])[j - 1]
            assert slab[row].tobytes() == ref.tobytes()


def kept_probes(rule, d, count, builds=8):
    """The run's probe after each of its first `builds` builds, with the
    interpolant it evaluated."""
    cfg = dr.RunConfig(rule=rule, d=d, batch=3, max_iterations=1000, max_samples=90,
                       probe_count=count, probe_seed=3)
    target = rational(d)
    state = dr.RunState(cfg, dr.initial_tensor_set(cfg))
    run, levels = dr._RunGrid(d), state.theta.theta.members
    for _ in range(builds):
        dr._build_phase(state, run, levels, target)
        yield run.probe[0], state.interpolant
        try:
            levels = dr._grow_phase(state, run)
        except dr.BudgetExhausted:
            break


@pytest.mark.parametrize("rule, d", [("leja", 1), ("leja", 3), ("clenshaw_curtis", 4)])
def test_kept_probe_products_hold_one_row_per_prefix(rule, d):
    for kept, interp in kept_probes(rule, d, 200):
        check_kept_products(kept, interp)
        assert len(kept.basis) == interp.grid.idx.max()


def test_kept_probe_slabs_follow_the_chunks_as_they_shrink():
    """20000 points in chunks of 65536 // G: each new prefix shrinks the
    chunks, the rows kept are laid out again in place or, when the room is
    full, into new slabs, and the values keep the bits of the oracle."""
    chunks, rooms = set(), set()
    for kept, interp in kept_probes("leja", 5, 20000, builds=12):
        check_kept_products(kept, interp)
        chunks.add(kept.n)
        rooms.add(kept.room)
        assert kept(interp).tobytes() == oracles.evaluate_batch(interp, kept.points).tobytes()
    assert len(chunks) >= 6 and min(chunks) < 20000 // 8 and len(rooms) >= 3


def test_probe_count_below_one_is_refused_before_any_sample():
    # a refused probe count used to surface only after the first grid was
    # sampled, with no checkpoint saved: an external solver's work was lost
    points = []

    class Counting:
        dim = 2

        def evaluate(self, pts):
            points.append(len(pts))
            return RAT2.evaluate(pts)

    for count in (0, -5):
        with pytest.raises(ValueError, match="probe_count"):
            dr.run(dr.RunConfig(rule="leja", d=2, max_iterations=2, max_samples=60,
                                probe_count=count), Counting())
    assert points == []


@pytest.mark.parametrize("field, value", [("probe_seed", -1), ("probe_seed", 1.5),
                                          ("probe_count", 2.5), ("min_magnitude", float("nan")),
                                          ("min_magnitude", float("inf")),
                                          ("min_magnitude", -float("inf")), ("min_magnitude", 1.0),
                                          ("probe_count", True), ("probe_seed", True),
                                          ("batch", True), ("max_iterations", 2.5),
                                          ("max_samples", 40.0), ("d", 2.0),
                                          ("max_iterations", -3), ("max_samples", 0),
                                          ("max_samples", -1)])
def test_a_bad_seed_or_magnitude_is_refused_before_any_sample(field, value):
    # a negative or non-integer probe seed, and a non-integer probe count,
    # used to surface only once the probe drew its points, after the first
    # grid was sampled; a magnitude floor that is not finite, or not below
    # 1, made every fit drop every coefficient, so the run grew isotropically;
    # a bool or a float in an integer field was saved into the checkpoint as
    # it was, or failed once the run used it
    points = []

    class Counting:
        dim = 2

        def evaluate(self, pts):
            points.append(len(pts))
            return RAT2.evaluate(pts)

    kwargs = dict(rule="leja", d=2, max_iterations=2, max_samples=60, probe_count=10)
    with pytest.raises(ValueError, match=field):
        dr.run(dr.RunConfig(**kwargs | {field: value}), Counting())
    assert points == []


@pytest.mark.parametrize("field, value", [("max_iterations", -3), ("max_samples", 0),
                                          ("max_samples", -1)])
def test_a_negative_iteration_count_or_no_samples_is_refused_by_the_config(field, value):
    # a negative max_iterations ran like 0, and max_samples < 1 was refused
    # only inside run(), by the initial grid's size
    with pytest.raises(ValueError, match=f"^{field} must be a"):
        dr.RunConfig(rule="leja", d=2, **{field: value})
    dr.RunConfig(rule="leja", d=2, max_iterations=0)  # the initial grid only


def test_numpy_integers_in_the_config_save_as_python_ints(tmp_path):
    # numpy integers used to reach the first save, which could not encode them
    ints = dict(max_iterations=4, max_samples=40, probe_count=10, probe_seed=7)
    for name, convert in (("py", int), ("np", np.int64)):
        cfg = dr.RunConfig(rule="leja", d=convert(2), batch=convert(3),
                           **{key: convert(v) for key, v in ints.items()})
        assert all(type(getattr(cfg, key)) is int for key in ("d", "batch", *ints))
        dr.run(cfg, RAT2, checkpoint_path=tmp_path / f"{name}.json")
    assert (tmp_path / "np.json").read_bytes() == (tmp_path / "py.json").read_bytes()


def test_a_negative_probe_seed_is_kept_without_a_probe():
    # the seed is drawn only by the probe
    assert dr.RunConfig(rule="leja", d=2, probe_seed=-1).probe_seed == -1


def test_evaluation_failure_aborts_with_resumable_checkpoint(tmp_path):
    calls = {"n": 0}

    class FlakyTarget:
        dim = 2

        def evaluate(self, pts):
            pts = np.atleast_2d(pts)
            calls["n"] += 1
            if calls["n"] > 2:
                raise tg.EvaluationError("solver died", [0])
            return RAT2.evaluate(pts)

    ck = tmp_path / "ck.json"
    cfg = dr.RunConfig(rule="leja", d=2, fit_source="surplus", max_iterations=6,
                       max_samples=200)
    with pytest.raises(tg.EvaluationError):
        dr.run(cfg, FlakyTarget(), checkpoint_path=ck)
    assert ck.exists()
    state = dr.load_state(ck)
    interp_resumed, hist_resumed = dr.run(cfg, RAT2, state=state)
    interp_clean, hist_clean = dr.run(cfg, RAT2)
    pa, pb = tmp_path / "r.csv", tmp_path / "c.csv"
    dr.write_history_csv(hist_resumed, 2, pa)
    dr.write_history_csv(hist_clean, 2, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_budget_500_improves_on_initial_d3():
    target = tg.builtin_target("rational", 3, c0=3.0, c=[1.0, 0.6, 0.3])
    cfg = dr.RunConfig(rule="leja", d=3, fit_source="surplus", max_iterations=200,
                       max_samples=500, probe_count=300, probe_seed=13)
    _, hist = dr.run(cfg, target)
    assert hist[-1].node_count <= 500
    assert hist[-1].probe_error < hist[0].probe_error


def test_budget_exhaustion_stops_cleanly_and_resumes_without_duplicates(tmp_path):
    ck = tmp_path / "ck.json"
    cfg = dr.RunConfig(rule="clenshaw_curtis", d=2, max_iterations=50,
                       max_samples=12, probe_count=None)
    _, hist = dr.run(cfg, RAT2, checkpoint_path=ck)
    state = dr.load_state(ck)
    _, hist2 = dr.run(cfg, RAT2, state=state)
    assert [r.iteration for r in hist2] == [r.iteration for r in hist]
    assert max(r.node_count for r in hist) <= 12


def test_surplus_source_requires_unit_growth_rule():
    with pytest.raises(ValueError):
        dr.RunConfig(rule="clenshaw_curtis", d=2, fit_source="surplus")


def test_initial_set_kinds():
    cfg = dr.RunConfig(rule="leja", d=2, initial_kind="curved", initial_level=2.0,
                       initial_alpha=(1.0, 1.0), initial_beta=(0.0, 0.0))
    ts = dr.initial_tensor_set(cfg)
    assert (0, 0) in ts.theta and len(ts.theta) == 6
    cfg2 = dr.RunConfig(rule="leja", d=2, initial_kind="hyperbolic", initial_level=3.0)
    assert len(dr.initial_tensor_set(cfg2).theta) == 5
