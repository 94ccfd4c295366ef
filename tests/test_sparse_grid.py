import dataclasses
import itertools
import json
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from strategies import lower_sets, random_lower_set
from adasg import driver as dr
from adasg import rules1d as r1
from adasg import sparse_grid as sg
from adasg import targets as tg
from adasg.multiindex import (
    CurvedWeights,
    IndexSet,
    graded_lex_key,
    is_lower,
    lambda_classic,
    lambda_curved,
    margin,
)


def random_samples(rng, ts):
    grid = sg.grid_nodes(ts)
    return {j: float(rng.uniform(-1, 1)) for j in grid.indices}


def test_theta_opt_unit_growth_identity():
    lam = lambda_classic("total_degree", (1.0, 1.0), 3.0)
    ts = sg.theta_opt(lam, "leja")
    assert set(ts.theta.members) == set(lam.members)


def test_theta_opt_cc_td2():
    lam = lambda_classic("total_degree", (1.0, 1.0), 2.0)
    ts = sg.theta_opt(lam, "clenshaw_curtis")
    assert set(ts.theta.members) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert len(sg.grid_nodes(ts)) == 9
    rng_set = oracles.degrees(ts)
    assert set(rng_set.members) == {(a, b) for a in range(3) for b in range(3)}


def test_theta_opt_singleton():
    ts = sg.theta_opt(IndexSet(2, [(0, 0)]), "clenshaw_curtis")
    assert set(ts.theta.members) == {(0, 0)}
    grid = sg.grid_nodes(ts)
    assert len(grid) == 1 and tuple(grid.points[0]) == (0.0, 0.0)


def test_theta_opt_rejects_non_lower():
    with pytest.raises(ValueError):
        sg.theta_opt(IndexSet(2, [(1, 1)]), "leja")


def test_theta_curved_equals_composition():
    rng = np.random.default_rng(5)
    for _ in range(15):
        d = int(rng.integers(1, 4))
        w = CurvedWeights(tuple(rng.uniform(0.4, 2.0, d)), tuple(rng.uniform(-1.0, 1.0, d)))
        L = float(rng.uniform(0.5, 4.0))
        rule = ("leja", "clenshaw_curtis", "rleja_double2")[int(rng.integers(3))]
        a = sg.TensorSet(IndexSet(d, oracles.theta_opt_levels(lambda_curved(w, L), rule)), rule)
        b = sg.theta_opt(lambda_curved(w, L), rule)
        assert a.theta == b.theta


def test_theta_curved_isotropic_cc_level_example():
    ts = sg.theta_opt(lambda_curved(CurvedWeights((1.0,), (0.0,)), 2.0), "clenshaw_curtis")
    assert set(ts.theta.members) == {(0,), (1,)}


def test_theta_curved_range_contains_lambda():
    rng = np.random.default_rng(6)
    for _ in range(10):
        d = int(rng.integers(1, 3))
        w = CurvedWeights(tuple(rng.uniform(0.5, 1.5, d)), tuple(rng.uniform(-1.0, 0.5, d)))
        L = float(rng.uniform(0.5, 3.0))
        lam = lambda_curved(w, L)
        if len(lam) == 0:
            continue
        for rule in ("leja", "clenshaw_curtis"):
            ts = sg.theta_opt(lam, rule)
            assert lam.issubset(oracles.degrees(ts))


def test_grid_counts_match_disjoint_blocks():
    rng = np.random.default_rng(7)
    for _ in range(10):
        d = int(rng.integers(1, 4))
        theta = random_lower_set(rng, d, int(rng.integers(1, 8)))
        for rule in ("leja", "clenshaw_curtis", "rleja_double4"):
            ts = sg.TensorSet(theta, rule)
            grid = sg.grid_nodes(ts)
            assert len(grid) == sg.grid_size(ts)
            assert len(grid) == len(oracles.degrees(ts))


def test_grid_leja_1d_two_levels():
    ts = sg.TensorSet(IndexSet(1, [(0,), (1,)]), "leja")
    grid = sg.grid_nodes(ts)
    assert [tuple(p) for p in grid.points] == [(0.0,), (1.0,)]


def test_nested_refinement_keeps_points():
    rng = np.random.default_rng(8)
    theta = random_lower_set(rng, 2, 4)
    bigger = random_lower_set(rng, 2, 8)
    both = IndexSet(2, set(theta) | set(bigger))
    a = sg.grid_nodes(sg.TensorSet(theta, "clenshaw_curtis"))
    b = sg.grid_nodes(sg.TensorSet(both, "clenshaw_curtis"))
    pts_b = {tuple(p) for p in b.points}
    assert all(tuple(p) in pts_b for p in a.points)


def test_combination_weights_examples():
    ts = sg.TensorSet(IndexSet(2, [(0, 0)]), "leja")
    assert oracles.combination_weights(ts) == {(0, 0): 1}
    ts2 = sg.TensorSet(IndexSet(2, [(0, 0), (1, 0), (0, 1)]), "leja")
    assert oracles.combination_weights(ts2) == {(0, 0): -1, (1, 0): 1, (0, 1): 1}
    ts3 = sg.TensorSet(IndexSet(2, [(0, 0), (1, 0), (0, 1), (1, 1)]), "leja")
    t3 = oracles.combination_weights(ts3)
    assert t3 == {(0, 0): 0, (1, 0): 0, (0, 1): 0, (1, 1): 1}


def test_combination_weights_defining_system_and_sum():
    # telescoping: sum over j >= i of t_j equals 1 for every member i,
    # and the grand total is 1
    rng = np.random.default_rng(9)
    for _ in range(12):
        d = int(rng.integers(1, 4))
        theta = random_lower_set(rng, d, int(rng.integers(1, 9)))
        tw = oracles.combination_weights(sg.TensorSet(theta, "leja"))
        assert sum(tw.values()) == 1
        for i in theta.members:
            tot = sum(t for j, t in tw.items() if all(a >= b for a, b in zip(j, i)))
            assert tot == 1


def test_surpluses_examples():
    ts = sg.TensorSet(IndexSet(1, [(0,), (1,)]), "leja")
    interp = sg.build_interpolant(ts, {(1,): 0.0, (2,): 1.0})
    s = dict(zip(interp.grid.indices, interp.surpluses.tolist()))
    assert abs(s[(1,)]) < 1e-15 and abs(s[(2,)] - 1.0) < 1e-15

    ts2 = sg.theta_opt(lambda_classic("total_degree", (1.0, 1.0), 2.0), "clenshaw_curtis")
    grid = sg.grid_nodes(ts2)
    interp2 = sg.build_interpolant(ts2, {j: 4.25 for j in grid.indices})
    s2 = dict(zip(interp2.grid.indices, interp2.surpluses.tolist()))
    assert abs(s2[(1, 1)] - 4.25) < 1e-15
    assert all(abs(v) < 1e-15 for j, v in s2.items() if j != (1, 1))

    ts0 = sg.theta_opt(IndexSet(2, [(0, 0)]), "leja")
    interp0 = sg.build_interpolant(ts0, {(1, 1): -2.0})
    s0 = dict(zip(interp0.grid.indices, interp0.surpluses.tolist()))
    assert s0 == {(1, 1): -2.0}


def test_surpluses_missing_sample_rejected():
    ts = sg.TensorSet(IndexSet(1, [(0,), (1,)]), "leja")
    with pytest.raises(ValueError):
        sg.build_interpolant(ts, {(1,): 0.0})


def test_interpolation_property_at_grid_nodes():
    rng = np.random.default_rng(10)
    for rule in ("leja", "clenshaw_curtis", "rleja_double2"):
        theta = random_lower_set(rng, 2, 6)
        ts = sg.TensorSet(theta, rule)
        interp = sg.build_interpolant(ts, random_samples(rng, ts))
        got = sg.evaluate_batch(interp, interp.grid.points)
        scale = max(1.0, np.abs(interp.samples).max())
        assert np.abs(got - interp.samples).max() <= 1e-10 * scale


def test_linear_interpolant_midpoint():
    ts = sg.TensorSet(IndexSet(1, [(0,), (1,)]), "leja")
    interp = sg.build_interpolant(ts, {(1,): 0.0, (2,): 1.0})
    assert abs(sg.evaluate_batch(interp, [[0.5]])[0] - 0.5) < 1e-14


def test_polynomial_reproduction():
    rng = np.random.default_rng(11)
    for rule in ("leja", "clenshaw_curtis"):
        for d in (1, 2, 3):
            lam = random_lower_set(rng, d, int(rng.integers(2, 10)))
            ts = sg.theta_opt(lam, rule)
            grid = sg.grid_nodes(ts)
            coef = {nu: float(rng.uniform(-1, 1)) for nu in lam.members}

            def poly(Y):
                Y = np.atleast_2d(Y)
                out = np.zeros(len(Y))
                for nu, c in coef.items():
                    out += c * np.prod(Y ** np.array(nu), axis=1)
                return out

            samples = {j: float(poly(p[None, :])[0]) for j, p in zip(grid.indices, grid.points)}
            interp = sg.build_interpolant(ts, samples)
            pts = rng.uniform(-1, 1, (200, d))
            err = np.abs(sg.evaluate_batch(interp, pts) - poly(pts)).max()
            assert err <= 1e-9 * max(1.0, np.abs(poly(pts)).max())


def smooth_random_fn(rng, d):
    # white-noise samples on fast-growth rules inflate the hierarchical
    # surpluses past what double precision can cancel; smooth targets are
    # the operating regime
    a = rng.uniform(-1.2, 1.2, d)
    b = rng.uniform(-1.5, 1.5, d)
    phi = float(rng.uniform(0, 2 * np.pi))

    def f(Y):
        Y = np.atleast_2d(Y)
        return np.exp(Y @ a) * np.cos(Y @ b + phi)

    return f


def smooth_samples(rng, ts):
    grid = sg.grid_nodes(ts)
    f = smooth_random_fn(rng, ts.dim)
    return {j: float(f(p[None, :])[0]) for j, p in zip(grid.indices, grid.points)}


def test_form_equivalence_surplus_vs_combination():
    rng = np.random.default_rng(12)
    for trial in range(8):
        d = int(rng.integers(1, 4))
        theta = random_lower_set(rng, d, int(rng.integers(1, 7)))
        ts = sg.TensorSet(theta, ("clenshaw_curtis", "leja")[trial % 2])
        interp = sg.build_interpolant(ts, smooth_samples(rng, ts))
        pts = rng.uniform(-1, 1, (100, d))
        a = sg.evaluate_batch(interp, pts)
        b = oracles.evaluate_combination(interp, pts)
        assert np.abs(a - b).max() <= 1e-10 * max(1.0, np.abs(a).max())


def test_incremental_surpluses_match_scratch():
    # hierarchy: a surplus depends only on the samples at grid indices below
    # it, so a nested smaller build's surpluses reappear unchanged in a bigger one
    rng = np.random.default_rng(13)
    theta = random_lower_set(rng, 2, 4)
    grown = IndexSet(2, set(theta) | set(random_lower_set(rng, 2, 9)))
    ts_small = sg.TensorSet(theta, "clenshaw_curtis")
    ts_big = sg.TensorSet(grown, "clenshaw_curtis")
    samples = random_samples(rng, ts_big)
    interp_small = sg.build_interpolant(ts_small, samples)
    interp_big = sg.build_interpolant(ts_big, samples)
    small = dict(zip(interp_small.grid.indices, interp_small.surpluses.tolist()))
    big = dict(zip(interp_big.grid.indices, interp_big.surpluses.tolist()))
    assert len(big) > len(small)
    assert all(big[j] == s for j, s in small.items())


def row_by_row_surpluses(rule, grid, values):
    """Oracle: unitriangular solve, one grid row at a time in graded-lex order."""
    idx = np.array(grid.indices, dtype=np.int64)
    tables = []
    for m in idx.max(axis=0):
        x = r1.family_nodes(rule, int(m))
        tables.append(np.array([[np.prod([(y - x[t]) / (x[j] - x[t]) for t in range(j)])
                                 for y in x] for j in range(len(x))]))
    s = np.empty(len(idx))
    for r, i in enumerate(idx):
        rows = np.flatnonzero(np.all(idx[:r] <= i, axis=1))
        H = np.ones(len(rows))
        for k in range(len(i)):
            H *= tables[k][idx[rows, k] - 1, i[k] - 1]
        s[r] = values[r] - s[rows] @ H
    return s


@settings(max_examples=80, deadline=None)
@given(theta=lower_sets(), rule=st.sampled_from(
    ("leja", "leja_odd", "clenshaw_curtis", "fejer2", "rleja", "rleja_double2", "rleja_double4")))
def test_grid_nodes_match_itertools_enumeration(theta, rule):
    ts = sg.TensorSet(theta, rule)
    grid = sg.grid_nodes(ts)
    indices, points = oracles.enumerate_grid(ts)
    assert grid.idx.dtype == np.int64 and grid.idx.shape == (len(indices), theta.dim)
    assert grid.indices == indices
    assert grid.points.shape == points.shape and grid.points.tobytes() == points.tobytes()


@settings(max_examples=150, deadline=None)
@given(lam=lower_sets(max_dim=3, max_size=12), rule=st.sampled_from(r1.RULE_KINDS))
def test_theta_opt_matches_level_walk(lam, rule):
    # lam is drawn as a lower set of degrees here
    ts = sg.theta_opt(lam, rule)
    assert set(ts.theta.members) == oracles.theta_opt_levels(lam, rule)
    assert ts.theta.members == tuple(sorted(ts.theta.members, key=graded_lex_key))
    # the per-level walk grid_size replaced
    assert sg.grid_size(ts) == sum(oracles.block_size(rule, i) for i in ts.theta.members)


def test_theta_opt_high_degrees_of_fast_growth_rules():
    # m(199) overflows int64 for these rules; the table stops long before
    lam = IndexSet(2, [(v, 0) for v in range(200)] + [(0, 1)])
    for rule in ("clenshaw_curtis", "fejer2", "rleja_double4"):
        ts = sg.theta_opt(lam, rule)
        assert set(ts.theta.members) == oracles.theta_opt_levels(lam, rule)


@pytest.mark.parametrize("dim, members", [
    (2, []),                            # the empty tensor set
    (1, [(0,)]),
    (1, [(0,), (1,), (2,), (3,)]),
])
def test_grid_nodes_edge_cases(dim, members):
    for rule in ("leja", "clenshaw_curtis"):
        ts = sg.TensorSet(IndexSet(dim, members), rule)
        grid = sg.grid_nodes(ts)
        indices, points = oracles.enumerate_grid(ts)
        assert grid.idx.shape == (len(indices), dim) and grid.points.shape == (len(indices), dim)
        assert grid.indices == indices and grid.points.tobytes() == points.tobytes()
        assert len(oracles.degrees(ts)) == len(indices)


@settings(max_examples=60, deadline=None)
@given(theta=lower_sets(), rule=st.sampled_from(("leja", "clenshaw_curtis", "rleja_double2")),
       seed=st.integers(0, 2**32 - 1))
def test_fibre_surpluses_match_row_by_row_solve(theta, rule, seed):
    ts = sg.TensorSet(theta, rule)
    grid = sg.grid_nodes(ts)
    samples = smooth_samples(np.random.default_rng(seed), ts)
    values = np.array([samples[j] for j in grid.indices])
    got = sg.build_interpolant(ts, samples).surpluses
    ref = row_by_row_surpluses(rule, grid, values)
    assert np.abs(got - ref).max() <= 1e-9 * max(1.0, np.abs(ref).max())


def dense_evaluate(interp, Y):
    """Oracle: the dense product G[p, n] = prod_k h_{j_k}(y_k) over all grid
    indices, then G @ surpluses, in chunks of at most 4M entries."""
    idx = np.array(interp.grid.indices, dtype=np.int64)
    out = np.empty(len(Y))
    chunk = max(1, (1 << 22) // len(idx))
    for start in range(0, len(Y), chunk):
        Yc = Y[start:start + chunk]
        G = np.ones((len(Yc), len(idx)))
        for k, m in enumerate(idx.max(axis=0)):
            G *= sg._newton_basis(interp.tensor_set.rule, int(m), Yc[:, k]).T[:, idx[:, k] - 1]
        out[start:start + chunk] = G @ interp.surpluses
    return out


def assert_matches_dense(interp, Y):
    got = sg.evaluate_batch(interp, Y)
    assert got.shape == (len(Y),)
    tol = 1e-12 * max(1.0, np.abs(interp.surpluses).sum())
    assert np.abs(got - dense_evaluate(interp, Y)).max(initial=0.0) <= tol


def trie_chunk(interp):
    """Points per chunk of `evaluate_batch`: ~64k doubles over the distinct
    prefixes (j_1..j_{d-1}) of the grid indices."""
    return max(1, (1 << 16) // len({j[:-1] for j in interp.grid.indices}))


@settings(max_examples=60, deadline=None)
@given(theta=lower_sets(max_dim=5), rule=st.sampled_from(("leja", "clenshaw_curtis", "rleja_double2")),
       seed=st.integers(0, 2**32 - 1), count=st.sampled_from(("one", "chunk-1", "chunk+1")))
def test_trie_evaluation_matches_dense_product(theta, rule, seed, count):
    rng = np.random.default_rng(seed)
    ts = sg.TensorSet(theta, rule)
    interp = sg.build_interpolant(ts, smooth_samples(rng, ts))
    P = {"one": 1, "chunk-1": trie_chunk(interp) - 1, "chunk+1": trie_chunk(interp) + 1}[count]
    assert_matches_dense(interp, rng.uniform(-1, 1, (P, theta.dim)))


POINT_COUNTS = {"zero": lambda c: 0, "one": lambda c: 1, "chunk-1": lambda c: c - 1,
                "chunk": lambda c: c, "chunk+1": lambda c: c + 1, "3chunk+7": lambda c: 3 * c + 7}


@settings(max_examples=60, deadline=None)
@given(rule=st.sampled_from(("leja", "rleja_double2", "clenshaw_curtis")), data=st.data(),
       seed=st.integers(0, 2**32 - 1), count=st.sampled_from(sorted(POINT_COUNTS)))
def test_evaluation_equals_the_trie_oracle_bitwise(rule, data, seed, count):
    # five levels keep Clenshaw-Curtis at <= 17 nodes per dimension
    theta = data.draw(lower_sets(max_dim=5, max_size=5 if rule == "clenshaw_curtis" else 8))
    rng = np.random.default_rng(seed)
    ts = sg.TensorSet(theta, rule)
    interp = sg.build_interpolant(ts, smooth_samples(rng, ts))
    Y = rng.uniform(-1, 1, (POINT_COUNTS[count](trie_chunk(interp)), theta.dim))
    got = sg.evaluate_batch(interp, Y)
    assert got.shape == (len(Y),) and got.tobytes() == oracles.evaluate_batch(interp, Y).tobytes()


@st.composite
def mostly_flat_lower_sets(draw, max_dim=10, max_size=8):
    """Random lower sets of tensor levels in up to `max_dim` dimensions, most
    of which stay at level 0, so most prefixes of the grid indices end in
    index 1: a lower set grown inside at most three dimensions, then by up
    to two margin members in any dimension."""
    d = draw(st.integers(1, max_dim))
    active = draw(st.sets(st.integers(0, d - 1), min_size=1, max_size=3))
    s = IndexSet(d, [(0,) * d])
    inside = draw(st.lists(st.integers(0, 10**6), max_size=max_size - 1))
    anywhere = draw(st.lists(st.integers(0, 10**6), max_size=min(2, max_size - 1 - len(inside))))
    for pick in inside:
        cands = [c for c in margin(s) if all(c[k] == 0 for k in range(d) if k not in active)]
        s = IndexSet(d, set(s.members) | {cands[pick % len(cands)]})
    for pick in anywhere:
        cands = margin(s)
        s = IndexSet(d, set(s.members) | {cands[pick % len(cands)]})
    return s


@settings(max_examples=60, deadline=None)
@given(rule=st.sampled_from(("leja", "rleja_double2", "clenshaw_curtis")), data=st.data(),
       seed=st.integers(0, 2**32 - 1), count=st.sampled_from(sorted(POINT_COUNTS)),
       outside=st.booleans())
def test_evaluation_skipping_unit_factors_equals_the_oracle_bitwise(rule, data, seed, count,
                                                                    outside):
    """The prefixes ending in index 1 share their parent's product: the
    oracle multiplies by h_0 = 1.0, which changes no bit, also off the cube,
    at signed zeros, and where a row of NaN makes the value NaN."""
    theta = data.draw(mostly_flat_lower_sets(max_size=5 if rule == "clenshaw_curtis" else 8))
    rng = np.random.default_rng(seed)
    ts = sg.TensorSet(theta, rule)
    interp = sg.build_interpolant(ts, smooth_samples(rng, ts))
    Y = rng.uniform(-3 if outside else -1, 3 if outside else 1,
                    (POINT_COUNTS[count](trie_chunk(interp)), theta.dim))
    Y[rng.random(Y.shape) < 0.1] = 0.0
    Y[rng.random(Y.shape) < 0.1] = -0.0
    if outside:
        Y[rng.random(len(Y)) < 0.1] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the extrapolation warning
            got = sg.evaluate_batch(interp, Y, allow_extrapolation=True)
    else:
        got = sg.evaluate_batch(interp, Y)
    ref = oracles.evaluate_batch(interp, Y)
    nan = np.isnan(ref)
    assert got.shape == ref.shape and np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == ref[~nan].tobytes()


def inner_prefix_rows(grid):
    """The prefixes (j_1..j_L) of the grid indices of lengths L = 1..d-2,
    the number of them whose last index is not 1, and the rows the inner
    levels of `evaluate_batch` compute per point: products of lengths
    2..d-2 in its trie plan; those of length 1 are basis rows."""
    d = grid.idx.shape[1]
    prefixes = {tuple(j[:L]) for j in grid.idx.tolist() for L in range(1, d - 1)}
    heads, order, _ = sg._trie(grid, np.zeros(len(grid)))
    first, inner, last, _ = sg._trie_plan(heads[order])
    assert len(last) == len(heads) and len(first) == len({p for p in prefixes if len(p) == 1})
    return len(prefixes), sum(p[-1] != 1 for p in prefixes), sum(len(b) for b, _ in inner)


def test_inner_levels_compute_one_row_per_prefix_not_ending_in_1():
    # the final grids of the benchmark's d=8 run (80 nodes) and d=3 run (149
    # nodes), and a d=2 grid, which has no inner levels
    d8 = dr.RunConfig(rule="leja", d=8, fit_source="legendre", batch="minimal", max_iterations=1000,
                      max_samples=80, probe_count=1000, probe_seed=20240101)
    rat8 = tg.builtin_target("rational", 8, c0=8.0, c=(1.0, 0.8, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1))
    grid = dr.run(d8, rat8)[0].grid
    assert len(grid) == 80
    # 3 of the 59 prefixes not ending in 1 have length 1: basis rows
    assert inner_prefix_rows(grid) == (169, 59, 56)
    d3 = dataclasses.replace(d8, d=3, max_samples=150)
    grid = dr.run(d3, tg.builtin_target("rational", 3, c0=3.0, c=(1.0, 0.5, 0.25)))[0].grid
    assert len(grid) == 149 and inner_prefix_rows(grid) == (9, 8, 0)
    grid = sg.grid_nodes(sg.theta_opt(lambda_classic("total_degree", (1.0, 1.0), 8.0), "leja"))
    assert inner_prefix_rows(grid) == (0, 0, 0)


@pytest.mark.parametrize("members", [
    [(0,), (1,), (2,), (3,)],                                          # d = 1
    [(0, 0, 0), (1, 0, 0), (0, 1, 0), (2, 0, 0), (1, 1, 0), (0, 0, 1)],
])
@pytest.mark.parametrize("count", ["one", "chunk-1", "chunk", "chunk+1", "3chunk+7"])
def test_evaluation_is_the_same_whatever_the_layout_of_the_points(members, count):
    """Each chunk's coordinates are copied before its basis is built: points
    in Fortran order, a strided view of rows, a slice of the columns of a
    wider array and a read-only array give the bytes of a C-ordered array."""
    rng = np.random.default_rng(23)
    ts = sg.TensorSet(IndexSet(len(members[0]), members), "leja")
    interp = sg.build_interpolant(ts, smooth_samples(rng, ts))
    Y = rng.uniform(-1, 1, (POINT_COUNTS[count](trie_chunk(interp)), ts.dim))
    ref = sg.evaluate_batch(interp, Y).tobytes()
    assert ref == oracles.evaluate_batch(interp, Y).tobytes()
    rows = np.zeros((2 * len(Y), ts.dim))
    rows[::2] = Y
    wide = np.zeros((len(Y), ts.dim + 3))
    wide[:, 2:-1] = Y
    frozen = Y.copy()
    frozen.flags.writeable = False
    for points in (np.asfortranarray(Y), rows[::2], wide[:, 2:-1], frozen):
        assert np.array_equal(points, Y)
        assert sg.evaluate_batch(interp, points).tobytes() == ref


@pytest.mark.parametrize("members", [
    [(0,), (1,), (2,), (3,)],                                          # d = 1
    [(0, 0, 0)],                                                       # one node
    [(0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 0, 1), (2, 0, 0)],           # m_2 = 1
    [(0, 0, 0), (1, 0, 0), (0, 1, 0), (2, 0, 0), (1, 1, 0)],           # m_3 = 1
])
def test_trie_evaluation_edge_cases(members):
    rng = np.random.default_rng(17)
    ts = sg.TensorSet(IndexSet(len(members[0]), members), "leja")
    interp = sg.build_interpolant(ts, smooth_samples(rng, ts))
    d = ts.dim
    for P in (0, 1, 5, trie_chunk(interp) + 1):
        assert_matches_dense(interp, rng.uniform(-1, 1, (P, d)))
    assert np.array_equal(sg.evaluate_batch(interp, interp.grid.points[:0]), np.zeros(0))
    if len(interp.grid) == 1:
        assert np.all(sg.evaluate_batch(interp, rng.uniform(-1, 1, (9, d))) == interp.samples[0])


def test_full_tensor_norm_bound_sanity():
    # per-level bound is the log operator-norm estimate (2/pi) log(2^l) + 1;
    # level 0 is degenerate (norm of a single-node rule is exactly 1), so the
    # product bound is exercised on levels 1..3
    def cc_norm_estimate(l):
        return (2 / np.pi) * np.log(2.0**l) + 1.0

    probes = np.linspace(-1, 1, 4001)
    lebfn = {}
    for l in range(1, 4):
        nodes = r1.family_nodes("clenshaw_curtis", r1.growth("clenshaw_curtis", l))
        lebfn[l] = r1._lebesgue_values(nodes, probes).max()
    assert r1.lebesgue_constant(r1.family_nodes("clenshaw_curtis", 1), 10**4) == 1.0
    for i1 in range(1, 4):
        for i2 in range(1, 4):
            # full-tensor Lebesgue function factorizes across dimensions
            measured = lebfn[i1] * lebfn[i2]
            assert measured <= cc_norm_estimate(i1) * cc_norm_estimate(i2) * 1.05


def test_minimality_small_oracle():
    # every lower theta whose range covers lam must contain theta_opt(lam)
    lam = IndexSet(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    for rule in ("leja", "clenshaw_curtis"):
        opt = sg.theta_opt(lam, rule)
        heights_list = [
            h for h in itertools.product(range(4), repeat=3)
            if all(a >= b for a, b in zip(h, h[1:]))
        ]
        for heights in heights_list:
            members = [(i, j) for i, hi in enumerate(heights) for j in range(hi)]
            if not members:
                continue
            theta = IndexSet(2, members)
            ts = sg.TensorSet(theta, rule)
            if lam.issubset(oracles.degrees(ts)):
                assert opt.theta.issubset(theta)


@settings(max_examples=100, deadline=None)
@given(lam=lower_sets(max_dim=3, max_size=10), rule=st.sampled_from(
    ("leja", "clenshaw_curtis", "fejer2", "rleja_double2", "leja_odd", "rleja")))
def test_theta_opt_is_minimal(lam, rule):
    # lam is drawn as a lower set of degrees here
    opt = sg.theta_opt(lam, rule)
    assert lam.issubset(oracles.degrees(opt))
    members = set(opt.theta.members)
    for i in members:
        if any(i[:k] + (i[k] + 1,) + i[k + 1:] in members for k in range(lam.dim)):
            continue
        # a maximal level: without it the set stays lower but no longer covers lam
        rest = sg.TensorSet(IndexSet(lam.dim, members - {i}), rule)
        assert not lam.issubset(oracles.degrees(rest))


@settings(max_examples=80, deadline=None)
@given(theta=lower_sets(max_size=8), rule=st.sampled_from(
    ("leja", "clenshaw_curtis", "fejer2", "rleja_double2", "leja_odd")),
       data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_new_rows_solve_equals_the_whole_grid_solve_bitwise(theta, rule, data, seed):
    """Grow a lower set level by level; after each step solve only the rows
    the new levels add, against the passes kept from before."""
    ts = sg.TensorSet(theta, rule)
    full = sg.grid_nodes(ts)
    values = dict(zip(full.indices, np.random.default_rng(seed).uniform(-1, 1, len(full))))
    grid = sg.GridNodes.empty(theta.dim)
    passes = np.zeros((theta.dim + 1, 0))
    members = list(theta.members)  # graded-lex: every prefix is lower
    cuts = sorted(data.draw(st.lists(st.integers(0, len(members)), max_size=3)))
    for done, cut in zip([0] + cuts, cuts + [len(members)]):
        grid, new = sg._extend_grid(grid, rule, members[done:cut])
        part = sg.TensorSet(IndexSet(theta.dim, members[:cut]), rule)
        assert grid.idx.tobytes() == sg.grid_nodes(part).idx.tobytes()
        kept = passes
        passes = np.zeros((theta.dim + 1, len(grid)))
        passes[:, ~new] = kept
        passes[0, new] = [values[j] for j in map(tuple, grid.idx[new].tolist())]
        sg._solve_rows(rule, grid, passes, new)
        ref = oracles.fibre_solve(rule, grid.idx, passes[0])
        assert passes[-1].tobytes() == ref.tobytes()
    assert grid.points.tobytes() == full.points.tobytes()


def fibres_by_row(grid):
    """Per dimension, the padded member rows of each row's fibre and the
    members of each fibre by its other coordinates: the table without its
    fibre numbering."""
    return [(fib.members[fib.of].tolist(), {key: fib.members[f].tolist() for key, f in fib.ids.items()})
            for fib in grid._fibres]


def assert_fibres_are_the_rows_agreeing_off_k(grid):
    idx = grid.idx
    for k, fib in enumerate(grid._fibres):
        others = np.delete(idx, k, axis=1)
        for r in range(len(idx)):
            same = np.flatnonzero((others == others[r]).all(axis=1))
            want = np.full(idx[:, k].max(), -1)
            want[idx[same, k] - 1] = same
            assert fib.members[fib.of[r]].tolist() == want.tolist()
            assert fib.ids[tuple(others[r].tolist())] == fib.of[r]
        assert len(fib.ids) == len(fib.members)


@settings(max_examples=80, deadline=None)
@given(theta=lower_sets(max_size=8), rule=st.sampled_from(
    ("leja", "clenshaw_curtis", "fejer2", "rleja_double2", "leja_odd")), data=st.data())
def test_kept_fibre_table_equals_a_table_built_from_scratch(theta, rule, data):
    """Grow a lower set level by level from an empty grid: every step
    carries the table forward, and it holds the fibres of a table built
    from scratch on the grown grid."""
    members = list(theta.members)  # graded-lex: every prefix is lower
    cuts = sorted(data.draw(st.lists(st.integers(0, len(members)), max_size=4)))
    grid = sg.GridNodes.empty(theta.dim)
    for done, cut in zip([0] + cuts, cuts + [len(members)]):
        grid, _ = sg._extend_grid(grid, rule, members[done:cut])
        scratch = sg.GridNodes(grid.idx, grid.points)
        assert fibres_by_row(grid) == fibres_by_row(scratch)
    assert_fibres_are_the_rows_agreeing_off_k(grid)


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("rule", ["leja", "clenshaw_curtis", "rleja_double2"])
def test_fibre_table_holds_the_rows_agreeing_off_k_after_every_extension(d, rule):
    """Grow a random lower set from an empty grid in random steps, each
    followed by an empty extension: after every step the carried table
    holds exactly the fibres of its grid."""
    rng = np.random.default_rng(d)
    members = list(random_lower_set(rng, d, 8).members)  # graded-lex: every prefix is lower
    cuts = sorted(rng.integers(1, len(members), size=3).tolist())
    grid = sg.GridNodes.empty(d)
    for done, cut in zip([0] + cuts, cuts + [len(members)]):
        for levels in (members[done:cut], []):
            grid, _ = sg._extend_grid(grid, rule, levels)
            assert_fibres_are_the_rows_agreeing_off_k(grid)
    assert grid.idx.tobytes() == sg.grid_nodes(sg.TensorSet(IndexSet(d, members), rule)).idx.tobytes()


def test_grid_carries_its_fibre_tables():
    ts = sg.TensorSet(IndexSet(2, [(0, 0), (1, 0), (0, 1)]), "leja")
    grid = sg.grid_nodes(ts)
    assert_fibres_are_the_rows_agreeing_off_k(grid)
    assert_fibres_are_the_rows_agreeing_off_k(sg._extend_grid(grid, "leja", [(1, 1)])[0])


# the greedy max-/min-Lebesgue and min-delta tables take seconds to build;
# Leja stands for the greedy families
@settings(max_examples=60, deadline=None)
@given(theta=lower_sets(max_size=8), rule=st.sampled_from(r1.CLOSED_FORM_KINDS + ("leja", "leja_odd")),
       seed=st.integers(0, 2**32 - 1))
def test_save_load_round_trip_bit_exact(theta, rule, seed):
    # at most 33 nodes per dimension, where the Newton tables of
    # Clenshaw-Curtis and Fejer 2 stay below 4e4
    top = max(l for l in range(8) if r1.growth(rule, l) <= 33)
    members = [i for i in theta if max(i) <= top]
    ts = sg.TensorSet(IndexSet(theta.dim, members), rule)
    rng = np.random.default_rng(seed)
    interp = sg.build_interpolant(ts, smooth_samples(rng, ts))
    pts = rng.uniform(-1, 1, (64, theta.dim))
    with tempfile.TemporaryDirectory() as tmp:
        path, again = Path(tmp) / "model.json", Path(tmp) / "again.json"
        sg.save_interpolant(interp, path)
        loaded = sg.load_interpolant(path)
        got = sg.evaluate_batch(loaded, pts)
        assert got.tobytes() == sg.evaluate_batch(interp, pts).tobytes()
        sg.save_interpolant(loaded, again)
        assert again.read_bytes() == path.read_bytes()


def test_load_refuses_points_off_the_node_table(tmp_path):
    # a model saved on another node table must not load onto the current one
    rng = np.random.default_rng(15)
    ts = sg.TensorSet(random_lower_set(rng, 2, 5), "leja")
    interp = sg.build_interpolant(ts, random_samples(rng, ts))
    path = tmp_path / "model.json"
    sg.save_interpolant(interp, path)
    obj = json.loads(path.read_text())
    obj["points"][-1][0] = float(np.nextafter(obj["points"][-1][0], 2.0))
    path.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match="node table of rule 'leja'"):
        sg.load_interpolant(path)


def test_load_refuses_reordered_grid_indices(tmp_path):
    rng = np.random.default_rng(16)
    ts = sg.TensorSet(random_lower_set(rng, 2, 5), "leja")
    interp = sg.build_interpolant(ts, random_samples(rng, ts))
    path = tmp_path / "model.json"
    sg.save_interpolant(interp, path)
    obj = json.loads(path.read_text())
    rows = obj["grid_indices"]
    rows[1], rows[2] = rows[2], rows[1]
    path.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match="grid indices in file"):
        sg.load_interpolant(path)


def theta_with_a_duplicate(theta):
    theta.append(theta[-1])


def theta_with_a_negative_entry(theta):
    theta[-1][0] = -1


def theta_with_a_row_of_the_wrong_length(theta):
    theta[-1].append(0)


def theta_without_the_origin(theta):
    theta.remove([0, 0])


@pytest.mark.parametrize("edit, message", [
    (theta_with_a_duplicate, "duplicate multi-indices"),
    (theta_with_a_negative_entry, "has a negative entry"),
    (theta_with_a_row_of_the_wrong_length, "does not have dimension 2"),
    (theta_without_the_origin, "tensor set must be downward closed")])
def test_load_refuses_a_theta_that_is_not_a_lower_set(tmp_path, edit, message):
    rng = np.random.default_rng(17)
    ts = sg.TensorSet(random_lower_set(rng, 2, 5), "leja")
    path = tmp_path / "model.json"
    sg.save_interpolant(sg.build_interpolant(ts, random_samples(rng, ts)), path)
    obj = json.loads(path.read_text())
    edit(obj["theta"])
    path.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match=message):
        sg.load_interpolant(path)


def test_load_reads_theta_in_any_order(tmp_path):
    rng = np.random.default_rng(19)
    ts = sg.TensorSet(random_lower_set(rng, 3, 9), "leja")
    path, backwards, again = (tmp_path / name for name in ("model.json", "backwards.json",
                                                           "again.json"))
    sg.save_interpolant(sg.build_interpolant(ts, random_samples(rng, ts)), path)
    obj = json.loads(path.read_text())
    obj["theta"].reverse()
    backwards.write_text(json.dumps(obj))
    sg.save_interpolant(sg.load_interpolant(backwards), again)
    assert again.read_bytes() == path.read_bytes()


INTERPOLANT_KEYS = ("format", "version", "rule", "dim", "theta", "grid_indices", "points",
                    "samples", "surpluses")


@pytest.mark.parametrize("key", INTERPOLANT_KEYS)
def test_load_names_the_file_and_a_missing_key(tmp_path, key):
    rng = np.random.default_rng(18)
    ts = sg.TensorSet(random_lower_set(rng, 2, 4), "leja")
    path = tmp_path / "model.json"
    sg.save_interpolant(sg.build_interpolant(ts, random_samples(rng, ts)), path)
    obj = json.loads(path.read_text())
    assert tuple(obj) == INTERPOLANT_KEYS
    del obj[key]
    path.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match=re.escape(f"{path}: no key {key!r}")):
        sg.load_interpolant(path)


def test_load_refuses_json_that_is_not_an_object_or_another_format(tmp_path):
    path = tmp_path / "model.json"
    for text in ("[]", "[1, 2]", "3", "null", '"model"'):
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}: not a JSON object")):
            sg.load_interpolant(path)
    for text in ("", "not json\n"):
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}: not JSON")):
            sg.load_interpolant(path)
    path.write_bytes(b"\xff\xfe")
    with pytest.raises(ValueError, match=re.escape(f"{path}: not UTF-8")):
        sg.load_interpolant(path)
    # the format is read before the keys past it
    path.write_text(json.dumps({"format": "adasg-checkpoint", "version": 1}))
    with pytest.raises(ValueError, match="not a version-1 adasg-interpolant file"):
        sg.load_interpolant(path)


def test_domain_check_and_extrapolation_flag():
    ts = sg.TensorSet(IndexSet(1, [(0,), (1,)]), "leja")
    interp = sg.build_interpolant(ts, {(1,): 0.0, (2,): 1.0})
    with pytest.raises(sg.DomainError):
        sg.evaluate_batch(interp, [[1.0 + 1e-9]])[0]
    with pytest.warns(UserWarning):
        v = sg.evaluate_batch(interp, [[1.5]], allow_extrapolation=True)[0]
    assert abs(v - 1.5) < 1e-12
    # NaN compares False with everything, so it must count as outside
    with pytest.raises(sg.DomainError):
        sg.evaluate_batch(interp, [[0.5], [np.nan]])
    with pytest.warns(UserWarning):
        sg.evaluate_batch(interp, [[np.nan]], allow_extrapolation=True)[0]


def test_lowerness_is_checked_never_claimed():
    with pytest.raises(TypeError):
        IndexSet(2, [(0, 0), (2, 0)], lower_flag=True)
    with pytest.raises(ValueError, match="downward closed"):
        sg.TensorSet(IndexSet(2, [(0, 0), (2, 0)]), "leja")
    with pytest.raises(ValueError, match="downward closed"):
        sg.theta_opt(IndexSet(2, [(0, 0), (2, 0)]), "leja")
    s = IndexSet(2, [(0, 0), (1, 0), (0, 1)])
    with pytest.raises(AttributeError):
        s.lower_flag = True
    assert not s._lower and is_lower(s) and sg.TensorSet(s, "leja").theta is s
