import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from strategies import lower_sets, random_lower_set
from adasg import sparse_grid as sg
from adasg import spectral as sp
from adasg.multiindex import IndexSet, lambda_classic


def coeffs_over(interp, lam):
    """The Legendre coefficients of the modes of `lam`, keyed by degree, read
    off the rows of `grid_coeffs`."""
    of = dict(zip(map(tuple, (interp.grid.idx - 1).tolist()), sp.grid_coeffs(interp).tolist()))
    return {nu: of[nu] for nu in lam.members}


def test_legendre_1d_values():
    assert sp.legendre_1d(0, 0.37) == 1.0
    assert abs(sp.legendre_1d(1, 1.0) - math.sqrt(3)) < 1e-15
    assert abs(sp.legendre_1d(2, 0.0) + math.sqrt(5) / 2) < 1e-15


def test_legendre_1d_orthonormal_under_uniform_probability():
    x, w = np.polynomial.legendre.leggauss(24)
    w = w / 2
    for a in range(6):
        for b in range(6):
            dot = float((w * sp.legendre_1d(a, x) * sp.legendre_1d(b, x)).sum())
            assert abs(dot - (1.0 if a == b else 0.0)) < 1e-13


def quadrature_coeffs(interp, lam, counts):
    """Oracle: project the interpolant's values on a tensor Gauss-Legendre grid
    (counts[k] points in dimension k, uniform probability) onto each mode."""
    rules = [np.polynomial.legendre.leggauss(n) for n in counts]
    nodes = [x for x, _ in rules]
    weights = [w / 2.0 for _, w in rules]
    mesh = np.meshgrid(*nodes, indexing="ij")
    pts = np.stack([g.reshape(-1) for g in mesh], axis=1)
    vals = sg.evaluate_batch(interp, pts).reshape(counts)
    out = {}
    for nu in lam.members:
        acc = vals
        for k in range(lam.dim):
            row = sp.legendre_1d(nu[k], nodes[k]) * weights[k]
            acc = np.tensordot(row, acc, axes=([0], [0]))
        out[nu] = float(acc)
    return out


def test_constant_interpolant_coefficients():
    lam = lambda_classic("total_degree", (1.0, 1.0), 2.0)
    ts = sg.theta_opt(lam, "clenshaw_curtis")
    grid = sg.grid_nodes(ts)
    interp = sg.build_interpolant(ts, {j: 2.5 for j in grid.indices})
    coeffs = coeffs_over(interp, lam)
    assert abs(coeffs[(0, 0)] - 2.5) < 1e-12
    assert all(abs(v) < 1e-12 for nu, v in coeffs.items() if nu != (0, 0))


def test_coordinate_interpolant_coefficient():
    lam = lambda_classic("total_degree", (1.0, 1.0), 2.0)
    ts = sg.theta_opt(lam, "clenshaw_curtis")
    grid = sg.grid_nodes(ts)
    interp = sg.build_interpolant(ts, {j: float(p[0]) for j, p in zip(grid.indices, grid.points)})
    coeffs = coeffs_over(interp, lam)
    assert abs(coeffs[(1, 0)] - 1 / math.sqrt(3)) < 1e-12
    assert all(abs(v) < 1e-12 for nu, v in coeffs.items() if nu != (1, 0))


def test_interpolated_mode_is_orthonormal():
    nu0 = (2, 1)
    lam = lambda_classic("total_degree", (1.0, 1.0), 3.0)
    ts = sg.theta_opt(lam, "leja")
    grid = sg.grid_nodes(ts)

    def mode(Y):
        Y = np.atleast_2d(Y)
        return sp.legendre_1d(nu0[0], Y[:, 0]) * sp.legendre_1d(nu0[1], Y[:, 1])

    interp = sg.build_interpolant(
        ts, {j: float(mode(p[None, :])[0]) for j, p in zip(grid.indices, grid.points)}
    )
    coeffs = coeffs_over(interp, lam)
    assert abs(coeffs[nu0] - 1.0) < 1e-10
    assert all(abs(v) < 1e-10 for nu, v in coeffs.items() if nu != nu0)


def test_parseval_against_independent_quadrature():
    rng = np.random.default_rng(2)
    theta = random_lower_set(rng, 2, 5)
    ts = sg.TensorSet(theta, "leja")
    grid = sg.grid_nodes(ts)
    interp = sg.build_interpolant(
        ts, {j: float(rng.uniform(-1, 1)) for j in grid.indices}
    )
    rng_set = oracles.degrees(ts)
    coeffs = coeffs_over(interp, rng_set)
    ssq = sum(v * v for v in coeffs.values())
    deg = max(rng_set.max_degrees())
    x, w = np.polynomial.legendre.leggauss(2 * deg + 6)
    w = w / 2
    X, Y = np.meshgrid(x, x, indexing="ij")
    pts = np.stack([X.reshape(-1), Y.reshape(-1)], axis=1)
    vals = sg.evaluate_batch(interp, pts).reshape(len(x), len(x))
    norm2 = float(np.einsum("i,j,ij->", w, w, vals**2))
    assert abs(ssq - norm2) <= 1e-8 * max(norm2, 1e-30)


def test_reconstruction_matches_interpolant():
    rng = np.random.default_rng(3)
    theta = random_lower_set(rng, 2, 6)
    ts = sg.TensorSet(theta, "clenshaw_curtis")
    grid = sg.grid_nodes(ts)
    interp = sg.build_interpolant(
        ts, {j: float(rng.uniform(-1, 1)) for j in grid.indices}
    )
    rng_set = oracles.degrees(ts)
    coeffs = coeffs_over(interp, rng_set)
    pts = rng.uniform(-1, 1, (100, 2))
    rec = np.zeros(100)
    for nu, c in coeffs.items():
        rec += c * sp.legendre_1d(nu[0], pts[:, 0]) * sp.legendre_1d(nu[1], pts[:, 1])
    direct = sg.evaluate_batch(interp, pts)
    assert np.abs(rec - direct).max() <= 1e-8 * max(1.0, np.abs(direct).max())


def test_coefficients_stable_under_over_refinement():
    rng = np.random.default_rng(4)
    theta = random_lower_set(rng, 2, 4)
    ts = sg.TensorSet(theta, "leja")
    grid = sg.grid_nodes(ts)
    interp = sg.build_interpolant(
        ts, {j: float(rng.uniform(-1, 1)) for j in grid.indices}
    )
    lam = oracles.degrees(ts)
    base = coeffs_over(interp, lam)
    # twice the points an exact rule needs must land on the exactness plateau
    counts = [2 * (deg + 1) for deg in lam.max_degrees()]
    ref = quadrature_coeffs(interp, lam, counts)
    for nu in lam.members:
        assert abs(ref[nu] - base[nu]) < 1e-12


@settings(max_examples=60, deadline=None)
@given(theta=lower_sets(), rule=st.sampled_from(("leja", "clenshaw_curtis", "rleja_double2")),
       seed=st.integers(0, 2**32 - 1))
def test_coefficients_match_tensor_gauss_quadrature(theta, rule, seed):
    rng = np.random.default_rng(seed)
    ts = sg.TensorSet(theta, rule)
    grid = sg.grid_nodes(ts)
    a, b = rng.uniform(-1.2, 1.2, theta.dim), rng.uniform(-1.5, 1.5, theta.dim)
    values = np.exp(grid.points @ a) * np.cos(grid.points @ b)
    interp = sg.build_interpolant(ts, dict(zip(grid.indices, values)))
    lam = oracles.degrees(ts)
    got = coeffs_over(interp, lam)
    ref = quadrature_coeffs(interp, lam, [deg + 1 for deg in lam.max_degrees()])
    scale = max(1.0, max(abs(v) for v in ref.values()))
    assert max(abs(got[nu] - ref[nu]) for nu in lam.members) <= 1e-10 * scale


@pytest.mark.parametrize("rule", ["leja", "clenshaw_curtis", "rleja_double2"])
def test_cached_1d_matrices_are_read_only_and_equal_a_fresh_build(rule):
    for m in (1, 5, 17):
        for cached, build in ((sp._basis_change, sp._basis_change.__wrapped__),
                              (sg._newton_table, sg._newton_table.__wrapped__)):
            mat = cached(rule, m)
            assert cached(rule, m) is mat
            assert not mat.flags.writeable
            with pytest.raises(ValueError):
                mat[0, 0] = 1.0
            fresh = build(rule, m)
            assert fresh.shape == (m, m) and fresh.tobytes() == mat.tobytes()


def test_gauss_legendre_has_the_bytes_of_numpys_leggauss():
    for m in range(1, 257):
        got, want = sp._gauss_legendre(m), np.polynomial.legendre.leggauss(m)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), m


def assert_coeffs_equal_the_fibre_oracle(ts, grid, rng):
    """`grid_coeffs` of random surpluses on `grid`, about a quarter of them
    signed zeros, equals the oracle's lexsort-and-q-loop transform bitwise."""
    surpluses = rng.uniform(-1, 1, len(grid))
    zero = rng.random(len(grid)) < 0.25
    surpluses[zero] = np.copysign(0.0, rng.uniform(-1, 1, zero.sum()))
    got = sp.grid_coeffs(sg.Interpolant(ts, grid, surpluses, surpluses))
    mmax = grid.idx.max(axis=0)
    basis = sp._basis_change(ts.rule, int(mmax.max()))
    ref = oracles.fibre_apply(grid.idx, surpluses, [basis[:m, :m] for m in mmax])
    assert got.tobytes() == ref.tobytes()


@settings(max_examples=80, deadline=None)
@given(theta=lower_sets(max_dim=5, max_size=5),
       rule=st.sampled_from(("leja", "rleja_double2", "clenshaw_curtis")),
       data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_grid_coeffs_equal_the_fibre_oracle_bitwise(theta, rule, data, seed):
    """On the grid of the whole set, and on a grid extended level by level
    through `_extend_grid`, whose coefficients are read after every step."""
    rng = np.random.default_rng(seed)
    ts = sg.TensorSet(theta, rule)
    assert_coeffs_equal_the_fibre_oracle(ts, sg.grid_nodes(ts), rng)
    members = list(theta.members)  # graded-lex: every prefix is lower
    cuts = sorted(data.draw(st.lists(st.integers(1, len(members)), max_size=3)))
    grid = sg.GridNodes.empty(theta.dim)
    for done, cut in zip([0] + cuts, cuts + [len(members)]):
        grid = sg._extend_grid(grid, rule, members[done:cut])
        part = sg.TensorSet(IndexSet(theta.dim, members[:cut]), rule)
        assert_coeffs_equal_the_fibre_oracle(part, grid, rng)


@pytest.mark.parametrize("chunk", [1, 9, 40])
@pytest.mark.parametrize("members", [
    [(l,) for l in range(12)],                                      # d = 1: one fibre of 12
    [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1), (0, 2)],
])
def test_grid_coeffs_in_chunks_of_rows_equal_the_fibre_oracle_bitwise(chunk, members, monkeypatch):
    """Chunks of a few rows, down to one term a chunk, so that chunks of two
    rows and more take fibres of nine members and more."""
    monkeypatch.setattr(sg, "_FIBRE_CHUNK_TERMS", chunk)
    ts = sg.TensorSet(IndexSet(len(members[0]), members), "leja")
    assert_coeffs_equal_the_fibre_oracle(ts, sg.grid_nodes(ts), np.random.default_rng(chunk))


def test_grid_coeffs_of_an_interpolant_without_nodes():
    interp = sg.build_interpolant(sg.TensorSet(IndexSet(2, []), "leja"), {})
    got = sp.grid_coeffs(interp)
    assert got.shape == (0,) and got.dtype == float
