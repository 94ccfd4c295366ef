import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from adasg import fitting as ft
from adasg.driver import RunConfig
from adasg.multiindex import graded_lex_key
from adasg.multiindex import lambda_classic


def model_coeffs(lam, alpha, beta, c0):
    out = {}
    for nu in lam.members:
        w = c0 + sum(alpha[k] * nu[k] + beta[k] * math.log(nu[k] + 1) for k in range(len(nu)))
        out[nu] = math.exp(-w)
    return out


def normal_equation_oracle(coeffs, d):
    """Independent solve of the same regression via explicit normal equations."""
    nus = np.array(sorted(coeffs), dtype=float)
    b = -np.log(np.abs(np.array([coeffs[tuple(int(v) for v in nu)] for nu in nus])))
    A = np.column_stack([np.ones(len(nus)), nus, np.log(nus + 1.0)])
    x = np.linalg.solve(A.T @ A, A.T @ b)
    return x[0], x[1:1 + d], x[1 + d:]


def test_adhoc_correction_examples():
    assert ft.adhoc_correction((0.5, -0.2, 1.0))[0] == (0.5, 0.5, 1.0)
    assert ft.adhoc_correction((1.0, 0.4))[0] == (1.0, 0.4)
    assert ft.adhoc_correction((-1.0, -2.0, 0.3))[0] == (0.3, 0.3, 0.3)


def test_adhoc_correction_idempotent():
    once, dims = ft.adhoc_correction((-0.5, 0.2, 0.0))
    assert dims == frozenset({0, 2})
    twice, dims2 = ft.adhoc_correction(once)
    assert twice == once and dims2 == frozenset()


def test_adhoc_correction_requires_a_positive_entry():
    with pytest.raises(ft.UnfittableError):
        ft.adhoc_correction((-1.0, -0.1, 0.0))


def test_exact_model_recovery_td3():
    lam = lambda_classic("total_degree", (1.0, 1.0), 3.0)
    alpha, beta, c0 = (0.7, 1.3), (-0.4, 0.6), 0.9
    fp = ft.fit_curved(model_coeffs(lam, alpha, beta, c0))
    assert np.allclose(fp.alpha, alpha, atol=1e-8)
    assert np.allclose(fp.beta, beta, atol=1e-8)
    assert abs(fp.c_const - c0) < 1e-8
    assert fp.residual <= 1e-10
    assert fp.corrected_dims == frozenset() and fp.excluded_dims == frozenset()


def test_rank_deficient_dimension_excluded():
    coeffs = {(i, 0): math.exp(-0.5 * i) for i in range(7)}
    fp = ft.fit_curved(coeffs)
    assert fp.excluded_dims == frozenset({1})
    assert abs(fp.alpha[0] - 0.5) < 1e-8
    assert fp.alpha[1] == max(a for k, a in enumerate(fp.alpha) if k not in fp.excluded_dims)
    assert fp.beta[1] == 0.0


def test_perturbed_model_recovery_against_oracle():
    # multiplicative noise exp(+-0.1); alpha recovered within 0.05 on a TD-6 set
    rng = np.random.default_rng(17)
    lam = lambda_classic("total_degree", (1.0, 1.0), 6.0)
    alpha, beta, c0 = (0.9, 1.4), (0.2, -0.3), 0.5
    clean = model_coeffs(lam, alpha, beta, c0)
    noisy = {nu: c * math.exp(rng.uniform(-0.1, 0.1)) for nu, c in clean.items()}
    fp = ft.fit_curved(noisy)
    assert abs(fp.alpha[0] - alpha[0]) < 0.05
    assert abs(fp.alpha[1] - alpha[1]) < 0.05
    c_ref, a_ref, b_ref = normal_equation_oracle(noisy, 2)
    assert np.allclose(fp.alpha, a_ref, atol=1e-7)
    assert np.allclose(fp.beta, b_ref, atol=1e-7)
    assert abs(fp.c_const - c_ref) < 1e-7


def test_shift_equivariance():
    lam = lambda_classic("total_degree", (1.0, 1.0), 3.0)
    coeffs = model_coeffs(lam, (0.7, 1.3), (-0.4, 0.6), 0.9)
    fp = ft.fit_curved(coeffs)
    fp2 = ft.fit_curved({nu: 7.5 * c for nu, c in coeffs.items()})
    assert np.allclose(fp.alpha, fp2.alpha, atol=1e-10)
    assert np.allclose(fp.beta, fp2.beta, atol=1e-10)
    assert abs((fp2.c_const - fp.c_const) + math.log(7.5)) < 1e-9


def test_order_independence():
    lam = lambda_classic("total_degree", (1.0, 1.0), 4.0)
    coeffs = model_coeffs(lam, (0.8, 1.1), (0.1, -0.2), 0.3)
    items = list(coeffs.items())
    shuffled = dict(reversed(items))
    a = ft.fit_curved(coeffs)
    b = ft.fit_curved(shuffled)
    assert a.alpha == b.alpha and a.beta == b.beta and a.c_const == b.c_const


def test_too_few_usable_coefficients():
    with pytest.raises(ft.UnfittableError):
        ft.fit_curved({(0, 0): 1.0, (1, 0): 0.0, (0, 1): 0.0})


def test_negative_rate_corrected():
    lam = lambda_classic("total_degree", (1.0, 1.0), 4.0)
    # growth in dim 1 (negative rate), decay in dim 2
    coeffs = model_coeffs(lam, (-0.3, 1.0), (0.0, 0.0), 0.0)
    fp = ft.fit_curved(coeffs)
    assert fp.corrected_dims == frozenset({0})
    assert fp.alpha[0] == fp.alpha[1] > 0


def test_beta_mask():
    lam = lambda_classic("total_degree", (1.0, 1.0), 4.0)
    coeffs = model_coeffs(lam, (0.9, 1.2), (0.0, 0.0), 0.4)
    fp = ft.fit_curved(coeffs, include_beta=False)
    assert fp.beta == (0.0, 0.0)
    assert np.allclose(fp.alpha, (0.9, 1.2), atol=1e-8)


def test_surplus_fit_requires_unit_growth():
    surp = {(j,): math.exp(-0.8 * (j - 1)) for j in range(1, 9)}
    # on a unit-growth rule grid index j carries the degree j - 1
    fp = ft.fit_curved({(j - 1,): s for (j,), s in surp.items()})
    assert abs(fp.alpha[0] - 0.8) < 1e-8
    assert abs(fp.beta[0]) < 1e-7
    with pytest.raises(ValueError):
        RunConfig(rule="clenshaw_curtis", d=1, fit_source="surplus")


def test_surplus_fit_sign_check_on_entire_function():
    # exp(y) on a 1D leja chain: surpluses decay, fitted rate positive
    from adasg import sparse_grid as sg
    from adasg.multiindex import IndexSet

    ts = sg.TensorSet(IndexSet(1, [(l,) for l in range(9)]), "leja")
    grid = sg.grid_nodes(ts)
    samples = {j: float(np.exp(p[0])) for j, p in zip(grid.indices, grid.points)}
    interp = sg.build_interpolant(ts, samples)
    degrees = map(tuple, (interp.grid.idx - 1).tolist())
    fp = ft.fit_curved(dict(zip(degrees, interp.surpluses.tolist())))
    assert fp.alpha[0] > 0


def test_isotropic_fallback_params():
    fp = ft.isotropic_params(3)
    assert fp.alpha == (1.0, 1.0, 1.0) and fp.beta == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("alpha, beta, c_const", [
    ((math.inf, 1.0), (0.0, 0.0), 0.0), ((1.0, 1.0), (math.nan, 0.0), 0.0),
    ((1.0, 1.0), (0.0, -math.inf), 0.0), ((1.0, 1.0), (0.0, 0.0), math.nan),
])
def test_fit_params_refuse_non_finite_entries(alpha, beta, c_const):
    with pytest.raises(ValueError, match="fit parameters must be finite"):
        ft.FitParams(alpha, beta, c_const)


def fit_bits(fit):
    """A fit, or the message of the refusal, with every float as its bits."""
    if isinstance(fit, ft.UnfittableError):
        return str(fit)
    return (np.array(fit.alpha).tobytes(), np.array(fit.beta).tobytes(),
            np.float64(fit.c_const).tobytes(), fit.corrected_dims, fit.excluded_dims,
            np.float64(fit.residual).tobytes(), fit.n_used)


def outcome(fit, *args):
    try:
        return fit_bits(fit(*args))
    except ft.UnfittableError as err:
        return fit_bits(err)


@settings(max_examples=200, deadline=None)
@given(d=st.integers(1, 4), data=st.data(), min_magnitude=st.sampled_from((1e-14, 1e-6)),
       include_beta=st.booleans())
def test_array_fit_equals_the_dict_fit_bitwise(d, data, min_magnitude, include_beta):
    """Magnitudes from the decay model with noise, a few of them replaced by
    zero, a denormal-range value, inf or NaN; either path fits or refuses
    alike."""
    degrees = data.draw(st.lists(st.tuples(*[st.integers(0, 6)] * d), unique=True,
                                  min_size=2 * d + 2, max_size=40))
    alpha = data.draw(st.lists(st.floats(-0.5, 3.0), min_size=d, max_size=d))
    beta = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d))
    noise = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=len(degrees), max_size=len(degrees)))
    coeffs = {nu: math.exp(e - sum(a * v + b * math.log(v + 1) for a, b, v in zip(alpha, beta, nu)))
              for nu, e in zip(degrees, noise)}
    specials = st.sampled_from((0.0, 5e-301, 1e-30, -1.0, math.inf, math.nan))
    for nu, c in data.draw(st.lists(st.tuples(st.sampled_from(degrees), specials), max_size=3)):
        coeffs[nu] = c
    ref = outcome(oracles.fit_curved, coeffs, min_magnitude, include_beta)
    assert outcome(ft.fit_curved, coeffs, min_magnitude, include_beta) == ref
    rows = sorted(coeffs, key=graded_lex_key)
    array = np.array(rows, dtype=np.int64).reshape(-1, d)
    values = np.array([coeffs[nu] for nu in rows])
    assert outcome(ft._fit_rows, array, values, min_magnitude, include_beta) == ref
