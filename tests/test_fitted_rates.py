"""The fitted decay rates against the region where the target is analytic.

1/(c0 + c.y) is analytic in y_k on the Bernstein ellipses with parameters
rho_k for which sum_k |c_k| (rho_k + 1/rho_k) / 2 <= c0, and its Legendre
coefficients decay like prod_k rho_k^-nu_k.  So a fit of the decay should
find alpha_k = log rho_k: in 1-D, rho = c0/|c| + sqrt((c0/c)^2 - 1); in d = 2
the rates of a fit without the log term put (rho_1, rho_2) on the boundary.
"""

import math

import pytest

from adasg import driver as dr
from adasg import targets as tg


@pytest.mark.parametrize("fit_beta", [True, False])
@pytest.mark.parametrize("c0", [3.0, 1.5, 1.1])
def test_1d_rate_is_the_log_of_the_bernstein_parameter(c0, fit_beta):
    cfg = dr.RunConfig(rule="leja", d=1, fit_beta=fit_beta, max_iterations=1000, max_samples=60)
    _, hist = dr.run(cfg, tg.builtin_target("rational", 1, c0=c0, c=[1.0]))
    log_rho = math.log(c0 + math.sqrt(c0 * c0 - 1.0))
    assert hist[-1].alpha[0] == pytest.approx(log_rho, rel=0.015)


@pytest.mark.parametrize("c", [(1.0, 0.5), (1.0, 0.1), (1.0, 1.0)])
def test_2d_rates_without_the_log_term_lie_on_the_analytic_boundary(c):
    cfg = dr.RunConfig(rule="leja", d=2, fit_beta=False, max_iterations=10_000, max_samples=400)
    _, hist = dr.run(cfg, tg.builtin_target("rational", 2, c0=3.0, c=list(c)))
    rho = [math.exp(a) for a in hist[-1].alpha]
    assert sum(abs(ck) * (r + 1.0 / r) / 2.0 for ck, r in zip(c, rho)) == pytest.approx(3.0, rel=0.15)
