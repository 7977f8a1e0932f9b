import math

import mpmath as mp
import numpy as np
import pytest

from rmflab import prime_series as ps
from rmflab import primes

import oracles

# High-precision oracle values, frozen from mpmath (independent evaluation).
PRIME_ZETA = {
    1.2: 1.51976831282175,
    1.5: 0.84956268362224,
    2.0: 0.45224742004107,
    4.0: 0.07699313976425,
}


def test_zeta_closed_forms():
    assert ps.zeta(2.0) == pytest.approx(math.pi**2 / 6, rel=1e-13)
    assert ps.zeta(4.0) == pytest.approx(math.pi**4 / 90, rel=1e-13)


def test_zeta_near_one():
    # Independent Euler-Maclaurin oracle: mpmath at 30 digits.
    assert ps.zeta(1.001) == pytest.approx(1000.57728848, rel=1e-10)


def test_zeta_large_argument_branch():
    assert ps.zeta(64.0) == pytest.approx(1 + 2.0**-64, rel=1e-12)
    assert ps.zeta(80.0) == pytest.approx(1 + 2.0**-80, rel=1e-12)


def test_zeta_relative_error_grid():
    with mp.workdps(30):
        for s in [1.0005, 1.01, 1.3, 2.5, 7.0, 19.0, 33.0, 57.0, 64.0]:
            ref = float(mp.zeta(mp.mpf(s)))
            assert abs(ps.zeta(s) - ref) <= 1e-12 * ref


def test_zeta_domain_error():
    for s in (1.0, 0.5, -2.0):
        with pytest.raises(ValueError):
            ps.zeta(s)


def test_prime_zeta_known_values():
    for s, ref in PRIME_ZETA.items():
        cv = ps.prime_zeta(s)
        assert cv.estimate == pytest.approx(ref, abs=5e-9)
        assert cv.contains(ref)


def test_prime_zeta_intervals_contain_truth():
    with mp.workdps(30):
        for s in [1.001, 1.05, 1.7, 2.0, 6.0, 25.0, 50.0, 64.0]:
            cv = ps.prime_zeta(s)
            ref = float(mp.primezeta(mp.mpf(s)))
            assert cv.lower <= ref <= cv.upper


def test_prime_zeta_dominant_term_at_64():
    cv = ps.prime_zeta(64.0)
    assert cv.estimate == pytest.approx(2.0**-64, rel=1e-6)


def test_prime_zeta_direct_and_accelerated_intersect():
    for s in [1.1, 1.5, 2.0, 3.0, 8.0, 20.0, 64.0]:
        d = ps.prime_zeta_direct(s, 10**6)
        a = ps.prime_zeta(s)
        assert d.intersects(a), (s, d, a)


def test_prime_zeta_monotone_decreasing():
    grid = [1.05, 1.1, 1.3, 1.7, 2.5, 4.0, 8.0, 16.0]
    vals = [ps.prime_zeta(s).estimate for s in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_prime_zeta_validation():
    with pytest.raises(ValueError):
        ps.prime_zeta(1.0)
    with pytest.raises(ValueError):
        ps.prime_zeta_direct(1.0, 10**6)
    with pytest.raises(ValueError):
        ps.prime_zeta_direct(2.0, 1)


def test_certified_value_invariants():
    with pytest.raises(ValueError):
        ps.CertifiedValue(estimate=1.0, upper=0.5, lower=0.0)
    with pytest.raises(ValueError):
        ps.CertifiedValue(estimate=1.0, upper=math.inf, lower=0.0)


def test_variance_sum():
    v = ps.variance_sum(0.75)
    assert v.estimate == pytest.approx(PRIME_ZETA[1.5], abs=5e-9)
    v1 = ps.variance_sum(1.0)
    assert v1.estimate == pytest.approx(PRIME_ZETA[2.0], abs=5e-9)
    with pytest.raises(ps.DivergenceError):
        ps.variance_sum(0.5)


def test_truncated_variance_matches_direct_sum():
    table = primes.cached_primes(10**4)
    expect = sum(float(p) ** -1.5 for p in table.primes)
    assert ps.truncated_variance(0.75, 10**4) == pytest.approx(expect, rel=1e-12)


def test_log_weighted_bound_rhs_values():
    r1 = ps.log_weighted_sum(1.0, n_cut=10**6)
    assert r1.bound_rhs == pytest.approx(4.0)
    assert r1.holds
    r075 = ps.log_weighted_sum(0.75, n_cut=10**6)
    assert r075.bound_rhs == pytest.approx(16.0)
    r06 = ps.log_weighted_sum(0.6, n_cut=10**6)
    assert r06.holds and r06.value.upper <= r06.bound_rhs


def test_log_weighted_domain():
    for s in (0.5, 0.4, 1.01, 2.0):
        with pytest.raises(ValueError):
            ps.log_weighted_sum(s)


@pytest.mark.parametrize("n_cut", [10**5, 10**7])
def test_log_weighted_grid_matches_direct_sum(n_cut):
    sigmas = [round(0.51 + 0.01 * i, 2) for i in range(50)]
    for sigma, grid in zip(sigmas, ps.log_weighted_grid(sigmas, n_cut)):
        direct = oracles.log_weighted_direct(sigma, n_cut)
        assert grid.value.estimate == direct.value.estimate, sigma
        assert grid.value.lower == direct.value.lower, sigma
        assert grid.value.upper == direct.value.upper, sigma
        assert grid.holds == direct.holds and grid.bound_rhs == direct.bound_rhs, sigma


def test_log_weighted_tail_antiderivative_symbolic():
    # Differentiating the closed-form tail in its lower limit must reproduce
    # -(log N)^2 N^(-2 sigma); checked symbolically, plus one quadrature spot.
    sympy = pytest.importorskip("sympy")
    n0, sig = sympy.symbols("N sigma", positive=True)
    u = 2 * sig - 1
    ln = sympy.log(n0)
    tail = n0 ** (-u) * (ln**2 / u + 2 * ln / u**2 + 2 / u**3)
    derivative = sympy.simplify(sympy.diff(tail, n0) + sympy.log(n0) ** 2 * n0 ** (-2 * sig))
    assert derivative == 0
    # substitute t = e^u so the quadrature sees exponential decay
    quad = float(mp.quad(lambda u: u**2 * mp.exp(-0.5 * u), [mp.log(1000), mp.inf]))
    assert ps._log_sq_integral_tail(0.75, 1000.0) == pytest.approx(quad, rel=1e-9)


def test_pi_route_integral_identity_symbolic():
    # The bound route integrates 2*(2 sigma log x - 2) x^(-2 sigma) from e^2;
    # verify the antiderivative by differentiation and the closed value by
    # quadrature, and that it stays below 4/(2 sigma - 1)^2 on (1/2, 1].
    sympy = pytest.importorskip("sympy")
    x, sig = sympy.symbols("x sigma", positive=True)
    u = 2 * sig - 1
    antiderivative = -(x ** (-u)) * (2 * sig * sympy.log(x) / u + 2 * sig / u**2 - 2 / u)
    residue = sympy.simplify(sympy.diff(antiderivative, x) - (2 * sig * sympy.log(x) - 2) * x ** (-2 * sig))
    assert residue == 0
    for s in (0.51, 0.6, 1.0):
        closed = 4 * math.exp(2 - 4 * s) * (4 * s * s - 3 * s + 1) / (2 * s - 1) ** 2
        # substitute x = e^t so the quadrature sees exponential decay
        quad = float(
            mp.quad(lambda t: 2 * (2 * s * t - 2) * mp.exp((1 - 2 * s) * t), [2, mp.inf])
        )
        assert quad == pytest.approx(closed, rel=1e-8)
        assert closed <= 4.0 / (2 * s - 1) ** 2


def test_log_weighted_pi_route_numeric_tail_is_upper_bound():
    table = primes.cached_primes(10**6)
    sigma = 0.6
    p = table.primes.astype(float)
    cut = 10**4
    inside = p[p <= cut]
    outside = p[p > cut]
    lp_out = np.log(outside)
    true_tail = float(np.sum(lp_out * lp_out * outside ** (-2 * sigma)))
    bound = ps._log_sq_pi_route_tail(sigma, float(cut), inside.size)
    # true tail computed only to 1e6; still must sit below the bound
    assert true_tail <= bound
    assert ps._log_sq_integral_tail(sigma, float(cut)) >= true_tail


def test_prime_power_tail_bound_is_upper_bound():
    table = primes.cached_primes(10**6)
    p = table.primes.astype(float)
    for s in (1.2, 1.5, 2.0):
        cut = 10**4
        n_inside = int(np.sum(p <= cut))
        true_tail = float(np.sum(p[p > cut] ** (-s)))
        assert true_tail <= ps.prime_power_tail_bound(s, cut, pi_cut=n_inside)
    with pytest.raises(ps.DivergenceError):
        ps.prime_power_tail_bound(1.0, 100)


def test_euler_tail_first_term_closed_form():
    cv = ps.euler_tail_constant(1)
    first = 1.0 / (2 * (math.sqrt(2) - 1))
    tail = (1 + 1 / (math.sqrt(2) - 1)) * 2 / math.sqrt(2)
    assert cv.lower == pytest.approx(first, rel=1e-9)
    assert cv.upper == pytest.approx(first + tail, rel=1e-9)


def test_euler_tail_four_terms():
    cv = ps.euler_tail_constant(4)
    partial = sum(1.0 / (p * (math.sqrt(p) - 1)) for p in (2, 3, 5, 7))
    assert partial == pytest.approx(1.911055584, abs=1e-8)
    assert cv.lower == pytest.approx(partial, rel=1e-9)


@pytest.mark.parametrize("n", [10**4, 10**5])
def test_euler_tail_in_place_terms_match_expression_form(n):
    partial = oracles.euler_tail_partial(n)
    assert ps.euler_tail_constant(n).lower == partial - abs(partial) * ps._SLACK


def test_euler_tail_upper_monotone_nonincreasing():
    uppers = [ps.euler_tail_constant(n).upper for n in (10, 100, 1000, 10000)]
    assert all(a >= b for a, b in zip(uppers, uppers[1:]))
    with pytest.raises(ValueError):
        ps.euler_tail_constant(0)


def test_zetaasym_ratio_values():
    rs, rl = ps.zetaasym_ratio(1.5)
    assert rs == pytest.approx(0.8495626836 / math.log(2.0), abs=1e-6)
    assert rl == pytest.approx(math.log(float(mp.zeta(1.5))) / math.log(2.0), abs=1e-9)
    rs19, _ = ps.zetaasym_ratio(1.9)
    assert math.isfinite(rs19)


def test_accelerated_prime_zeta_returns_plain_floats():
    # A numpy scalar here would print as 'np.float64(...)' in `rmflab verify` output.
    for s in (1.001, 1.5, 4.0, 64.0):
        v = ps.prime_zeta(s)
        assert type(v.estimate) is float
        assert type(v.lower) is float
        assert type(v.upper) is float
    rs, rl = ps.zetaasym_ratio(1.1)
    assert type(rs) is float
    assert type(rl) is float


def test_zetaasym_ratio_trend():
    gaps = [abs(ps.zetaasym_ratio(x)[0] - 1.0) for x in (1.5, 1.1, 1.01, 1.001)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 0.1


def test_zetaasym_domain():
    for x in (1.0, 0.9, 2.0, 2.5):
        with pytest.raises(ValueError):
            ps.zetaasym_ratio(x)

