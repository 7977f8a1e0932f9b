import math
import sys
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from rmflab import cli, primes, sequences
from rmflab import prime_series as ps

import oracles

# High-precision oracle values, frozen from mpmath (independent evaluation).
PRIME_ZETA = {
    1.2: 1.51976831282175,
    1.5: 0.84956268362224,
    2.0: 0.45224742004107,
    4.0: 0.07699313976425,
}


def test_zeta_closed_forms():
    assert ps._zeta_em(2.0)[0] == pytest.approx(math.pi**2 / 6, rel=1e-13)
    assert ps._zeta_em(4.0)[0] == pytest.approx(math.pi**4 / 90, rel=1e-13)


def test_zeta_near_one():
    # Independent Euler-Maclaurin oracle: mpmath at 30 digits.
    assert ps._zeta_em(1.001)[0] == pytest.approx(1000.57728848, rel=1e-10)


def test_zeta_relative_error_grid():
    with mp.workdps(30):
        for s in [1.0005, 1.01, 1.3, 2.5, 7.0, 19.0, 33.0, 57.0, 64.0]:
            ref = float(mp.zeta(mp.mpf(s)))
            assert abs(ps._zeta_em(s)[0] - ref) <= 1e-12 * ref


def test_zeta_domain_error():
    for s in (1.0, 0.5, -2.0):
        with pytest.raises(ValueError):
            ps._log_zeta(s)


def test_zeta_em_at_cutoff_24_takes_its_convergence_exit_on_1_to_32(monkeypatch, tmp_path):
    """_log_zeta takes one _zeta_em(s), at cutoff 24, for s <= 32, so its 1e-14 exit must be
    taken on all of (1, 32]: on a grid log-spaced near 1 and linear above, and at every s that
    prime-sums, c03 and the step-2 table at concentration's default ell range hand to _log_zeta."""
    called, log_zeta = [], ps._log_zeta
    monkeypatch.setattr(ps, "_log_zeta", lambda s: called.append(s) or log_zeta(s))
    small = ["--prime-limit", "1000", "--output-dir"]
    assert cli.main(["prime-sums", "--claim1-n", "1000", *small, str(tmp_path / "p")]) == 0
    assert cli.main(["concentration", "--trials", "100", *small, str(tmp_path / "c")]) == 0
    assert cli._check_zeta_asymptotic_ratio(cli.ExperimentConfig())[0]
    assert 1.001 in called and 2 * sequences.step_sigma_ell(8, sequences.StepParams(1.0)) in called
    grid = np.concatenate([1.0 + np.geomspace(1e-9, 1.0, 2001), np.linspace(2.0, 32.0, 3001)])
    assert ps._EM_CUTOFF == 24
    for s in grid.tolist() + [s for s in called if s <= 32]:
        value, err = ps._zeta_em(s)
        assert err <= 1e-14 * value, s


def test_log_zeta_refuses_an_unconverged_zeta(monkeypatch):
    monkeypatch.setattr(ps, "_zeta_em", lambda s: (1.5, 1e-10))
    with pytest.raises(ArithmeticError):
        ps._log_zeta(2.0)


def test_prime_zeta_known_values():
    for s, ref in PRIME_ZETA.items():
        cv = ps.prime_zeta(s)
        assert cv.estimate == pytest.approx(ref, abs=5e-9)
        assert cv.lower <= ref <= cv.upper


def test_prime_zeta_intervals_contain_truth():
    with mp.workdps(30):
        # 25.0 reads _mobius_upto(2) and 50.0 and 64.0 _mobius_upto(1): n <= 64 // s
        for s in [1.001, 1.05, 1.7, 2.0, 6.0, 25.0, 50.0, 64.0]:
            cv = ps.prime_zeta(s)
            ref = float(mp.primezeta(mp.mpf(s)))
            assert cv.lower <= ref <= cv.upper


def test_prime_zeta_dominant_term_at_64():
    cv = ps.prime_zeta(64.0)
    assert cv.estimate == pytest.approx(2.0**-64, rel=1e-6)


def test_mobius_upto_matches_the_factor_oracle():
    """_mobius_upto(n) slices the prime table at n, down to n = 1, where it holds no prime."""
    ps_30, spf = oracles.sieve_tables(30)
    mu = [0, 1]
    for n in range(2, 31):
        factors, squarefree = oracles.factor_squarefree(n, ps_30, spf)
        mu.append((-1) ** len(factors) if squarefree else 0)
    for n in range(1, 31):
        assert ps._mobius_upto(n).tolist() == mu[: n + 1], n


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


def test_outward_pads_by_the_larger_of_roundoff_and_slack():
    wide = ps._outward(1.0, 2.0, estimate=1.5, roundoff=1e-6)
    assert (wide.lower, wide.upper, wide.roundoff) == (1.0 - 1e-6, 2.0 + 1e-6, 1e-6)
    narrow = ps._outward(1.0, 2.0, estimate=1.5, roundoff=1e-300)
    assert (narrow.lower, narrow.upper) == (1.0 - ps._SLACK, 2.0 + 2.0 * ps._SLACK)


def test_variance_sum():
    # E[P(sigma)^2] = sum_p p^(-2 sigma) = P(2 sigma), at sigma 0.75 and 1
    assert ps.prime_zeta(1.5).estimate == pytest.approx(PRIME_ZETA[1.5], abs=5e-9)
    assert ps.prime_zeta(2.0).estimate == pytest.approx(PRIME_ZETA[2.0], abs=5e-9)


def test_truncated_variance_matches_direct_sum():
    expect = sum(float(p) ** -1.5 for p in primes.cached_primes(10**4))
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
    # The grid's partial (exp(-2 sigma log p), chunked np.sum) lies within its derived
    # roundoff of the oracle's (np.power, one np.sum), plus the oracle's own budget: 4 ulps
    # for np.power and for np.log (twice), two products, and gamma_{P-1} for its sum.  The
    # published lower end is that partial padded by max(roundoff, the slack), and the
    # roundoff stays under the slack pad, so the endpoints move only in their last bits.
    sigmas = [round(0.51 + 0.01 * i, 2) for i in range(50)]
    logp = oracles.prime_logs(n_cut)
    for sigma, grid in zip(sigmas, ps.log_weighted_grid(sigmas, n_cut)):
        direct = oracles.log_weighted_direct(sigma, n_cut)
        fast, roundoff = oracles.prime_power_sum(logp, 2.0 * sigma, log_squared=True)
        assert grid.value.roundoff == roundoff, sigma
        assert grid.value.lower == fast - max(roundoff, fast * ps._SLACK), sigma
        slow = oracles.log_weighted_partial(sigma, n_cut)
        oracle_budget = 1.01 * (26 + logp.size - 1) * 2.0**-53 * slow
        assert abs(fast - slow) <= roundoff + oracle_budget, sigma
        assert roundoff <= fast * ps._SLACK, sigma
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
    sigma = 0.6
    p = primes.cached_primes(10**6).astype(float)
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
    p = primes.cached_primes(10**6).astype(float)
    for s in (1.2, 1.5, 2.0):
        cut = 10**4
        n_inside = int(np.sum(p <= cut))
        true_tail = float(np.sum(p[p > cut] ** (-s)))
        assert true_tail <= ps.prime_power_tail_bound(s, cut, pi_cut=n_inside)
    with pytest.raises(ps.DivergenceError):
        ps.prime_power_tail_bound(1.0, 100, pi_cut=25)


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
    # The chunked np.sum lies within its derived roundoff of the correctly rounded fsum of
    # the same terms, the published lower end is it padded by max(roundoff, the slack), and
    # the roundoff stays under the slack pad.
    cv = ps.euler_tail_constant(n)
    [(fast, roundoff)] = ps._certified_sum([oracles.first_n_primes(n)],
                                           [(ps._euler_terms, ps._EULER_WEIGHT)])
    partial = oracles.euler_tail_partial(n)
    assert cv.roundoff == roundoff
    assert cv.lower == fast - max(roundoff, fast * ps._SLACK)
    assert abs(fast - partial) <= roundoff
    assert roundoff <= fast * ps._SLACK


@pytest.mark.parametrize("segment", [997, primes.DEFAULT_SEGMENT])
def test_euler_tail_walk_matches_the_table_path(segment, monkeypatch):
    # 997 flags hold at most 997 primes, so every 2^16-term chunk spans segment edges.
    monkeypatch.setattr(primes, "DEFAULT_SEGMENT", segment)
    for n in (1, 4, 65535, 65536, 65537, 10**5):
        assert ps.euler_tail_constant(n) == oracles.euler_tail_direct(n), n


@pytest.mark.parametrize("threads", ["1", "2", "5"])
def test_euler_tail_walk_matches_the_table_path_on_any_thread_count(threads, monkeypatch):
    # 997-flag segments, walked inline on one thread and pipelined on more; five threads switch
    # every microsecond, so a strike that crossed the buffer being extracted would move a bit.
    expected = {n: oracles.euler_tail_direct(n) for n in (1, 65537, 10**5)}
    monkeypatch.setenv("RMFLAB_THREADS", threads)
    monkeypatch.setattr(primes, "DEFAULT_SEGMENT", 997)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6 if threads == "5" else interval)
    try:
        for n, value in expected.items():
            assert ps.euler_tail_constant(n) == value, n
    finally:
        sys.setswitchinterval(interval)


# mp.fsum at 30 digits of the exact terms at the float inputs: each float partial must lie
# within its derived roundoff of it, and each published interval must contain it.
def test_euler_tail_partial_contains_the_mpmath_sum():
    p = oracles.first_n_primes(10**4)
    with mp.workdps(30):
        exact = mp.fsum(1 / (q * (mp.sqrt(q) - 1)) for q in map(mp.mpf, p.tolist()))
        [(fast, roundoff)] = ps._certified_sum([p], [(ps._euler_terms, ps._EULER_WEIGHT)])
        cv = ps.euler_tail_constant(10**4)
        assert abs(fast - exact) <= roundoff
        assert cv.lower <= exact <= cv.upper


def test_log_weighted_grid_bits_hold_on_more_threads_than_cores(monkeypatch):
    # Five threads over the 50 sigma at 10^6, ten each in one reused 2^16-term buffer (78,498
    # primes, two chunks a sigma), switching every microsecond: a lost or crossed write would
    # move some sigma's bits off the one-thread grid.
    sigmas = [round(0.51 + 0.01 * i, 2) for i in range(50)]
    monkeypatch.setenv("RMFLAB_THREADS", "1")
    one = ps.log_weighted_grid(sigmas, 10**6)
    monkeypatch.setenv("RMFLAB_THREADS", "5")
    monkeypatch.setattr(ps, "_grid", None)  # so the five threads sum it afresh
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        five = ps.log_weighted_grid(sigmas, 10**6)
    finally:
        sys.setswitchinterval(interval)
    assert five == one


# Tables that end one prime before, on and one prime after the first and second 2^16-prime chunk
# edges: the streamed passes equal their whole-table oracles in every bit, on one thread and two.
@pytest.mark.parametrize("threads", ["1", "2"])
def test_streamed_passes_match_the_whole_table_oracles_at_chunk_edges(threads, monkeypatch):
    monkeypatch.setenv("RMFLAB_THREADS", threads)
    sigmas = [round(0.51 + 0.01 * i, 2) for i in range(50)]
    table = primes.cached_primes(2 * 10**6)
    for size in (65535, 65536, 65537, 131071, 131072, 131073):
        n_cut = int(table[size - 1])
        assert primes.chebyshev_check(table[:size]) == oracles.chebyshev_direct(table[:size])
        assert ps.log_weighted_grid(sigmas, n_cut) == oracles.log_weighted_table(sigmas, n_cut)
        logp = oracles.prime_logs(n_cut)
        for s in (1.1, 2.0, 64.0):
            partial, roundoff = oracles.prime_power_sum(logp, s)
            d = ps.prime_zeta_direct(s, n_cut)
            assert (d.lower, d.roundoff) == (partial - max(roundoff, partial * ps._SLACK), roundoff)


def test_log_weighted_grid_is_summed_again_only_for_another_table_cutoff_or_sigma(monkeypatch):
    # The grid kept from the last call is returned only for the same sigmas and n_cut over the
    # same table buffer: a fresh sieve (a reset of the prime table), another n_cut or other sigmas
    # each sum it again, and every call's values equal a fresh sum's.  The buffer is held weakly,
    # so a larger sieve that replaces the table frees it.
    sigmas, summed, term = [0.51, 0.75, 1.0], [], ps._prime_power_term

    def spy(s, table, log_squared=False):
        summed.append(s)
        return term(s, table, log_squared)

    monkeypatch.setattr(ps, "_prime_power_term", spy)
    monkeypatch.setattr(ps, "_grid", None)
    first = ps.log_weighted_grid(sigmas, 10**5)
    again = ps.log_weighted_grid(sigmas, 10**5)
    assert again == first and again is not first and len(summed) == 3
    for change in (lambda: monkeypatch.setattr(primes, "_largest", None),
                   lambda: ps.log_weighted_grid(sigmas, 10**5 + 3),
                   lambda: ps.log_weighted_grid(sigmas[:2], 10**5)):
        change()
        before = len(summed)
        assert ps.log_weighted_grid(sigmas, 10**5) == first
        assert len(summed) == before + 3
    assert ps._grid[2]() is primes._largest[1].base
    primes.cached_primes(2 * 10**5)
    assert ps._grid[2]() is None


def test_chebyshev_check_keeps_the_first_maximum_across_chunks(monkeypatch):
    # Chunks of 7 primes put the maximum, at 113 (the 30th prime), in the fifth chunk.
    table = primes.cached_primes(10**4)
    for chunk in (1, 7, 29, 30):
        monkeypatch.setattr(primes, "_CHUNK", chunk)
        rep = primes.chebyshev_check(table)
        assert rep == oracles.chebyshev_direct(table) and rep.worst_prime == 113, chunk


def test_streamed_passes_hold_no_table_sized_float_array(monkeypatch):
    # With the 10^7 table (664,579 primes, 2.7 MB) cached, c04's check and the 50-sigma grid on
    # two threads each peak below 4 MiB; as whole-table float64 passes they took 20.3 and 6.1 MB.
    monkeypatch.setenv("RMFLAB_THREADS", "2")
    table = primes.cached_primes(10**7)
    sigmas = [round(0.51 + 0.01 * i, 2) for i in range(50)]
    monkeypatch.setattr(ps, "_grid", None)  # so the grid is summed, not read from a kept one
    for run in (lambda: primes.chebyshev_check(table), lambda: ps.log_weighted_grid(sigmas, 10**7)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20


def test_log_weighted_grid_partials_contain_the_mpmath_sums():
    sigmas = [0.51, 0.75, 1.0]
    p = primes.cached_primes(10**5)
    logp = oracles.prime_logs(10**5)
    with mp.workdps(30):
        logs = [mp.log(q) for q in p.tolist()]
        for sigma, grid in zip(sigmas, ps.log_weighted_grid(sigmas, 10**5)):
            exact = mp.fsum(lq * lq * mp.exp(-2 * mp.mpf(sigma) * lq) for lq in logs)
            fast, roundoff = oracles.prime_power_sum(logp, 2.0 * sigma, log_squared=True)
            assert abs(fast - exact) <= roundoff, sigma
            assert grid.value.lower <= exact <= grid.value.upper, sigma


def test_prime_zeta_direct_partials_contain_the_mpmath_sums():
    p = primes.cached_primes(10**5)
    logp = oracles.prime_logs(10**5)
    with mp.workdps(30):
        for s in (1.1, 2.0):
            exact = mp.fsum(mp.mpf(q) ** -mp.mpf(s) for q in p.tolist())
            fast, roundoff = oracles.prime_power_sum(logp, s)
            d = ps.prime_zeta_direct(s, 10**5)
            assert abs(fast - exact) <= roundoff, s
            assert d.lower <= exact <= d.upper, s
            assert d.lower <= float(mp.primezeta(s)) <= d.upper, s


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

