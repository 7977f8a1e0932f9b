import math
import os
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from rmflab import primes, rmf
from rmflab.prime_series import DivergenceError

import oracles


def brute_change_points(values):
    """Independent scan: count transitions between nonzero values of opposite sign."""
    points = []
    last = 0
    for i, v in enumerate(values, start=1):
        if v == 0:
            continue
        s = 1 if v > 0 else -1
        if last != 0 and s != last:
            points.append(i)
        last = s
    return points


def test_sample_signs_deterministic():
    a = rmf.sample_signs(7, 10**4)
    b = rmf.sample_signs(7, 10**4)
    assert np.array_equal(a.signs, b.signs)
    assert set(np.unique(a.signs)) <= {-1, 1}


def test_adjacent_seeds_differ_heavily():
    for seed in (0, 5, 123456789):
        a = rmf.sample_signs(seed, 10**5)
        b = rmf.sample_signs(seed + 1, 10**5)
        assert np.mean(a.signs != b.signs) >= 0.40


def test_sample_signs_smallest_limit():
    a = rmf.sample_signs(3, 2)
    assert a.primes.tolist() == [2]
    assert oracles.sign_of(a, 2) in (-1, 1)
    with pytest.raises(ValueError):
        rmf.sample_signs(0, 1)


def test_sign_empirical_mean_sane():
    a = rmf.sample_signs(0, 10**5)
    assert abs(float(np.mean(a.signs))) <= 5.0 / math.sqrt(a.primes.size)


def test_sign_lookup_rejects_non_primes():
    a = rmf.sample_signs(0, 100)
    with pytest.raises(ValueError):
        oracles.sign_of(a, 4)
    with pytest.raises(ValueError):
        oracles.sign_of(a, 101)


def test_f_value_multiplicativity_examples():
    s = oracles.signs_from_dict({2: 1, 3: -1}, 10)
    assert oracles.f_value(s, 6) == -1
    assert oracles.f_value(s, 1) == 1
    assert oracles.f_value(s, 4) == 0
    assert oracles.f_value(s, 12) == 0


def test_f_value_out_of_range_factor():
    s = rmf.sample_signs(0, 10)
    with pytest.raises(ValueError):
        oracles.f_value(s, 11)
    with pytest.raises(ValueError):
        oracles.f_value(s, 22)


def test_f_value_random_coprime_multiplicativity():
    s = rmf.sample_signs(11, 10**4)
    rng = np.random.default_rng(0)
    checked = 0
    while checked < 200:
        m = int(rng.integers(2, 100))
        n = int(rng.integers(2, 100))
        if math.gcd(m, n) != 1:
            continue
        assert oracles.f_value(s, m * n) == oracles.f_value(s, m) * oracles.f_value(s, n)
        checked += 1


def test_signed_values_match_f_value_and_mobius_square():
    s = rmf.sample_signs(5, 10**4)
    f = rmf.signed_values(s, 10**4)
    table, spf = oracles.sieve_tables(10**4)
    rng = np.random.default_rng(1)
    for n in rng.integers(1, 10**4, size=300):
        n = int(n)
        assert f[n - 1] == oracles.f_value(s, n, spf)
    # f(n) != 0 iff n squarefree
    for n in rng.integers(1, 10**4, size=300):
        n = int(n)
        _, squarefree = oracles.factor_squarefree(n, table, spf) if n > 1 else ([], True)
        assert (f[n - 1] != 0) == squarefree


def test_trace_crafted_example():
    s = oracles.signs_from_dict({2: 1, 3: -1, 5: -1}, 10)
    tr = rmf.partial_sum_trace(s, 6)
    assert tr.values.tolist() == [1, 2, 1, 1, 0, -1]
    assert tr.change_points.tolist() == [6]


def test_trace_all_plus_one():
    s = oracles.signs_constant(1, 10)
    tr = rmf.partial_sum_trace(s, 4)
    assert tr.final_value == 3  # f(4) = 0
    assert tr.count_changes() == 0


def test_sign_change_points_example():
    assert rmf.sign_change_points(np.array([1, 2, 1, 0, -1, 1])).tolist() == [5, 6]
    assert rmf.sign_change_points(np.array([1, -1, 1])).tolist() == [2, 3]
    assert rmf.sign_change_points(np.array([0, 0, 1, 0, 0])).tolist() == []
    # terminal zero run does not count toward a pending change
    assert rmf.sign_change_points(np.array([1, 0, 0])).tolist() == []


def test_trace_increments_are_f():
    s = rmf.sample_signs(2, 10**4)
    f = rmf.signed_values(s, 10**4)
    tr = rmf.partial_sum_trace(s, 10**4)
    assert tr.values[0] == 1
    assert np.array_equal(np.diff(tr.values), f[1:].astype(np.int64))
    assert np.max(np.abs(np.diff(tr.values))) <= 1


def test_trace_changes_match_brute_force():
    for seed in range(6):
        s = rmf.sample_signs(seed, 10**4)
        tr = rmf.partial_sum_trace(s, 10**4)
        assert tr.change_points.tolist() == brute_change_points(tr.values)


def test_trace_segmented_consistency(monkeypatch):
    s = rmf.sample_signs(9, 3 * 10**4)
    full = rmf.partial_sum_trace(s, 3 * 10**4)
    monkeypatch.setattr(rmf, "TRACE_SEGMENT", 777)
    seg = rmf.partial_sum_trace(s, 3 * 10**4)
    assert np.array_equal(full.values, seg.values)
    assert np.array_equal(full.change_points, seg.change_points)
    assert np.array_equal(full.checkpoint_ns, seg.checkpoint_ns)
    assert np.array_equal(full.checkpoint_values, seg.checkpoint_values)


PLAN_SEEDS = [0, 1, 2**63 + 5, -1]
SEGMENT = rmf.TRACE_SEGMENT
PLAN_XS = [1, 2, 3, 4, 10**4, SEGMENT - 1, SEGMENT, SEGMENT + 1, 4 * SEGMENT + 1]
# TRACE_SEGMENT -> x.  Lengths 1-3 give one-element blocks, blocks below 4
# (no sieving prime, so 2 and 3 are the cofactor) and blocks ending at p^2.
SHORT_SEGMENTS = {
    1: (1, 2, 3, 4, 2000),
    2: (1, 2, 3, 4, 2000),
    3: (1, 2, 3, 4, 2000),
    100: (250,),
    777: (3 * 10**4,),
    1000: (1200, 2500, 3100),
}


def assert_matches_strided_flips(signs, x):
    """signed_values and partial_sum_trace equal the strided-flip extension
    (one block over 1..x) and its cumulative sum, bit for bit."""
    f = oracles._signed_block(signs, 1, x)
    values = rmf.signed_values(signs, x)
    assert values.dtype == f.dtype and np.array_equal(values, f)
    m = np.cumsum(f, dtype=np.int64)
    tr = rmf.partial_sum_trace(signs, x)
    assert tr.values.dtype == m.dtype and np.array_equal(tr.values, m)
    assert np.array_equal(tr.change_points, rmf.sign_change_points(m))
    assert tr.final_value == int(m[-1])
    ns = np.arange(rmf.CHECKPOINT_STRIDE, x + 1, rmf.CHECKPOINT_STRIDE)
    assert np.array_equal(tr.checkpoint_ns, ns)
    assert np.array_equal(tr.checkpoint_values, m[ns - 1])


@pytest.mark.parametrize("seed", PLAN_SEEDS)
def test_plan_extension_matches_strided_flips(seed):
    signs = rmf.sample_signs(seed, max(PLAN_XS))
    for x in PLAN_XS:
        assert_matches_strided_flips(signs, x)


@pytest.mark.parametrize("seed", PLAN_SEEDS)
def test_plan_extension_matches_strided_flips_short_segments(seed, monkeypatch):
    signs = rmf.sample_signs(seed, 3 * 10**4)
    for segment, xs in SHORT_SEGMENTS.items():
        monkeypatch.setattr(rmf, "TRACE_SEGMENT", segment)
        for x in xs:
            assert_matches_strided_flips(signs, x)


@pytest.mark.parametrize(
    "signs",
    [
        oracles.signs_from_dict({2: -1, 3: -1, 7: -1, 9973: -1}, 10**4),
        oracles.signs_constant(1, 10**4),
        oracles.signs_constant(-1, 10**4),
        # n = k * 997 (k <= 10) has 997 as its large prime next to small ones.
        oracles.signs_from_dict({997: -1, 101: -1}, 10**4),
    ],
)
def test_plan_extension_of_hand_built_assignments(signs):
    for x in (1, 6, 10**4):
        assert_matches_strided_flips(signs, x)


def test_sign_change_counts_match_single_traces():
    seeds = list(range(-3, 67))  # 70 seeds: two packed words, one of them partly filled
    counts = rmf.sign_change_counts(seeds, 20000)
    assert counts.shape == (70, 2)
    for seed, (v, m) in zip(seeds, counts):
        tr = rmf.partial_sum_trace(rmf.sample_signs(seed, 20000), 20000)
        assert (v, m) == (tr.count_changes(), tr.final_value)
    assert rmf.sign_change_counts([5], 1).tolist() == [[0, 1]]
    with pytest.raises(rmf.ResourceLimitError):
        rmf.sign_change_counts([5], 0)


def test_worker_count_follows_cpu_affinity(monkeypatch):
    monkeypatch.delenv("RMFLAB_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert rmf._worker_count() == 2  # two CPUs allowed on a 64-core host
    monkeypatch.delattr(os, "sched_getaffinity")
    assert rmf._worker_count() == 8
    monkeypatch.setenv("RMFLAB_THREADS", "3")
    assert rmf._worker_count() == 3
    monkeypatch.setenv("RMFLAB_THREADS", "two")
    with pytest.raises(ValueError, match="RMFLAB_THREADS"):
        rmf._worker_count()


def test_trace_checkpoints():
    s = rmf.sample_signs(1, 2 * 10**5)
    tr = rmf.partial_sum_trace(s, 2 * 10**5)
    assert tr.checkpoint_ns.tolist() == [65536, 131072, 196608]
    for n, v in zip(tr.checkpoint_ns, tr.checkpoint_values):
        assert tr.values[n - 1] == v


def test_trace_without_values():
    s = rmf.sample_signs(1, 10**4)
    tr = rmf.partial_sum_trace(s, 10**4, keep_values=False)
    full = rmf.partial_sum_trace(s, 10**4)
    assert tr.values is None
    assert np.array_equal(tr.change_points, full.change_points)
    assert tr.final_value == full.final_value


def test_trace_resource_error():
    s = rmf.sample_signs(0, 100)
    with pytest.raises(rmf.ResourceLimitError):
        rmf.partial_sum_trace(s, 101)


def test_count_sign_changes():
    s = rmf.sample_signs(0, 10**4)
    tr = rmf.partial_sum_trace(s, 10**4)
    assert tr.count_changes(10**4) == tr.change_points.size
    for x in (10, 100, 5000):
        assert tr.count_changes(x) == int(np.sum(tr.change_points <= x))
    with pytest.raises(ValueError):
        tr.count_changes(10**4 + 1)


def test_seed_zero_regression_value():
    # Pinned after the first full run of this simulation.
    s = rmf.sample_signs(0, 10**6)
    tr = rmf.partial_sum_trace(s, 10**6, keep_values=False)
    assert tr.count_changes() == 292
    assert tr.final_value == 640


def test_random_prime_sum_four_terms():
    s = oracles.signs_constant(1, 10)
    r = oracles.random_prime_sum(s, 1.0, 10)
    assert r.value == pytest.approx(1 / 2 + 1 / 3 + 1 / 5 + 1 / 7)
    neg = oracles.random_prime_sum(oracles.signs_constant(-1, 10), 1.0, 10)
    assert neg.value == pytest.approx(-r.value)
    assert r.normalized == pytest.approx(r.value / math.sqrt(0.45224742), rel=1e-4)


def test_random_prime_sum_divergence():
    s = rmf.sample_signs(0, 100)
    with pytest.raises(DivergenceError):
        oracles.random_prime_sum(s, 0.5, 100)


def test_random_prime_sum_batch_matches_single():
    seeds = np.arange(8, dtype=np.uint64)
    batch = rmf.random_prime_sum_batch(seeds, 0.7, 10**4)
    for i, seed in enumerate(seeds):
        single = oracles.random_prime_sum(rmf.sample_signs(int(seed), 10**4), 0.7, 10**4)
        assert batch[i] == pytest.approx(single.value, rel=1e-12)



def test_random_prime_sum_batch_sigma_vector_matches_scalar():
    seeds = np.arange(300, dtype=np.uint64)  # spans two seed blocks
    sigmas = [0.55, 0.7, 1.3]
    batch = rmf.random_prime_sum_batch(seeds, sigmas, 10**4)
    assert batch.shape == (300, 3)
    for j, sigma in enumerate(sigmas):
        scalar = rmf.random_prime_sum_batch(seeds, sigma, 10**4)
        assert np.array_equal(batch[:, j], scalar)
    with pytest.raises(DivergenceError):
        rmf.random_prime_sum_batch(seeds, [0.7, 0.5], 10**4)

def test_normalized_sums_rarely_large():
    seeds = np.arange(1000, dtype=np.uint64)
    values = rmf.random_prime_sum_batch(seeds, 0.6, 10**6)
    from rmflab.prime_series import variance_sum

    normalized = values / math.sqrt(variance_sum(0.6).estimate)
    assert np.mean(np.abs(normalized) < 6.0) >= 0.99


def test_sample_variance_matches_coefficient_sum():
    table = primes.cached_primes(10**5)
    sigma = 0.75
    seeds = np.arange(500, dtype=np.uint64)
    values = rmf.random_prime_sum_batch(seeds, sigma, 10**5)
    p = table.primes.astype(np.float64)
    a2 = p ** (-2 * sigma)
    v = float(np.sum(a2))
    mu4 = 3 * v * v - 2 * float(np.sum(a2 * a2))
    n = seeds.size
    se = math.sqrt((mu4 - v * v * (n - 3) / (n - 1)) / n)
    sample_var = float(np.var(values, ddof=1))
    assert abs(sample_var - v) <= 5 * se


def test_series_and_product_trivial():
    s = rmf.sample_signs(0, 10)
    assert oracles.series_and_product(s, 2.0, 1) == (1 + 0j, 1 + 0j)


def test_series_all_plus_one_is_squarefree_sum():
    s = oracles.signs_constant(1, 10**4)
    series, _ = oracles.series_and_product(s, 2.0, 10**4)
    f = rmf.signed_values(s, 10**4).astype(float)
    n = np.arange(1, 10**4 + 1, dtype=float)
    assert series.real == pytest.approx(float(np.sum(np.abs(f) / n**2)), rel=1e-12)
    assert series.imag == 0


def test_series_close_to_product_at_s2():
    s = rmf.sample_signs(3, 10**4)
    series, product = oracles.series_and_product(s, 2.0, 10**4)
    tail = 10.0 * (1.0 / 10**4)  # crude bound on 10 * sum_{n > 1e4} n^-2
    assert abs(series - product) <= tail


def test_series_limit_validation():
    s = rmf.sample_signs(0, 10)
    with pytest.raises(ValueError):
        oracles.series_and_product(s, 2.0, 100)


def test_abel_identity_trivial_and_small():
    s = rmf.sample_signs(0, 10**4)
    f = rmf.signed_values(s, 10**4)
    assert rmf.abel_identity_residual(f[:1], 1.5) == 0.0
    n = np.arange(1, 10**4 + 1, dtype=float)
    for sigma in (0.6, 1.5):
        scale = float(np.sum(np.abs(f) * n**-sigma))
        assert rmf.abel_identity_residual(f, sigma) <= 1e-9 * scale


def test_signed_value_rows_match_one_seed_at_a_time():
    seeds = [rmf.derive_seed(521, i) for i in range(3)] + [0, 2**64 - 1]
    for x in (1, 2, 1000, 3 * rmf.TRACE_SEGMENT + 5):
        rows = rmf.signed_value_rows(seeds, x)
        assert rows.shape == (len(seeds), x) and rows.dtype == np.int8
        for row, seed in zip(rows, seeds):
            assert np.array_equal(row, rmf.signed_values(rmf.sample_signs(seed, max(x, 2)), x))


def test_abel_weights_are_the_direct_expressions():
    for x in (1, 2, 10**4):
        n = np.arange(1, x + 1, dtype=np.float64)
        for sigma in (0.6, 1.5):
            power, steps = rmf.abel_weights(sigma, x)
            assert np.array_equal(power, n ** (-sigma))
            step = n[:-1] ** (-sigma) * (-np.expm1(-sigma * np.log1p(1.0 / n[:-1])))
            assert np.array_equal(steps, step)


def test_abs_mellin_values():
    s = rmf.sample_signs(0, 100)
    assert oracles.abs_mellin(s, 0.7, 1) == 0.0
    # M is 1 on [1, 2), so the x = 2 integral has the one-interval closed form.
    sigma = 0.7
    assert oracles.abs_mellin(s, sigma, 2) == pytest.approx((1 - 2**-sigma) / sigma, rel=1e-12)


def test_abs_mellin_increases_as_sigma_decreases():
    s = rmf.sample_signs(4, 10**5)
    vals = [oracles.abs_mellin(s, sigma, 10**5) for sigma in (0.7, 0.6, 0.55)]
    assert vals[0] < vals[1] < vals[2]


def test_sup_scan_degenerate_grid():
    s = rmf.sample_signs(0, 10**4)
    res = rmf.sup_scan(s, 0.6, 1.0, 0.01, limit=10**4)
    assert res.grid_size == 1
    ps_, sg = s.up_to(10**4)
    p = ps_.astype(float)
    at_one = float(np.sum(sg * np.cos(np.log(p)) * p**-0.6))
    assert res.sup_cos == pytest.approx(at_one, rel=1e-12)
    assert res.argmax_t == 1.0


def test_sup_scan_dominates_single_point():
    s = rmf.sample_signs(1, 10**4)
    res = rmf.sup_scan(s, 0.6, 8.0, 0.01, limit=10**4)
    ps_, sg = s.up_to(10**4)
    p = ps_.astype(float)
    at_one = float(np.sum(sg * np.cos(np.log(p)) * p**-0.6))
    assert res.sup_cos >= at_one - 1e-12
    assert res.sup_abs_f > 0


# (limit, t-grid rows): one row, whole _T_CHUNK blocks, and a partial last block.
# Below 2 no prime is summed, so every t ties and the earliest must win.
SUP_SCAN_GRIDS = [(limit, rows) for limit in (10**3, 10**4, 10**5) for rows in (1, 256, 300)]
SUP_SCAN_GRIDS += [(10**6, 1), (10**6, 129), (1, 300)]


@pytest.mark.parametrize("limit, rows", SUP_SCAN_GRIDS)
def test_sup_scan_matches_direct_bit_for_bit(limit, rows):
    t_max = 1.0 + (rows - 1) * 0.01
    for seed in (0, 1, 2) if limit <= 10**4 else (0,):
        signs = rmf.sample_signs(seed, max(limit, 2))
        for sigma in (0.55, 0.6, 0.7, 1.0):
            res = rmf.sup_scan(signs, sigma, t_max, 0.01, limit=limit)
            assert res.grid_size == rows
            assert res == oracles.sup_scan_direct(signs, sigma, t_max, 0.01, limit)


# (grid_step, t_max): a 1-row grid, three blocks with a partial last one, and
# t up to 10, where the rounding of t log p grows.
SUP_SCAN_EPS_GRIDS = [(0.01, 1.0), (0.01, 4.0), (0.003, 1.0), (0.003, 1.9), (0.01, 10.0)]


@pytest.mark.parametrize("grid_step, t_max", SUP_SCAN_EPS_GRIDS)
def test_sup_scan_eps_dominates_the_estimates_error(grid_step, t_max):
    limit = 10**5  # exact log1p up to 10^4 and the low-rank polynomials above
    for seed in np.random.default_rng(15).integers(0, 2**32, size=2).tolist():
        signs = rmf.sample_signs(seed, limit)
        p = signs.primes.astype(np.float64)
        logp = np.log(p)
        ts = np.arange(1.0, t_max + grid_step * 0.5, grid_step)
        for sigma in (0.501, 0.55, 0.7, 1.0):
            amp = p ** (-sigma)
            est, eps = rmf._sup_scan_estimates(ts, logp, signs.signs * amp, amp)
            blocks = list(oracles.sup_scan_blocks(signs, sigma, t_max, grid_step, limit))
            for i in (0, 1):  # cos sums, then log|F|
                exact = np.concatenate([b[i + 1] for b in blocks])
                assert np.max(np.abs(est[i] - exact)) <= eps[i, 0]
    # The stated allowances: numpy's cos, sin and complex exp within 4u of the cosine and
    # sine of their float argument, exp within 4 ulps, and log1p within 4u relative, on a
    # sample of the cells' arguments.
    args = np.multiply.outer(ts[:: max(1, ts.size // 8)], logp[::97]).ravel()
    cis = np.exp(1j * args)
    for got, f in ((np.cos(args), mp.cos), (np.sin(args), mp.sin), (cis.real, mp.cos),
                   (cis.imag, mp.sin)):
        assert np.max(np.abs(got - [float(f(mp.mpf(x))) for x in args])) <= 4 * 2.0**-53
    exact = np.array([float(mp.exp(mp.mpf(x))) for x in -args / 100])
    assert np.all(np.abs(np.exp(-args / 100) - exact) <= 8 * 2.0**-53 * exact)
    xs = 2 * 0.7 * np.cos(args) + 0.5
    exact = np.array([float(mp.log1p(mp.mpf(x))) for x in xs])
    assert np.all(np.abs(np.log1p(xs) - exact) <= 4 * 2.0**-53 * np.abs(exact))


@pytest.mark.parametrize("osc", [True, False])
def test_low_rank_eps_holds_where_interpolation_dominates(osc, monkeypatch):
    # A degree chosen for a floor far above roundoff leaves an interpolation error of
    # 5e-9 to 2e-4 sum|coef|, against 5e-12 sum|coef| for eps's other terms: eps must
    # still bound it, so dropping the interpolation term from eps fails here.  For e^(i k theta) the grid is wide,
    # k r = 200 as at sigma = 0.52; for e^(k theta) it is chaining's f in [0, 1].
    rng = np.random.default_rng(16)
    theta = np.sort(rng.uniform(0.0, 0.2, 3000)) if osc else -np.sort(rng.uniform(0, 3, 3000))
    ks = np.arange(-2000.0, 2001.0) if osc else np.arange(4097.0) / 4096
    coef = rng.standard_normal((3000, 2)) + (1j * rng.standard_normal((3000, 2)) if osc else 0)
    exact = np.exp(np.multiply.outer(ks, 1j * theta if osc else theta)) @ coef
    degree, scale = rmf._degree, np.sum(np.abs(coef), axis=0)
    for floor in (1e-4, 1.0):
        monkeypatch.setattr(rmf, "_degree", lambda a, osc, _: degree(a, osc, floor))
        values, eps = rmf._low_rank_grid(theta, coef, ks, osc)
        err = np.max(np.abs(values - exact), axis=0)
        assert np.all(err <= eps)
        assert np.all(err > 1e-10 * scale)
    monkeypatch.setattr(rmf, "_degree", degree)
    values, eps = rmf._low_rank_grid(theta, coef, ks, osc)  # the chosen degree
    assert np.all(np.max(np.abs(values - exact), axis=0) <= eps)
    assert np.all(eps < 1e-9 * scale)


def test_sup_scan_bytes_bounds_the_traced_peak():
    # sigma = 0.55 scans t up to 17.95; the prime table and the signs exist before.
    signs = rmf.sample_signs(0, 10**5)
    tracemalloc.start()
    try:
        res = rmf.sup_scan(signs, 0.55, 17.95, 0.01, limit=10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.grid_size == 1696
    assert peak <= rmf.sup_scan_bytes(res.grid_size, primes.prime_count_bound(10**5))


def test_cgroup_limit_reads_v2_and_v1_files(tmp_path):
    proc = tmp_path / "cgroup"
    proc.write_text("0::/user.slice/job\n")
    limit = tmp_path / "user.slice" / "job" / "memory.max"
    limit.parent.mkdir(parents=True)
    limit.write_text("1048576\n")
    assert rmf.cgroup_limit(str(proc), str(tmp_path)) == 1048576
    limit.write_text("max\n")
    assert rmf.cgroup_limit(str(proc), str(tmp_path)) == math.inf
    limit.unlink()
    assert rmf.cgroup_limit(str(proc), str(tmp_path)) == math.inf
    proc.write_text("4:memory:/job\n1:cpu:/\n0::/\n")  # v1 memory controller
    v1 = tmp_path / "memory" / "job" / "memory.limit_in_bytes"
    v1.parent.mkdir(parents=True)
    v1.write_text("2097152\n")
    assert rmf.cgroup_limit(str(proc), str(tmp_path)) == 2097152
    assert rmf.cgroup_limit(str(tmp_path / "missing"), str(tmp_path)) == math.inf


def test_check_memory_honours_a_cgroup_limit_below_physical_memory(monkeypatch):
    monkeypatch.setattr(rmf, "cgroup_limit", lambda: 2**20)
    with pytest.raises(rmf.ResourceLimitError, match="B > cgroup memory limit"):
        rmf.check_memory(2**20 + 1, "test")
    rmf.check_memory(2**20, "test")


def test_sup_scan_winner_in_the_last_partial_block():
    # Cutting a grid at its first maximum, of the cos sums or of log|F|, makes that
    # maximum the last row; unless it closes a full block, that block is partial.
    cases = 0
    for seed in (0, 1, 2):
        signs = rmf.sample_signs(seed, 10**4)
        for sigma in (0.55, 0.7):
            blocks = list(oracles.sup_scan_blocks(signs, sigma, 7.0, 0.01, 10**4))
            for rows in (np.concatenate([b[i] for b in blocks]) for i in (1, 2)):
                size = int(np.argmax(rows)) + 1
                if size % rmf._T_CHUNK == 0:
                    continue
                cases += size > rmf._T_CHUNK
                t_max = 1.0 + (size - 1) * 0.01
                res = rmf.sup_scan(signs, sigma, t_max, 0.01, limit=10**4)
                assert res.grid_size == size
                assert res == oracles.sup_scan_direct(signs, sigma, t_max, 0.01, 10**4)
    assert cases >= 4  # winners past the first block


@pytest.mark.parametrize("limit", [1, 10**4])
def test_sup_scan_exact_ties_go_to_the_earliest_block(limit):
    # At sigma = 1100 every p^(-sigma) underflows to 0, and limit 1 sums no prime, so
    # every row of all three blocks ties at cos sum 0 and |F| = 1, with eps = 0.
    signs = rmf.sample_signs(3, max(limit, 2))
    res = rmf.sup_scan(signs, 1100.0, 3.99, 0.01, limit=limit)
    assert (res.sup_cos, res.argmax_t, res.sup_abs_f, res.grid_size) == (0.0, 1.0, 1.0, 300)
    assert res == oracles.sup_scan_direct(signs, 1100.0, 3.99, 0.01, limit)


def test_sup_scan_validation():
    s = rmf.sample_signs(0, 100)
    with pytest.raises(DivergenceError):
        rmf.sup_scan(s, 0.5, 5.0)
    with pytest.raises(ValueError):
        rmf.sup_scan(s, 0.6, 0.5)
    with pytest.raises(ValueError):
        rmf.sup_scan(s, 0.6, 5.0, grid_step=0.5)


def test_derive_seed_stability():
    assert rmf.derive_seed(0, 0) == rmf.derive_seed(0, 0)
    assert rmf.derive_seed(0, 1) != rmf.derive_seed(0, 2)
    assert 0 <= rmf.derive_seed(12345, 67) < 2**64


def test_derive_seed_array_matches_scalar():
    seeds = rmf.derive_seed(17, np.arange(50))
    assert seeds.dtype == np.uint64
    assert seeds.tolist() == [rmf.derive_seed(17, i) for i in range(50)]


# Golden vectors pinned from the original per-seed hash; any change to the
# sign stream shows up here before it reaches a regression count.
GOLDEN_SIGNS = {
    0: [-1, -1, -1, -1, 1, 1, 1, -1, -1, -1, 1, -1, -1, -1, 1, 1],
    1: [-1, -1, -1, 1, -1, 1, 1, 1, 1, -1, -1, -1, 1, 1, -1, -1],
    2**63 + 5: [-1, 1, -1, -1, -1, 1, 1, -1, -1, 1, -1, 1, -1, -1, -1, -1],
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_SIGNS))
def test_sample_signs_golden_prefix(seed):
    assert rmf.sample_signs(seed, 60).signs[:16].tolist() == GOLDEN_SIGNS[seed]


def test_derive_seed_golden():
    assert [rmf.derive_seed(0, i) for i in range(4)] == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
        17909611376780542444,
    ]


def test_negative_seed_is_taken_mod_2_64():
    ps = primes.cached_primes(10**4).primes
    assert np.array_equal(rmf.sign_matrix([-1], ps), rmf.sign_matrix([2**64 - 1], ps))
    assert np.array_equal(
        rmf.random_prime_sum_batch([-1], 0.6, 100), rmf.random_prime_sum_batch([2**64 - 1], 0.6, 100)
    )
    assert np.array_equal(rmf.sample_signs(-1, 100).signs, rmf.sign_matrix([-1], ps[:25])[0])


@pytest.mark.parametrize("seed", [0, 1, 2**63 + 5])
def test_sample_signs_is_sign_matrix_row(seed):
    s = rmf.sample_signs(seed, 10**4)
    row = rmf.sign_matrix(np.asarray([seed], dtype=np.uint64), s.primes)[0]
    assert np.array_equal(s.signs, row)
