import tracemalloc

import numpy as np
import pytest

from rmflab import prime_series, primes

import oracles


def trial_division_primes(limit):
    out = []
    for n in range(2, limit + 1):
        if all(n % d for d in range(2, int(n**0.5) + 1)):
            out.append(n)
    return out


def test_small_primes_by_definition():
    assert list(primes.sieve_primes(10)) == [2, 3, 5, 7]


def test_prime_counts_against_trial_division():
    table, _ = oracles.sieve_tables(1000)
    assert table.count == len(trial_division_primes(1000)) == 168
    assert table.upto(100).size == 25


def test_prime_count_edges():
    table, _ = oracles.sieve_tables(100)
    assert table.upto(10).size == 4
    assert table.upto(1.5).size == 0
    assert table.upto(2).size == 1
    with pytest.raises(ValueError):
        table.upto(101)


def test_sieve_rejects_bad_limits():
    with pytest.raises(ValueError):
        primes.sieve_primes(1)
    with pytest.raises(ValueError):
        oracles.sieve_tables(0)


@pytest.fixture
def sieved(monkeypatch):
    """The limits `sieve_primes` is called with, from an empty prime cache on."""
    monkeypatch.setattr(primes, "_largest", None)
    sieve, limits = primes.sieve_primes, []

    def counting_sieve(limit, **kw):
        limits.append(limit)
        return sieve(limit, **kw)

    monkeypatch.setattr(primes, "sieve_primes", counting_sieve)
    return limits


def test_sieve_matches_direct_on_every_small_limit():
    for limit in range(2, 301):
        assert np.array_equal(primes.sieve_primes(limit), oracles.sieve_direct(limit)), limit


@pytest.mark.parametrize("limit", [16_777_259, 2**24])
def test_sieve_matches_direct_across_default_segments(limit):
    # 16,777,259 is prime; 2^24 is even, and its last odd number is a segment's last flag.
    assert (limit + 1) // 2 > 2 * primes.DEFAULT_SEGMENT  # at least three default segments
    a = primes.sieve_primes(limit)
    assert np.array_equal(a, oracles.sieve_direct(limit))
    assert a.dtype == np.int32 and not a.flags.writeable


def test_cached_primes_serves_smaller_limits_as_views(sieved):
    big = primes.cached_primes(10**5)
    small = primes.cached_primes(10**4)
    assert sieved == [10**5]
    assert small.limit == 10**4
    assert np.shares_memory(small.primes, big.primes)
    assert not small.primes.flags.writeable
    assert np.array_equal(small.primes, oracles.sieve_direct(10**4))
    with pytest.raises(ValueError):
        primes.cached_primes(1)


def test_cached_primes_is_the_one_prime_source(sieved):
    prime_series.euler_tail_constant(10**4)  # walks the segments to 104,729 and keeps no table
    assert sieved == [] and primes._largest is None
    prime_series.log_weighted_sum(0.75, n_cut=10**5)
    assert sieved == [10**5]
    assert primes.cached_primes(10**5).primes.dtype == np.int32
    tracemalloc.start()
    try:
        prime_series.euler_tail_constant(3 * 10**6)  # a table to the Rosser bound: 14 MB
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_log_weighted_grid_checks_every_sigma_before_sieving(sieved):
    for sigmas, n_cut, match in (([0.75, 0.5], 10**5, "sigma must lie"),
                                 ([0.75, 1.01], 10**5, "sigma must lie"),
                                 ([1.0, 0.51], 7, "cutoff 7 below")):
        with pytest.raises(ValueError, match=match):
            prime_series.log_weighted_grid(sigmas, n_cut)
    assert sieved == []


def test_sieve_refuses_limits_past_int32_before_allocating():
    tracemalloc.start()
    try:
        for refused in (lambda: primes.sieve_primes(2**31), lambda: primes.segments(2**31),
                        lambda: prime_series.euler_tail_constant(2 * 10**8)):
            with pytest.raises(ValueError, match="int32 cap"):
                refused()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 15  # the base sieve to sqrt(2^31) alone would take 46 KB


def test_segmented_matches_monolithic(monkeypatch):
    direct = oracles.sieve_direct(10**5)
    for segment in (1, 2, 997, primes.DEFAULT_SEGMENT):
        monkeypatch.setattr(primes, "DEFAULT_SEGMENT", segment)
        assert np.array_equal(primes.sieve_primes(10**5), direct), segment
        walk = list(primes.segments(10**5))
        assert np.array_equal(np.concatenate(walk), direct), segment
        assert all(s.dtype == np.int32 and np.all(np.diff(s) > 0) for s in walk), segment


def test_spf_examples():
    _, spf = oracles.sieve_tables(100)
    assert spf.smallest_factor(12) == 2
    assert spf.smallest_factor(9) == 3
    assert spf.smallest_factor(49) == 7


def test_spf_random_samples_vs_trial_division():
    table, spf = oracles.sieve_tables(10**4)
    rng = np.random.default_rng(1)
    for n in rng.integers(2, 10**4, size=300):
        n = int(n)
        expected = next(d for d in range(2, n + 1) if n % d == 0)
        assert spf.smallest_factor(n) == expected
    for p in table.primes[:100]:
        assert spf.smallest_factor(int(p)) == int(p)


def test_sieve_count_cross_check_random_x():
    table, _ = oracles.sieve_tables(10**5)
    rng = np.random.default_rng(2)
    for x in rng.integers(2, 10**5, size=1000):
        x = int(x)
        assert table.upto(x).size == int(np.count_nonzero(table.primes <= x))


def test_spf_skipped_above_cutoff():
    table, spf = oracles.sieve_tables(10**4, spf_cutoff=10**3)
    assert spf is None
    assert table.count == 1229


def test_chebyshev_small_cases():
    table, _ = oracles.sieve_tables(10)
    rep = primes.chebyshev_check(table)
    assert rep.holds
    assert table.upto(10).size == 4 < 2 * 10 / np.log(10)
    table2, _ = oracles.sieve_tables(2)
    rep2 = primes.chebyshev_check(table2)
    assert rep2.holds and rep2.max_ratio == pytest.approx(np.log(2) / 4)


def test_chebyshev_million():
    rep = primes.chebyshev_check(primes.cached_primes(10**6))
    assert rep.holds and rep.max_ratio < 1


def _factor_oracle(n):
    m = n
    expected = []
    squarefree = True
    for d in range(2, n + 1):
        if d * d > m:
            break
        if m % d == 0:
            expected.append(d)
            count = 0
            while m % d == 0:
                m //= d
                count += 1
            squarefree &= count == 1
    if m > 1:
        expected.append(m)
    return expected, squarefree


def test_factor_squarefree_spf_path():
    table, spf = oracles.sieve_tables(10**4)
    rng = np.random.default_rng(3)
    for n in rng.integers(2, 10**4, size=200):
        n = int(n)
        fs, sq = oracles.factor_squarefree(n, table, spf)
        expected, squarefree = _factor_oracle(n)
        assert sorted(fs) == expected
        assert sq == squarefree


def test_factor_squarefree_trial_division_path():
    table = primes.cached_primes(10**6)
    rng = np.random.default_rng(4)
    for n in rng.integers(2, 10**6, size=200):
        n = int(n)
        fs, sq = oracles.factor_squarefree(n, table, None)
        expected, squarefree = _factor_oracle(n)
        assert sorted(fs) == expected
        assert sq == squarefree


def test_factor_exceeding_limit_raises():
    table, spf = oracles.sieve_tables(10)
    with pytest.raises(ValueError):
        oracles.factor_squarefree(101, table, spf)  # prime above the table limit


def test_first_n_primes():
    assert list(oracles.first_n_primes(5)) == [2, 3, 5, 7, 11]
    p = oracles.first_n_primes(10**4)
    assert p.size == 10**4 and int(p[-1]) == 104729
