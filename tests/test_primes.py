import contextvars
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from rmflab import prime_series, primes, rmf

import oracles


def trial_division_primes(limit):
    out = []
    for n in range(2, limit + 1):
        if all(n % d for d in range(2, int(n**0.5) + 1)):
            out.append(n)
    return out


def test_small_primes_by_definition():
    assert list(primes.sieve_primes(10)) == [2, 3, 5, 7]


def test_prime_counts_against_trial_division(monkeypatch):
    """pi(x) is cached_primes(x).size for every x in 2..300, each sieved from a fresh cache."""
    expected = trial_division_primes(300)
    assert len(expected) == 62
    for x in range(2, 301):
        monkeypatch.setattr(primes, "_largest", None)
        pi = sum(p <= x for p in expected)
        assert primes.cached_primes(x).tolist() == expected[:pi], x


def test_prime_count_edges():
    assert primes.cached_primes(2).tolist() == [2]
    assert primes.cached_primes(3).size == primes.cached_primes(4).size == 2
    assert primes.cached_primes(1000).size == 168
    for refused in (0, 1):
        with pytest.raises(ValueError, match="must be >= 2"):
            primes.cached_primes(refused)


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
    """Every x in 2..300 and 10^4 gets a read-only int32 view of the 10^5 table, pi(x) long."""
    big = primes.cached_primes(10**5)
    assert isinstance(big, np.ndarray) and big.dtype == np.int32 and not big.flags.writeable
    expected = trial_division_primes(300)
    for x in list(range(2, 301)) + [10**4]:
        small = primes.cached_primes(x)
        assert isinstance(small, np.ndarray) and small.dtype == np.int32, x
        assert np.shares_memory(small, big) and not small.flags.writeable, x
        assert small.size == (sum(p <= x for p in expected) if x <= 300 else 1229), x
    assert np.array_equal(primes.cached_primes(10**4), oracles.sieve_direct(10**4))
    assert sieved == [10**5]
    assert primes.cached_primes(2 * 10**5).size == 17984  # a larger limit sieves a larger table
    assert sieved == [10**5, 2 * 10**5]
    with pytest.raises(ValueError):
        primes.cached_primes(1)


def test_cached_primes_is_the_one_prime_source(sieved):
    prime_series.euler_tail_constant(10**4)  # walks the segments to 104,729 and keeps no table
    assert sieved == [] and primes._largest is None
    prime_series.log_weighted_sum(0.75, n_cut=10**5)
    assert sieved == [10**5]
    assert primes.cached_primes(10**5).dtype == np.int32
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


EDGES = [
    (168, None), (169, None),  # 13^2 = 169 is the first composite that only the pattern strikes
    (288, None), (289, None),  # 17^2 = 289 is the offsets' first strike
    (2 * 15015 - 1, None), (2 * 15015 + 1, None),  # the first period's last flag, and one past it
    (2 * 15015 + 1, 15015), (2 * 15015 + 1, 15014),  # segments of a period, and one flag short
    (2**22 + 2 * 7777 + 1, None),  # three segments, ending at flags 12541, 10067 and 2830 mod 15015
    (6 * 2**20 + 3, None),  # a last segment of 2 flags, shorter than the largest base prime 2503
]


@pytest.mark.parametrize("limit, segment", EDGES)
def test_sieve_edges_match_direct(limit, segment, monkeypatch):
    if segment:
        monkeypatch.setattr(primes, "DEFAULT_SEGMENT", segment)
    walk = list(primes.segments(limit))
    assert len(walk) == -(-((limit + 1) // 2) // primes.DEFAULT_SEGMENT)  # not rounded to 15015
    assert all(s.dtype == np.int32 for s in walk)
    assert np.array_equal(np.concatenate(walk), oracles.sieve_direct(limit))


@pytest.mark.parametrize("threads", ["1", "2", "5"])
def test_pipelined_walk_matches_direct_on_any_thread_count(threads, monkeypatch):
    # Every edge that walks more than one segment: inline on one thread, and on more the helper
    # strikes into one buffer while the caller extracts the other; five threads switch every
    # microsecond.
    monkeypatch.setenv("RMFLAB_THREADS", threads)
    default, walked, interval = primes.DEFAULT_SEGMENT, 0, sys.getswitchinterval()
    sys.setswitchinterval(1e-6 if threads == "5" else interval)
    try:
        for limit, segment in EDGES:
            monkeypatch.setattr(primes, "DEFAULT_SEGMENT", segment or default)
            if (limit + 1) // 2 > primes.DEFAULT_SEGMENT:
                walk, walked = list(primes.segments(limit)), walked + 1
                assert np.array_equal(np.concatenate(walk), oracles.sieve_direct(limit)), limit
    finally:
        sys.setswitchinterval(interval)
    assert walked == 4


def test_a_walk_leaves_no_thread_behind(monkeypatch):
    # 50,000 flags in 51 segments of 997: the helper starts at the first segment and is joined
    # when the walk is closed or runs out; one thread walks inline.
    monkeypatch.setattr(primes, "DEFAULT_SEGMENT", 997)
    before = threading.active_count()
    for threads, helpers in (("2", 1), ("1", 0)):
        monkeypatch.setenv("RMFLAB_THREADS", threads)
        walk = primes.segments(10**5)
        assert threading.active_count() == before  # nothing runs before the first item
        assert next(walk).tolist()[:3] == [2, 3, 5]
        assert threading.active_count() == before + helpers
        walk.close()
        assert threading.active_count() == before
        assert np.array_equal(np.concatenate(list(primes.segments(10**5))),
                              oracles.sieve_direct(10**5))
        assert threading.active_count() == before


def test_an_error_in_the_strike_stage_reaches_the_caller(monkeypatch):
    # The third strike fails on the helper; the reader gets the error, and the helper is joined.
    monkeypatch.setenv("RMFLAB_THREADS", "2")
    monkeypatch.setattr(primes, "DEFAULT_SEGMENT", 997)
    before, wheel, strikers, got = threading.active_count(), primes._WHEEL, [], []
    walk = primes.segments(10**5)  # the base primes are walked here, with the true wheel

    class FailingWheel:
        def __getitem__(self, key):
            strikers.append(threading.current_thread())
            if len(strikers) == 3:
                raise RuntimeError("strike failed")
            return wheel[key]

    def read() -> None:
        try:
            got.extend(walk)
        except RuntimeError as exc:
            got.append(exc)

    monkeypatch.setattr(primes, "_WHEEL", FailingWheel())
    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    reader.join(timeout=60)
    assert not reader.is_alive()  # no hang
    assert len(got) == 3 and str(got[2]) == "strike failed"  # two segments, then the error
    assert reader not in strikers and threading.active_count() == before


_STAGE = contextvars.ContextVar("stage")


@pytest.mark.parametrize("threads", ["2", "5"])
def test_every_thread_runs_in_the_callers_context(threads, monkeypatch):
    # A context variable set by the caller reads back inside each pool's work and in the segment
    # walk's strike stage, on threads other than the caller's, and no call runs on more threads
    # than the width rule gives its tasks: 3 passes, 3 blocks of at most 213 seeds, 3 sigma, and
    # 2 stages, of which the caller runs one.
    monkeypatch.setenv("RMFLAB_THREADS", threads)
    seen = {}  # kernel -> [(stage, thread)]

    def spy(name, f):
        def wrapped(*args, **kwargs):
            seen.setdefault(name, []).append((_STAGE.get(None), threading.get_ident()))
            return f(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(rmf, "sign_words", spy("trace", rmf.sign_words))
    monkeypatch.setattr(rmf, "_sign_tiles", spy("sums", rmf._sign_tiles))
    monkeypatch.setattr(prime_series, "_prime_power_term",
                        spy("grid", prime_series._prime_power_term))
    monkeypatch.setattr(prime_series, "_grid", None)
    strike = spy("strike", primes._WHEEL.__getitem__)

    class Wheel:  # the true wheel, read by the strike stage alone once the base primes are walked
        def __getitem__(self, key):
            return strike(key)

    token = _STAGE.set("caller")
    try:
        rmf.partial_sum_trace(range(129), 2000, 2001)
        rmf.random_prime_sum_batch(range(600), [0.6, 0.8], 10**4)
        prime_series.log_weighted_grid([0.6, 0.7, 0.8], 10**4)
        monkeypatch.setattr(primes, "DEFAULT_SEGMENT", 997)
        walk = primes.segments(10**5)
        monkeypatch.setattr(primes, "_WHEEL", Wheel())
        assert np.array_equal(np.concatenate(list(walk)), oracles.sieve_direct(10**5))
    finally:
        _STAGE.reset(token)
    widths = {"trace": 3, "sums": 3, "grid": 3, "strike": 2}
    assert sorted(seen) == sorted(widths)
    for name, calls in seen.items():
        stages, idents = zip(*calls)
        assert set(stages) == {"caller"}, name
        assert threading.get_ident() not in idents, name
        assert len(set(idents)) <= primes._worker_count(widths[name]) - (name == "strike"), name


def test_fan_out_keeps_order_raises_the_first_error_and_joins_its_threads(monkeypatch):
    monkeypatch.setenv("RMFLAB_THREADS", "3")
    before = threading.active_count()
    assert primes.fan_out(range(10), lambda i: i * i) == [i * i for i in range(10)]
    assert primes.fan_out([], lambda i: i) == []
    assert threading.active_count() == before

    def work(i: int) -> int:
        if i == 1:
            raise RuntimeError(f"item {i} failed")
        return i

    with pytest.raises(RuntimeError, match="item 1 failed"):
        primes.fan_out(range(7), work)
    assert threading.active_count() == before


def test_spf_examples():
    _, spf = oracles.sieve_tables(100)
    assert spf.smallest_factor(12) == 2
    assert spf.smallest_factor(9) == 3
    assert spf.smallest_factor(49) == 7


def test_spf_random_samples_vs_trial_division():
    ps, spf = oracles.sieve_tables(10**4)
    rng = np.random.default_rng(1)
    for n in rng.integers(2, 10**4, size=300):
        n = int(n)
        expected = next(d for d in range(2, n + 1) if n % d == 0)
        assert spf.smallest_factor(n) == expected
    for p in ps[:100]:
        assert spf.smallest_factor(int(p)) == int(p)


def test_sieve_count_cross_check_random_x():
    ps, _ = oracles.sieve_tables(10**5)
    rng = np.random.default_rng(2)
    for x in rng.integers(2, 10**5, size=1000):
        x = int(x)
        assert primes.cached_primes(x).size == int(np.count_nonzero(ps <= x))


def test_spf_skipped_above_cutoff():
    ps, spf = oracles.sieve_tables(10**4, spf_cutoff=10**3)
    assert spf is None
    assert ps.size == 1229


def test_chebyshev_small_cases():
    ps = primes.sieve_primes(10)
    rep = primes.chebyshev_check(ps)
    assert rep.holds
    assert ps.size == 4 < 2 * 10 / np.log(10)
    rep2 = primes.chebyshev_check(primes.sieve_primes(2))
    assert rep2.holds and rep2.max_ratio == pytest.approx(np.log(2) / 4)
    assert rep2.worst_prime == 2
    with pytest.raises(ValueError, match="at least one prime"):
        primes.chebyshev_check(np.empty(0, dtype=np.int32))


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
    ps, spf = oracles.sieve_tables(10**4)
    rng = np.random.default_rng(3)
    for n in rng.integers(2, 10**4, size=200):
        n = int(n)
        fs, sq = oracles.factor_squarefree(n, ps, spf)
        expected, squarefree = _factor_oracle(n)
        assert sorted(fs) == expected
        assert sq == squarefree


def test_factor_squarefree_trial_division_path():
    ps = primes.cached_primes(10**6)
    rng = np.random.default_rng(4)
    for n in rng.integers(2, 10**6, size=200):
        n = int(n)
        fs, sq = oracles.factor_squarefree(n, ps, None)
        expected, squarefree = _factor_oracle(n)
        assert sorted(fs) == expected
        assert sq == squarefree


def test_factor_exceeding_limit_raises():
    ps, spf = oracles.sieve_tables(10)
    with pytest.raises(ValueError, match="exceeds the largest prime 7"):
        oracles.factor_squarefree(101, ps, spf)  # prime above the table limit


def test_first_n_primes():
    assert list(oracles.first_n_primes(5)) == [2, 3, 5, 7, 11]
    p = oracles.first_n_primes(10**4)
    assert p.size == 10**4 and int(p[-1]) == 104729
