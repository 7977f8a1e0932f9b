import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from rmflab import primes, rmf
from rmflab.chaining import _GRID_CHUNK
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
    f = oracles.signed_values(s, 10**4)
    ps, spf = oracles.sieve_tables(10**4)
    rng = np.random.default_rng(1)
    for n in rng.integers(1, 10**4, size=300):
        n = int(n)
        assert f[n - 1] == oracles.f_value(s, n, spf)
    # f(n) != 0 iff n squarefree
    for n in rng.integers(1, 10**4, size=300):
        n = int(n)
        _, squarefree = oracles.factor_squarefree(n, ps, spf) if n > 1 else ([], True)
        assert (f[n - 1] != 0) == squarefree


def test_strided_flip_oracle_matches_f_value(monkeypatch):
    # Both flip paths of _signed_block: strided slices up to STRIDED_FLIPS, then multipliers.
    spf = oracles.sieve_tables(10**4)[1]
    for seed in (0, 1):
        s = rmf.sample_signs(seed, 10**4)
        expect = [oracles.f_value(s, n, spf) for n in range(1, 10**4 + 1)]
        for cut in (oracles.STRIDED_FLIPS, 100):
            monkeypatch.setattr(oracles, "STRIDED_FLIPS", cut)
            assert oracles._signed_block(s, 1, 10**4).tolist() == expect


def test_trace_crafted_example():
    s = oracles.signs_from_dict({2: 1, 3: -1, 5: -1}, 10)
    tr = oracles.trace(s, 6, 1)
    assert tr.values.tolist() == [1, 2, 1, 1, 0, -1]
    assert tr.change_points.tolist() == [6]


def test_trace_all_plus_one():
    s = oracles.signs_constant(1, 10)
    tr = oracles.trace(s, 4, 1)
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
    f = oracles.signed_values(s, 10**4)
    [tr] = rmf.partial_sum_trace([2], 10**4, 1)
    assert tr.values[0] == 1
    assert np.array_equal(np.diff(tr.values), f[1:].astype(np.int64))
    assert np.max(np.abs(np.diff(tr.values))) <= 1


def test_trace_changes_match_brute_force():
    for tr in rmf.partial_sum_trace(range(6), 10**4, 1):
        assert tr.change_points.tolist() == brute_change_points(tr.values)


def test_trace_segmented_consistency(monkeypatch):
    [full] = rmf.partial_sum_trace([9], 3 * 10**4, 1)
    monkeypatch.setattr(rmf, "TRACE_SEGMENT", 777)
    [seg] = rmf.partial_sum_trace([9], 3 * 10**4, 1)
    assert np.array_equal(full.values, seg.values)
    assert np.array_equal(full.change_points, seg.change_points)


@pytest.mark.parametrize("segment", [777, 1 << 16])
def test_trace_samples_every_stride_th_n_across_blocks(segment, monkeypatch):
    """values[k] = M((k + 1) stride) against the int64 cumsum of the strided-flip extension,
    with the stride's multiples at every offset of 777-long blocks and of 2^16-long ones."""
    x = 150_001
    signs = rmf.sample_signs(4, x)
    m = np.cumsum(oracles._signed_block(signs, 1, x), dtype=np.int64)
    monkeypatch.setattr(rmf, "TRACE_SEGMENT", segment)
    for stride in (1, 1000, 1 << 16, x, x + 1):
        [tr] = rmf.partial_sum_trace([4], x, stride)
        assert tr.stride == stride and tr.values.dtype == np.int64
        assert np.array_equal(tr.values, m[stride - 1 :: stride])
        assert np.array_equal(tr.change_points, rmf.sign_change_points(m))
        assert tr.final_value == int(m[-1])
    with pytest.raises(ValueError, match="stride"):
        rmf.partial_sum_trace([4], x, 0)


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


def assert_trace_is(tr, m):
    """Every field of a partial_sum_trace equals the reference M = m: the general scan's
    change points, the final value and M at every stride-th n."""
    assert np.array_equal(tr.change_points, rmf.sign_change_points(m))
    assert tr.final_value == int(m[-1])
    assert tr.values.dtype == m.dtype and np.array_equal(tr.values, m[tr.stride - 1 :: tr.stride])


def assert_matches_strided_flips(signs, x, tr):
    """signed_values of `signs` and its trace `tr` to x at stride 1 equal the strided-flip
    extension (one block over 1..x) and its cumulative sum, bit for bit."""
    f = oracles._signed_block(signs, 1, x)
    values = oracles.signed_values(signs, x)
    assert values.dtype == f.dtype and np.array_equal(values, f)
    assert_trace_is(tr, np.cumsum(f, dtype=np.int64))


@pytest.mark.parametrize("seed", PLAN_SEEDS)
def test_plan_extension_matches_strided_flips(seed):
    signs = rmf.sample_signs(seed, max(PLAN_XS))
    for x in PLAN_XS:
        assert_matches_strided_flips(signs, x, rmf.partial_sum_trace([seed], x, 1)[0])


@pytest.mark.parametrize("seed", PLAN_SEEDS)
def test_plan_extension_matches_strided_flips_short_segments(seed, monkeypatch):
    signs = rmf.sample_signs(seed, 3 * 10**4)
    for segment, xs in SHORT_SEGMENTS.items():
        monkeypatch.setattr(rmf, "TRACE_SEGMENT", segment)
        for x in xs:
            assert_matches_strided_flips(signs, x, rmf.partial_sum_trace([seed], x, 1)[0])


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
        assert_matches_strided_flips(signs, x, oracles.trace(signs, x, 1))


POOLED_SEEDS = list(range(-3, 67))  # 70 seeds: two passes of 35


@pytest.mark.parametrize("threads", ["1", "2"])
def test_pooled_traces_match_the_oracle_scan(threads, monkeypatch):
    """Each seed's trace from one partial_sum_trace call over POOLED_SEEDS, samples included,
    equals the general scan of the int64 cumsum of its own strided-flip extension, bit for bit
    on one thread and on two."""
    monkeypatch.setenv("RMFLAB_THREADS", threads)
    traces = rmf.partial_sum_trace(POOLED_SEEDS, 20_000, 7)
    assert len(traces) == len(POOLED_SEEDS)
    for seed, tr in zip(POOLED_SEEDS, traces):
        f = oracles._signed_block(rmf.sample_signs(seed, 20_000), 1, 20_000)
        assert tr.x_max == 20_000 and tr.stride == 7
        assert_trace_is(tr, np.cumsum(f, dtype=np.int64))
    [tr] = rmf.partial_sum_trace([5], 1, 2)
    assert (tr.count_changes(), tr.final_value, tr.values.size) == (0, 1, 0)
    with pytest.raises(ValueError, match="x_max must be >= 1, got 0"):
        rmf.partial_sum_trace([5], 0, 1)


WALK_XS = (1, 2, 3, 70_000, 131_072, 10**6)  # 70,000 and 131,072 end inside and at a block


@pytest.mark.parametrize("first", [0, 1000])
def test_walk_matches_the_oracle_scan(first):
    """partial_sum_trace, one seed at a time and for all at once, against the int64 cumsum of
    the strided-flip extension and the general scan, at seeds first..first + 63."""
    seeds, reference = list(range(first, first + 64)), {}
    for seed in seeds:
        signs = rmf.sample_signs(seed, max(WALK_XS))
        m = np.cumsum(oracles._signed_block(signs, 1, max(WALK_XS)), dtype=np.int64)
        for x in WALK_XS:  # the extension to x is the first x values of the one to 10^6
            assert_trace_is(rmf.partial_sum_trace([seed], x, 1)[0], m[:x])
            reference[seed, x] = [rmf.sign_change_points(m[:x]).size, int(m[x - 1])]
    for x in WALK_XS:
        pooled = rmf.partial_sum_trace(seeds, x, x + 1)
        assert [[tr.count_changes(), tr.final_value] for tr in pooled] == [
            reference[s, x] for s in seeds]


def zero_at(seed: int, n: int, x: int) -> rmf.SignAssignment:
    """sample_signs(seed, x) with primes in (n/2, n] of the sign of M(n) flipped, each moving
    M(n) by 2 towards 0, until M(n) = 0 (the count of squarefree k <= n must be even)."""
    signs = rmf.sample_signs(seed, x)
    ps, sg = signs.primes, signs.signs.copy()
    m = int(np.sum(oracles._signed_block(signs, 1, n), dtype=np.int64))
    big = np.flatnonzero((ps > n // 2) & (ps <= n) & (sg == np.sign(m)))
    sg[big[: abs(m) // 2]] *= -1
    return rmf.SignAssignment(seed=-1, prime_limit=x, primes=ps, signs=sg)


# (TRACE_SEGMENT, n with M(n) = 0, x).  M(65,535) = M(65,536) = 0 ends the first block at 0,
# and the walk's next entry, the prime 65,537, is the first of a block.  243, 244 = 4 * 61 and
# 245 = 5 * 7^2 are not squarefree, so the zero run 242..245 straddles the boundaries of
# 242-, 243- and 244-long blocks, and 2-long blocks put two boundaries and an empty block in it.
ZERO_RUNS = [(rmf.TRACE_SEGMENT, 65_535, 70_000), (rmf.TRACE_SEGMENT, 65_535, 65_536),
             (242, 242, 3_000), (243, 242, 3_000), (244, 242, 3_000), (2, 242, 3_000)]


@pytest.mark.parametrize("segment, n, x", ZERO_RUNS)
def test_walk_carries_zero_runs_across_blocks(segment, n, x, monkeypatch):
    monkeypatch.setattr(rmf, "TRACE_SEGMENT", segment)
    crafted = [zero_at(seed, n, x) for seed in range(3)]
    ms = [np.cumsum(oracles._signed_block(s, 1, x), dtype=np.int64) for s in crafted]
    end = -(-n // segment) * segment
    for s, m in zip(crafted, ms):
        assert m[n - 1] == 0 and m[end - 1] == 0  # a block ends inside the zero run
        assert_trace_is(oracles.trace(s, x, 1), m)
    words = oracles.packed(np.stack([s.signs < 0 for s in crafted]))
    walked, samples = rmf._traces(words, len(crafted), x, 1)
    for (cps, final), m in zip(walked, ms):
        assert np.array_equal(cps, rmf.sign_change_points(m)) and final == int(m[-1])
    assert np.array_equal(samples, np.stack(ms))


def test_sign_count_lanes_cannot_carry():
    # A block's multiples of 4 are not squarefree, so a 16-bit lane counts fewer than 2^16 signs.
    assert rmf.TRACE_SEGMENT - rmf.TRACE_SEGMENT // 4 < 1 << 16


def test_ramped_count_lanes_cannot_carry():
    # Slot i of a block of n squarefree entries holds c + 2^15 + 1 - ceil(i/2), 0 <= c <= i <= n,
    # and slot -1 holds 2^15 or 2^15 + 1: inside [1, 2^16) for every n a block can have.
    n = rmf.TRACE_SEGMENT - rmf.TRACE_SEGMENT // 4
    assert 0 < 2**15 + 1 - (n + 1) // 2 and 2**15 + 1 + n // 2 < 1 << 16
    # Words with no bit set give f = 1 on every squarefree n: c = 0, the ramp alone, at its least.
    words = np.zeros(primes.cached_primes(LANE_X).size, np.uint64)
    walked, samples = rmf._traces(words, 4, LANE_X, 1)
    mu = oracles._signed_block(oracles.signs_constant(-1, LANE_X), 1, LANE_X)
    assert_walks_are(walked, samples, np.cumsum(np.abs(mu), dtype=np.int64))


def assert_walks_match(got, expected):
    """Two _traces results are equal in every change point, final M and sample."""
    (walked, samples), (walked_ref, samples_ref) = got, expected
    assert len(walked) == len(walked_ref)
    for (cps, final), (cps_ref, final_ref) in zip(walked, walked_ref):
        assert cps.dtype == cps_ref.dtype and np.array_equal(cps, cps_ref)
        assert type(final) is int and final == final_ref
    assert samples.dtype == samples_ref.dtype and np.array_equal(samples, samples_ref)


INT32_ROWS = (1, 3, 4, 5, 17, 50, 64)
# (TRACE_SEGMENT, x): x ends at, just past and inside blocks; 2-long blocks include empty ones,
# and the non-squarefree run 242..245 straddles the edges of 242- and 243-long blocks.
INT32_XS = [(SEGMENT, 1), (SEGMENT, 2), (SEGMENT, SEGMENT), (SEGMENT, SEGMENT + 1),
            (SEGMENT, 2 * SEGMENT + 1000), (2, 250), (242, 3_000), (243, 3_000)]


@pytest.mark.parametrize("segment, x", INT32_XS)
def test_walk_reproduces_the_int32_walk_bit_for_bit(segment, x, monkeypatch):
    """rmf._traces against oracles.int32_walk on the same words: every change point, final M
    and sample, for 1 to 64 rows and strides 1, 7, 2^16 and x + 1."""
    monkeypatch.setattr(rmf, "TRACE_SEGMENT", segment)
    ps = primes.cached_primes(max(x, 2))[: x - 1]
    for rows in INT32_ROWS:
        words = rmf.sign_words(rmf.derive_seed(35, np.arange(rows)), ps)
        for stride in (1, 7, 1 << 16, x + 1):
            assert_walks_match(rmf._traces(words, rows, x, stride),
                               oracles.int32_walk(words, rows, x, stride))


@pytest.mark.parametrize("segment, n, x", ZERO_RUNS)
def test_walk_reproduces_the_int32_walk_over_zero_runs(segment, n, x, monkeypatch):
    monkeypatch.setattr(rmf, "TRACE_SEGMENT", segment)
    words = oracles.packed(np.stack([zero_at(seed, n, x).signs < 0 for seed in range(5)]))
    for stride in (1, 7, 1 << 16, x + 1):
        assert_walks_match(rmf._traces(words, 5, x, stride),
                           oracles.int32_walk(words, 5, x, stride))


LANE_X = 2 * rmf.TRACE_SEGMENT + 1000  # three blocks, the last one short


def assert_walks_are(walked, samples, m):
    """Every row of a _traces result at stride 1 equals the oracle scan of M = m."""
    for (cps, final), values in zip(walked, samples, strict=True):
        assert np.array_equal(cps, rmf.sign_change_points(m)) and final == int(m[-1])
        assert np.array_equal(values, m)


@pytest.mark.parametrize("rows", [1, 17, 50, 64])
def test_walk_of_all_negative_words_matches_the_oracle_scan(rows, monkeypatch):
    """Words with every f(p) = -1 walk as the int64 cumsum of the Moebius function.  With the
    blocks' words then set to all ones, f(n) = -1 for every squarefree n, and every lane counts
    its block's full squarefree count, above 2^15."""
    words = oracles.packed(np.ones((rows, primes.cached_primes(LANE_X).size), bool))
    mu = oracles._signed_block(oracles.signs_constant(-1, LANE_X), 1, LANE_X)
    walked, samples = rmf._traces(words, rows, LANE_X, 1)
    assert len(walked) == rows
    assert_walks_are(walked, samples, np.cumsum(mu, dtype=np.int64))
    blocks = rmf._signed_blocks
    monkeypatch.setattr(rmf, "_signed_blocks", lambda words, x_max: (
        (lo, hi, sq, np.full_like(w, ~np.uint64(0))) for lo, hi, sq, w in blocks(words, x_max)))
    walked, samples = rmf._traces(words, rows, LANE_X, 1)
    assert_walks_are(walked, samples, np.cumsum(-np.abs(mu), dtype=np.int64))


# Block edges at 2^16: x ends before, at and after one, and 10^6 ends inside the sixteenth block.
BLOCK_XS = [1, 2, 3, 4, 10, 243, 1000, 65535, 65536, 65537, 131073, 200003, 10**6]


@pytest.mark.parametrize("x", BLOCK_XS)
def test_signed_blocks_reproduce_the_sieved_blocks_bit_for_bit(x, monkeypatch):
    """Every (lo, squarefree, sq, w) of rmf._signed_blocks against the per-block sieve it replaced,
    for 1, 50 and 64 seeds, from a fresh factor table and from a prefix of a larger one."""
    ps = primes.cached_primes(max(x, 2))[: x - 1]
    monkeypatch.setattr(rmf, "_factors", None)
    for limit in (x, 10**6 + 1):
        rmf._factor_table(limit)
        assert rmf._factors[0] == limit
        for rows in (1, 50, 64):
            words = rmf.sign_words(rmf.derive_seed(42, np.arange(rows)), ps)
            expected = oracles.sieved_blocks(words, x)
            for got, ref in itertools.zip_longest(rmf._signed_blocks(words, x), expected):
                assert got[0] == ref[0]
                for a, b in zip(got[1:], ref[1:]):
                    assert a.dtype == b.dtype and np.array_equal(a, b)


def test_traces_do_not_depend_on_the_cached_factor_table(monkeypatch):
    """A trace to 10^5 from the prefix of a 10^6 table, built for an earlier call, has the bytes
    of one from a fresh 10^5 table, and so has the table itself."""
    monkeypatch.setattr(rmf, "_factors", None)
    fresh = rmf.partial_sum_trace(range(3), 10**5, 1)
    table = [a.copy() for a in rmf._factor_table(10**5)]
    rmf.partial_sum_trace([0], 10**6, 1 << 16)
    assert rmf._factors[0] == 10**6
    prefix = rmf.partial_sum_trace(range(3), 10**5, 1)
    assert rmf._factors[0] == 10**6  # read, not rebuilt
    for a, b in zip(fresh, prefix, strict=True):
        assert a.change_points.tobytes() == b.change_points.tobytes()
        assert a.values.tobytes() == b.values.tobytes() and a.final_value == b.final_value
    for a, b in zip(table, rmf._factor_table(10**5), strict=True):
        assert a.tobytes() == b[: a.size].tobytes()


def test_concurrent_calls_each_walk_a_table_to_their_own_x(monkeypatch):
    """Eight threads build and replace factor tables of six sizes at once, switching every
    microsecond: each call still walks a table at least as large as its x_max, so its trace
    equals that of the same call made alone."""
    monkeypatch.setenv("RMFLAB_THREADS", "1")
    xs = [3000, 20_000, 1000, 65_537, 7000, 40_000] * 3

    def final(x: int) -> int:
        return rmf.partial_sum_trace([x], x, x + 1)[0].final_value

    alone = {x: final(x) for x in xs}
    monkeypatch.setattr(rmf, "_factors", None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            together = list(pool.map(final, xs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert together == [alone[x] for x in xs]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_passes_split_the_seeds_evenly_in_seed_order(threads, monkeypatch):
    monkeypatch.setenv("RMFLAB_THREADS", threads)
    sizes, sign_words = [], rmf.sign_words
    monkeypatch.setattr(rmf, "sign_words", lambda block, ps: sizes.append(len(block)) or
                        sign_words(block, ps))
    x = 2000
    finals = [int(np.sum(oracles._signed_block(rmf.sample_signs(s, x), 1, x), dtype=np.int64))
              for s in range(129)]
    for n, expected in [(64, [64]), (65, [33, 32]), (100, [50, 50]), (129, [43, 43, 43])]:
        sizes.clear()
        traces = rmf.partial_sum_trace(range(n), x, x + 1)
        assert sorted(sizes, reverse=True) == expected
        assert [tr.final_value for tr in traces] == finals[:n]


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
    # M at every 2^16-th n, as simulate samples it beyond 10^5.
    [tr] = rmf.partial_sum_trace([1], 2 * 10**5, 1 << 16)
    [full] = rmf.partial_sum_trace([1], 2 * 10**5, 1)
    assert tr.values.tolist() == [full.values[n - 1] for n in (65536, 131072, 196608)]


def test_trace_without_values():
    [tr] = rmf.partial_sum_trace([1], 10**4, 10**4 + 1)
    [full] = rmf.partial_sum_trace([1], 10**4, 1)
    assert tr.values.size == 0
    assert np.array_equal(tr.change_points, full.change_points)
    assert tr.final_value == full.final_value


def test_count_sign_changes():
    [tr] = rmf.partial_sum_trace([0], 10**4, 1)
    assert tr.count_changes(10**4) == tr.change_points.size
    for x in (10, 100, 5000):
        assert tr.count_changes(x) == int(np.sum(tr.change_points <= x))
    with pytest.raises(ValueError):
        tr.count_changes(10**4 + 1)


def test_seed_zero_regression_value():
    # Pinned after the first full run of this simulation.
    [tr] = rmf.partial_sum_trace([0], 10**6, 1 << 16)
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
    batch = rmf.random_prime_sum_batch(seeds, [0.7], 10**4)[:, 0]
    for i, seed in enumerate(seeds):
        single = oracles.random_prime_sum(rmf.sample_signs(int(seed), 10**4), 0.7, 10**4)
        assert batch[i] == pytest.approx(single.value, rel=1e-12)



@pytest.mark.parametrize("trials, limit", [(100, 10**3), (257, 10**3), (600, 10**3),
                                           (13000, 10**3), (100, 10**5), (257, 10**5),
                                           (600, 10**5)])
def test_random_prime_sum_batch_matches_direct_bit_for_bit(trials, limit):
    # A block holds 2^20 // P seeds: 6241 at 10^3, so 13,000 trials take blocks of 6241, 6241
    # and 518, and 109 at 10^5, so 257 and 600 trials end on partial blocks of 39 and 55 seeds.
    seeds, sigmas = rmf.derive_seed(3, np.arange(trials)), [0.55, 0.7, 1.3]
    assert np.array_equal(rmf.random_prime_sum_batch(seeds, sigmas, limit),
                          oracles.random_prime_sum_batch_direct(seeds, sigmas, limit))
    ints = list(range(-(trials // 2), trials - trials // 2))
    assert np.array_equal(rmf.random_prime_sum_batch(ints, [0.6], limit),
                          oracles.random_prime_sum_batch_direct(ints, [0.6], limit))


def test_random_prime_sum_batch_bits_hold_on_more_threads_than_cores(monkeypatch):
    # Five threads over ten 109-seed blocks at 10^5, each reusing its block for a second one,
    # switching every microsecond: a lost or crossed write would break equality with the oracle.
    monkeypatch.setenv("RMFLAB_THREADS", "5")
    seeds, sigmas = rmf.derive_seed(7, np.arange(1000)), [0.6, 0.9]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        batch = rmf.random_prime_sum_batch(seeds, sigmas, 10**5)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(batch, oracles.random_prime_sum_batch_direct(seeds, sigmas, 10**5))


def test_random_prime_sum_batch_sigma_vector_matches_scalar():
    seeds = np.arange(2000, dtype=np.uint64)  # spans three 853-seed blocks at 10^4
    sigmas = [0.55, 0.7, 1.3]
    batch = rmf.random_prime_sum_batch(seeds, sigmas, 10**4)
    assert batch.shape == (2000, 3)
    for j, sigma in enumerate(sigmas):
        scalar = rmf.random_prime_sum_batch(seeds, [sigma], 10**4)[:, 0]
        assert np.array_equal(batch[:, j], scalar)
    with pytest.raises(DivergenceError):
        rmf.random_prime_sum_batch(seeds, [0.7, 0.5], 10**4)


@pytest.mark.parametrize("limit, trials", [(10**4, 2000), (10**6, 30)])
def test_random_prime_sum_batch_lies_within_gamma_p_of_the_exact_sum(limit, trials):
    # Any order of summing P terms is within gamma_P sum |w| of their exact sum (Higham, ch. 3),
    # here math.fsum of the float64 terms +-p^(-sigma); the trials span blocks of 853 and 13.
    seeds, sigmas = rmf.derive_seed(5, np.arange(trials)), [0.55, 0.75, 1.0]
    batch = rmf.random_prime_sum_batch(seeds, sigmas, limit)
    ps = primes.cached_primes(limit)
    signs = oracles.sign_matrix_direct(seeds, ps)
    gamma = ps.size * 2.0**-53 / (1 - ps.size * 2.0**-53)
    for j, sigma in enumerate(sigmas):
        w = ps.astype(np.float64) ** -sigma
        exact = np.array([math.fsum(row * w) for row in signs])
        assert np.all(np.abs(batch[:, j] - exact) <= gamma * math.fsum(w))


def test_random_prime_sum_batch_of_no_seeds_is_empty():
    for seeds in (np.empty(0, dtype=np.uint64), []):
        assert rmf.random_prime_sum_batch(seeds, [0.6, 0.8], 10**3).shape == (0, 2)


def oracle_exceedances(seeds, sigmas, lams, limit):
    return (oracles.random_prime_sum_batch_direct(seeds, sigmas, limit) >= lams).sum(axis=0)


@pytest.mark.parametrize("trials, limit", [(100, 10**3), (6300, 10**3), (500, 10**4),
                                           (2000, 10**4), (50, 10**5), (257, 10**5)])
def test_prime_sum_exceedances_match_the_oracle_count(trials, limit):
    # Blocks hold 6241, 853 and 109 seeds at 10^3, 10^4 and 10^5: 6300, 2000 and 257 trials end
    # on partial blocks of 59, 294 and 39 seeds, and 100, 500 and 50 fit in one block.
    seeds = np.random.default_rng(trials).integers(0, 2**64, trials, dtype=np.uint64)
    sigmas, lams = [0.55, 0.7, 1.3, 0.9], [1.0, 0.0, -0.3, 0.6]
    got = rmf.prime_sum_exceedances(seeds, sigmas, lams, limit)
    assert np.array_equal(got, oracle_exceedances(seeds, sigmas, lams, limit))
    ints = list(range(-(trials // 2), trials - trials // 2))
    assert np.array_equal(rmf.prime_sum_exceedances(ints, [0.6], [0.25], limit),
                          oracle_exceedances(ints, [0.6], [0.25], limit))


def test_prime_sum_exceedances_are_exact_at_and_next_to_a_trials_value():
    # A threshold at a trial's exact sum, or one ulp either side, lies inside the screen's band
    # (the gemm differs from the einsum in most cells), so only the exact recount decides it.
    seeds, sigmas = rmf.derive_seed(11, np.arange(300)), [0.55, 0.75, 1.0]
    values = oracles.random_prime_sum_batch_direct(seeds, sigmas, 10**5)
    for t in range(0, 300, 15):
        for lams in (values[t], np.nextafter(values[t], -np.inf), np.nextafter(values[t], np.inf)):
            assert np.array_equal(rmf.prime_sum_exceedances(seeds, sigmas, lams, 10**5),
                                  (values >= lams).sum(axis=0)), (t, lams)


def test_prime_sum_exceedances_at_infinite_and_nan_thresholds():
    seeds = rmf.derive_seed(2, np.arange(400))
    got = rmf.prime_sum_exceedances(seeds, [0.6, 0.8, 1.1], [-np.inf, np.inf, np.nan], 10**4)
    assert got.tolist() == [400, 0, 0]


def test_prime_sum_exceedances_of_no_seeds_are_zero():
    for seeds in (np.empty(0, dtype=np.uint64), []):
        assert rmf.prime_sum_exceedances(seeds, [0.6, 0.8], [0.0, -1.0], 10**3).tolist() == [0, 0]
    with pytest.raises(DivergenceError):
        rmf.prime_sum_exceedances([1], [0.7, 0.5], [0.0, 0.0], 10**3)


@pytest.mark.parametrize("threads", ["1", "2", "5"])
def test_prime_sum_exceedances_hold_on_any_thread_count(monkeypatch, threads):
    # Ten 109-seed blocks at 10^5, switching every microsecond; thresholds at trials' exact
    # values send rows through the exact recount on every thread.
    monkeypatch.setenv("RMFLAB_THREADS", threads)
    seeds, sigmas = rmf.derive_seed(7, np.arange(1000)), [0.6, 0.9]
    values = oracles.random_prime_sum_batch_direct(seeds, sigmas, 10**5)
    lams = [values[3, 0], values[998, 1]]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = rmf.prime_sum_exceedances(seeds, sigmas, lams, 10**5)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(got, (values >= lams).sum(axis=0))


def test_normalized_sums_rarely_large():
    seeds = np.arange(1000, dtype=np.uint64)
    values = rmf.random_prime_sum_batch(seeds, [0.6], 10**6)[:, 0]
    from rmflab.prime_series import prime_zeta

    normalized = values / math.sqrt(prime_zeta(1.2).estimate)  # the variance sum at sigma 0.6
    assert np.mean(np.abs(normalized) < 6.0) >= 0.99


def test_sample_variance_matches_coefficient_sum():
    ps = primes.cached_primes(10**5)
    sigma = 0.75
    seeds = np.arange(500, dtype=np.uint64)
    values = rmf.random_prime_sum_batch(seeds, [sigma], 10**5)[:, 0]
    p = ps.astype(np.float64)
    a2 = p ** (-2 * sigma)
    v = float(np.sum(a2))
    mu4 = 3 * v * v - 2 * float(np.sum(a2 * a2))
    n = seeds.size
    se = math.sqrt((mu4 - v * v * (n - 3) / (n - 1)) / n)
    sample_var = float(np.var(values, ddof=1))
    assert abs(sample_var - v) <= 5 * se


def test_abel_identity_trivial_and_small():
    s = rmf.sample_signs(0, 10**4)
    f = oracles.signed_values(s, 10**4)
    assert rmf.abel_residuals(f[None, :1], 1.5).tolist() == [0.0]
    for sigma in (0.6, 1.5):
        assert rmf.abel_residuals(f[None, :], sigma)[0] <= 1e-9


def test_abel_residuals_are_the_per_row_residuals_over_their_scales():
    rows = rmf.signed_value_rows([rmf.derive_seed(521, i) for i in range(3)], 10**4)
    for x in (1, 2, 10**4):
        for sigma in (0.6, 1.5):
            power, steps = rmf.abel_weights(sigma, x)
            want = []
            for f in rows[:, :x]:  # each row's residual over its scale, written out
                scale = float(np.sum(np.abs(f) * power))
                m = np.cumsum(f, dtype=np.int64)
                lhs = float(np.sum(f * power))
                boundary = float(m[-1]) * x ** (-sigma)
                integral = float(np.sum(m[:-1].astype(np.float64) * steps))
                want.append(abs(lhs - boundary - integral) / scale)
            got = rmf.abel_residuals(rows[:, :x], sigma)
            assert got.dtype == np.float64 and got.tolist() == want, (x, sigma)


def test_signed_value_rows_match_one_seed_at_a_time():
    seeds = [rmf.derive_seed(521, i) for i in range(3)] + [0, 2**64 - 1]
    for x in (1, 2, 3, 1000, 3 * rmf.TRACE_SEGMENT + 5):
        rows = rmf.signed_value_rows(seeds, x)
        assert rows.shape == (len(seeds), x) and rows.dtype == np.int8
        for row, seed in zip(rows, seeds):
            assert np.array_equal(row, oracles.signed_values(rmf.sample_signs(seed, max(x, 2)), x))


def test_abel_weights_are_the_direct_expressions():
    for x in (1, 2, 10**4):
        n = np.arange(1, x + 1, dtype=np.float64)
        for sigma in (0.6, 1.5):
            power, steps = rmf.abel_weights(sigma, x)
            assert np.array_equal(power, n ** (-sigma))
            step = n[:-1] ** (-sigma) * (-np.expm1(-sigma * np.log1p(1.0 / n[:-1])))
            assert np.array_equal(steps, step)


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


def test_block_products_keep_a_row_when_every_other_row_is_zero():
    # The bit argument of chaining's exact blocks: a row of a BLAS gemm reads only its own
    # input row, in an order that the block's shape and the row's place fix, so the row keeps
    # its bits whether the other rows hold data (`full`) or zeros (`lone`), and stale rows
    # left from an earlier block cannot change it.  Rows: first, middle, last, and in a
    # partial block.
    rng = np.random.default_rng(19)
    n_p = primes.cached_primes(10**5).size
    right = rng.standard_normal((n_p, 20))
    for size in (_GRID_CHUNK, _GRID_CHUNK - 85):
        block = rng.uniform(-1.0, 1.0, (size, n_p))
        full = block @ right
        for i in (0, size // 2, size - 1):
            lone = np.zeros_like(block)
            lone[i] = block[i]
            assert (lone @ right)[i].tobytes() == full[i].tobytes(), (size, i)


@pytest.mark.parametrize("limit, rows", [(10**3, 300), (10**4, 300), (10**5, 300), (10**6, 129)])
def test_sup_scan_row_sums_lie_within_two_gamma_p_of_the_block_gemv(limit, rows):
    # Row sums and the gemv they replaced each lie within gamma_P sum|w| of the exact sum
    # of the cos(t log p) w_p, whatever the order of summation (Higham, ch. 4.2).
    signs = rmf.sample_signs(0, limit)
    n_p = signs.primes.size
    gamma = n_p * 2.0**-53 / (1 - n_p * 2.0**-53)
    for sigma in (0.55, 1.0):
        t_max = 1.0 + (rows - 1) * 0.01
        row_sums = np.concatenate(
            [b[1] for b in oracles.sup_scan_blocks(signs, sigma, t_max, 0.01, limit)])
        gemv = oracles.sup_scan_cos_gemv(signs, sigma, t_max, 0.01, limit)
        bound = 2 * gamma * np.sum(signs.primes.astype(np.float64) ** -sigma)
        assert row_sums.size == gemv.size == rows
        assert np.max(np.abs(row_sums - gemv)) <= bound


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


@pytest.mark.parametrize("cells", [rmf._LOW_RANK_CELLS, 5000])
def test_split_kernel_eps_holds_for_integer_k_of_either_sign(cells, monkeypatch):
    # e^(i k z) = e^(i 64 a z) e^(i m z) for k = 64 a + m: k from -1400 to 1400 spans 44
    # periods of the 64-entry table, in sup-scan's order m then 2 m, on theta near 0 and near
    # 100, where the rounding of k z grows; 5000 cells cut the 4,202 rows into chunks of 25
    # (degree 196), each with its own table of a.  The exact sums take the phases in long
    # double, with a 64-bit mantissa.
    monkeypatch.setattr(rmf, "_LOW_RANK_CELLS", cells)
    rng = np.random.default_rng(23)
    m = np.arange(-700.0, 701.0)
    ks = np.concatenate([m, 2 * m])
    for c in (0.0, 100.0):
        theta = c + np.sort(rng.uniform(0.0, 0.2, 500))
        coef = rng.standard_normal((500, 2)) + 1j * rng.standard_normal((500, 2))
        values, eps = rmf._low_rank_grid(theta, coef, ks, True)
        phase = np.multiply.outer(ks.astype(np.longdouble), theta.astype(np.longdouble))
        exact = (np.cos(phase) + 1j * np.sin(phase)) @ coef.astype(np.clongdouble)
        assert np.all(np.max(np.abs(values - exact), axis=0) <= eps), c


@pytest.mark.parametrize("lo", [0.0, 100.0])
def test_split_kernel_cells_stay_within_the_node_term(lo):
    # Each cell of e^(i k z) = e^(i 64 a z) e^(i m z), |k| <= 1400, at the 61 Chebyshev nodes
    # z = c + r x_j of [lo, lo + 0.2], against the long-double cis of k z, which is exact there
    # (11 bits of k and 53 of z fill the 64-bit mantissa): each lies within the node term
    # 1.01 u ((|k| + 126)(2|c| + 3r) + 15) of _low_rank's eps, and some cell beyond a tenth of
    # it (0.35 of it near 0, 0.47 near 100), so the term cannot shrink tenfold.
    ks, c, r = np.arange(-1400.0, 1401.0), lo + 0.1, 0.1
    z = c + r * np.sin(np.pi * np.arange(60, -61, -2) / 120)
    steps = np.exp(1j * np.multiply.outer(np.arange(64.0), z))  # e^(i m z), as _low_rank's
    phase = np.multiply.outer(ks.astype(np.longdouble), z.astype(np.longdouble))
    err = np.abs(rmf._split_kernel(ks, z, steps) - (np.cos(phase) + 1j * np.sin(phase)))
    node = rmf._node_error(np.abs(ks)[:, None], c, r, True)
    assert np.all(err <= node) and np.max(err / node) > 0.1


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
    assert peak <= rmf.sup_scan_need(0.55, 17.95, 0.01, 10**5)


@pytest.mark.parametrize("trials, limit, n_sigmas", [(1, 2, 1), (5, 10**3, 1), (257, 10**3, 8),
                                                     (600, 10**5, 3), (2000, 10**5, 8),
                                                     (2000, 10**6, 3), (150, 10**5, 3),
                                                     (10000, 10**5, 8)])
def test_prime_sum_batch_bytes_bounds_the_traced_peak(monkeypatch, trials, limit, n_sigmas):
    # Both the values and the exceedance counts, at 1 and 2 threads; each thread hashes into its
    # own block.  (2000, 10^6, 3) is c06's, (10000, 10^5, 8) concentration's and c07's, and at
    # (150, 10^5, 3) two threads hold 109-row blocks for 150 seeds.
    primes.cached_primes(limit)  # the prime table exists before the call
    seeds, sigmas = rmf.derive_seed(0, np.arange(trials)), np.linspace(0.6, 1.0, n_sigmas)
    calls = {"values": lambda: rmf.random_prime_sum_batch(seeds, sigmas, limit),
             "counts": lambda: rmf.prime_sum_exceedances(seeds, sigmas, 0.5 - sigmas, limit)}
    for (kind, call), threads in itertools.product(calls.items(), ("1", "2")):
        monkeypatch.setenv("RMFLAB_THREADS", threads)
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= rmf.prime_sum_need(trials, limit, n_sigmas), (kind, threads)


def test_cgroup_limit_reads_v2_and_v1_files(tmp_path):
    proc = tmp_path / "cgroup"
    proc.write_text("0::/user.slice/job\n")
    limit = tmp_path / "user.slice" / "job" / "memory.max"
    limit.parent.mkdir(parents=True)
    limit.write_text("1048576\n")
    assert primes.cgroup_limit(str(proc), str(tmp_path)) == 1048576
    limit.write_text("max\n")
    assert primes.cgroup_limit(str(proc), str(tmp_path)) == math.inf
    limit.unlink()
    assert primes.cgroup_limit(str(proc), str(tmp_path)) == math.inf
    proc.write_text("4:memory:/job\n1:cpu:/\n0::/\n")  # v1 memory controller
    v1 = tmp_path / "memory" / "job" / "memory.limit_in_bytes"
    v1.parent.mkdir(parents=True)
    v1.write_text("2097152\n")
    assert primes.cgroup_limit(str(proc), str(tmp_path)) == 2097152
    assert primes.cgroup_limit(str(tmp_path / "missing"), str(tmp_path)) == math.inf


def test_check_memory_honours_a_cgroup_limit_below_physical_memory(monkeypatch):
    monkeypatch.setattr(primes, "cgroup_limit", lambda: 2**20)
    with pytest.raises(primes.ResourceLimitError, match="B > cgroup memory limit"):
        primes.check_memory(2**20 + 1, "test")
    primes.check_memory(2**20, "test")


def test_partial_sum_trace_refuses_beyond_memory_before_any_sieve(monkeypatch):
    # One seed at 10^6 needs its 12.5 MB factor table, above a cgroup limit of 1 MiB.
    monkeypatch.setattr(primes, "cgroup_limit", lambda: 2**20)
    monkeypatch.setattr(rmf, "_factors", None)
    calls = []
    monkeypatch.setattr(rmf.primes_mod, "cached_primes", lambda *a: calls.append(a))
    x, n_primes = 10**6, primes.prime_count_bound(10**6)
    need = (4 * x + 8 * (x - x // 4 + 1) + 4 * n_primes + 32 * 2**16  # the table's build
            + 32 * n_primes + 8 * (x // 2 - x // 8 + 1) + 63 * 2**16 + 2**16)  # and its pass
    assert need == 22_561_892
    with pytest.raises(primes.ResourceLimitError,
                       match=f"x_max=1000000 factor table and sign hash: {need} B > cgroup"):
        rmf.partial_sum_trace([0], 10**6, 10**6 + 1)
    with pytest.raises(ValueError, match="stride must be >= 1, got 0"):
        rmf.partial_sum_trace([0], 10, 0)
    assert calls == []


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
        rmf.sup_scan(s, 0.5, 5.0, 0.01, limit=100)
    with pytest.raises(ValueError):
        rmf.sup_scan(s, 0.6, 0.5, 0.01, limit=100)
    with pytest.raises(ValueError):
        rmf.sup_scan(s, 0.6, 5.0, grid_step=0.5, limit=100)


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
    ps = primes.cached_primes(10**4)
    assert np.array_equal(rmf.sign_matrix([-1], ps), rmf.sign_matrix([2**64 - 1], ps))
    assert np.array_equal(
        rmf.random_prime_sum_batch([-1], [0.6], 100),
        rmf.random_prime_sum_batch([2**64 - 1], [0.6], 100),
    )
    assert np.array_equal(rmf.sample_signs(-1, 100).signs, rmf.sign_matrix([-1], ps[:25])[0])


@pytest.mark.parametrize("n_primes", [1, 168, 9592, 65535, 65537, 78498])
def test_sign_matrix_matches_direct_bit_for_bit(n_primes):
    # Tiles of 2^16 // P rows: 65536, 390, 6, 1, 1 and 1, over 1, 5, 64 and 257 seeds.
    ps = primes.cached_primes(10**6)[:n_primes]
    for n in (1, 5, 64, 257):
        ints = [(-1) ** i * (i << 61 | i) for i in range(n)]  # odd i: < 0; even i >= 8: >= 2^64
        for seeds in (ints, rmf.derive_seed(11, np.arange(n))):
            direct = oracles.sign_matrix_direct(seeds, ps)
            signs = rmf.sign_matrix(seeds, ps)
            assert signs.dtype == np.float64 and np.array_equal(signs, direct)
            out = np.full((n, n_primes), np.nan)
            assert rmf.sign_matrix(seeds, ps, out=out) is out
            assert np.array_equal(out, direct)


@pytest.mark.parametrize("n_primes", [1, 168, 9592, 78498])
def test_sign_words_pack_the_negative_signs_of_sign_matrix_direct(n_primes):
    ps = primes.cached_primes(10**6)[:n_primes]
    for n in (1, 5, 63, 64):
        ints = [(-1) ** i * (i << 61 | i) for i in range(n)]  # odd i: < 0; even i >= 8: >= 2^64
        for seeds in (ints, rmf.derive_seed(11, np.arange(n))):
            words = rmf.sign_words(seeds, ps)
            assert words.dtype == np.uint64
            assert np.array_equal(words, oracles.packed(oracles.sign_matrix_direct(seeds, ps) < 0))


def test_sign_words_refuse_more_seeds_than_a_word_has_bits():
    ps = primes.cached_primes(10**3)
    with pytest.raises(ValueError, match="at most 64 seeds"):
        rmf.sign_words(range(65), ps)


def test_sign_bit_holds_bit_0_of_mix64_in_bit_63():
    # The folded multiply that sign_matrix and sign_words hash with, against the full finalizer.
    edges = np.array([0, 2**63 - 1, 2**63, 2**64 - 1], dtype=np.uint64)
    x = np.concatenate([np.random.default_rng(0).integers(0, 2**64, 10**6, np.uint64), edges])
    assert np.array_equal(rmf._sign_bit(x) >> np.uint64(63), rmf.mix64(x) & np.uint64(1))


BATCH_DIGESTS = (
    "import hashlib, json, numpy as np\n"
    "from rmflab import rmf\n"
    "print(json.dumps({n: hashlib.sha256(rmf.random_prime_sum_batch(\n"
    "    np.arange(n), [0.6, 0.75, 1.0], 10**5).tobytes()).hexdigest() for n in range(2000, 2004)}))\n"
)


@pytest.fixture(scope="module")
def batch_digests():
    """{threads: {n: sha256 of random_prime_sum_batch(np.arange(n), [0.6, 0.75, 1.0], 10^5)}}
    for n = 2000..2003, one process with OPENBLAS_NUM_THREADS and RMFLAB_THREADS both 1, and
    one with both 2."""
    src = str(Path(rmf.__file__).resolve().parents[1])
    env_path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return {threads: json.loads(subprocess.run(
        [sys.executable, "-c", BATCH_DIGESTS], check=True, capture_output=True, text=True,
        timeout=300, env=dict(os.environ, OPENBLAS_NUM_THREADS=threads, RMFLAB_THREADS=threads,
                              PYTHONPATH=env_path),
    ).stdout) for threads in ("1", "2")}


@pytest.mark.parametrize("n", [2000, 2001, 2002, 2003])
def test_random_prime_sum_batch_bytes_across_blas_thread_counts(batch_digests, n):
    assert batch_digests["1"][str(n)] == batch_digests["2"][str(n)]


def test_random_prime_sum_batch_bytes_are_pinned(batch_digests):
    # The 1-thread digest of the einsum sums over 109-seed blocks (2^20 // 9,592 primes).
    assert batch_digests["1"]["2000"] == (
        "0bcd73123025ad5d996138990b048d5971522bc976d3a68e2e22da25c8a47d20")


def test_sign_matrix_into_out_allocates_only_the_shift_temporary():
    # At 256 seeds x 9,592 primes the tiles have 6 rows.  The hash runs in place in `out`:
    # besides the 6-row uint64 shift temporary, only the salted primes are made, with 64 KiB
    # for the seed keys and array headers.
    ps = primes.cached_primes(10**5)
    seeds = rmf.derive_seed(0, np.arange(256))
    out = np.empty((256, ps.size))
    tracemalloc.start()
    try:
        rmf.sign_matrix(seeds, ps, out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = rmf._HASH_CELLS // ps.size
    assert rows == 6
    assert peak <= 8 * (rows + 2) * ps.size + 2**16
    assert np.array_equal(out, oracles.sign_matrix_direct(seeds, ps))


@pytest.mark.parametrize("seed", [0, 1, 2**63 + 5])
def test_sample_signs_is_sign_matrix_row(seed):
    s = rmf.sample_signs(seed, 10**4)
    row = rmf.sign_matrix(np.asarray([seed], dtype=np.uint64), s.primes)[0]
    assert np.array_equal(s.signs, row)
