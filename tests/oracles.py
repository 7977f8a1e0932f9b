"""Slow reference paths that the library's fast paths are checked against.

None of this is used by `rmflab` itself:

- a smallest-prime-factor table and squarefree factorization, and the
  multiplicative extension f(n) evaluated one n at a time from them, which
  `signed_values` must reproduce;
- `_signed_block`, the extension of one assignment over a block of n by
  strided sign flips of the primes up to min(block length, 10^4) and flips
  of the multiples k p of every larger prime, one multiplier k at a time,
  which must equal `f_value` at every n.  `rmf` instead XORs the word of
  each squarefree n's least prime into the word of its cofactor, both read
  from a factor table kept for the process; `signed_values`, one
  assignment through the kernel of `rmf.signed_value_rows`, must
  reproduce `_signed_block` bit for bit for every seed and segment length;
- the per-block sieve the extension ran before (`sieved_blocks`): each
  block sieved afresh by the primes up to its square root, the at most one
  larger prime of a squarefree n found in a 4-byte-per-integer index,
  whose every yielded block `rmf._signed_blocks` must reproduce bit for
  bit, from a fresh factor table or from a prefix of a larger one;
- the int64 cumulative sum of `_signed_block` scanned by the general
  `rmf.sign_change_points`, which no `rmflab` path calls any more: it is the
  oracle of the walk of `rmf.partial_sum_trace` over the squarefree n only,
  which finds the zeros of M in the ramped -1 counts of four seeds per uint64
  cumsum and looks for sign changes only right after them, and must give the
  same change points, final value and M at every stride-th n for every seed,
  pass of up to PACKED_SIGNS seeds, stride and segment length;
  `trace` walks one assignment of any kind, hand-built ones included, by
  that walk (`packed_signs`: its negative signs as bit 0 of one word per prime);
  and the walk of M itself in int32 from the same counts (`int32_walk`), which
  `rmf._traces` must reproduce bit for bit from the same words, for any number
  of rows, stride and segment length;
- hand-built sign assignments (chosen primes, or one constant sign), and
  the sign of one prime under an assignment;
- the pair-by-pair brute force of the chaining conclusion and its loop over
  grid distances, which `chaining.verify_chaining`, one array pass over all
  pairs, must reproduce bit for bit, and the float `chaining_R`,
  the reference for the integer R that `verify_chaining` reads off grid steps;
- the sign hash one seed row at a time as int8 (`sign_matrix_direct`), which
  `rmf.sign_matrix`, hashing tiles of max(1, 2^16 // P) rows in place in its
  float64 output and turning bit 63 of `rmf._sign_bit` (the folded multiply
  that stands for bit 0 of the full `mix64` this oracle runs) into the bits of
  +-1.0, must reproduce bit for bit; and its negative signs packed by
  `np.packbits` into one uint64 per prime (`packed`), which `rmf.sign_words`,
  hashing one seed at a time and or-ing that bit into bit 16 (j % 4) + j // 4
  of each word, must equal;
- the truncated P(sigma) of one sign assignment, which
  `rmf.random_prime_sum_batch` must reproduce for every seed, and the batch
  in one piece (`random_prime_sum_batch_direct`: every seed hashed to int8,
  cast to float64 and summed by one einsum against all sigmas), which it must
  reproduce bit for bit from its blocks of 2^20 // P seeds on any number of
  threads, and whose count of values >= a threshold per sigma
  `rmf.prime_sum_exceedances`, screening each block by gemm, must equal;
- the sigma grid of the oscillation experiment evaluated block by block on
  every row (`oscillation_grid`, `oscillation_direct`), whose max_osc and
  first violations `chaining.oscillation_batch` must reproduce bit for bit
  from the rows that `rmf`'s low-rank estimate (the kernel exp, interpolated
  at Chebyshev points, with a four-part eps) selects;
- the sup-scan t grid as fresh array expressions on every row of every
  _T_CHUNK-row block, with numpy's row sums (`sup_scan_blocks`), and a
  running best (`sup_scan_direct`), which `rmf.sup_scan`, summing exactly
  only the cos and log|F| rows that the same low-rank estimate (the kernel
  e^(i k theta)) selects, one row at a time, must reproduce bit for bit; and
  the cos sums as each block's BLAS gemv took them before
  (`sup_scan_cos_gemv`), which those row sums must match within 2 gamma_P
  sum |w|;
- the partial sum of `prime_series.euler_tail_constant` as one array
  expression through `math.fsum`, which its chunked `np.sum` must match
  within its derived roundoff; and the table path it replaced
  (`euler_tail_direct`: the first n primes as one view of the cached table,
  `first_n_primes`, cut into 2^16-value chunks by `certified_sum_direct`),
  which its walk, summing the sieve's segments as they come with chunks
  that span segment edges, must reproduce in every field;
- the sieve over every integer from 2 (`sieve_direct`), whose array
  `primes.segments`, flagging odd numbers only, must yield in ascending
  int32 segments, and `primes.sieve_primes`, joining them, must equal; and the
  (log p)^2 sum of one sigma as one fresh array expression with `np.power`
  (`log_weighted_partial`, `log_weighted_direct`), which
  `prime_series.log_weighted_grid`, logging each chunk of primes once for all
  its thread's sigma and taking exp(-2 sigma log p) chunk by chunk, must match
  within its derived roundoff plus this sum's own budget, with the same bound
  and verdict;
- the passes over a whole table that the chunked ones replaced: the table cast
  and logged in one float64 array (`prime_logs`), each sum of p^(-s) or
  p^(-s) (log p)^2 over it (`prime_power_sum`) and the grid from them
  (`log_weighted_table`), which `prime_series.log_weighted_grid` and
  `prime_zeta_direct` must reproduce bit for bit, and the Chebyshev ratios as
  one array expression (`chebyshev_direct`), which `primes.chebyshev_check`,
  taking 2^16 primes at a time, must reproduce bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import frexp, fsum, isqrt, ldexp, sqrt

import numpy as np

from rmflab import prime_series
from rmflab import primes as primes_mod
from rmflab import rmf as rmf_mod
from rmflab.chaining import _GRID_CHUNK, OSCILLATION_SCHEDULE, ChainingReport, _first_violations
from rmflab.prime_series import DivergenceError
from rmflab.primes import DEFAULT_SEGMENT
from rmflab.rmf import (
    _MASK64, _PRIME_SALT, _T_CHUNK, PartialSumTrace, SignAssignment, SupScanResult, _signed_blocks,
    _signed_rows, _traces, mix64,
)
from rmflab.sequences import StepParams, step_sigma_ell

SPF_HARD_CAP = 1 << 31


@dataclass(frozen=True)
class SpfTable:
    """Smallest prime factor of every n in [2, limit]."""

    limit: int
    spf: np.ndarray  # index n -> smallest prime factor; entries 0, 1 unused

    def __post_init__(self):
        self.spf.flags.writeable = False

    def smallest_factor(self, n: int) -> int:
        if not 2 <= n <= self.limit:
            raise ValueError(f"n={n} outside spf table range [2, {self.limit}]")
        return int(self.spf[n])


def _build_spf(limit: int, primes: np.ndarray) -> np.ndarray:
    dtype = np.int32 if limit < SPF_HARD_CAP else np.int64
    spf = np.zeros(limit + 1, dtype=dtype)
    # Descending order: the last write to spf[n] comes from the smallest prime.
    for p in primes[::-1]:
        p = int(p)
        spf[p::p] = p
    return spf


def sieve_tables(
    limit: int,
    spf_cutoff: int = SPF_HARD_CAP,
) -> tuple[np.ndarray, SpfTable | None]:
    """The primes <= limit plus (when limit <= spf_cutoff) a smallest-prime-factor table.

    Above the cutoff only the primes are produced; factorization then
    falls back to trial division by them.
    """
    primes = primes_mod.sieve_primes(limit)
    if limit > min(spf_cutoff, SPF_HARD_CAP):
        return primes, None
    return primes, SpfTable(limit=limit, spf=_build_spf(limit, primes))


def factor_squarefree(
    n: int, primes: np.ndarray, spf: SpfTable | None = None
) -> tuple[list[int], bool]:
    """Distinct prime factors of n and whether n is squarefree.

    Uses the spf table when it covers n, otherwise trial division by the
    ascending `primes`.  Raises if a prime factor exceeds the largest of them:
    no prime lies between it and the limit they were sieved to.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    factors: list[int] = []
    squarefree = True
    if spf is not None and n <= spf.limit:
        m = n
        while m > 1:
            p = int(spf.spf[m])
            m //= p
            if m % p == 0:
                squarefree = False
                while m % p == 0:
                    m //= p
            factors.append(p)
        return factors, squarefree
    m = n
    for p in primes:
        p = int(p)
        if p * p > m:
            break
        if m % p == 0:
            m //= p
            if m % p == 0:
                squarefree = False
                while m % p == 0:
                    m //= p
            factors.append(p)
    if m > 1:
        if m > int(primes[-1]):
            raise ValueError(f"prime factor {m} of {n} exceeds the largest prime {primes[-1]}")
        factors.append(m)
    return factors, squarefree


def sign_of(signs: SignAssignment, p: int) -> int:
    """The sign of prime p under an assignment; ValueError unless p is one of its primes."""
    idx = int(np.searchsorted(signs.primes, p))
    if idx >= signs.primes.size or int(signs.primes[idx]) != p:
        raise ValueError(f"{p} is not a prime <= {signs.prime_limit}")
    return int(signs.signs[idx])


def f_value(signs: SignAssignment, n: int, spf: SpfTable | None = None) -> int:
    """Multiplicative extension: product of sign(p) over p | n, zero unless squarefree."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        return 1
    factors, squarefree = factor_squarefree(n, signs.primes, spf)
    if not squarefree:
        return 0
    out = 1
    for p in factors:
        out *= sign_of(signs, p)
    return out


def signs_from_dict(values: dict[int, int], prime_limit: int) -> SignAssignment:
    """Explicit assignment for chosen primes (+1 elsewhere); handy in tests."""
    ps = primes_mod.cached_primes(prime_limit)
    signs = np.ones(ps.size, dtype=np.int8)
    for p, s in values.items():
        if s not in (-1, 1):
            raise ValueError(f"sign for {p} must be +-1, got {s}")
        idx = int(np.searchsorted(ps, p))
        if idx >= ps.size or int(ps[idx]) != p:
            raise ValueError(f"{p} is not a prime <= {prime_limit}")
        signs[idx] = s
    return SignAssignment(seed=-1, prime_limit=prime_limit, primes=ps, signs=signs)


def signs_constant(value: int, prime_limit: int) -> SignAssignment:
    """All-(+1) or all-(-1) assignment."""
    if value not in (-1, 1):
        raise ValueError("constant sign must be +-1")
    ps = primes_mod.cached_primes(prime_limit)
    return SignAssignment(
        seed=-1,
        prime_limit=prime_limit,
        primes=ps,
        signs=np.full(ps.size, value, dtype=np.int8),
    )


def chaining_R(a: float, b: float, s: float, t: float) -> int:
    """The unique integer R with (b-a)/2^(R+1) < |s-t| <= (b-a)/2^R."""
    if s == t:
        raise ValueError("R is undefined for s == t (zero distance)")
    d = abs(s - t)
    width = b - a
    if width <= 0 or d > width:
        raise ValueError("s, t must be distinct points of [a, b]")
    mantissa, exponent = frexp(width / d)  # width/d = mantissa * 2^exponent
    r = exponent - 1
    # One corrective step absorbs the division rounding.
    while d > ldexp(width, -r):
        r -= 1
    while r + 1 >= 1 and d <= ldexp(width, -(r + 1)):
        r += 1
    return r


def verify_chaining_pairs(values, lambdas) -> ChainingReport:
    """`chaining.verify_chaining` by brute force over every pair of grid points.

    Memory is quadratic in the grid size, so keep r_max small.  Points i < j
    lie (j - i)/2^r_max of the interval apart, so R is the integer with
    2^(r_max-R-1) < j - i <= 2^(r_max-R), found by halving.
    """
    values = np.asarray(values, dtype=np.float64)
    lambdas = np.asarray(lambdas, dtype=np.float64)
    r_max = lambdas.size
    first_violation = _first_violations(values[:, None], lambdas)[0]

    di, dj = np.triu_indices(values.size, k=1)
    steps = dj - di
    big_r = np.full(steps.shape, r_max)
    span = np.ones_like(steps)  # 2^(r_max - R)
    while np.any(steps > span):
        wider = steps > span
        big_r[wider] -= 1
        span[wider] *= 2
    suffix = np.zeros(r_max + 1)
    suffix[:-1] = np.cumsum(lambdas[::-1])[::-1]
    bounds = 2.0 * (suffix[big_r] + lambdas[-1])
    excess = float(np.max(np.abs(values[dj] - values[di]) - bounds))
    return ChainingReport(
        hypothesis_holds=first_violation is None,
        conclusion_holds=bool(excess <= 0.0),
        first_hypothesis_violation_r=first_violation,
        max_conclusion_excess=excess,
    )


def verify_chaining_loop(values, lambdas) -> ChainingReport:
    """`chaining.verify_chaining` with the conclusion checked one grid distance
    d at a time, against bound(R) at R = r_max - ceil(log2 d)."""
    values = np.asarray(values, dtype=np.float64)
    lambdas = np.asarray(lambdas, dtype=np.float64)
    r_max = lambdas.size
    first_violation = _first_violations(values[:, None], lambdas)[0]
    suffix = np.zeros(r_max + 1)
    suffix[:-1] = np.cumsum(lambdas[::-1])[::-1]
    excess = -np.inf
    for d in range(1, values.size):
        bound = 2.0 * float(suffix[r_max - (d - 1).bit_length()] + lambdas[-1])
        excess = max(excess, float(np.max(np.abs(values[d:] - values[:-d]))) - bound)
    return ChainingReport(
        hypothesis_holds=first_violation is None,
        conclusion_holds=bool(excess <= 0.0),
        first_hypothesis_violation_r=first_violation,
        max_conclusion_excess=excess,
    )


@dataclass(frozen=True)
class RandomPrimeSum:
    sigma: float
    limit: int
    value: float
    tail_std: float
    normalized: float


def random_prime_sum(
    signs: SignAssignment, sigma: float, limit: int | None = None
) -> RandomPrimeSum:
    """P(sigma) truncated at `limit`: sum of sign(p) p^(-sigma) over p <= limit.

    tail_std bounds the standard deviation of the discarded tail; normalized
    divides by the square root of the full variance sum.
    """
    if sigma <= 0.5:
        raise DivergenceError(f"P(sigma) requires sigma > 1/2, got {sigma}")
    if limit is None:
        limit = signs.prime_limit
    ps, sg = signs.up_to(limit)
    value = float(np.sum(sg * ps.astype(np.float64) ** (-sigma)))
    tail_var = prime_series.prime_power_tail_bound(2.0 * sigma, limit, pi_cut=ps.size)
    variance = prime_series.prime_zeta(2.0 * sigma).estimate
    return RandomPrimeSum(
        sigma=sigma,
        limit=limit,
        value=value,
        tail_std=sqrt(tail_var),
        normalized=value / sqrt(variance),
    )


def sign_matrix_direct(trial_seeds, primes: np.ndarray) -> np.ndarray:
    """The int8 sign hash one seed row at a time: 1 - 2 (bit 0 of mix64(p salt ^ mix64(seed)))."""
    if not isinstance(trial_seeds, np.ndarray):
        trial_seeds = [int(s) & _MASK64 for s in trial_seeds]
    keys = mix64(np.asarray(trial_seeds, dtype=np.uint64))
    with np.errstate(over="ignore"):
        pk = primes.astype(np.uint64) * _PRIME_SALT
    out = np.empty((keys.size, primes.size), dtype=np.int8)
    for row, key in zip(out, keys):
        row[:] = 1 - 2 * (mix64(pk ^ key) & np.uint64(1)).astype(np.int8)
    return out


def packed(negative: np.ndarray) -> np.ndarray:
    """One uint64 per prime, bit 16 (j % 4) + j // 4 set where boolean row j of `negative` is."""
    bits = np.zeros((64, negative[0].size), dtype=bool)
    bits[[16 * (j % 4) + j // 4 for j in range(len(negative))]] = negative
    return np.packbits(bits, axis=0, bitorder="little").T.copy().view("<u8").ravel()


def random_prime_sum_batch_direct(trial_seeds, sigmas, limit: int) -> np.ndarray:
    """P(sigma) of every seed at every sigma, shape (len(seeds), len(sigmas)): one einsum of the
    whole float64 `sign_matrix_direct` against the stacked weights, with no blocks or threads."""
    ps = primes_mod.cached_primes(limit)
    weights = np.array([ps.astype(np.float64) ** (-s) for s in sigmas])
    signs = sign_matrix_direct(trial_seeds, ps).astype(np.float64)
    return np.einsum("ip,sp->is", signs, weights)


def oscillation_inputs(seeds, ell: int, step: StepParams, limit: int):
    """(log p, the (P, n_seeds) weights sign(p) p^(-sigma_ell), sigma_{ell-1} -
    sigma_ell) of the oscillation experiment, from the int8 `sign_matrix_direct`."""
    s_ell = step_sigma_ell(ell, step)
    s_prev = step_sigma_ell(ell - 1, step)
    ps = primes_mod.cached_primes(limit)
    p = ps.astype(np.float64)
    weights = (sign_matrix_direct(seeds, ps).astype(np.float64) * p ** (-s_ell)).T
    return np.log(p), weights, s_prev - s_ell


def oscillation_grid(seeds, ell: int, step: StepParams, r_max: int, limit: int) -> np.ndarray:
    """P on every row of the depth-r_max grid over [sigma_ell, sigma_{ell-1}],
    one exp(-dsig log p) @ weights block of _GRID_CHUNK rows at a time."""
    logp, weights, gap = oscillation_inputs(seeds, ell, step, limit)
    n_grid = 2**r_max + 1
    dsig = np.arange(n_grid, dtype=np.float64) / (2.0**r_max) * gap
    p_vals = np.empty((n_grid, weights.shape[1]))
    for start in range(0, n_grid, _GRID_CHUNK):
        block = dsig[start : start + _GRID_CHUNK]
        p_vals[start : start + block.size] = np.exp(-np.outer(block, logp)) @ weights
    return p_vals


def oscillation_direct(seeds, ell: int, step: StepParams, r_max: int, limit: int):
    """(max_osc per seed, first_violation_r per seed) read from every row of
    `oscillation_grid`."""
    p_vals = oscillation_grid(seeds, ell, step, r_max, limit)
    lambdas = np.array([OSCILLATION_SCHEDULE(r) for r in range(1, r_max + 1)])
    return np.abs(p_vals - p_vals[0]).max(axis=0), _first_violations(p_vals, lambdas)


def _sup_scan_cells(signs: SignAssignment, sigma: float, t_max: float, grid_step: float,
                    limit: int):
    """(t, cos(t log p), p^(-sigma), sign(p) p^(-sigma)) of each _T_CHUNK-row block of the
    sup-scan t grid in turn."""
    ps, sg = signs.up_to(limit)
    p = ps.astype(np.float64)
    logp = np.log(p)
    amp = p ** (-sigma)
    w = sg * amp
    ts = np.arange(1.0, t_max + grid_step * 0.5, grid_step)
    for start in range(0, ts.size, _T_CHUNK):
        tc = ts[start : start + _T_CHUNK]
        yield tc, np.cos(np.outer(tc, logp)), amp, w


def sup_scan_blocks(signs: SignAssignment, sigma: float, t_max: float, grid_step: float,
                    limit: int):
    """(t, cos sums, log|F|) of each _T_CHUNK-row block of the sup-scan t grid
    in turn, by fresh array expressions and numpy's sum of each row."""
    for tc, c, amp, w in _sup_scan_cells(signs, sigma, t_max, grid_step, limit):
        yield tc, np.sum(c * w, axis=1), 0.5 * np.sum(np.log1p((2.0 * w) * c + amp * amp), axis=1)


def sup_scan_cos_gemv(signs: SignAssignment, sigma: float, t_max: float, grid_step: float,
                      limit: int) -> np.ndarray:
    """The cos sums of every t row as one BLAS gemv per _T_CHUNK-row block, the way
    `rmf.sup_scan` took them before it summed each row with numpy."""
    cells = _sup_scan_cells(signs, sigma, t_max, grid_step, limit)
    return np.concatenate([c @ w for _, c, _, w in cells])


def sup_scan_direct(
    signs: SignAssignment, sigma: float, t_max: float, grid_step: float, limit: int
) -> SupScanResult:
    """`rmf.sup_scan` from every block of `sup_scan_blocks` and a running best
    that only a strictly larger block maximum replaces."""
    best_cos, best_t, best_logf, size = -np.inf, 1.0, -np.inf, 0
    for tc, cos_vals, log_f in sup_scan_blocks(signs, sigma, t_max, grid_step, limit):
        i = int(np.argmax(cos_vals))
        if cos_vals[i] > best_cos:
            best_cos, best_t = float(cos_vals[i]), float(tc[i])
        best_logf = max(best_logf, float(np.max(log_f)))
        size += tc.size
    return SupScanResult(best_cos, best_t, float(np.exp(best_logf)), size)


def packed_signs(signs: SignAssignment, x_max: int) -> np.ndarray:
    """The packed words of one assignment on the primes up to x_max: bit 0 set where f(p) = -1."""
    return (signs.up_to(x_max)[1] < 0).astype(np.uint64)


def trace(signs: SignAssignment, x_max: int, stride: int) -> PartialSumTrace:
    """M_f of one assignment, hand-built or sampled, by the walk of `rmf.partial_sum_trace`."""
    [(changes, final)], values = _traces(packed_signs(signs, x_max), 1, x_max, stride)
    return PartialSumTrace(x_max, changes, final, stride, values[0])


def int32_walk(words: np.ndarray, rows: int, x_max: int, stride: int):
    """`rmf._traces` as M itself, in int32: after a block's k-th squarefree entry, the carried M
    + k - 2 (its -1 signs so far), from the same 16-bit lane counts, with every zero's two
    neighbours multiplied and the last nonzero M ahead of the block's carried M."""
    value, last, changes = [0] * rows, [0] * rows, [[np.empty(0, np.int64)] for _ in range(rows)]
    samples = np.empty((rows, x_max // stride), np.int64)
    for lo, squarefree, sq, w in _signed_blocks(words, x_max):
        step, path = np.arange(1, sq.size + 1, dtype=np.int32), np.empty(sq.size + 2, np.int32)
        m = path[2:]  # path: the last nonzero M, M before the block, M at its entries (|M| < 2^31)
        at = np.empty(0, np.intp)  # M at n = lo + i is path[1 + the count of entries up to i]
        if -lo % stride < squarefree.size:  # the block holds a sample, at offset -lo % stride
            at = 1 + np.cumsum(squarefree, dtype=np.intp)[-lo % stride :: stride]
        first = (lo - 1) // stride  # the multiples of stride below lo
        lanes, counts = np.empty_like(w), np.empty_like(w)
        for g in range(-(-rows // 4)):
            np.bitwise_and(np.right_shift(w, g, out=lanes), 0x0001000100010001, out=lanes)
            np.cumsum(lanes, out=counts)
            for j, count in zip(range(4 * g, rows), counts.view(np.uint16).reshape(-1, 4).T):
                path[:2] = last[j], value[j]
                np.multiply(count, np.int32(-2), out=m)  # uint16 lane to int32
                m += step
                m += value[j]
                z = 1 + np.flatnonzero(path[1:-1] == 0)
                if z.size:
                    changes[j].append(lo + sq[z[path[z + 1] * path[z - 1] < 0] - 1])
                value[j], last[j] = int(path[-1]), int(path[-1] or path[-2])
                samples[j, first : first + at.size] = path[at]
    return [(np.concatenate(c), v) for c, v in zip(changes, value)], samples


def sieved_blocks(words: np.ndarray, x_max: int):
    """`rmf._signed_blocks` as it sieved each block afresh: the primes p <= sqrt(hi) sieve each
    block, per n the XOR of their words, their product, and whether some p^2 divides it.  The
    rest of a squarefree n is 1 or a prime, whose word an int32 index of every n <= x_max holds
    (1 takes the zero word after the primes')."""
    ps = primes_mod.cached_primes(max(x_max, 2))[: words.size]
    index = np.full(x_max + 1, ps.size, dtype=np.int32)
    index[ps] = np.arange(ps.size, dtype=np.int32)
    words = np.append(words, np.uint64(0))
    for lo in range(1, x_max + 1, rmf_mod.TRACE_SEGMENT):
        hi = min(lo + rmf_mod.TRACE_SEGMENT - 1, x_max)
        odd = np.zeros(hi - lo + 1, dtype=np.uint64)
        small = np.ones(hi - lo + 1, dtype=np.int64)
        squarefree = np.ones(hi - lo + 1, dtype=bool)
        root = ps.dtype.type(isqrt(hi))
        for p, word in zip(ps[: np.searchsorted(ps, root, side="right")].tolist(), words):
            odd[-lo % p :: p] ^= word
            small[-lo % p :: p] *= p
            squarefree[-lo % (p * p) :: p * p] = False
        sq = np.flatnonzero(squarefree)
        yield lo, squarefree, sq, odd[sq] ^ words[index[(sq + lo) // small[sq]]]


def signed_values(signs: SignAssignment, x_max: int) -> np.ndarray:
    """f(1..x_max) of one assignment as int8 (index i holds f(i+1)), by the packed-word
    extension of `rmf.signed_value_rows`."""
    return _signed_rows(packed_signs(signs, x_max), 1, x_max)[0]


STRIDED_FLIPS = 10**4  # `_signed_block` flips the primes up to here by strided slices


def _signed_block(signs: SignAssignment, lo: int, hi: int) -> np.ndarray:
    """f(n) for n in [lo, hi] as int8; requires hi <= prime_limit."""
    length = hi - lo + 1
    f = np.ones(length, dtype=np.int8)
    ps, sg = signs.primes, signs.signs
    cut = min(length, STRIDED_FLIPS)

    # Primes <= cut: strided sign flips.
    small_end = int(np.searchsorted(ps, cut, side="right"))
    for i in np.flatnonzero(sg[:small_end] == -1):
        p = int(ps[i])
        start = ((lo + p - 1) // p) * p
        if start <= hi:
            f[start - lo :: p] *= np.int8(-1)

    # Primes > cut: their multiples k p in the block have k <= hi // (cut + 1);
    # walk by multiplier k and flip the negative ones in bulk.
    k_max = hi // (cut + 1) + 1
    for k in range(1, k_max + 1):
        p_lo = max(cut + 1, (lo + k - 1) // k)
        p_hi = hi // k
        if p_lo > p_hi:
            continue
        a = int(np.searchsorted(ps, p_lo, side="left"))
        b = int(np.searchsorted(ps, p_hi, side="right"))
        if a >= b:
            continue
        block_ps = ps[a:b]
        neg = block_ps[sg[a:b] == -1]
        if neg.size:
            f[(k * neg - lo).astype(np.int64)] *= np.int8(-1)

    # Zero out multiples of squares.
    for p in ps[: int(np.searchsorted(ps, isqrt(hi), side="right"))]:
        q = int(p) * int(p)
        start = ((lo + q - 1) // q) * q
        if start > hi:
            continue
        if q <= length:
            f[start - lo :: q] = 0
        else:
            f[np.arange(start, hi + 1, q) - lo] = 0

    if lo == 1:
        f[0] = 1
    return f


def euler_tail_partial(n_primes: int) -> float:
    """sum over the first n_primes primes of 1/(p(sqrt(p)-1)), correctly rounded."""
    p = first_n_primes(n_primes).astype(np.float64)
    return fsum(1.0 / (p * (np.sqrt(p) - 1.0)))


def first_n_primes(n: int) -> np.ndarray:
    """The first n primes: a view of the cached table up to the Rosser bound,
    which holds at least n primes by Rosser's theorem."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return primes_mod.cached_primes(primes_mod.nth_prime_upper(n))[:n]


def certified_sum_direct(x: np.ndarray, term, weight: float) -> tuple[float, float]:
    """`prime_series._certified_sum` over one array: term(chunk, out) of each 2^16-value
    chunk of x into one reused buffer, each through np.sum, then the chunk sums, with the same
    roundoff budget."""
    c = min(x.size, prime_series._CHUNK)
    buf, sums = np.empty(c), np.empty(-(-x.size // c))
    for j, lo in enumerate(range(0, x.size, c)):
        out = buf[: min(c, x.size - lo)]
        term(x[lo : lo + c], out)
        sums[j] = np.sum(out)
    partial = float(np.sum(sums))
    rel = (c + sums.size - 2) * prime_series._G + float(np.expm1(weight * prime_series._G))
    return partial, 1.01 * rel * partial + x.size * prime_series._TINY


def prime_logs(n_cut: int) -> np.ndarray:
    """log p for the primes p <= n_cut, cast and logged in one float64 array of the whole table."""
    logp = primes_mod.cached_primes(n_cut).astype(np.float64)
    return np.log(logp, out=logp)


def prime_power_sum(logp: np.ndarray, s: float, log_squared: bool = False) -> tuple[float, float]:
    """(partial, roundoff) of p^(-s), or of p^(-s) (log p)^2, as exp(-s log p) over the whole
    array logp = `prime_logs(n)`, summed by `certified_sum_direct` with the weight of
    `prime_series._prime_power_term`, which the grid and `prime_zeta_direct`, logging one chunk of
    the table at a time, must reproduce bit for bit."""

    def term(lp, out):
        np.exp(np.multiply(lp, -s, out=out), out=out)
        if log_squared:
            out *= lp
            out *= lp

    weight = 9.0 * s * float(logp[-1]) + 8.0 + (18.0 if log_squared else 0.0)
    return certified_sum_direct(logp, term, weight)


def log_weighted_table(sigmas: list[float], n_cut: int) -> list[prime_series.LogWeightedSum]:
    """`prime_series.log_weighted_grid` from one whole-table `prime_logs`, one sigma at a time
    through `prime_power_sum`, with the grid's tails, padding and verdict."""
    logp, rows = prime_logs(n_cut), []
    for sigma in sigmas:
        partial, roundoff = prime_power_sum(logp, 2.0 * sigma, log_squared=True)
        tail = min(prime_series._log_sq_integral_tail(sigma, float(n_cut)),
                   max(prime_series._log_sq_pi_route_tail(sigma, float(n_cut), logp.size), 0.0))
        value = prime_series._outward(partial, partial + tail, partial + 0.5 * tail, roundoff)
        rhs = 4.0 / (2.0 * sigma - 1.0) ** 2
        rows.append(prime_series.LogWeightedSum(value, rhs, bool(value.upper <= rhs)))
    return rows


def chebyshev_direct(primes: np.ndarray) -> primes_mod.ChebyshevReport:
    """`primes.chebyshev_check` as one array expression over the whole table, which its passes
    of _CHUNK primes must reproduce bit for bit."""
    p = primes.astype(np.float64)
    ratios = np.arange(1, p.size + 1, dtype=np.float64) * np.log(p) / (2.0 * p)
    k = int(np.argmax(ratios))
    return primes_mod.ChebyshevReport(float(ratios[k]), bool(ratios[k] < 1.0), int(primes[k]))


def euler_tail_direct(n_primes: int) -> prime_series.CertifiedValue:
    """`prime_series.euler_tail_constant` from the table of `first_n_primes`, summed by
    `certified_sum_direct`, which the segment walk must reproduce in every field."""
    p = first_n_primes(n_primes)
    partial, roundoff = certified_sum_direct(p, prime_series._euler_terms,
                                             prime_series._EULER_WEIGHT)
    largest = float(p[-1])
    tail = (1.0 + 1.0 / (sqrt(largest) - 1.0)) * 2.0 / sqrt(largest)
    return prime_series._outward(partial, partial + tail, estimate=partial + 0.5 * tail,
                                 roundoff=roundoff)


def _simple_sieve(limit: int) -> np.ndarray:
    """Eratosthenes up to `limit` inclusive, as int64."""
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return np.flatnonzero(is_prime).astype(np.int64)


def sieve_direct(limit: int, segment: int = DEFAULT_SEGMENT) -> np.ndarray:
    """All primes <= limit as a read-only int32 array, flagging every integer from 2
    in segments of `segment` and striking each with every base prime <= sqrt(limit)
    from `_simple_sieve`."""
    if limit < 2:
        raise ValueError(f"sieve limit must be >= 2, got {limit}")
    base = _simple_sieve(isqrt(limit)).tolist()
    primes = np.empty(primes_mod.prime_count_bound(limit), dtype=np.int32)
    count = 0
    for lo in range(2, limit + 1, segment):
        hi = min(lo + segment - 1, limit)
        flags = np.ones(hi - lo + 1, dtype=bool)
        for p in base:
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start > hi:
                continue
            flags[start - lo :: p] = False
        found = np.flatnonzero(flags)
        primes[count : count + found.size] = found + lo
        count += found.size
    primes = primes[:count]
    primes.flags.writeable = False
    return primes


def log_weighted_partial(sigma: float, n_cut: int) -> float:
    """sum over p <= n_cut of (log p)^2 p^(-2 sigma) as one fresh array expression: np.power
    for the powers and one np.sum."""
    p = primes_mod.cached_primes(n_cut).astype(np.float64)
    lp = np.log(p)
    return float(np.sum(lp * lp * p ** (-2.0 * sigma)))


def log_weighted_direct(sigma: float, n_cut: int) -> prime_series.LogWeightedSum:
    """Certified sum_p (log p)^2 p^(-2 sigma) from `log_weighted_partial`, padded by the
    relative slack alone, which `prime_series.log_weighted_grid` must match within the two
    sums' roundoff budgets at every sigma, with the same bound and verdict."""
    partial = log_weighted_partial(sigma, n_cut)
    tail = min(
        prime_series._log_sq_integral_tail(sigma, float(n_cut)),
        max(prime_series._log_sq_pi_route_tail(
            sigma, float(n_cut), primes_mod.cached_primes(n_cut).size), 0.0),
    )
    value = prime_series._outward(partial, partial + tail, estimate=partial + 0.5 * tail)
    bound_rhs = 4.0 / (2.0 * sigma - 1.0) ** 2
    return prime_series.LogWeightedSum(
        value=value, bound_rhs=bound_rhs, holds=bool(value.upper <= bound_rhs))
