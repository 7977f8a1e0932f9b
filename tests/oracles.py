"""Slow reference paths that the library's fast paths are checked against.

None of this is used by `rmflab` itself:

- a smallest-prime-factor table and squarefree factorization, and the
  multiplicative extension f(n) evaluated one n at a time from them, which
  `rmf.signed_values` must reproduce;
- `_signed_block`, the extension of one assignment over a block of n by
  strided sign flips of every prime up to the block's end.  `rmf` instead
  sieves each block by the primes up to its square root and finds the at
  most one larger prime of a squarefree n in a transient 4-byte-per-integer
  index, keeping no cache but the prime table; `rmf.signed_values`,
  `rmf.partial_sum_trace` and `rmf.sign_change_counts` must reproduce
  `_signed_block` bit for bit for every seed, batch and segment length;
- the truncated Dirichlet series and Euler product of one assignment
  (`series_and_product`) and the Mellin integral of |M| (`abs_mellin`),
  which no command uses;
- hand-built sign assignments (chosen primes, or one constant sign), and
  the sign of one prime under an assignment;
- the pair-by-pair brute force of the chaining conclusion and its loop over
  grid distances, which `chaining.verify_chaining`, one array pass over all
  pairs, must reproduce bit for bit, and the float `chaining_R`,
  the reference for the integer R that `verify_chaining` reads off grid steps;
- the truncated P(sigma) of one sign assignment, which
  `rmf.random_prime_sum_batch` must reproduce for every seed;
- the sigma grid of the oscillation experiment evaluated block by block on
  every row (`oscillation_grid`, `oscillation_direct`), whose max_osc and
  first violations `chaining.oscillation_batch` must reproduce bit for bit
  from the blocks that `rmf`'s low-rank estimate (the kernel exp, interpolated
  at Chebyshev points, with a four-part eps) selects;
- the sup-scan t grid as fresh array expressions on every row of every
  _T_CHUNK-row block (`sup_scan_blocks`) with a running best
  (`sup_scan_direct`), which `rmf.sup_scan`, evaluating exactly only the
  blocks and log|F| rows that the same low-rank estimate (the kernel
  e^(i k theta)) selects, must reproduce bit for bit;
- the partial sum of `prime_series.euler_tail_constant` as one array
  expression, which its in-place terms must reproduce bit for bit;
- the sieve over every integer from 2 (`sieve_direct`), whose array
  `primes.sieve_primes`, flagging odd numbers only, must equal, and the
  (log p)^2 sum of one sigma as one fresh array expression
  (`log_weighted_direct`), which `prime_series.log_weighted_grid`, casting and
  logging the primes once for all its sigma, must reproduce bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import frexp, fsum, isqrt, ldexp, sqrt

import numpy as np

from rmflab import prime_series
from rmflab import primes as primes_mod
from rmflab.chaining import _GRID_CHUNK, OSCILLATION_SCHEDULE, ChainingReport, _first_violations
from rmflab.prime_series import DivergenceError
from rmflab.primes import DEFAULT_SEGMENT, PrimeTable
from rmflab.rmf import (
    _T_CHUNK, SignAssignment, SupScanResult, abel_weights, sign_matrix, signed_values,
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
    segment: int = DEFAULT_SEGMENT,
) -> tuple[PrimeTable, SpfTable | None]:
    """Prime table plus (when limit <= spf_cutoff) a smallest-prime-factor table.

    Above the cutoff only the prime list is produced; factorization then
    falls back to trial division by the sieved primes.
    """
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    primes = primes_mod.sieve_primes(limit, segment=segment)
    table = PrimeTable(limit=limit, primes=primes)
    if limit > min(spf_cutoff, SPF_HARD_CAP):
        return table, None
    return table, SpfTable(limit=limit, spf=_build_spf(limit, primes))


def factor_squarefree(
    n: int, table: PrimeTable, spf: SpfTable | None = None
) -> tuple[list[int], bool]:
    """Distinct prime factors of n and whether n is squarefree.

    Uses the spf table when it covers n, otherwise trial division by the
    sieved primes.  Raises if a prime factor exceeds the table limit.
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
    for p in table.primes:
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
        if m > table.limit:
            raise ValueError(f"prime factor {m} of {n} exceeds table limit {table.limit}")
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
    table = PrimeTable(limit=signs.prime_limit, primes=signs.primes)
    factors, squarefree = factor_squarefree(n, table, spf)
    if not squarefree:
        return 0
    out = 1
    for p in factors:
        out *= sign_of(signs, p)
    return out


def signs_from_dict(values: dict[int, int], prime_limit: int) -> SignAssignment:
    """Explicit assignment for chosen primes (+1 elsewhere); handy in tests."""
    table = primes_mod.cached_primes(prime_limit)
    ps = table.upto(prime_limit)
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
    table = primes_mod.cached_primes(prime_limit)
    ps = table.upto(prime_limit)
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


def verify_chaining_pairs(values, a: float, b: float, lambdas) -> ChainingReport:
    """`chaining.verify_chaining` by brute force over every pair of grid points.

    Memory is quadratic in the grid size, so keep r_max small.  Points i < j
    lie (j - i) (b - a)/2^r_max apart, so R is the integer with
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


def verify_chaining_loop(values, a: float, b: float, lambdas) -> ChainingReport:
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
    variance = prime_series.variance_sum(sigma).estimate
    return RandomPrimeSum(
        sigma=sigma,
        limit=limit,
        value=value,
        tail_std=sqrt(tail_var),
        normalized=value / sqrt(variance),
    )


def oscillation_inputs(seeds, ell: int, step: StepParams, limit: int):
    """(log p, the (P, n_seeds) weights sign(p) p^(-sigma_ell), sigma_{ell-1} -
    sigma_ell) of the oscillation experiment, by `oscillation_batch`'s expressions."""
    s_ell = step_sigma_ell(ell, step)
    s_prev = step_sigma_ell(ell - 1, step)
    ps = primes_mod.cached_primes(limit).primes
    p = ps.astype(np.float64)
    weights = (sign_matrix(seeds, ps).astype(np.float64) * p ** (-s_ell)).T
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


def sup_scan_blocks(signs: SignAssignment, sigma: float, t_max: float, grid_step: float,
                    limit: int):
    """(t, cos sums, log|F|) of each _T_CHUNK-row block of the sup-scan t grid
    in turn, by fresh array expressions on every row."""
    ps, sg = signs.up_to(limit)
    p = ps.astype(np.float64)
    logp = np.log(p)
    amp = p ** (-sigma)
    w = sg * amp
    ts = np.arange(1.0, t_max + grid_step * 0.5, grid_step)
    for start in range(0, ts.size, _T_CHUNK):
        tc = ts[start : start + _T_CHUNK]
        c = np.cos(np.outer(tc, logp))
        yield tc, c @ w, 0.5 * np.sum(np.log1p((2.0 * w) * c + amp * amp), axis=1)


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


def _signed_block(signs: SignAssignment, lo: int, hi: int) -> np.ndarray:
    """f(n) for n in [lo, hi] as int8; requires hi <= prime_limit."""
    length = hi - lo + 1
    f = np.ones(length, dtype=np.int8)
    ps, sg = signs.primes, signs.signs

    # Primes <= block length: strided sign flips and square zeroing.
    small_end = int(np.searchsorted(ps, length, side="right"))
    for i in np.flatnonzero(sg[:small_end] == -1):
        p = int(ps[i])
        start = ((lo + p - 1) // p) * p
        if start <= hi:
            f[start - lo :: p] *= np.int8(-1)

    # Primes > block length: at most hi // (length+1) multiples each; walk by
    # multiplier k and flip the negative ones in bulk.
    k_max = hi // (length + 1) + 1
    for k in range(1, k_max + 1):
        p_lo = max(length + 1, (lo + k - 1) // k)
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


def series_and_product(
    signs: SignAssignment, s: complex, limit: int
) -> tuple[complex, complex]:
    """Truncated Dirichlet series sum_{n<=limit} f(n) n^(-s) and truncated
    Euler product prod_{p<=limit} (1 + sign(p) p^(-s)).

    No equality is claimed at finite truncation; compare with tail estimates.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if limit > signs.prime_limit:
        raise ValueError(f"limit {limit} exceeds prime_limit {signs.prime_limit}")
    s = complex(s)
    if limit == 1:
        return 1 + 0j, 1 + 0j
    f = signed_values(signs, limit).astype(np.float64)
    n = np.arange(1, limit + 1, dtype=np.float64)
    series = complex(np.sum(f * np.exp(-s * np.log(n))))
    ps, sg = signs.up_to(limit)
    product = complex(np.prod(1.0 + sg * np.exp(-s * np.log(ps.astype(np.float64)))))
    return series, product


def abs_mellin(signs: SignAssignment, sigma: float, x: int) -> float:
    """Exact piecewise integral of |M(u)| u^(-1-sigma) over [1, x]."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if x == 1:
        return 0.0
    f = signed_values(signs, x)
    m = np.cumsum(f, dtype=np.int64)
    weights = abel_weights(sigma, x)[1] / sigma
    return float(np.sum(np.abs(m[:-1]).astype(np.float64) * weights))


def euler_tail_partial(n_primes: int) -> float:
    """sum over the first n_primes primes of 1/(p(sqrt(p)-1)), correctly rounded."""
    p = primes_mod.first_n_primes(n_primes).astype(np.float64)
    return fsum(1.0 / (p * (np.sqrt(p) - 1.0)))


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


def log_weighted_direct(sigma: float, n_cut: int) -> prime_series.LogWeightedSum:
    """Certified sum_p (log p)^2 p^(-2 sigma) with its terms as one fresh array expression,
    which `prime_series.log_weighted_grid` must reproduce bit for bit at every sigma."""
    p = primes_mod.cached_primes(n_cut).primes.astype(np.float64)
    lp = np.log(p)
    partial = float(np.sum(lp * lp * p ** (-2.0 * sigma)))
    tail = min(
        prime_series._log_sq_integral_tail(sigma, float(n_cut)),
        max(prime_series._log_sq_pi_route_tail(sigma, float(n_cut), p.size), 0.0),
    )
    value = prime_series._outward(partial, partial + tail, estimate=partial + 0.5 * tail)
    bound_rhs = 4.0 / (2.0 * sigma - 1.0) ** 2
    return prime_series.LogWeightedSum(
        value=value, bound_rhs=bound_rhs, holds=bool(value.upper <= bound_rhs))
