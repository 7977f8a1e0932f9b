"""Certified evaluation of the deterministic prime series used throughout: prime
zeta values P(s) = sum_p p^(-s), which at s = 2 sigma are the variance of P(sigma), the
(log p)^2-weighted sums against their 4/(2s-1)^2 bound on a sigma grid, each thread logging a chunk
of primes once for all its sigma, the Euler-product tail sum_p 1/(p(sqrt(p)-1)), near-1 ratios.

Every truncated sum comes back as a CertifiedValue whose interval accounts
for the truncation tail (explicit integral comparisons) and for the roundoff
of the float sum, derived from the roundings done (`_certified_sum`) and
carried as the field `roundoff`.  Each endpoint is padded by the larger of
that roundoff and a relative 1e-10, which is 12 to 13.5 times wider at the
sizes the commands use.
"""

from __future__ import annotations

import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import exp, log, log1p, sqrt
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from . import primes as primes_mod
from .primes import _CHUNK

_SLACK = 1e-10
_U = 2.0**-53  # unit roundoff of float64
_G = 1.01 * _U  # gamma_n = n u / (1 - n u) <= n _G while n u <= 0.01 (Higham, ch. 3)
_TINY = 2.0**-1070  # per-term allowance for a result below the normal range
_EM_CUTOFF = 24  # _zeta_em's cutoff: its 1e-14 exit is met on all of (1, 32]

# B_2 .. B_26, the even Bernoulli numbers used by the Euler-Maclaurin tail.
_BERNOULLI = (
    1.0 / 6,
    -1.0 / 30,
    1.0 / 42,
    -1.0 / 30,
    5.0 / 66,
    -691.0 / 2730,
    7.0 / 6,
    -3617.0 / 510,
    43867.0 / 798,
    -174611.0 / 330,
    854513.0 / 138,
    -236364091.0 / 2730,
    8553103.0 / 6,
)


class DivergenceError(ValueError):
    """Raised when a series is requested outside its half-plane of convergence."""


@dataclass(frozen=True)
class CertifiedValue:
    """Numeric estimate plus a rigorous enclosing interval."""

    estimate: float
    upper: float
    lower: float
    roundoff: float = 0.0

    def __post_init__(self):
        if not (self.lower <= self.estimate <= self.upper):
            raise ValueError(f"certified interval violated: {self}")
        if not (np.isfinite(self.lower) and np.isfinite(self.upper)):
            raise ValueError(f"certified interval must be finite: {self}")

    def intersects(self, other: "CertifiedValue") -> bool:
        return self.lower <= other.upper and other.lower <= self.upper


def _outward(lower: float, upper: float, estimate: float, roundoff: float = 0.0) -> CertifiedValue:
    """Pad each endpoint outward by max(roundoff, |endpoint| * _SLACK), so never by less than
    the derived roundoff of the sum, and wrap it up."""
    lo = lower - max(roundoff, abs(lower) * _SLACK)
    hi = upper + max(roundoff, abs(upper) * _SLACK)
    return CertifiedValue(estimate=estimate, upper=hi, lower=lo, roundoff=roundoff)


def _certified_sum(pieces: Iterable[np.ndarray], terms: list[tuple], transform=np.positive,
                   buf: np.ndarray | None = None) -> list[tuple[float, float]]:
    """(partial, roundoff) per (term, weight): the float sum of the non-negative terms term(t, out)
    writes into out for the values t = transform(x) (x by default) of pieces, and a bound on its
    distance to their exact sum; each term within e^(+-weight _G) of its exact value, or 2^-1070 of
    it below the normal range.  The n values are transformed once, in chunks of c = min(n, 2^16)
    across pieces, into buf[0]; each term's chunk goes through np.sum in buf[1], then its k chunk
    sums do: in any order, within gamma_{c+k-2} sum t (Higham, Accuracy and Stability, 4.2)."""
    buf, sums, fill, n = np.empty((2, _CHUNK)) if buf is None else buf, [[] for _ in terms], 0, 0

    def add(t: np.ndarray) -> None:  # each term's sum over the chunk t
        for (term, _), chunk_sums in zip(terms, sums):
            term(t, buf[1, : t.size])
            chunk_sums.append(np.sum(buf[1, : t.size]))

    for x in pieces:
        n += x.size
        while x.size:
            if fill == _CHUNK:  # summed once a value follows, so the last chunk is never empty
                add(buf[0])
                fill = 0
            m = min(x.size, _CHUNK - fill)
            transform(x[:m], buf[0, fill : fill + m])
            x, fill = x[m:], fill + m
    add(buf[0, :fill])
    # 1.01 covers sum t <= partial / (1 - gamma), each exact term against its float one,
    # and the roundings of these lines.
    partials = [float(np.sum(chunk_sums)) for chunk_sums in sums]
    rels = [(min(n, _CHUNK) + len(chunk_sums) - 2) * _G + float(np.expm1(w * _G))
            for chunk_sums, (_, w) in zip(sums, terms)]
    return [(p, 1.01 * rel * p + n * _TINY) for p, rel in zip(partials, rels)]


def _prime_power_term(s: float, table: np.ndarray, log_squared: bool = False) -> tuple:
    """(term, weight) of p^(-s), or p^(-s) (log p)^2, as exp(-s log p) from t = np.log(p) for
    _certified_sum over table.  numpy's exp and log are allowed 4 ulps (8 u) each.  x = -s log p
    takes log's error and its own rounding, 9 u |x|, which exp turns into relative error; (log p)^2
    adds 2 x 8 u for the log and one rounding for each of its two products."""

    def term(lp, out):
        np.exp(np.multiply(lp, -s, out=out), out=out)
        if log_squared:
            out *= lp
            out *= lp

    top = float(np.log(table[-1:], dtype=np.float64)[0])  # the largest log p, as np.log takes it
    return term, 9.0 * s * top + 8.0 + (18.0 if log_squared else 0.0)


def _zeta_em(s: float) -> tuple[float, float]:
    """One Euler-Maclaurin evaluation with cutoff _EM_CUTOFF; returns (value, error bound)."""
    n = _EM_CUTOFF
    k = np.arange(1, n + 1, dtype=np.float64)
    value = float(np.sum(k ** (-s)))
    value += n ** (1.0 - s) / (s - 1.0) - 0.5 * n ** (-s)
    # Correction terms B_2j/(2j)! * s(s+1)...(s+2j-2) * n^(1-s-2j).
    rising = 1.0  # s(s+1)...(s+2j-2)
    fact = 1.0  # (2j)!
    power = float(n) ** (1.0 - s)  # n^(1-s-2j) after j updates
    last = np.inf
    for j, b in enumerate(_BERNOULLI, start=1):
        rising *= (s + 2 * j - 3) * (s + 2 * j - 2) if j > 1 else s
        fact *= (2 * j - 1) * (2 * j) if j > 1 else 2.0
        power /= float(n) * float(n)
        correction = b / fact * rising * power
        value += correction
        err = abs(correction)
        if err >= last:  # diverging tail; stop at the smallest term
            return value - correction, err
        last = err
        if err <= 1e-14 * abs(value):
            return value, err
    return value, last


def _log_zeta(s: float) -> float:
    """log(zeta(s)) with full relative accuracy even where zeta(s) is near 1.  Up to s = 32 it is
    one _zeta_em, and an error bound above 1e-13 zeta(s) raises ArithmeticError."""
    if s <= 1:
        raise ValueError(f"log zeta requires s > 1, got {s}")
    if s <= 32:
        value, err = _zeta_em(s)
        if not err <= 1e-13 * abs(value):
            raise ArithmeticError(f"zeta({s}) not converged at cutoff {_EM_CUTOFF}: error {err}")
        return log(value)
    # zeta(s) - 1 = sum_{k>=2} k^-s, dominated by 2^-s; seven terms suffice.
    t = sum(float(k) ** (-s) for k in range(2, 9))
    t += 8.0 ** (1.0 - s) / (s - 1.0)  # integral bound on the k > 8 tail
    return log1p(t)


def _mobius_upto(n: int) -> np.ndarray:
    mu = np.ones(n + 1, dtype=np.int64)
    mu[0] = 0
    for p in primes_mod.cached_primes(max(n, 2))[: n - 1].tolist():  # pi(n) <= n - 1: none at n = 1
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
    return mu


def prime_power_tail_bound(s: float, n_cut: int, pi_cut: int) -> float:
    """Rigorous upper bound for sum over primes p > n_cut of p^(-s), s > 1.

    Minimum of the integer-comparison bound n_cut^(1-s)/(s-1) and the
    pi(x) < 2x/log x route 2s/((s-1) log n_cut) * n_cut^(1-s), minus the
    exactly-known boundary term pi_cut * n_cut^(-s), pi_cut = pi(n_cut), on the latter.
    """
    if s <= 1:
        raise DivergenceError(f"prime power tail diverges for s <= 1 (s={s})")
    if n_cut < 2:
        raise ValueError("cutoff must be >= 2")
    integer_route = n_cut ** (1.0 - s) / (s - 1.0)
    pi_route = 2.0 * s / ((s - 1.0) * log(n_cut)) * n_cut ** (1.0 - s)
    pi_route -= pi_cut * n_cut ** (-s)
    return max(min(integer_route, pi_route), 0.0)


def prime_zeta(s: float) -> CertifiedValue:
    """Certified prime zeta P(s) = sum_p p^(-s) for s > 1, from the Moebius
    expansion sum_{n>=1} mu(n)/n * log zeta(n*s), truncated where n*s > 64,
    the remainder folded into the interval."""
    if s <= 1:
        raise ValueError(f"prime zeta requires s > 1, got {s}")
    n_max = max(1, int(64.0 // s))
    mu = _mobius_upto(n_max)
    total = 0.0
    abs_accum = 0.0
    for n in range(1, n_max + 1):
        if mu[n] == 0:
            continue
        lz = _log_zeta(n * s)
        total += int(mu[n]) / n * lz  # int(): an np.int64 factor would make total np.float64
        abs_accum += abs(lz) / n
    # Tail over n > n_max: |log zeta(x)| <= 1.04 * 2^-x for x >= 64.
    tail = 1.04 * 2.0 ** (-(n_max + 1) * s) / ((n_max + 1) * (1.0 - 2.0 ** (-s)))
    # Per-term evaluation error: relative 1e-12 on each log zeta plus an
    # absolute floor of 2.5e-16 where zeta is evaluated near 1 (n*s <= 32).
    n_near_one = min(n_max, int(32.0 // s) + 1)
    eval_err = 1e-12 * abs_accum + 2.5e-16 * n_near_one
    pad = tail + eval_err
    return _outward(total - pad, total + pad, estimate=total)


def prime_zeta_direct(s: float, n_cut: int) -> CertifiedValue:
    """Certified P(s) for s > 1 as the sum over primes p <= n_cut, with the
    tail bounded by prime_power_tail_bound.  Its interval always intersects
    that of prime_zeta(s)."""
    if s <= 1:
        raise ValueError(f"prime zeta requires s > 1, got {s}")
    table = primes_mod.cached_primes(n_cut)
    [(partial, roundoff)] = _certified_sum([table], [_prime_power_term(s, table)], np.log)
    tail = prime_power_tail_bound(s, n_cut, pi_cut=table.size)
    return _outward(partial, partial + tail, estimate=partial + 0.5 * tail, roundoff=roundoff)


def truncated_variance(sigma: float, limit: int) -> float:
    """Exact partial sum over primes p <= limit of p^(-2 sigma)."""
    if sigma <= 0.5:
        raise DivergenceError(f"truncated variance normalization needs sigma > 1/2 (sigma={sigma})")
    p = primes_mod.cached_primes(limit).astype(np.float64)
    return float(np.sum(p ** (-2.0 * sigma)))


def _log_sq_integral_tail(sigma: float, n_cut: float) -> float:
    """integral_{n_cut}^inf (log t)^2 t^(-2 sigma) dt, closed form (2 sigma > 1)."""
    a = 2.0 * sigma
    u = a - 1.0
    ln = log(n_cut)
    return n_cut ** (-u) * (ln * ln / u + 2.0 * ln / (u * u) + 2.0 / (u**3))


def _log_sq_pi_route_tail(sigma: float, n_cut: float, pi_cut: int) -> float:
    """Tail bound via pi(x) < 2x/log x: requires n_cut >= e^(1/sigma).

    2 * integral_{n_cut}^inf (2 sigma log x - 2) x^(-2 sigma) dx minus the
    exactly-known boundary term pi(n_cut) (log n_cut)^2 n_cut^(-2 sigma).
    """
    a = 2.0 * sigma
    u = a - 1.0
    ln = log(n_cut)
    if ln < 1.0 / sigma:
        return np.inf
    integral = n_cut ** (-u) * (a * ln / u + a / (u * u) - 2.0 / u)
    return 2.0 * integral - pi_cut * ln * ln * n_cut ** (-a)


class LogWeightedSum(NamedTuple):
    value: CertifiedValue
    bound_rhs: float
    holds: bool


_grid: tuple | None = None  # the last grid: (sigmas, n_cut, weakref to its table buffer, sums)


def log_weighted_grid(sigmas: list[float], n_cut: int) -> list[LogWeightedSum]:
    """Certified sum_p (log p)^2 p^(-2 sigma) against 4/(2 sigma - 1)^2 at each sigma, all checked
    before the sieve.  The tail is the smaller of the integer-comparison bound (valid once
    n_cut >= e^(1/sigma)) and the prime-counting route, both explicit antiderivatives.  The last
    grid is kept: the same sigmas and n_cut over the same cached table buffer are not summed again
    (c02 and `prime-sums` ask for one grid); the key leaves out the thread count, as no bit moves,
    and holds the buffer weakly, so a table that a larger sieve replaced is not kept alive."""
    global _grid
    for sigma in sigmas:
        if not 0.5 < sigma <= 1.0:
            raise ValueError(f"sigma must lie in (1/2, 1], got {sigma}")
        if n_cut < exp(1.0 / sigma):
            raise ValueError(f"cutoff {n_cut} below integral-comparison validity e^(1/sigma)")
    table, key = primes_mod.cached_primes(n_cut), (tuple(sigmas), n_cut)
    if (kept := _grid) is not None and kept[:2] == key and kept[2]() is table.base:
        return list(kept[3])
    threads = max(1, min(primes_mod._worker_count(), len(sigmas)))
    bufs, sums = np.empty((threads, 2, _CHUNK)), [None] * len(sigmas)  # here: threads keep pages

    def certify(k: int) -> None:  # sigmas k, k + threads, ... in bufs[k], bits the same on any k
        mine = list(enumerate(sigmas))[k::threads]
        terms = [_prime_power_term(2.0 * sigma, table, log_squared=True) for _, sigma in mine]
        partials = _certified_sum([table], terms, np.log, bufs[k])  # each chunk logged once
        for (i, sigma), (partial, roundoff) in zip(mine, partials):
            tail = min(_log_sq_integral_tail(sigma, float(n_cut)),
                       max(_log_sq_pi_route_tail(sigma, float(n_cut), table.size), 0.0))
            value = _outward(partial, partial + tail, partial + 0.5 * tail, roundoff)
            rhs = 4.0 / (2.0 * sigma - 1.0) ** 2
            sums[i] = LogWeightedSum(value=value, bound_rhs=rhs, holds=bool(value.upper <= rhs))

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(certify, range(threads)))
    _grid = (*key, weakref.ref(table.base), sums)
    return list(sums)


def log_weighted_sum(sigma: float, n_cut: int = 10**7, table=None):
    """The LogWeightedSum of `log_weighted_grid` at one sigma.  `table` is not read; it
    is kept for the benchmark tracer, which reads it by name."""
    return log_weighted_grid([sigma], n_cut)[0]


def _euler_terms(p: np.ndarray, out: np.ndarray) -> None:
    """1/(p(sqrt(p)-1)) for the primes p, in out."""
    np.sqrt(p, out=out, dtype=np.float64)
    out -= 1.0
    out *= p
    np.divide(1.0, out, out=out)


# sqrt's rounding, grown by sqrt(p)/(sqrt(p)-1) <= 2 + sqrt(2) (at p = 2) through the -1, and
# one rounding each for the -1, the product and the division.
_EULER_WEIGHT = 5.0 + sqrt(2.0)


def euler_tail_constant(n_primes: int) -> CertifiedValue:
    """Certified sum_p 1/(p(sqrt(p)-1)) over the first n_primes primes, as the sieve walks them.

    The tail over p > P, the n_primes-th prime, is bounded by (1 + 1/(sqrt(P)-1)) * 2/sqrt(P),
    an integral comparison of sum_{n>P} n^(-3/2).
    """
    if n_primes < 1:
        raise ValueError("n_primes must be >= 1")
    walk, last = primes_mod.segments(primes_mod.nth_prime_upper(n_primes)), []

    def first_n(left: int = n_primes) -> Iterator[np.ndarray]:
        for p in walk:
            yield p[:left]
            if p.size >= left:  # p holds P: the walk is closed, and its helper joined
                walk.close()
                last.append(float(p[left - 1]))
                return
            left -= p.size

    [(partial, roundoff)] = _certified_sum(first_n(), [(_euler_terms, _EULER_WEIGHT)])
    tail = (1.0 + 1.0 / (sqrt(last[0]) - 1.0)) * 2.0 / sqrt(last[0])
    return _outward(partial, partial + tail, estimate=partial + 0.5 * tail, roundoff=roundoff)


def zetaasym_ratio(x: float) -> tuple[float, float]:
    """(prime zeta / log(1/(x-1)), log zeta / log(1/(x-1))) for x in (1, 2).

    Both ratios tend to 1 as x -> 1+.  x = 2 is excluded: the denominator
    log(1/(x-1)) vanishes there.
    """
    if not 1.0 < x < 2.0:
        raise ValueError(f"x must lie in (1, 2), got {x}")
    denom = log(1.0 / (x - 1.0))
    ratio_sum = prime_zeta(x).estimate / denom
    ratio_logzeta = _log_zeta(x) / denom
    return ratio_sum, ratio_logzeta

