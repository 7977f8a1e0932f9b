"""Certified evaluation of the deterministic prime series used throughout: prime
zeta values P(s) = sum_p p^(-s), the variance sum at 2*sigma, the (log p)^2-weighted
sums against their 4/(2s-1)^2 bound on a sigma grid that casts and logs the primes
once, the Euler-product tail constant sum_p 1/(p(sqrt(p)-1)), near-1 asymptotic ratios.

Every truncated sum comes back as a CertifiedValue whose interval accounts
for the truncation tail (explicit integral comparisons) plus a fixed outward
slack factor 1 + 1e-10 that dwarfs double-precision roundoff at these sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, fsum, log, log1p, sqrt

import numpy as np

from . import primes as primes_mod
from .primes import PrimeTable

_SLACK = 1e-10

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

    def __post_init__(self):
        if not (self.lower <= self.estimate <= self.upper):
            raise ValueError(f"certified interval violated: {self}")
        if not (np.isfinite(self.lower) and np.isfinite(self.upper)):
            raise ValueError(f"certified interval must be finite: {self}")

    def contains(self, x: float) -> bool:
        return self.lower <= x <= self.upper

    def intersects(self, other: "CertifiedValue") -> bool:
        return self.lower <= other.upper and other.lower <= self.upper


def _outward(lower: float, upper: float, estimate: float) -> CertifiedValue:
    """Pad an interval outward by the slack factor and wrap it up."""
    lo = lower - abs(lower) * _SLACK
    hi = upper + abs(upper) * _SLACK
    return CertifiedValue(estimate=estimate, upper=hi, lower=lo)


def zeta(s: float) -> float:
    """Riemann zeta for real s > 1, relative error <= 1e-12.

    Euler-Maclaurin with an adaptive cutoff for s in (1, 64]; for s > 64 the
    first correction 2^(-s) alone already meets the accuracy target.
    """
    if s <= 1:
        raise ValueError(f"zeta requires s > 1, got {s}")
    if s > 64:
        return 1.0 + 2.0 ** (-s)
    for n in (24, 48, 96):
        value, err = _zeta_em(s, n)
        if err <= 1e-13 * abs(value):
            return value
    return value  # pragma: no cover - n=96 always converges for s in (1, 64]


def _zeta_em(s: float, n: int) -> tuple[float, float]:
    """One Euler-Maclaurin evaluation with cutoff n; returns (value, error bound)."""
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
    """log(zeta(s)) with full relative accuracy even where zeta(s) is near 1."""
    if s <= 1:
        raise ValueError(f"log zeta requires s > 1, got {s}")
    if s <= 32:
        return log(zeta(s))
    # zeta(s) - 1 = sum_{k>=2} k^-s, dominated by 2^-s; six terms suffice.
    t = sum(float(k) ** (-s) for k in range(2, 9))
    t += 8.0 ** (1.0 - s) / (s - 1.0)  # integral bound on the k > 8 tail
    return log1p(t)


def _mobius_upto(n: int) -> np.ndarray:
    mu = np.ones(n + 1, dtype=np.int64)
    mu[0] = 0
    for p in primes_mod.cached_primes(max(n, 2)).upto(n).tolist():
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
    return mu


def prime_power_tail_bound(s: float, n_cut: int, pi_cut: int | None = None) -> float:
    """Rigorous upper bound for sum over primes p > n_cut of p^(-s), s > 1.

    Minimum of the integer-comparison bound n_cut^(1-s)/(s-1) and the
    pi(x) < 2x/log x route 2s/((s-1) log n_cut) * n_cut^(1-s), minus the
    exactly-known boundary term pi(n_cut) * n_cut^(-s) on the latter.
    """
    if s <= 1:
        raise DivergenceError(f"prime power tail diverges for s <= 1 (s={s})")
    if n_cut < 2:
        raise ValueError("cutoff must be >= 2")
    integer_route = n_cut ** (1.0 - s) / (s - 1.0)
    pi_route = 2.0 * s / ((s - 1.0) * log(n_cut)) * n_cut ** (1.0 - s)
    if pi_cut is not None:
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
    p = primes_mod.cached_primes(n_cut).primes.astype(np.float64)
    partial = float(np.sum(p ** (-s)))
    tail = prime_power_tail_bound(s, n_cut, pi_cut=p.size)
    return _outward(partial, partial + tail, estimate=partial + 0.5 * tail)


def variance_sum(sigma: float) -> CertifiedValue:
    """E[P(sigma)^2] = sum_p p^(-2 sigma), certified; requires sigma > 1/2."""
    if sigma <= 0.5:
        raise DivergenceError(
            f"variance sum diverges for sigma <= 1/2 (sigma={sigma}); "
            "this is the three-series boundary"
        )
    return prime_zeta(2.0 * sigma)


def truncated_variance(sigma: float, limit: int) -> float:
    """Exact partial sum over primes p <= limit of p^(-2 sigma)."""
    if sigma <= 0.5:
        raise DivergenceError(f"truncated variance normalization needs sigma > 1/2 (sigma={sigma})")
    p = primes_mod.cached_primes(limit).primes.astype(np.float64)
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


@dataclass(frozen=True)
class LogWeightedSum:
    value: CertifiedValue
    bound_rhs: float
    holds: bool


def log_weighted_grid(sigmas: list[float], n_cut: int = 10**7) -> list[LogWeightedSum]:
    """Certified sum_p (log p)^2 p^(-2 sigma) against 4/(2 sigma - 1)^2 at each sigma, all checked
    before the sieve.  The tail is the smaller of the integer-comparison bound (valid once
    n_cut >= e^(1/sigma)) and the prime-counting route, both explicit antiderivatives."""
    for sigma in sigmas:
        if not 0.5 < sigma <= 1.0:
            raise ValueError(f"sigma must lie in (1/2, 1], got {sigma}")
        if n_cut < exp(1.0 / sigma):
            raise ValueError(f"cutoff {n_cut} below integral-comparison validity e^(1/sigma)")
    p = primes_mod.cached_primes(n_cut).primes.astype(np.float64)  # cast and logged once
    lp2 = np.log(p)
    lp2 *= lp2
    buf, sums = np.empty_like(p), []
    for sigma in sigmas:
        partial = float(np.sum(np.multiply(np.power(p, -2.0 * sigma, out=buf), lp2, out=buf)))
        tail = min(_log_sq_integral_tail(sigma, float(n_cut)),
                   max(_log_sq_pi_route_tail(sigma, float(n_cut), p.size), 0.0))
        value = _outward(partial, partial + tail, estimate=partial + 0.5 * tail)
        rhs = 4.0 / (2.0 * sigma - 1.0) ** 2
        sums.append(LogWeightedSum(value=value, bound_rhs=rhs, holds=bool(value.upper <= rhs)))
    return sums


def log_weighted_sum(sigma: float, n_cut: int = 10**7, table: PrimeTable | None = None):
    """The LogWeightedSum of `log_weighted_grid` at one sigma.  `table` is not read; it
    is kept for the benchmark tracer, which reads it by name."""
    return log_weighted_grid([sigma], n_cut)[0]


def euler_tail_constant(n_primes: int) -> CertifiedValue:
    """Certified sum_p 1/(p(sqrt(p)-1)) using the first n_primes primes.

    The tail over p > P is bounded by (1 + 1/(sqrt(P)-1)) * 2/sqrt(P), an
    integral comparison of sum_{n>P} n^(-3/2).
    """
    if n_primes < 1:
        raise ValueError("n_primes must be >= 1")
    p = primes_mod.first_n_primes(n_primes)
    t = np.sqrt(p, dtype=np.float64)  # the terms 1/(p(sqrt(p)-1)), in this one buffer
    t -= 1.0
    t *= p
    partial = fsum(np.divide(1.0, t, out=t))
    largest = float(p[-1])
    tail = (1.0 + 1.0 / (sqrt(largest) - 1.0)) * 2.0 / sqrt(largest)
    return _outward(partial, partial + tail, estimate=partial + 0.5 * tail)


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

