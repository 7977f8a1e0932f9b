"""Prime infrastructure: segmented sieve, the process-wide prime table
(pi(x) is `table.upto(x).size`), and the Chebyshev-type check
pi(x) < 2x/log(x).

Limits up to ~1.7e8 (enough for the first 9 million primes) run in bounded
memory through segmentation.  `cached_primes` is the one source of prime
tables; tables are immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt, log

import numpy as np

DEFAULT_SEGMENT = 1 << 22


def _simple_sieve(limit: int) -> np.ndarray:
    """Plain Eratosthenes up to `limit` inclusive, as an int64 array."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return np.flatnonzero(is_prime).astype(np.int64)


def sieve_primes(limit: int, segment: int = DEFAULT_SEGMENT) -> np.ndarray:
    """All primes <= limit, ascending, via a segmented sieve.

    Memory stays bounded by `segment` bools plus the output array.
    """
    if limit < 2:
        raise ValueError(f"sieve limit must be >= 2, got {limit}")
    if limit > 1 << 40:
        raise ValueError(f"sieve limit {limit} exceeds the 2^40 support cap")
    root = isqrt(limit)
    base = _simple_sieve(root)
    if root >= limit:
        return base[base <= limit]
    chunks = [base]
    for lo in range(root + 1, limit + 1, segment):
        hi = min(lo + segment - 1, limit)
        flags = np.ones(hi - lo + 1, dtype=bool)
        for p in base:
            p = int(p)
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start > hi:
                continue
            flags[start - lo :: p] = False
        chunks.append(np.flatnonzero(flags).astype(np.int64) + lo)
    primes = np.concatenate(chunks)
    primes.flags.writeable = False
    return primes


def nth_prime_upper(n: int) -> int:
    """Upper bound for the n-th prime (Rosser): n(log n + log log n) for n >= 6."""
    if n < 6:
        return 13
    x = float(n)
    return int(x * (log(x) + log(log(x)))) + 1


@dataclass(frozen=True)
class PrimeTable:
    """Ascending primes up to `limit` inclusive."""

    limit: int
    primes: np.ndarray

    def __post_init__(self):
        self.primes.flags.writeable = False

    @property
    def count(self) -> int:
        return int(self.primes.size)

    def upto(self, x: float) -> np.ndarray:
        """View of the primes <= x."""
        if x > self.limit:
            raise ValueError(f"x={x} exceeds table limit {self.limit}")
        idx = int(np.searchsorted(self.primes, int(x), side="right"))
        return self.primes[:idx]


def first_n_primes(n: int) -> np.ndarray:
    """The first n primes, sieving up to the Rosser bound."""
    if n < 1:
        raise ValueError("n must be >= 1")
    primes = sieve_primes(nth_prime_upper(n))
    if primes.size < n:  # pragma: no cover - bound is a theorem for n >= 6
        raise RuntimeError("prime bound underestimated; raise the sieve limit")
    return primes[:n]


@dataclass(frozen=True)
class ChebyshevReport:
    max_ratio: float
    holds: bool
    worst_prime: int


def chebyshev_check(table: PrimeTable) -> ChebyshevReport:
    """Check pi(x) < 2x/log(x) at every prime x <= limit.

    max_ratio is the maximum of pi(x) * log(x) / (2x) over primes; the bound
    holds iff max_ratio < 1.
    """
    if table.limit < 2:
        raise ValueError("table limit must be >= 2")
    p = table.primes.astype(np.float64)
    counts = np.arange(1, table.count + 1, dtype=np.float64)
    ratios = counts * np.log(p) / (2.0 * p)
    k = int(np.argmax(ratios))
    max_ratio = float(ratios[k])
    return ChebyshevReport(
        max_ratio=max_ratio, holds=bool(max_ratio < 1.0), worst_prime=int(table.primes[k])
    )


_largest: PrimeTable | None = None


def cached_primes(limit: int) -> PrimeTable:
    """The primes <= limit, from one table shared across the process.

    The largest table sieved so far is kept; a smaller limit gets a read-only
    view of it, so no limit is sieved twice.
    """
    global _largest
    limit = int(limit)
    if limit < 2:
        raise ValueError(f"sieve limit must be >= 2, got {limit}")
    table = _largest
    if table is None or table.limit < limit:
        table = _largest = PrimeTable(limit=limit, primes=sieve_primes(limit))
    if table.limit == limit:
        return table
    return PrimeTable(limit=limit, primes=table.upto(limit))
