"""Prime infrastructure: segmented sieve, smallest-prime-factor table,
prime counting, and the Chebyshev-type check pi(x) < 2x/log(x).

Limits up to ~1.7e8 (enough for the first 9 million primes) run in bounded
memory through segmentation.  Tables are immutable after construction and
safe for concurrent reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt, log

import numpy as np

DEFAULT_SEGMENT = 1 << 22
SPF_HARD_CAP = 1 << 31


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
    primes = sieve_primes(limit, segment=segment)
    table = PrimeTable(limit=limit, primes=primes)
    if limit > min(spf_cutoff, SPF_HARD_CAP):
        return table, None
    return table, SpfTable(limit=limit, spf=_build_spf(limit, primes))


def first_n_primes(n: int, segment: int = DEFAULT_SEGMENT) -> np.ndarray:
    """The first n primes, sieving up to the Rosser bound."""
    if n < 1:
        raise ValueError("n must be >= 1")
    primes = sieve_primes(nth_prime_upper(n), segment=segment)
    if primes.size < n:  # pragma: no cover - bound is a theorem for n >= 6
        raise RuntimeError("prime bound underestimated; raise the sieve limit")
    return primes[:n]


def prime_count(x: float, table: PrimeTable) -> int:
    """pi(x) = #{p <= x}, from the table."""
    if x > table.limit:
        raise ValueError(f"x={x} exceeds table limit {table.limit}")
    if x < 2:
        return 0
    return int(np.searchsorted(table.primes, int(x), side="right"))


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


_table_cache: dict[int, PrimeTable] = {}


def cached_primes(limit: int) -> PrimeTable:
    """Memoized prime table; reused across experiments within a process."""
    limit = int(limit)
    table = _table_cache.get(limit)
    if table is None:
        table = PrimeTable(limit=limit, primes=sieve_primes(limit))
        if len(_table_cache) > 8:
            _table_cache.clear()
        _table_cache[limit] = table
    return table
