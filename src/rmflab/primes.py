"""Prime infrastructure: the odd-only segmented sieve (half the flags of a
full one), the process-wide prime table (pi(x) is `table.upto(x).size`),
and the Chebyshev-type check pi(x) < 2x/log(x).

`cached_primes` is the one prime source and the only caller of `sieve_primes`.
It keeps the largest table sieved so far; smaller limits and `first_n_primes`
are read-only views of it.  Tables are int32, exact up to the sieve's cap
2^31 - 1: the 9.45 million primes below 1.69e8 take 38 MB.  Search a table
with a key of its dtype, or numpy copies it to int64 on every search.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt, log

import numpy as np

DEFAULT_SEGMENT = 1 << 20  # flags (1 MB); larger segments raised the sieve's peak RSS


def prime_count_bound(x: int) -> int:
    """An integer >= pi(x): Rosser and Schoenfeld's pi(x) < 1.25506 x / log x for x > 1."""
    return int(1.25506 * x / log(x)) + 1 if x > 1 else 0


def sieve_primes(limit: int, segment: int = DEFAULT_SEGMENT) -> np.ndarray:
    """All primes <= limit, ascending, as a read-only int32 array.

    Odd-only: flag i stands for 2i + 1, and 2 is written first.  Each segment of
    `segment` flags is struck by the odd primes up to sqrt(limit), sieved the same
    way, and writes its primes straight into an output sized by `prime_count_bound`,
    so memory is one segment of flags plus the table.
    """
    if limit < 2:
        raise ValueError(f"sieve limit must be >= 2, got {limit}")
    if limit > np.iinfo(np.int32).max:
        raise ValueError(f"sieve limit {limit} exceeds the int32 cap 2^31 - 1")
    return _odd_sieve(limit, segment)


def _odd_sieve(limit: int, segment: int) -> np.ndarray:
    base = _odd_sieve(isqrt(limit), segment)[1:].tolist() if limit >= 9 else []
    primes = np.empty(prime_count_bound(limit), dtype=np.int32)
    primes[0] = 2
    count, flags_total = 1, (limit + 1) // 2
    for lo in range(0, flags_total, segment):
        hi = min(lo + segment, flags_total)
        first, last = 2 * lo + 1, 2 * hi - 1
        flags = np.ones(hi - lo, dtype=bool)
        flags[0] = lo > 0  # flag 0 of the first segment is 1, not a prime
        for p in base:
            if p * p > last:
                break
            start = max(p * p, (-(-first // p) | 1) * p)  # (| 1): the first odd multiple
            flags[(start - first) // 2 :: p] = False
        found = np.flatnonzero(flags)
        out = primes[count : count + found.size]
        np.multiply(found, 2, out=out, casting="unsafe")
        out += first
        count += found.size
    primes = primes[:count]
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
        idx = int(np.searchsorted(self.primes, self.primes.dtype.type(int(x)), side="right"))
        return self.primes[:idx]


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


def first_n_primes(n: int) -> np.ndarray:
    """The first n primes: a view of the cached table up to the Rosser bound,
    which holds at least n primes by Rosser's theorem."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return cached_primes(nth_prime_upper(n)).primes[:n]
