"""Rademacher random multiplicative function simulation.

Signs on primes come from a counter-based keyed hash of (seed, prime), so an
assignment is reproducible from (seed, prime_limit) alone, independent of
evaluation order and thread count.  The multiplicative extension, partial
sums M_f with sign-change events, the random prime sum P(sigma) over many
seeds at once, truncated Dirichlet series / Euler products, the exact
Abel-summation identity, and grid scans of sup_t of cosine-weighted prime
sums all live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Iterator, Sequence

import numpy as np

from . import primes as primes_mod
from .prime_series import DivergenceError

_MASK64 = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_PRIME_SALT = np.uint64(0xD1B54A32D192ED03)

TRACE_SEGMENT = 1 << 22
TRACE_VALUES_CAP = 10**7
CHECKPOINT_STRIDE = 1 << 16
_SEED_BLOCK = 256  # seeds hashed per sign-matrix block
_T_CHUNK = 128  # t-grid rows per sup-scan block


class ResourceLimitError(RuntimeError):
    """Requested computation exceeds the configured support limits."""


def mix64(x) -> np.ndarray:
    """SplitMix64 finalizer over uint64 scalars or arrays."""
    with np.errstate(over="ignore"):
        z = np.asarray(x, dtype=np.uint64) + _GOLDEN
        z = z ^ (z >> np.uint64(30))
        z = z * _MIX1
        z = z ^ (z >> np.uint64(27))
        z = z * _MIX2
        z = z ^ (z >> np.uint64(31))
    return z


def derive_seed(base_seed: int, index: int | np.ndarray) -> int | np.ndarray:
    """Per-trial seed: keyed hash of (base_seed, index).  An integer array of
    indices gives the uint64 array of their seeds."""
    if isinstance(index, int):  # Python ints may be negative or wider than 64 bits
        index &= _MASK64
    with np.errstate(over="ignore"):
        key = np.uint64(base_seed & _MASK64) ^ (np.asarray(index).astype(np.uint64) * _GOLDEN)
    z = mix64(key)
    return int(z) if z.ndim == 0 else z


def sign_matrix(trial_seeds: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """The sign hash: row t holds the +-1 signs of `primes` under trial_seeds[t]."""
    keys = mix64(np.asarray(trial_seeds, dtype=np.uint64))
    with np.errstate(over="ignore"):
        pk = primes.astype(np.uint64) * _PRIME_SALT
        h = mix64(pk[None, :] ^ keys[:, None])
    return (1 - 2 * (h & np.uint64(1)).astype(np.int8)).astype(np.int8)


@dataclass(frozen=True)
class SignAssignment:
    """Deterministic map prime -> {-1, +1} for primes up to prime_limit."""

    seed: int
    prime_limit: int
    primes: np.ndarray
    signs: np.ndarray

    def __post_init__(self):
        self.primes.flags.writeable = False
        self.signs.flags.writeable = False

    def sign(self, p: int) -> int:
        idx = int(np.searchsorted(self.primes, p))
        if idx >= self.primes.size or int(self.primes[idx]) != p:
            raise ValueError(f"{p} is not a prime <= {self.prime_limit}")
        return int(self.signs[idx])

    def up_to(self, limit: int) -> tuple[np.ndarray, np.ndarray]:
        """(primes, signs) views restricted to p <= limit."""
        if limit > self.prime_limit:
            raise ValueError(f"limit {limit} exceeds prime_limit {self.prime_limit}")
        idx = int(np.searchsorted(self.primes, int(limit), side="right"))
        return self.primes[:idx], self.signs[:idx]


def sample_signs(seed: int, prime_limit: int) -> SignAssignment:
    """Reproducible +-1 assignment on the primes up to prime_limit."""
    if prime_limit < 2:
        raise ValueError(f"prime_limit must be >= 2, got {prime_limit}")
    ps = primes_mod.cached_primes(prime_limit).primes
    signs = sign_matrix([seed & _MASK64], ps)[0]
    return SignAssignment(seed=seed, prime_limit=prime_limit, primes=ps, signs=signs)


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


def _segments(signs: SignAssignment, x_max: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (lo, f(lo..hi)) over consecutive TRACE_SEGMENT-long blocks that
    cover 1..x_max; the range check runs at the first step."""
    if not 1 <= x_max <= signs.prime_limit:
        raise ResourceLimitError(
            f"x_max={x_max} outside the supported range [1, prime_limit={signs.prime_limit}]"
        )
    for lo in range(1, x_max + 1, TRACE_SEGMENT):
        yield lo, _signed_block(signs, lo, min(lo + TRACE_SEGMENT - 1, x_max))


def signed_values(signs: SignAssignment, x_max: int) -> np.ndarray:
    """f(1..x_max) as an int8 array (index i holds f(i+1))."""
    blocks = [block for _, block in _segments(signs, x_max)]
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def sign_change_points(values: np.ndarray, first_n: int = 1, carry: int = 0) -> np.ndarray:
    """Indices n where a nonzero value of opposite sign to the previous nonzero
    value appears.  Runs of zeros collapse; a terminal zero run adds nothing.
    `values[i]` is the value at n = first_n + i; `carry` is the sign of the
    last nonzero value before the array (0 if none)."""
    values = np.asarray(values)
    nz = np.flatnonzero(values)
    if nz.size == 0:
        return np.empty(0, dtype=np.int64)
    s = np.sign(values[nz]).astype(np.int8)
    flips = np.empty(nz.size, dtype=bool)
    flips[0] = carry != 0 and s[0] != carry
    flips[1:] = s[1:] != s[:-1]
    return (nz[flips] + first_n).astype(np.int64)


@dataclass(frozen=True)
class PartialSumTrace:
    """M_f(n) for n = 1..x_max with sign-change events.

    Full values are kept when x_max <= TRACE_VALUES_CAP; above that only the
    change points, checkpoints every CHECKPOINT_STRIDE steps, and the final
    value are retained.
    """

    x_max: int
    change_points: np.ndarray
    final_value: int
    checkpoint_ns: np.ndarray
    checkpoint_values: np.ndarray
    values: np.ndarray | None

    def __post_init__(self):
        self.change_points.flags.writeable = False

    def count_changes(self, x: int | None = None) -> int:
        if x is None:
            x = self.x_max
        if x > self.x_max:
            raise ValueError(f"x={x} beyond trace range {self.x_max}")
        return int(np.searchsorted(self.change_points, x, side="right"))


def partial_sum_trace(
    signs: SignAssignment, x_max: int, keep_values: bool | None = None
) -> PartialSumTrace:
    """Exact M_f at every integer up to x_max, built segment by segment."""
    if keep_values is None:
        keep_values = x_max <= TRACE_VALUES_CAP

    carry_value = 0
    carry_sign = 0
    changes: list[np.ndarray] = []
    kept: list[np.ndarray] = []
    cp_ns: list[int] = []
    cp_vals: list[int] = []
    for lo, block in _segments(signs, x_max):
        hi = lo + block.size - 1
        m = np.cumsum(block, dtype=np.int64)
        m += carry_value
        changes.append(sign_change_points(m, first_n=lo, carry=carry_sign))
        first_cp = ((lo + CHECKPOINT_STRIDE - 1) // CHECKPOINT_STRIDE) * CHECKPOINT_STRIDE
        for n in range(first_cp, hi + 1, CHECKPOINT_STRIDE):
            cp_ns.append(n)
            cp_vals.append(int(m[n - lo]))
        carry_value = int(m[-1])
        nz = np.flatnonzero(m)
        if nz.size:
            carry_sign = int(np.sign(m[nz[-1]]))
        if keep_values:
            kept.append(m)

    return PartialSumTrace(
        x_max=x_max,
        change_points=np.concatenate(changes) if changes else np.empty(0, np.int64),
        final_value=carry_value,
        checkpoint_ns=np.asarray(cp_ns, dtype=np.int64),
        checkpoint_values=np.asarray(cp_vals, dtype=np.int64),
        values=(kept[0] if len(kept) == 1 else np.concatenate(kept)) if keep_values else None,
    )


def random_prime_sum_batch(
    trial_seeds: np.ndarray,
    sigma: float | Sequence[float],
    limit: int,
) -> np.ndarray:
    """Truncated P(sigma) values for many seeds at once, shape seeds + sigma.shape.

    `sigma` is a scalar or a 1-D sequence.  Each block of seeds is hashed once
    and serves every sigma through its own matvec, so column j equals the
    scalar call at sigma[j] bit for bit.
    """
    sigmas = np.asarray(sigma, dtype=np.float64)
    if np.any(sigmas <= 0.5):
        raise DivergenceError(f"P(sigma) requires sigma > 1/2, got {sigma}")
    ps = primes_mod.cached_primes(limit).primes
    p = ps.astype(np.float64)
    weights = [p ** (-s) for s in sigmas.ravel()]
    seeds = np.asarray(trial_seeds, dtype=np.uint64)
    out = np.empty((seeds.size, len(weights)), dtype=np.float64)
    for start in range(0, seeds.size, _SEED_BLOCK):
        block = seeds[start : start + _SEED_BLOCK]
        signs = sign_matrix(block, ps).astype(np.float64)
        for j, w in enumerate(weights):
            out[start : start + block.size, j] = signs @ w
    return out.reshape(seeds.shape + sigmas.shape)


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


def _step_weights(sigma: float, x: int) -> np.ndarray:
    """n^(-sigma) - (n+1)^(-sigma) for n = 1..x-1, computed cancellation-free."""
    n = np.arange(1, x, dtype=np.float64)
    return n ** (-sigma) * (-np.expm1(-sigma * np.log1p(1.0 / n)))


def abel_identity_residual(signs: SignAssignment, sigma: float, x: int) -> float:
    """|sum_{n<=x} f(n) n^(-sigma) - M(x) x^(-sigma) - sigma * integral| with the
    integral of M(u) u^(-1-sigma) over [1, x] evaluated exactly piecewise.

    The identity is exact, so the value is floating-point noise.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    f = signed_values(signs, x)
    m = np.cumsum(f, dtype=np.int64)
    n = np.arange(1, x + 1, dtype=np.float64)
    lhs = float(np.sum(f * n ** (-sigma)))
    boundary = float(m[-1]) * x ** (-sigma)
    if x == 1:
        return abs(lhs - boundary)
    integral = float(np.sum(m[:-1].astype(np.float64) * _step_weights(sigma, x)))
    return abs(lhs - boundary - integral)


def abs_mellin(signs: SignAssignment, sigma: float, x: int) -> float:
    """Exact piecewise integral of |M(u)| u^(-1-sigma) over [1, x]."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if x == 1:
        return 0.0
    f = signed_values(signs, x)
    m = np.cumsum(f, dtype=np.int64)
    weights = _step_weights(sigma, x) / sigma
    return float(np.sum(np.abs(m[:-1]).astype(np.float64) * weights))


@dataclass(frozen=True)
class SupScanResult:
    sup_cos: float
    argmax_t: float
    sup_abs_f: float
    grid_size: int


def sup_scan(
    signs: SignAssignment,
    sigma: float,
    t_max: float,
    grid_step: float = 0.01,
    limit: int | None = None,
) -> SupScanResult:
    """Grid maxima over t in {1, 1+step, ..., t_max} of the truncated sums
    sum_p sign(p) cos(t log p) p^(-sigma) and |prod_p (1 + sign(p) p^(-sigma-it))|.

    Grid maxima are lower bounds for the true suprema.
    """
    if sigma <= 0.5:
        raise DivergenceError(f"sup scan requires sigma > 1/2, got {sigma}")
    if t_max < 1.0:
        raise ValueError("t_max must be >= 1")
    if not 0 < grid_step <= 0.01 + 1e-12:
        raise ValueError("grid_step must lie in (0, 0.01]")
    if limit is None:
        limit = signs.prime_limit
    ps, sg = signs.up_to(limit)
    p = ps.astype(np.float64)
    logp = np.log(p)
    amp = p ** (-sigma)
    w = sg * amp
    ts = np.arange(1.0, t_max + grid_step * 0.5, grid_step)
    if ts.size == 0:
        ts = np.array([1.0])
    best_cos = -np.inf
    best_t = ts[0]
    best_logf = -np.inf
    for start in range(0, ts.size, _T_CHUNK):
        tc = ts[start : start + _T_CHUNK]
        c = np.cos(np.outer(tc, logp))
        cos_vals = c @ w
        i = int(np.argmax(cos_vals))
        if cos_vals[i] > best_cos:
            best_cos = float(cos_vals[i])
            best_t = float(tc[i])
        log_f = 0.5 * np.sum(np.log1p((2.0 * w) * c + amp * amp), axis=1)
        best_logf = max(best_logf, float(np.max(log_f)))
    return SupScanResult(
        sup_cos=best_cos,
        argmax_t=best_t,
        sup_abs_f=float(np.exp(best_logf)),
        grid_size=int(ts.size),
    )
