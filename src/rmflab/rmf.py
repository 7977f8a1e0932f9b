"""Rademacher random multiplicative function simulation.

Signs on primes come from a counter-based keyed hash of (seed, prime), so an
assignment is reproducible from (seed, prime_limit) alone, independent of
evaluation order and thread count.  The multiplicative extension, partial
sums M_f with sign-change events, the random prime sum P(sigma) over many
seeds at once, the exact Abel-summation identity, and grid scans of sup_t of
cosine-weighted prime sums on the one prime-grid kernel, run only on the t blocks
that a certified Chebyshev-recurrence estimate cannot rule out, all live here.

The multiplicative extension has one path: 64 assignments' negative signs are
the bits of one uint64 word per prime, and each TRACE_SEGMENT-long block is
sieved afresh by the primes up to its square root.  A squarefree n has at most
one prime factor above that, found by a transient 4-byte-per-integer prime
index.  The prime table is the only cache kept across calls.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
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

TRACE_SEGMENT = 1 << 16
PACKED_SIGNS = 64  # sign assignments per uint64 word of the multiplicative extension
TRACE_VALUES_CAP = 10**7
CHECKPOINT_STRIDE = 1 << 16
_SEED_BLOCK = 256  # seeds hashed per sign-matrix block
_T_CHUNK = 128  # t-grid rows per sup-scan block
_EXACT_LOG1P = 10**4  # sup-scan estimates take the exact log1p for primes up to here
_U = 2.0**-53  # unit roundoff of float64


class ResourceLimitError(RuntimeError):
    """Requested computation exceeds the configured support limits."""


def check_memory(need: int, what: str) -> None:
    """Raise ResourceLimitError if `need` bytes for `what` exceed physical memory."""
    if need > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
        raise ResourceLimitError(f"{what}: {need} B > physical RAM")


def _worker_count() -> int:
    """Threads for seed sweeps: RMFLAB_THREADS, else min(8, CPUs this process may use)."""
    env = os.environ.get("RMFLAB_THREADS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ValueError(f"RMFLAB_THREADS must be an integer, got {env!r}") from exc
    affinity = getattr(os, "sched_getaffinity", None)  # not on every platform
    return min(8, len(affinity(0)) if affinity else os.cpu_count() or 1)


def mix64(x) -> np.ndarray:
    """SplitMix64 finalizer over uint64 scalars or arrays."""
    with np.errstate(over="ignore"):
        z = np.asarray(x, dtype=np.uint64) + _GOLDEN
        z ^= z >> np.uint64(30)
        z *= _MIX1
        z ^= z >> np.uint64(27)
        z *= _MIX2
        z ^= z >> np.uint64(31)
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


def sign_matrix(trial_seeds: np.ndarray | Sequence[int], primes: np.ndarray) -> np.ndarray:
    """The sign hash: row t holds the +-1 signs of `primes` under trial_seeds[t].

    Python int seeds are taken mod 2^64; an integer array is cast to uint64.
    Rows are hashed one at a time, so the uint64 scratch is one row long."""
    if not isinstance(trial_seeds, np.ndarray):
        trial_seeds = [int(s) & _MASK64 for s in trial_seeds]
    keys = mix64(np.asarray(trial_seeds, dtype=np.uint64))
    with np.errstate(over="ignore"):
        pk = primes.astype(np.uint64) * _PRIME_SALT
    out = np.empty((keys.size, primes.size), dtype=np.int8)
    for row, key in zip(out, keys):
        row[:] = 1 - 2 * (mix64(pk ^ key) & np.uint64(1)).astype(np.int8)
    return out


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

    def up_to(self, limit: int) -> tuple[np.ndarray, np.ndarray]:
        """(primes, signs) views restricted to p <= limit."""
        if limit > self.prime_limit:
            raise ValueError(f"limit {limit} exceeds prime_limit {self.prime_limit}")
        idx = int(np.searchsorted(self.primes, self.primes.dtype.type(limit), side="right"))
        return self.primes[:idx], self.signs[:idx]


def sample_signs(seed: int, prime_limit: int) -> SignAssignment:
    """Reproducible +-1 assignment on the primes up to prime_limit."""
    ps = primes_mod.cached_primes(prime_limit).primes
    signs = sign_matrix([seed], ps)[0]
    return SignAssignment(seed=seed, prime_limit=prime_limit, primes=ps, signs=signs)


def _packed(negative: np.ndarray) -> np.ndarray:
    """One uint64 per prime, bit j set where boolean row j of `negative` is."""
    words = np.zeros((negative[0].size, 8), dtype=np.uint8)
    words[:, : (len(negative) + 7) // 8] = np.packbits(negative, axis=0, bitorder="little").T
    return words.view("<u8").ravel()


def _signed_blocks(
    words: np.ndarray, rows: int, x_max: int
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield (j, lo, f(lo..hi)) block by block for the assignments j < rows
    packed in `words`.  The primes p <= sqrt(hi) sieve each block: per n the
    XOR of their words, their product, and whether some p^2 divides it.  What
    is left of a squarefree n is 1 or its one prime factor above sqrt(hi)."""
    ps = primes_mod.cached_primes(max(x_max, 2)).primes[: words.size]
    index = np.full(x_max + 1, ps.size, dtype=np.int32)  # prime -> word; 1 -> the zero word
    index[ps] = np.arange(ps.size, dtype=np.int32)
    words = np.append(words, np.uint64(0))
    for lo in range(1, x_max + 1, TRACE_SEGMENT):
        hi = min(lo + TRACE_SEGMENT - 1, x_max)
        odd = np.zeros(hi - lo + 1, dtype=np.uint64)
        small = np.ones(hi - lo + 1, dtype=np.int64)
        squarefree = np.ones(hi - lo + 1, dtype=bool)
        root = ps.dtype.type(isqrt(hi))
        for p, word in zip(ps[: np.searchsorted(ps, root, side="right")].tolist(), words):
            odd[-lo % p :: p] ^= word
            small[-lo % p :: p] *= p
            squarefree[-lo % (p * p) :: p * p] = False
        sq = np.flatnonzero(squarefree)
        odd = (odd[sq] ^ words[index[(sq + lo) // small[sq]]]).view(np.uint8)
        for j in range(rows):
            f = np.zeros(hi - lo + 1, dtype=np.int8)
            f[sq] = 1 - 2 * ((odd[j // 8 :: 8] >> (j % 8)) & 1).view(np.int8)
            yield j, lo, f


def _negative(signs: SignAssignment, x_max: int) -> np.ndarray:
    """One row: where the signs of the primes up to x_max are -1, after the range check."""
    if not 1 <= x_max <= signs.prime_limit:
        raise ResourceLimitError(f"x_max={x_max} outside [1, prime_limit={signs.prime_limit}]")
    return signs.up_to(x_max)[1][None] < 0


def signed_values(signs: SignAssignment, x_max: int) -> np.ndarray:
    """f(1..x_max) as an int8 array (index i holds f(i+1))."""
    words = _packed(_negative(signs, x_max))
    return np.concatenate([f for _, _, f in _signed_blocks(words, 1, x_max)])


def sign_change_points(values: np.ndarray, first_n: int = 1, carry: int = 0) -> np.ndarray:
    """Indices n where a nonzero value of opposite sign to the previous nonzero
    value appears.  Runs of zeros collapse; a terminal zero run adds nothing.
    `values[i]` is the value at n = first_n + i; `carry` is the sign of the
    last nonzero value before the array (0 if none)."""
    signs = np.sign(np.asarray(values)).astype(np.int8)
    nz = np.flatnonzero(signs)
    if nz.size == 0:
        return np.empty(0, dtype=np.int64)
    s = signs[nz]
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


def _traces(words: np.ndarray, rows: int, x_max: int, keep_values=False) -> list[PartialSumTrace]:
    """partial_sum_trace of each assignment packed in `words`, carrying M and
    the sign of its last nonzero value from block to block."""
    value, sign = [0] * rows, [0] * rows
    changes, checkpoints = [[] for _ in range(rows)], [[] for _ in range(rows)]
    kept = [np.empty(x_max, dtype=np.int64) if keep_values else None for _ in range(rows)]
    for j, lo, f in _signed_blocks(words, rows, x_max):
        m = np.cumsum(f, dtype=np.int64, out=kept[j][lo - 1 :][: f.size] if keep_values else None)
        m += value[j]
        changes[j].append(sign_change_points(m, first_n=lo, carry=sign[j]))
        checkpoints[j].append(m[-lo % CHECKPOINT_STRIDE :: CHECKPOINT_STRIDE].copy())
        value[j] = int(m[-1])
        nz = [m.size - 1] if value[j] else np.flatnonzero(m)  # M is rarely 0
        sign[j] = int(np.sign(m[nz[-1]])) if len(nz) else sign[j]
    cp_ns = np.arange(CHECKPOINT_STRIDE, x_max + 1, CHECKPOINT_STRIDE, dtype=np.int64)
    return [
        PartialSumTrace(x_max, np.concatenate(changes[j]), value[j], cp_ns,
                        np.concatenate(checkpoints[j]), kept[j])
        for j in range(rows)
    ]


def partial_sum_trace(
    signs: SignAssignment, x_max: int, keep_values: bool | None = None
) -> PartialSumTrace:
    """Exact M_f at every integer up to x_max, built segment by segment."""
    if keep_values is None:
        keep_values = x_max <= TRACE_VALUES_CAP
    return _traces(_packed(_negative(signs, x_max)), 1, x_max, keep_values)[0]


def sign_change_counts(seeds: Sequence[int], x_max: int) -> np.ndarray:
    """(count_changes(), final_value) of partial_sum_trace(sample_signs(seed,
    max(x_max, 2)), x_max) for each seed, shape (len(seeds), 2).  Each extension
    pass, on one of _worker_count() threads, serves PACKED_SIGNS seeds hashed by
    one sign_matrix call."""
    if x_max < 1:
        raise ResourceLimitError(f"x_max={x_max} must be >= 1")
    ps = primes_mod.cached_primes(max(x_max, 2)).upto(x_max)  # sieved before the threads share it

    def counts(start: int) -> list[tuple[int, int]]:
        block = seeds[start : start + PACKED_SIGNS]
        words = _packed(sign_matrix(block, ps) < 0)
        return [(t.count_changes(), t.final_value) for t in _traces(words, len(block), x_max)]

    with ThreadPoolExecutor(max_workers=_worker_count()) as pool:  # map keeps seed order
        out = [row for rows in pool.map(counts, range(0, len(seeds), PACKED_SIGNS)) for row in rows]
    return np.array(out, dtype=np.int64).reshape(-1, 2)


def random_prime_sum_batch(
    trial_seeds: np.ndarray | Sequence[int],
    sigma: float | Sequence[float],
    limit: int,
) -> np.ndarray:
    """Truncated P(sigma) for many seeds at once, shape (len(seeds),) + sigma.shape.

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
    out = np.empty((len(trial_seeds), len(weights)), dtype=np.float64)
    for start in range(0, len(trial_seeds), _SEED_BLOCK):
        signs = sign_matrix(trial_seeds[start : start + _SEED_BLOCK], ps).astype(np.float64)
        for j, w in enumerate(weights):
            out[start : start + signs.shape[0], j] = signs @ w
    return out.reshape((len(trial_seeds),) + sigmas.shape)


def _step_weights(sigma: float, x: int) -> np.ndarray:
    """n^(-sigma) - (n+1)^(-sigma) for n = 1..x-1, computed cancellation-free."""
    n = np.arange(1, x, dtype=np.float64)
    return n ** (-sigma) * (-np.expm1(-sigma * np.log1p(1.0 / n)))


def abel_identity_residual(f: np.ndarray, sigma: float) -> float:
    """|sum_{n<=x} f(n) n^(-sigma) - M(x) x^(-sigma) - sigma * integral| for
    f = f(1..x) as `signed_values` returns it, with the integral of
    M(u) u^(-1-sigma) over [1, x] evaluated exactly piecewise.

    The identity is exact, so the value is floating-point noise.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    x = f.size
    m = np.cumsum(f, dtype=np.int64)
    n = np.arange(1, x + 1, dtype=np.float64)
    lhs = float(np.sum(f * n ** (-sigma)))
    boundary = float(m[-1]) * x ** (-sigma)
    if x == 1:
        return abs(lhs - boundary)
    integral = float(np.sum(m[:-1].astype(np.float64) * _step_weights(sigma, x)))
    return abs(lhs - boundary - integral)


def _basis_blocks(grid, logp, fn, rows: int, blocks=None) -> Iterator[tuple[int, np.ndarray]]:
    """The one prime-grid kernel: (start, ufunc fn of grid[start : start + rows] (x) logp) for
    each block index in `blocks` (default all), built in place in one buffer that the next
    block overwrites.  Fixed block boundaries fix the bits of a block's BLAS products."""
    if blocks is None:
        blocks = range(-(-grid.size // rows))
    buf = np.empty((min(rows, grid.size), logp.size))
    for b in blocks:
        start = int(b) * rows
        block = grid[start : start + rows]
        out = buf[: block.size]
        yield start, fn(np.multiply.outer(block, logp, out=out), out=out)


def _chebyshev_blocks(ts, logp, rows: int) -> Iterator[tuple[int, np.ndarray]]:
    """(start, cos(ts[start : start + rows] (x) logp)) per _basis_blocks block, in one buffer:
    rows 0, 1 by np.cos, then c_{k+1} = 2 cos(h logp) c_k - c_{k-1}, h = ts[1] - ts[0]."""
    m = 2.0 * np.cos((ts[1] - ts[0] if ts.size > 1 else 0.0) * logp)
    buf = np.empty((min(rows, ts.size), logp.size))
    for start in range(0, ts.size, rows):
        c = buf[: ts[start : start + rows].size]
        np.cos(np.multiply.outer(ts[start : start + 2], logp, out=c[:2]), out=c[:2])
        for k in range(2, len(c)):
            np.subtract(np.multiply(c[k - 1], m, out=c[k]), c[k - 2], out=c[k])
        yield start, c


def _chebyshev_error(ts, logp, rows: int) -> float:
    """A bound on |cell of _chebyshev_blocks - cell of _basis_blocks(ts, logp, np.cos, rows)|,
    or inf past 1e-6, where the margins of 1.01 stop holding.  np.cos is trusted to 2 ulps
    (4u).  An exact cell is off cos((ts[s] + k h) theta), row k of the block at s, by `start`
    (rounding of t theta, then cos) plus theta times the measured distance `gap` of ts from
    equispaced.  Through |U_n(cos h theta)| <= n + 1 the two start rows' errors and the step
    error g (the multiplier's error and two roundings) grow to k (d_0 + d_1) + g k^2 / 2."""
    big_k, h = min(rows, ts.size) - 1, ts[1] - ts[0] if ts.size > 1 else 0.0
    k = np.arange(ts.size) % rows
    gap = np.max(np.abs(ts - ts[np.arange(ts.size) - k] - k * h)) + 3 * _U * big_k * h
    theta = float(np.max(logp, initial=0.0))
    start = _U * ts[-1] * theta + 4 * _U
    g = 2.02 * (_U * h * theta + 4 * _U) + 4 * _U
    e = 1.01 * ((big_k + 2) * (2 * start + theta * gap) + g * big_k * big_k / 2)
    return e if e < 1e-6 else np.inf


def _sup_scan_estimates(ts, logp, w, amp) -> tuple[np.ndarray, np.ndarray]:
    """(est, eps): est[0] the cos sum and est[1] log|F| = 0.5 sum_p log1p(x_p), x = 2 w c +
    amp^2, at every t from _chebyshev_blocks, each within eps[i, 0] of sup_scan's exact row.
    log1p runs for p <= _EXACT_LOG1P; above, x - x^2/2 from gemvs on c and c*c, and sum
    |x|^3 / (3 (1 - |x|)) at |x| <= 2 amp + amp^2 bounds the rest.  eps adds the cell error
    through Lipschitz bounds of log1p and x - x^2/2, np.log1p at 2 ulps, the rounding of x,
    and gamma_n sum_p |term_p| for every sum (Higham, Accuracy and Stability, ch. 3)."""
    aa, ns = amp * amp, int(np.searchsorted(logp, np.log(_EXACT_LOG1P)))
    big, s1, s2 = np.stack([w[ns:], w[ns:] * aa[ns:]], axis=1), np.sum(aa[ns:]), aa[ns:] @ aa[ns:]
    est = np.empty((2, ts.size))
    for start, c in _chebyshev_blocks(ts, logp, _T_CHUNK):
        cos_est, log_est = est[:, start : start + len(c)]
        cos_est[:] = c @ w
        small = np.sum(np.log1p(c[:, :ns] * (2.0 * w[:ns]) + aa[:ns]), axis=1)
        lin, cross = (c[:, ns:] @ big).T
        quad = np.square(c, out=c)[:, ns:] @ aa[ns:]  # sum x^2 = 4 quad + 4 cross + s2
        log_est[:] = 0.5 * (small + 2.0 * lin + s1 - 2.0 * quad - 2.0 * cross - 0.5 * s2)
    cell = _chebyshev_error(ts, logp, _T_CHUNK)
    a1 = amp * (1.0 + cell)  # bounds |w c| on exact and estimated cells
    xb, lam, lip = 2.0 * a1 + aa, -2.02 * np.log1p(-a1), 1.01 / (1.0 - a1) ** 2
    gam = (amp.size + 8) * _U / (1 - (amp.size + 8) * _U)
    rest = np.sum(xb[ns:] ** 3 / (3.0 * (1.0 - xb[ns:])))  # log1p(x) - (x - x^2/2) above ns
    eps_log = (rest / 2 + cell * np.sum(amp * lip) + gam * np.sum(lam + xb + xb * xb)
               + _U * np.sum(4 * lam + 1.01 * lip * (4 * a1 + aa)))
    return est, 1.01 * np.array([[np.sum(amp) * (cell + 2.0 * gam)], [eps_log]])


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

    Grid maxima are lower bounds for the true suprema; ties go to the earliest t.
    Only blocks whose _sup_scan_estimates + eps reach the best estimate - eps of any block,
    for either maximum, run the exact cos and log1p: the maxima keep every block's bits.
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
    est, eps = _sup_scan_estimates(ts, logp, w, amp)
    top = np.maximum.reduceat(est, np.arange(0, ts.size, _T_CHUNK), axis=1)
    need = ~np.all(top + eps < np.max(top - eps, axis=1, keepdims=True), axis=0)  # NaN: all
    cos_vals, log_f = np.full((2, ts.size), -np.inf)  # rows outside `need` decide nothing
    for start, c in _basis_blocks(ts, logp, np.cos, _T_CHUNK, np.flatnonzero(need)):
        cos_vals[start : start + len(c)] = c @ w
        c *= 2.0 * w  # log|1 + sign(p) p^(-sigma-it)|^2 = log1p(2 w cos + amp^2), in place
        c += amp * amp
        log_f[start : start + len(c)] = 0.5 * np.sum(np.log1p(c, out=c), axis=1)
    i = int(np.argmax(cos_vals))
    return SupScanResult(
        sup_cos=float(cos_vals[i]),
        argmax_t=float(ts[i]),
        sup_abs_f=float(np.exp(np.max(log_f))),
        grid_size=int(ts.size),
    )
