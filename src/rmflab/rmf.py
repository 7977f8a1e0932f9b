"""Rademacher random multiplicative function simulation.

Signs on primes come from a counter-based keyed hash of (seed, prime), so an
assignment is reproducible from (seed, prime_limit) alone, independent of
evaluation order and thread count.  The multiplicative extension, partial
sums M_f with sign-change events, the random prime sum P(sigma) over many
seeds at once, the exact Abel-summation identity, and grid scans of sup_t of
cosine-weighted prime sums on the one prime-grid kernel, run only on the t blocks
that the certified estimate of `_low_rank_grid` cannot rule out, all live here.

The multiplicative extension has one path: 64 assignments' negative signs are
the bits of one uint64 word per prime, and each TRACE_SEGMENT-long block is
sieved afresh by the primes up to its square root.  A squarefree n has at most
one prime factor above that, found by a transient 4-byte-per-integer prime
index.  The prime table is the only cache kept across calls.
"""

from __future__ import annotations

import contextlib
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import isqrt
from pathlib import Path
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
_LOW_RANK_CELLS = 1 << 20  # float64 cells per prime chunk or grid chunk of _low_rank_grid
_U = 2.0**-53  # unit roundoff of float64
_G = 1.01 * _U  # gamma_n = n u / (1 - n u) <= n _G while n u <= 0.01 (Higham, ch. 3)


class ResourceLimitError(RuntimeError):
    """Requested computation exceeds the configured support limits."""


def cgroup_limit(proc: str = "/proc/self/cgroup", root: str = "/sys/fs/cgroup") -> float:
    """This process's cgroup memory limit in bytes, from memory.max (v2) or memory.limit_in_bytes
    (v1) under `root`; files are only read, and "max" or a missing file mean inf."""
    files, limits = {"": "memory.max", "memory": "memory.limit_in_bytes"}, []
    with contextlib.suppress(OSError):
        for line in Path(proc).read_text().splitlines():
            _, kinds, path = line.split(":", 2)
            kind = "memory" if "memory" in kinds.split(",") else kinds
            if kind in files:
                with contextlib.suppress(OSError, ValueError):
                    limits.append(int(Path(root, kind, path.lstrip("/"), files[kind]).read_text()))
    return float(min(limits, default=float("inf")))


def check_memory(need: int, what: str) -> None:
    """Raise ResourceLimitError if `need` bytes for `what` exceed physical or cgroup memory."""
    ram, cgroup = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"), cgroup_limit()
    if need > min(ram, cgroup):
        raise ResourceLimitError(
            f"{what}: {need} B > {'physical RAM' if ram <= cgroup else 'cgroup memory limit'}")


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


def signed_value_rows(seeds: Sequence[int], x_max: int) -> np.ndarray:
    """Row j: signed_values(sample_signs(seeds[j], x_max), x_max), for at most
    PACKED_SIGNS seeds, from one extension pass."""
    ps = primes_mod.cached_primes(max(x_max, 2)).upto(x_max)
    out = np.empty((len(seeds), x_max), dtype=np.int8)
    for j, lo, f in _signed_blocks(_packed(sign_matrix(seeds, ps) < 0), len(seeds), x_max):
        out[j, lo - 1 : lo - 1 + f.size] = f
    return out


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


def abel_weights(sigma: float, x: int) -> tuple[np.ndarray, np.ndarray]:
    """(n^(-sigma) for n = 1..x, and n^(-sigma) - (n+1)^(-sigma) for n = 1..x-1 computed
    cancellation-free): the weights of f and of M in `abel_identity_residual`."""
    power = np.arange(1, x + 1, dtype=np.float64) ** (-sigma)
    return power, power[:-1] * (-np.expm1(-sigma * np.log1p(1.0 / np.arange(1.0, x))))


def abel_identity_residual(f: np.ndarray, sigma: float, weights: tuple | None = None) -> float:
    """|sum_{n<=x} f(n) n^(-sigma) - M(x) x^(-sigma) - sigma * integral| for
    f = f(1..x) as `signed_values` returns it, with the integral of
    M(u) u^(-1-sigma) over [1, x] evaluated exactly piecewise.  `weights` is
    `abel_weights(sigma, x)`, computed here when not given.

    The identity is exact, so the value is floating-point noise.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    x = f.size
    power, steps = abel_weights(sigma, x) if weights is None else weights
    m = np.cumsum(f, dtype=np.int64)
    lhs = float(np.sum(f * power))
    boundary = float(m[-1]) * x ** (-sigma)
    if x == 1:
        return abs(lhs - boundary)
    integral = float(np.sum(m[:-1].astype(np.float64) * steps))
    return abs(lhs - boundary - integral)


def _basis_blocks(grid, logp, fn, rows: int, blocks) -> Iterator[tuple[int, np.ndarray]]:
    """The one prime-grid kernel: (start, ufunc fn of grid[start : start + rows] (x) logp) for
    each block index in `blocks`, built in place in one buffer that the next block
    overwrites.  Fixed block boundaries fix the bits of a block's BLAS products."""
    buf = np.empty((min(rows, grid.size), logp.size))
    for b in blocks:
        start = int(b) * rows
        block = grid[start : start + rows]
        out = buf[: block.size]
        yield start, fn(np.multiply.outer(block, logp, out=out), out=out)


def _degree(a: float, osc: bool, floor: float) -> tuple[int, float, float]:
    """(n, E, Lambda): the least degree n with (1 + Lambda) E <= floor.  E = min over rho of 4 M
    rho^-n / (rho - 1) bounds |f - p_n| / max|f| on [-1, 1] for f(x) = e^(z k r x), |k| r <= a,
    p_n its interpolant in n + 1 Chebyshev points, M = e^(a (rho - 1/rho) / 2) (osc) or e^(a
    ((rho + 1/rho) / 2 - 1)); Lambda bounds the Lebesgue constant (ATAP Thms 8.2, 15.2)."""
    rho = 1.0 + np.logspace(-3.0, 3.0, 241)
    log_m = a * ((rho - 1 / rho) / 2 if osc else (rho + 1 / rho) / 2 - 1) + np.log(4 / (rho - 1))
    for n in range(1, 2 * int(a) + 100):
        lam = 1.02 * (2 / np.pi * np.log(n + 1) + 1)
        e = float(np.exp(np.min(log_m - n * np.log(rho))))
        if (1.0 + lam) * e <= floor:
            break
    return n, e, lam


def _low_rank_grid(theta, coef, ks, osc: bool) -> tuple[np.ndarray, np.ndarray]:
    """(values, eps): values[i, s] ~ sum_p coef[p, s] e^(z ks[i] theta_p), z = i (osc) or 1,
    for real or complex (P, S) coef, and eps[s] >= its error on these float inputs.  With
    theta_p = c + r x_p, x_p in [-1, 1], the kernel is interpolated in n + 1 Chebyshev points
    x_j, so b_j = sum_p coef_p l_j(x_p) over a barycentric basis built in chunks of primes.
    Per unit of G sum_p |coef_p|, G >= |e^(z k theta)|, eps adds (1 + Lambda_n) E of _degree,
    n the least degree to bring it under gamma_{P+1}; the barycentric roundoff 2 alpha Lambda_n
    max|p_n|, alpha = gamma_{3n+6} (Higham, IMA J. Numer. Anal. 24, 2004); gamma_{P+1} and
    2 gamma_{n+3} for the sums; and the kernel at the nodes and the rounding of x_p."""
    lo, hi = (float(theta.min()), float(theta.max())) if theta.size else (0.0, 0.0)
    c, r = (lo + hi) / 2, (hi - lo) / 2
    kmax = float(np.max(np.abs(ks), initial=0.0))
    g = 1.0 if osc else float(np.exp(np.max(np.multiply.outer([ks.min(), ks.max()], [lo, hi]))))
    gam_p = (theta.size + 1) * _G * (2 if np.iscomplexobj(coef) else 1)
    n, interp, lam_n = _degree(kmax * r, osc, gam_p)
    x_j = np.sin(np.pi * np.arange(n, -n - 1, -2) / (2 * n))  # Chebyshev points, symmetric
    lam = 1.0 / np.prod(2.0 * np.subtract.outer(x_j, x_j) + np.eye(n + 1), axis=1)  # weights
    ab = coef.view(np.float64) if np.iscomplexobj(coef) else coef
    b = np.zeros((n + 1, ab.shape[1]))
    rows = max(1, _LOW_RANK_CELLS // (n + 1))
    buf = np.empty((n + 1, min(rows, theta.size)))
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(0, theta.size, rows):
            x = np.clip((theta[i : i + rows] - c) / (r or 1.0), -1.0, 1.0)
            q = np.subtract(x, x_j[:, None], out=buf[:, : x.size])
            s = lam @ np.divide(1.0, q, out=q)
            hit = np.flatnonzero(~np.isfinite(s))  # x_p on a node: l_j(x_p) = [x_j == x_p]
            q[:, hit] = np.isinf(q[:, hit]) / lam[:, None]
            s[hit] = 1.0
            b += q @ (ab[i : i + rows] / s[:, None])
    b = (b * lam[:, None]).view(coef.dtype)
    z_j, values = (c + r * x_j) * (1j if osc else 1), np.empty((ks.size, b.shape[1]), b.dtype)
    for i in range(0, ks.size, rows):  # values[i] = sum_j e^(z ks[i] theta_j) b_j
        values[i : i + rows] = np.exp(np.multiply.outer(ks[i : i + rows], z_j)) @ b
    alpha, node = (3 * n + 6) * _G, 1.01 * _U * (kmax * (2 * abs(c) + 3 * r) + (6 if osc else 9))
    bary = 2 * alpha * lam_n * (1 + interp) / (1 - alpha * lam_n)
    sums = (1 + node) * lam_n * (gam_p + 2 * (n + 3) * _G * (1 + gam_p))
    shift = 3.03 * _U * kmax * (r + abs(lo) + abs(hi))
    unit = (1 + lam_n) * interp + lam_n * node + bary + sums + shift
    return values, 1.01 * g * np.sum(np.abs(coef), axis=0) * unit


def _sup_scan_estimates(ts, logp, w, amp) -> tuple[np.ndarray, np.ndarray]:
    """(est, eps): est[0] the cos sum and est[1] log|F| = 0.5 sum_p log1p(x_p), x = 2 w c +
    amp^2, c = cos(t log p), at every t, each within eps[i, 0] of sup_scan's exact row.  On
    the centred grid t = t0 + m h, primes p <= _EXACT_LOG1P take the exact log1p of cells
    Re e^(i (t0 + (start - mid) h) log p) e^(i j h log p).  Above, one _low_rank_grid call in
    theta = h log p at k = m and 2 m gives the cos sum and 0.5 (x - x^2/2) = w (1 - amp^2) c -
    amp^2 cos(2 t log p) / 2 - amp^4 / 4, within sum |x|^3 / (3 (1 - |x|)) of log|F|.  eps adds
    the distance of an exact cell (rounding of t log p, np.cos at 2 ulps, the gap of ts from
    t0 + m h) and of an estimated cell or phase from cos(t log p) through Lipschitz bounds of
    log1p, np.log1p at 2 ulps, the rounding of x, and gamma_n sum_p |term_p| (Higham, ch. 3)."""
    h, mid = (ts[1] - ts[0] if ts.size > 1 else 0.0), (ts.size - 1) // 2
    m = np.arange(ts.size, dtype=np.float64) - mid
    aa, ns = amp * amp, int(np.searchsorted(logp, np.log(_EXACT_LOG1P)))
    est, jh = np.empty((2, ts.size)), np.multiply.outer(np.arange(_T_CHUNK) * h, logp[:ns])
    step_re, step_im = np.cos(jh), np.sin(jh)  # e^(i j h log p)
    for start in range(0, ts.size, _T_CHUNK):  # in place: fresh temporaries cost page faults
        base = np.exp(1j * (ts[mid] + (start - mid) * h) * logp[:ns])
        c = step_re[: ts.size - start] * base.real
        c -= step_im[: ts.size - start] * base.imag
        est[0, start : start + len(c)] = c @ w[:ns]
        c *= 2.0 * w[:ns]
        c += aa[:ns]
        est[1, start : start + len(c)] = 0.5 * np.sum(np.log1p(c, out=c), axis=1)
    big, turn = slice(ns, None), np.exp(1j * ts[mid] * logp[ns:])
    lin = w[big] * (1.0 - aa[big])
    coef = np.stack([w[big] * turn, lin * turn, -0.5 * aa[big] * turn * turn], axis=1)
    values, ev = _low_rank_grid(h * logp[big], coef, np.concatenate([m, 2 * m]), True)
    const = np.sum(aa[big] * aa[big]) / 4
    est[0] += values[: ts.size, 0].real
    est[1] += values[: ts.size, 1].real + values[ts.size :, 2].real - const
    tmax, theta = 1.01 * float(np.max(np.abs(ts))), float(np.max(logp, initial=0.0))
    gap = float(np.max(np.abs(ts - (ts[mid] + m * h)))) + 4 * _U * tmax
    cell = 4 * _U + _U * tmax * theta + theta * gap  # an exact cell against cos(t log p)
    phase = 5.05 * _U * tmax * theta + 17 * _U  # an estimated cell or coefficient phase
    a1 = amp * (1.0 + cell + phase)  # bounds |w c| on exact and estimated cells
    xb, lam, lip = 2.0 * a1 + aa, -2.02 * np.log1p(-a1), 1.01 / (1.0 - a1) ** 2
    gam = (amp.size + 8) * _G
    rest = np.sum(xb[big] ** 3 / (3.0 * (1.0 - xb[big])))  # log1p(x) - (x - x^2/2)
    eps_cos = np.sum(amp) * (cell + phase) + 2 * gam * np.sum(a1) + ev[0]
    eps_log = (rest / 2 + (cell + phase) * np.sum(amp * lip) + gam * np.sum(lam)
               + _U * np.sum(4 * lam + lip * (4 * a1 + 2 * aa))
               + (np.sum(np.abs(lin)) + np.sum(aa[big])) * phase
               + ev[1] + ev[2] + const * (gam + 3 * _U))
    return est, 1.01 * np.array([[eps_cos], [eps_log]])


def sup_scan_bytes(n_t: int, n_primes: int) -> int:
    """Bytes sup_scan allocates at most for n_t t rows over n_primes primes: 30 float64 values
    and a _T_CHUNK-row exact block per prime, 24 per t, six _LOW_RANK_CELLS buffers of the
    estimate and five _T_CHUNK-row tables of the primes up to _EXACT_LOG1P."""
    small = 5 * _T_CHUNK * min(n_primes, primes_mod.prime_count_bound(_EXACT_LOG1P))
    return 8 * ((30 + min(n_t, _T_CHUNK)) * n_primes + 24 * n_t + 6 * _LOW_RANK_CELLS + small)


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

    Grid maxima are lower bounds for the true suprema; ties go to the earliest t.  Only
    blocks with a row whose _sup_scan_estimates + eps reaches the best estimate - eps run the
    exact cos, and log1p only on such rows of log|F|: the maxima keep every row's bits.
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
    keep = ~(est + eps < np.max(est - eps, axis=1, keepdims=True))  # rows that may decide; NaN: all
    need = np.logical_or.reduceat(keep[0] | keep[1], np.arange(0, ts.size, _T_CHUNK))
    cos_vals, log_f = np.full((2, ts.size), -np.inf)  # rows outside `keep` decide nothing
    for start, c in _basis_blocks(ts, logp, np.cos, _T_CHUNK, np.flatnonzero(need)):
        cos_vals[start : start + len(c)] = c @ w
        rows = np.flatnonzero(keep[1, start : start + len(c)])  # log|1 + sign(p) p^(-sigma-it)|^2
        log_f[start + rows] = [0.5 * np.sum(np.log1p(c[i] * (2.0 * w) + amp * amp)) for i in rows]
    i = int(np.argmax(cos_vals))
    return SupScanResult(
        sup_cos=float(cos_vals[i]),
        argmax_t=float(ts[i]),
        sup_abs_f=float(np.exp(np.max(log_f))),
        grid_size=int(ts.size),
    )
