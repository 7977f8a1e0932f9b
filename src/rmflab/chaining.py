"""Dyadic chaining: the deterministic oscillation bound |f(s) - f(t)| <= 2 sum_{r > R} lambda_r
checked on the depth-r_max dyadic grid of an interval, the lambda_r^2 = 2 C1 r / 4^r schedule
with its chaining constant, and the empirical oscillation experiment max |P(sigma) - P(sigma_ell)|
over [sigma_ell, sigma_{ell-1}] at every ell from one sign hash and rmf low-rank estimates in log
p, all at the widest interval's degree, each streaming its basis.  Per ell, only the grid rows that
its estimate and derived bound cannot rule out are exact, each in its _GRID_CHUNK-row block's gemm:
a gemm row reads only its own input row, in an order the fixed block shape fixes, so no other row
changes a selected row.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import NamedTuple, Sequence

import numpy as np

from . import primes as primes_mod
from . import prime_series
from . import rmf as rmf_mod
from .rmf import _G, _U
from .sequences import StepParams, step_sigma_ell

_TAIL_REL_TOL = 1e-15  # the chaining constant's sum stops once a term falls below this share
_GRID_CHUNK = 256  # sigma-grid rows per oscillation block


@dataclass(frozen=True)
class LambdaSchedule:
    """Per-level oscillation allowance lambda_r with lambda_r^2 = 2 C1 r / 4^r."""

    c1: float = 4.0

    def __post_init__(self):
        if not self.c1 > 0:
            raise ValueError(f"C1 must be positive, got {self.c1}")

    def __call__(self, r: int) -> float:
        return sqrt(2.0 * self.c1 * r) / 2.0**r

    def chaining_constant(self) -> float:
        """2 sum_{r>=1} lambda_r = 2 sqrt(2 C1) sum sqrt(r)/2^r, summed until a
        term falls below _TAIL_REL_TOL of the running sum."""
        total = 0.0
        for r in range(1, 20000):
            term = self(r)
            total += term
            if term <= _TAIL_REL_TOL * total:
                break
        return 2.0 * total


OSCILLATION_SCHEDULE = LambdaSchedule(c1=4.0)  # the lambda_r of the oscillation experiment


class ChainingReport(NamedTuple):
    hypothesis_holds: bool
    conclusion_holds: bool
    first_hypothesis_violation_r: int | None
    max_conclusion_excess: float


def _first_violations(grid_values: np.ndarray, lambdas: np.ndarray) -> list[int | None]:
    """Per column of `grid_values` (f on the depth-r_max grid down axis 0), the
    first level r whose largest increment exceeds lambdas[r-1], or None; NaN rows are skipped."""
    r_max = lambdas.size
    first: list[int | None] = [None] * grid_values.shape[1]
    for r in range(1, r_max + 1):
        level = grid_values[:: 2 ** (r_max - r)]
        inc = np.fmax.reduce(np.abs(np.diff(level, axis=0)), axis=0)
        for j in np.flatnonzero(inc > lambdas[r - 1]):
            if first[j] is None:
                first[j] = r
    return first


def verify_chaining(values: np.ndarray, lambdas: Sequence[float]) -> ChainingReport:
    """Finite instantiation of the dyadic oscillation bound.

    `values` are f on the depth-r_max grid over any interval (length 2^r_max + 1);
    `lambdas[r-1]` is the allowance at level r.  The hypothesis is checked at
    every level; the conclusion |f(s)-f(t)| <= 2 sum_{r>R} lambda_r is checked
    for every pair of grid points in one array pass, so memory is quadratic
    in the grid size.  Beyond r_max the schedule is extended
    geometrically (lambda_{r_max} / 2^(r - r_max)), which is exact for
    functions affine on each finest cell.
    """
    values = np.asarray(values, dtype=np.float64)
    r_max = len(lambdas)
    if values.size != 2**r_max + 1:
        raise ValueError(f"need 2^{r_max}+1 values, got {values.size}")
    lambdas = np.asarray(lambdas, dtype=np.float64)

    first_violation = _first_violations(values[:, None], lambdas)[0]

    # suffix[i] = sum of lambda over levels i+1 .. r_max, so the finite part
    # of bound(R) = 2 * (lambda_{R+1} + .. + lambda_{r_max}) is 2 * suffix[R].
    suffix = np.zeros(r_max + 1)
    suffix[:-1] = np.cumsum(lambdas[::-1])[::-1]

    # Points d = j - i grid steps apart lie exactly d / 2^r_max of the interval apart, so
    # 2^(r_max-R-1) < d <= 2^(r_max-R) fixes R = r_max - ceil(log2 d) without
    # rounding; the geometric extension adds lambda_{r_max} to every bound.
    i, j = np.triu_indices(values.size, 1)
    bound = 2.0 * (suffix[r_max - np.frexp(j - i - 1)[1]] + lambdas[-1])  # frexp: bit length
    excess = float(np.max(np.abs(values[j] - values[i]) - bound))
    return ChainingReport(
        hypothesis_holds=first_violation is None,
        conclusion_holds=bool(excess <= 0.0),
        first_hypothesis_violation_r=first_violation,
        max_conclusion_excess=excess,
    )


class OscillationResult(NamedTuple):
    seed: int
    ell: int
    sigma_ell: float
    max_osc: float
    paper_c: float
    first_violation_r: int | None
    truncation_std: float


def check_grid(ells: Sequence[int], r_max: int, n_seeds: int, limit: int) -> int:
    """Raise ValueError unless every ell is >= 2 and r_max lies in [1, 30], and ResourceLimitError
    unless memory holds the bytes oscillation_batch allocates, returned: 4 n_seeds + 4 float64 per
    grid row, 3 n_seeds + 9 + _GRID_CHUNK per prime, _hash_tile_bytes and two _LOW_RANK_CELLS
    buffers, one for a chunk of the streamed basis and then two for the estimate's kernel."""
    if any(ell < 2 for ell in ells):
        raise ValueError(f"ell must be >= 2, got {min(ells)}")
    if not 1 <= r_max <= 30:
        raise ValueError(f"r_max must lie in [1, 30], got {r_max}")
    n_primes = primes_mod.prime_count_bound(limit)
    rows = (2**r_max + 1) * (4 * n_seeds + 4) + 2 * rmf_mod._LOW_RANK_CELLS
    need = rmf_mod._hash_tile_bytes(n_seeds, n_primes)
    need += 8 * (rows + n_primes * (3 * n_seeds + 9 + _GRID_CHUNK))
    primes_mod.check_memory(need, f"r_max={r_max}, {n_seeds} seeds")
    return need


def _grid_estimate(estimate, weights, dsig: np.ndarray, amp: np.ndarray, logp: np.ndarray):
    """(approx, eps): sum_p w_p p^(-d) at each d >= 0 of rising `dsig` by rmf's low-rank `estimate`
    in log p, and per seed a bound on its distance to every exact row: its eps at k = -d, sum |w_p|
    = sum amp_p; (-d) log p's rounding, exp to 4 ulps, gamma_P for the gemm; 4 u for comparisons."""
    scale = np.full(weights.shape[1], np.sum(amp))
    approx, eps = estimate(weights, -dsig, scale)
    kernel = np.expm1(_G * float(dsig[-1] * np.max(logp, initial=0.0))) + 9 * _U
    return approx, eps + scale * (kernel + amp.size * _G * (1 + kernel) + 4 * _U)


def _rows_to_recompute(approx: np.ndarray, eps: np.ndarray, lambdas: np.ndarray) -> np.ndarray:
    """Row 0 and the rows within 4 eps of a seed's largest |approx_i - approx_0|
    or at an endpoint of a level-r increment within 4 eps of exceeding lambda_r:
    with approx within eps of the exact rows, no other row decides max_osc or a
    first violation.  NaN or inf in approx or eps selects every row."""
    osc = np.abs(approx - approx[0])
    need = ~np.all(osc < osc.max(axis=0) - 4.0 * eps, axis=1)
    del osc
    for r in range(1, lambdas.size + 1):
        stride = 2 ** (lambdas.size - r)
        inc = np.abs(np.diff(approx[::stride], axis=0))
        close = ~np.all(inc < lambdas[r - 1] - 4.0 * eps, axis=1)
        need[:-1:stride] |= close
        need[stride::stride] |= close
    need[0] = True
    return np.flatnonzero(need)


def oscillation_batch(
    seeds: Sequence[int],
    ells: Sequence[int],
    step: StepParams,
    r_max: int,
    limit: int,
) -> list[OscillationResult]:
    """max over the depth-r_max dyadic grid of |P(sigma) - P(sigma_ell)| at every ell, with
    P truncated at the primes <= `limit`, against the chaining constant of OSCILLATION_SCHEDULE,
    for many seeds: one sign hash and one _low_rank degree serve every ell, whose estimate streams
    its basis in chunks of primes, and one grid evaluation serves every seed.

    Seeds are Python ints of any sign; results report them as given, ell by ell."""
    check_grid(ells, r_max, len(seeds), limit)
    ps = primes_mod.cached_primes(limit)
    p = ps.astype(np.float64)
    logp = np.log(p)
    weights = rmf_mod.sign_matrix(seeds, ps).T  # (P, seeds) +-1.0, signed per ell in place
    n_grid = 2**r_max + 1
    frac = np.arange(n_grid, dtype=np.float64) / (2.0**r_max)
    lambdas = np.array([OSCILLATION_SCHEDULE(r) for r in range(1, r_max + 1)])
    paper_c = OSCILLATION_SCHEDULE.chaining_constant()
    gap = max((step_sigma_ell(e - 1, step) - step_sigma_ell(e, step) for e in ells), default=0)
    estimate = rmf_mod._low_rank(logp, gap, False, False)  # one degree for every ell
    results = []
    for ell in ells:
        s_ell, s_prev = step_sigma_ell(ell, step), step_sigma_ell(ell - 1, step)
        np.copysign((amp := p ** (-s_ell))[:, None], weights, out=weights)  # +-1.0 * p^-s
        dsig = frac * (s_prev - s_ell)
        rows = _rows_to_recompute(*_grid_estimate(estimate, weights, dsig, amp, logp), lambdas)
        p_vals = np.full((n_grid, weights.shape[1]), np.nan)  # rows outside `rows` decide nothing
        # zeroed once per ell: untouched pages stay free
        block = np.zeros((min(_GRID_CHUNK, n_grid), ps.size))
        chunk = rows // _GRID_CHUNK  # rows is sorted: a chunk starts where chunk changes
        for start in chunk[np.diff(chunk, prepend=-1) != 0] * _GRID_CHUNK:
            at = rows[(rows >= start) & (rows < start + _GRID_CHUNK)] - start
            for i in at:  # (-d) log p == -(d log p) exactly
                np.exp(np.multiply(-dsig[start + i], logp, out=block[i]), out=block[i])
            p_vals[start + at] = (block[: n_grid - start] @ weights)[at]
        max_osc = np.fmax.reduce(np.abs(p_vals - p_vals[0]), axis=0)
        first_violation = _first_violations(p_vals, lambdas)
        del block, p_vals  # one ell's grid at a time
        trunc_std = float("inf")  # where sigma underflowed to the divergence boundary
        if s_ell > 0.5:
            trunc_std = sqrt(prime_series.prime_power_tail_bound(2 * s_ell, limit, ps.size))
        results += [OscillationResult(seed, ell, s_ell, float(osc), paper_c, first, trunc_std)
                    for seed, osc, first in zip(seeds, max_osc, first_violation)]
    return results
