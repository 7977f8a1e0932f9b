"""Dyadic chaining: the deterministic oscillation bound |f(s) - f(t)| <=
2 sum_{r > R} lambda_r checked on the depth-r_max dyadic grid of an interval,
the lambda_r^2 = 2 C1 r / 4^r schedule with its chaining constant, and the
empirical oscillation experiment max |P(sigma) - P(sigma_ell)| over
[sigma_ell, sigma_{ell-1}].
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Sequence

import numpy as np

from . import primes as primes_mod
from . import prime_series
from . import rmf as rmf_mod
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


@dataclass(frozen=True)
class ChainingReport:
    hypothesis_holds: bool
    conclusion_holds: bool
    first_hypothesis_violation_r: int | None
    max_conclusion_excess: float


def _first_violations(grid_values: np.ndarray, lambdas: np.ndarray) -> list[int | None]:
    """Per column of `grid_values` (f on the depth-r_max grid down axis 0), the
    first level r whose largest increment exceeds lambdas[r-1], or None."""
    r_max = lambdas.size
    first: list[int | None] = [None] * grid_values.shape[1]
    for r in range(1, r_max + 1):
        level = grid_values[:: 2 ** (r_max - r)]
        inc = np.max(np.abs(np.diff(level, axis=0)), axis=0)
        for j in np.flatnonzero(inc > lambdas[r - 1]):
            if first[j] is None:
                first[j] = r
    return first


def verify_chaining(
    values: np.ndarray, a: float, b: float, lambdas: Sequence[float]
) -> ChainingReport:
    """Finite instantiation of the dyadic oscillation bound.

    `values` are f on the depth-r_max grid over [a, b] (length 2^r_max + 1);
    `lambdas[r-1]` is the allowance at level r.  The hypothesis is checked at
    every level; the conclusion |f(s)-f(t)| <= 2 sum_{r>R} lambda_r is checked
    for every pair of grid points.  Beyond r_max the schedule is extended
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

    # Points d grid steps apart lie exactly d (b-a)/2^r_max apart, so
    # 2^(r_max-R-1) < d <= 2^(r_max-R) fixes R = r_max - ceil(log2 d) without
    # rounding; the geometric extension adds lambda_{r_max} to every bound.
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
class OscillationResult:
    seed: int
    ell: int
    sigma_ell: float
    sigma_prev: float
    max_osc: float
    paper_c: float
    first_violation_r: int | None
    truncation_std: float
    limit: int
    r_max: int


def check_grid(ells: Sequence[int], r_max: int) -> None:
    """Raise ValueError unless every ell is >= 2 and r_max lies in [1, 30]."""
    if any(ell < 2 for ell in ells):
        raise ValueError(f"ell must be >= 2, got {min(ells)}")
    if not 1 <= r_max <= 30:
        raise ValueError(f"r_max must lie in [1, 30], got {r_max}")


def oscillation_batch(
    seeds: Sequence[int],
    ell: int,
    step: StepParams,
    r_max: int = 12,
    limit: int = 10**6,
) -> list[OscillationResult]:
    """max over the depth-r_max dyadic grid of |P(sigma) - P(sigma_ell)| with
    P truncated at the primes <= `limit`, against the chaining constant of
    OSCILLATION_SCHEDULE, for many seeds sharing one grid evaluation.

    Seeds are Python ints of any sign; results report them as given."""
    check_grid([ell], r_max)
    s_ell = step_sigma_ell(ell, step)
    s_prev = step_sigma_ell(ell - 1, step)

    ps = primes_mod.cached_primes(limit).primes
    sign_rows = rmf_mod.sign_matrix(seeds, ps)
    p = ps.astype(np.float64)
    logp = np.log(p)
    base = p ** (-s_ell)
    weights = (sign_rows.astype(np.float64) * base).T  # (P, n_seeds)

    n_grid = 2**r_max + 1
    frac = np.arange(n_grid, dtype=np.float64) / (2.0**r_max)
    dsig = frac * (s_prev - s_ell)
    p_vals = np.empty((n_grid, weights.shape[1]))
    for start in range(0, n_grid, _GRID_CHUNK):
        block = dsig[start : start + _GRID_CHUNK]
        p_vals[start : start + block.size] = np.exp(-np.outer(block, logp)) @ weights

    osc = np.abs(p_vals - p_vals[0])
    max_osc = osc.max(axis=0)

    lambdas = np.array([OSCILLATION_SCHEDULE(r) for r in range(1, r_max + 1)])
    first_violation = _first_violations(p_vals, lambdas)

    paper_c = OSCILLATION_SCHEDULE.chaining_constant()
    if s_ell > 0.5:
        tail_var = prime_series.prime_power_tail_bound(2.0 * s_ell, limit, pi_cut=ps.size)
        trunc_std = sqrt(tail_var)
    else:
        trunc_std = float("inf")  # sigma underflowed to the divergence boundary
    return [
        OscillationResult(
            seed=seed,
            ell=ell,
            sigma_ell=s_ell,
            sigma_prev=s_prev,
            max_osc=float(max_osc[j]),
            paper_c=paper_c,
            first_violation_r=first_violation[j],
            truncation_std=trunc_std,
            limit=limit,
            r_max=r_max,
        )
        for j, seed in enumerate(seeds)
    ]
