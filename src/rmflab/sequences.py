"""Explicit parameter sequences at nested-log scale.

sigma_k = 1/2 + exp(-exp(k^c)) shrinks so fast that the interval endpoints
X_k = exp((sigma_k - 1/2)^-2) and y_k are triple-exponential; they are never
materialized as plain floats.  Each endpoint is its loglog value, an mpmath
mpf (so even loglog X_20 = 2 exp(8000) stays representable); both endpoints
exceed 1, where loglog is increasing, so comparing loglogs compares endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import log, log2
from typing import NamedTuple

import mpmath as mp
import numpy as np

TABLE_BITS = 2048  # the most bits of (k_max + 1)^c in a table: e^(k^c) stays in mpmath's range


@dataclass(frozen=True)
class TheoremParams:
    """Sequence parameters: c > 2, A0 in (0, 1/6), A1 > 1."""

    c: float = 3.0
    a0: float = 0.1
    a1: float = 1.1

    def __post_init__(self):
        if not self.c > 2:
            raise ValueError(f"c must exceed 2, got {self.c}")
        if not 0 < self.a0 < 1 / 6:
            raise ValueError(f"A0 must lie in (0, 1/6), got {self.a0}")
        if not self.a1 > 1:
            raise ValueError(f"A1 must exceed 1, got {self.a1}")


@dataclass(frozen=True)
class StepParams:
    """Exponent parameters: epsilon in (0, 2) with delta = epsilon / 2."""

    epsilon: float
    delta: float = field(init=False)

    def __post_init__(self):
        if not 0 < self.epsilon < 2:
            raise ValueError(f"epsilon must lie in (0, 2), got {self.epsilon}")
        object.__setattr__(self, "delta", self.epsilon / 2.0)

    @classmethod
    def from_delta(cls, delta: float) -> "StepParams":
        return cls(epsilon=2.0 * delta)


class SigmaK(NamedTuple):
    sigma: float
    log_inv_gap: float  # log(1/(sigma - 1/2)) = exp(k^c), exact side value
    underflow: bool


def sigma_k(k: int, params: TheoremParams) -> SigmaK:
    """sigma_k = 1/2 + exp(-exp(k^c)), with the cancellation-free side value
    log(1/(sigma_k - 1/2)) = exp(k^c).

    The gap underflows to zero float already for modest k; the boundary value
    1/2 is then returned with the underflow flag set (never an exception).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    kc = float(k) ** params.c if params.c * log(k) < 700.0 else float("inf")  # k^c > e^700 > 709
    log_inv_gap = float("inf") if kc > 709.0 else float(mp.exp(kc))
    gap = 0.0
    if log_inv_gap < 746.0:
        gap = float(mp.exp(-mp.exp(kc)))
    return SigmaK(sigma=0.5 + gap, log_inv_gap=log_inv_gap, underflow=(gap == 0.0))


def interval_endpoints(k: int, params: TheoremParams) -> tuple[mp.mpf, mp.mpf]:
    """(loglog y_k, loglog X_k) with loglog y_k = A0 exp(k^c) - A1 k^c and
    loglog X_k = 2 exp(k^c).  loglog y_k may be nonpositive (then y_k <= e)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    kc = mp.mpf(k) ** params.c
    e_kc = mp.exp(kc)  # mpmath shifts a Python int by about k^c bits: see table_need
    return params.a0 * e_kc - params.a1 * kc, 2 * e_kc


def table_need(k_max: int, params: TheoremParams) -> None:
    """Refuse a table to k_max whose last power (k_max + 1)^c has over TABLE_BITS bits, or whose
    k_max rows at b = c log2(k_max + 1) bits of k^c take over 10 s at 1e-4 + 3e-8 b^2 s a
    row (on a 2.0 GHz Xeon a row printed in 0.1 ms at 43 bits, 20 ms at 1,100, 0.1 s at 2,047)."""
    bits = params.c * log2(k_max + 1)
    if bits > TABLE_BITS:
        raise ValueError(f"(k_max + 1)^c = {k_max + 1}^{params.c} has more than {TABLE_BITS} bits")
    if k_max * (1e-4 + 3e-8 * bits * bits) > 10.0:
        raise ValueError(f"{k_max} rows at c = {params.c} would take over 10 s")


def interval_rows(k_max: int, params: TheoremParams) -> list[tuple[int, mp.mpf, mp.mpf, bool]]:
    """(k, loglog y_k, loglog X_k, X_k < y_{k+1}) for k = 1..k_max, once table_need passes: each
    row computes one new endpoint pair, as the pair for k + 1 is row k + 1's own."""
    table_need(k_max, params)
    pairs = [interval_endpoints(k, params) for k in range(1, k_max + 2)]
    return [(k, *pairs[k - 1], pairs[k - 1][1] < pairs[k][0]) for k in range(1, k_max + 1)]


def step_sigma_ell(ell: int, step: StepParams) -> float:
    """sigma_ell = 1/2 + 1/(2 exp(ell^(1-delta)))."""
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    exponent = float(ell) ** (1.0 - step.delta)
    gap = 0.0 if exponent > 745.0 else 0.5 * float(mp.exp(-mp.mpf(exponent)))
    return 0.5 + gap


def subtraction_bound_scan(step: StepParams, ell_max: int) -> int | None:
    """Smallest ell1 with sigma_{ell-1} - sigma_ell <= (2 sigma_ell - 1)/ell^delta
    for every ell in [ell1, ell_max], or None if the inequality fails at ell_max.

    The difference is evaluated through the cancellation-safe form
    (1/2) e^(-ell^(1-delta)) expm1(Delta) with Delta = ell^(1-delta) - (ell-1)^(1-delta),
    so the test reduces to expm1(Delta)/2 <= ell^(-delta), stable at any ell.
    """
    if ell_max < 2:
        raise ValueError(f"ell_max must be >= 2, got {ell_max}")
    beta = 1.0 - step.delta
    ell = np.arange(2, ell_max + 1, dtype=np.float64)
    # Delta = ell^beta - (ell-1)^beta, computed without subtractive cancellation.
    delta_exp = ell**beta * (-np.expm1(beta * np.log1p(-1.0 / ell)))
    lhs = 0.5 * np.expm1(delta_exp)
    rhs = ell ** (-step.delta)
    ok = lhs <= rhs
    if not ok[-1]:
        return None
    bad = np.flatnonzero(~ok)
    return 2 if bad.size == 0 else int(ell[bad[-1]]) + 1


class HarperBound(NamedTuple):
    lower: float  # L(sigma) = C0 log(1/(sigma-1/2)) - C1 loglog(1/(sigma-1/2)) + C2
    t_max: float  # T(sigma) = 2 log^2(1/(sigma - 1/2))
    log_inv_gap: float  # log(1/(sigma - 1/2)), with sigma - 1/2 exact in mpmath


def harper_lower_bound(sigma: float, c0: float, c1: float, c2: float) -> HarperBound:
    """Predicted growth: sup_t |F(sigma+it)| >= exp(L) over t in [1, T], for sigma in (1/2, 3/2),
    where log(1/(sigma - 1/2)) is positive; sigma is refused before its log is taken."""
    if not 0 < c0 < 0.5:
        raise ValueError(f"C0 must lie in (0, 1/2), got {c0}")
    if not c1 > 1:
        raise ValueError(f"C1 must exceed 1, got {c1}")
    if not -1.765 < c2 < -1.419:
        raise ValueError(f"C2 must lie in (-1.765, -1.419), got {c2}")
    if not 0.5 < sigma < 1.5:
        raise ValueError(f"sigma must lie in (1/2, 3/2), got {sigma}")
    log_inv_gap = float(mp.log(1.0 / (mp.mpf(sigma) - 0.5)))
    lower = c0 * log_inv_gap - c1 * float(mp.log(log_inv_gap)) + c2
    return HarperBound(lower=lower, t_max=2.0 * log_inv_gap**2, log_inv_gap=log_inv_gap)
