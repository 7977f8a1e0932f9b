"""Explicit parameter sequences and nested-log arithmetic.

sigma_k = 1/2 + exp(-exp(k^c)) shrinks so fast that the interval endpoints
X_k = exp((sigma_k - 1/2)^-2) and y_k are triple-exponential; they are never
materialized as plain floats.  NestedLogReal stores log^(depth) of the value
(mpmath mantissa, so even loglog X_20 = 2 exp(8000) stays representable) and
compares by normalizing to a common depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import mpmath as mp

Real = Union[int, float, mp.mpf]


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


@dataclass(frozen=True)
class NestedLogReal:
    """A real x stored as mantissa = log^(depth)(x), depth in {0, 1, 2}.

    Depth-2 values must have positive mantissa.  Comparisons form a total
    order consistent with comparing the underlying reals.
    """

    depth: int
    mantissa: mp.mpf

    def __post_init__(self):
        if self.depth not in (0, 1, 2):
            raise ValueError(f"depth must be 0, 1 or 2, got {self.depth}")
        object.__setattr__(self, "mantissa", mp.mpf(self.mantissa))
        if self.depth == 2 and not self.mantissa > 0:
            raise ValueError("depth-2 values require a positive mantissa")

    @classmethod
    def from_real(cls, x: Real) -> "NestedLogReal":
        return cls(0, mp.mpf(x))

    @classmethod
    def from_log(cls, log_x: Real) -> "NestedLogReal":
        return cls(1, mp.mpf(log_x))

    @classmethod
    def from_loglog(cls, loglog_x: Real) -> "NestedLogReal":
        return cls(2, mp.mpf(loglog_x))

    def _key(self) -> tuple[int, mp.mpf]:
        """Monotone comparison key: (class, payload).

        class -1: x <= 0 (payload x); class 0: 0 < x <= e (payload log x);
        class 2: x > e (payload loglog x).  All payloads stay in mpf range.
        """
        d, m = self.depth, self.mantissa
        if d == 0:
            if m <= 0:
                return (-1, m)
            d, m = 1, mp.log(m)
        if d == 1:
            if m <= 1:
                return (0, m)
            d, m = 2, mp.log(m)
        return (2, m) if m > 0 else (0, mp.exp(m))

    def to_float(self) -> float:
        d, m = self.depth, self.mantissa
        for _ in range(d):
            m = mp.exp(m)
        return float(m)

    def _cmp(self, other: "NestedLogReal") -> int:
        ka, kb = self._key(), other._key()
        if ka[0] != kb[0]:
            return -1 if ka[0] < kb[0] else 1
        if ka[1] == kb[1]:
            return 0
        return -1 if ka[1] < kb[1] else 1

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        return isinstance(other, NestedLogReal) and self._cmp(other) == 0

    def __repr__(self):
        return f"NestedLogReal(depth={self.depth}, mantissa={mp.nstr(self.mantissa, 12)})"


@dataclass(frozen=True)
class SigmaK:
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
    kc = float(k) ** params.c
    log_inv_gap = float("inf") if kc > 709.0 else float(mp.exp(kc))
    gap = 0.0
    if log_inv_gap < 746.0:
        gap = float(mp.exp(-mp.exp(kc)))
    return SigmaK(sigma=0.5 + gap, log_inv_gap=log_inv_gap, underflow=(gap == 0.0))


def interval_endpoints(k: int, params: TheoremParams) -> tuple[NestedLogReal, NestedLogReal]:
    """(y_k, X_k) where loglog X_k = 2 exp(k^c) and
    loglog y_k = A0 exp(k^c) - A1 k^c (depth-1 fallback when nonpositive)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    kc = mp.mpf(k) ** params.c
    e_kc = mp.exp(kc)
    loglog_x = 2 * e_kc
    loglog_y = params.a0 * e_kc - params.a1 * kc
    x_k = NestedLogReal.from_loglog(loglog_x)
    if loglog_y > 0:
        y_k = NestedLogReal.from_loglog(loglog_y)
    else:
        y_k = NestedLogReal.from_log(mp.exp(loglog_y))
    return y_k, x_k


def intervals_disjoint(k: int, params: TheoremParams) -> bool:
    """True iff X_k < y_{k+1} under nested-log comparison."""
    _, x_k = interval_endpoints(k, params)
    y_next, _ = interval_endpoints(k + 1, params)
    return x_k < y_next


@dataclass(frozen=True)
class StepSigma:
    sigma: float
    log_inv_two_gap: float  # log(1/(2 sigma - 1)) = ell^(1-delta)


def step_sigma_ell(ell: int, step: StepParams) -> StepSigma:
    """sigma_ell = 1/2 + 1/(2 exp(ell^(1-delta))) with its exact side value."""
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    exponent = float(ell) ** (1.0 - step.delta)
    gap = 0.0 if exponent > 745.0 else 0.5 * float(mp.exp(-mp.mpf(exponent)))
    return StepSigma(sigma=0.5 + gap, log_inv_two_gap=exponent)


@dataclass(frozen=True)
class SubtractionScan:
    ell1: int | None
    holds_at_ell_max: bool
    failures: int


def subtraction_bound_scan(step: StepParams, ell_max: int) -> SubtractionScan:
    """Smallest ell1 with sigma_{ell-1} - sigma_ell <= (2 sigma_ell - 1)/ell^delta
    for every ell in [ell1, ell_max].

    The difference is evaluated through the cancellation-safe form
    (1/2) e^(-ell^(1-delta)) expm1(Delta) with Delta = ell^(1-delta) - (ell-1)^(1-delta),
    so the test reduces to expm1(Delta)/2 <= ell^(-delta), stable at any ell.
    """
    if ell_max < 2:
        raise ValueError(f"ell_max must be >= 2, got {ell_max}")
    import numpy as np

    beta = 1.0 - step.delta
    ell = np.arange(2, ell_max + 1, dtype=np.float64)
    # Delta = ell^beta - (ell-1)^beta, computed without subtractive cancellation.
    delta_exp = ell**beta * (-np.expm1(beta * np.log1p(-1.0 / ell)))
    lhs = 0.5 * np.expm1(delta_exp)
    rhs = ell ** (-step.delta)
    ok = lhs <= rhs
    failures = int(np.count_nonzero(~ok))
    if not ok[-1]:
        return SubtractionScan(ell1=None, holds_at_ell_max=False, failures=failures)
    bad = np.flatnonzero(~ok)
    ell1 = 2 if bad.size == 0 else int(ell[bad[-1]]) + 1
    return SubtractionScan(ell1=ell1, holds_at_ell_max=True, failures=failures)


@dataclass(frozen=True)
class HarperBound:
    lower: float  # L(sigma) = C0 log(1/(sigma-1/2)) - C1 loglog(1/(sigma-1/2)) + C2
    t_max: float  # T(sigma) = 2 log^2(1/(sigma - 1/2))


def harper_lower_bound(
    sigma: float, c0: float, c1: float, c2: float, log_inv_gap: float | None = None
) -> HarperBound:
    """Predicted growth: sup_t |F(sigma+it)| >= exp(L) over t in [1, T].

    `log_inv_gap` may be supplied to avoid cancellation when sigma is
    extremely close to 1/2 (it equals log(1/(sigma - 1/2)) exactly).
    """
    if not 0 < c0 < 0.5:
        raise ValueError(f"C0 must lie in (0, 1/2), got {c0}")
    if not c1 > 1:
        raise ValueError(f"C1 must exceed 1, got {c1}")
    if not -1.765 < c2 < -1.419:
        raise ValueError(f"C2 must lie in (-1.765, -1.419), got {c2}")
    if log_inv_gap is None:
        if not sigma > 0.5:
            raise ValueError(f"sigma must exceed 1/2, got {sigma}")
        log_inv_gap = float(mp.log(1.0 / (mp.mpf(sigma) - mp.mpf(0.5))))
    if log_inv_gap <= 0.0:
        raise ValueError("log(1/(sigma-1/2)) must be positive (sigma < 3/2)")
    lower = c0 * log_inv_gap - c1 * float(mp.log(log_inv_gap)) + c2
    return HarperBound(lower=lower, t_max=2.0 * log_inv_gap**2)
