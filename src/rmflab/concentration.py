"""Tail bounds and Monte Carlo concentration experiments.

Hoeffding's inequality for +-1-weighted sums, the step-2 exceedance table
(empirical tail frequencies over per-trial seeds derived from a base seed,
against their Hoeffding bounds), and partial sums of the summable bound
series that feed Borel-Cantelli.
"""

from __future__ import annotations

from math import exp, fsum, log, sqrt
from typing import NamedTuple

import mpmath as mp
import numpy as np

from . import prime_series
from . import rmf as rmf_mod
from .sequences import StepParams, step_sigma_ell

MIN_TRIALS = 100  # fewest Monte Carlo trials a step-2 exceedance table accepts
BIGTERM_TERMS = 300  # terms of the bigterm partial sum; its tail is summed in closed form
# Step 2's largest gamma: E < sum_(p < 2^63) 1/p < 4.04 (Rosser and Schoenfeld, Thm 5) and
# epsilon < 2 keep 2 (1 + gamma) E^epsilon, and beta = (1 - epsilon / 2) epsilon <= 1/2 the
# series' (1 + gamma) ell^beta for ell <= 800, below 33 (1 + gamma).
MAX_GAMMA = float(np.finfo(np.float64).max) / 33


def hoeffding_bound(sum_sq_coeffs: float, lam: float) -> float:
    """One-sided bound exp(-lam^2 / (2 sum a_p^2)) for P(sum a_p eps_p >= lam)
    with independent symmetric +-1 signs; double it for the two-sided event."""
    if not sum_sq_coeffs > 0:
        raise ValueError(f"sum of squared coefficients must be positive, got {sum_sq_coeffs}")
    if lam < 0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    return exp(-(lam * lam) / (2.0 * sum_sq_coeffs))


class BorelCantelliPartial(NamedTuple):
    partial_sum: float
    tail_estimate: float


def borel_cantelli_step2(terms: int, gamma: float, step: StepParams) -> BorelCantelliPartial:
    """Partial sum of exp(-(1+gamma) l^((1-delta) epsilon)) over l = 1..terms,
    with the tail bounded by the integral of exp(-(1+gamma) t^beta) from
    `terms` on (incomplete gamma closed form)."""
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    if not gamma > 0:
        raise ValueError("step2 series needs gamma > 0")
    a = 1.0 + gamma
    beta = (1.0 - step.delta) * step.epsilon
    ell_grid = np.arange(1, terms + 1, dtype=np.float64)
    # fsum keeps the partial sums exactly Cauchy against the tail estimate.
    partial = fsum(np.exp(-a * ell_grid**beta))
    # Integral tail: (1/(beta a^(1/beta))) Gamma(1/beta, a * terms^beta).
    inv_beta = 1.0 / beta
    upper_gamma = mp.gammainc(inv_beta, a * mp.mpf(terms) ** beta, mp.inf)
    tail = float(upper_gamma / (beta * mp.mpf(a) ** inv_beta))
    return BorelCantelliPartial(partial_sum=partial, tail_estimate=tail)


def borel_cantelli_bigterm(step: StepParams, ell: int) -> bool:
    """Whether twice the geometric sum of q^r over r >= 1, q = exp(-ell^(2 delta) + log 2) (the
    lambda_r schedule makes C1 cancel), summed to BIGTERM_TERMS with its tail in closed form, meets
    the closed bound 16 exp(-ell^(2 delta)), and q <= 3/4, the ratio condition it reduces to."""
    if ell < 1:
        raise ValueError("bigterm series needs ell >= 1")
    x = float(ell) ** (2.0 * step.delta)
    log_q = -x + log(2.0)
    q = exp(log_q)
    r = np.arange(1, BIGTERM_TERMS + 1, dtype=np.float64)
    partial = fsum(np.exp(log_q * r))
    tail = 0.0 if q == 0.0 else q ** (BIGTERM_TERMS + 1) / (1.0 - q)
    # 2 * q/(1-q) <= 8 q = 16 e^-x  <=>  q <= 3/4; compare in log space.
    return bool(log_q <= log(0.75) and 2.0 * (partial + tail) <= 16.0 * exp(-x))


class Step2Row(NamedTuple):
    ell: int
    sigma: float
    variance_trunc: float
    variance_deficit: float
    threshold: float
    empirical_freq: float
    std_err: float
    hoeffding_bound: float
    asymptotic_surrogate: float


def step2_need(gamma: float, trials: int, ell_range: range, prime_limit: int) -> list[int]:
    """The ells of ell_range once 0 < gamma <= MAX_GAMMA, trials >= MIN_TRIALS, the range is
    non-empty and >= 1, and memory holds the step-2 sums of `trials` seeds at each over the primes
    <= prime_limit.  The range's least item and length come from its ends: nothing is listed
    before memory is checked, and a range too long for len() is refused by its memory."""
    if not 0 < gamma <= MAX_GAMMA:
        raise ValueError(f"gamma must lie in (0, {MAX_GAMMA!r}], got {gamma}")
    if trials < MIN_TRIALS:
        raise ValueError(f"need at least {MIN_TRIALS} trials, got {trials}")
    if not ell_range or min(ell_range[0], ell_range[-1]) < 1:
        raise ValueError(f"ells must be a non-empty range of integers >= 1, got {ell_range}")
    n_ells = (ell_range[-1] - ell_range[0]) // ell_range.step + 1
    rmf_mod.prime_sum_need(trials, prime_limit, n_ells)
    return list(ell_range)


def step2_experiment(step: StepParams, gamma: float, ell_range: range, trials: int,
                     prime_limit: int, base_seed: int) -> list[Step2Row]:
    """Exceedance table for the normalized truncated prime sums at sigma_ell.

    Per row: the trigger threshold sqrt(2 (1+gamma) E^epsilon) with E the truncated variance,
    the Monte Carlo exceedance frequency of the normalized sum (rmf.prime_sum_exceedances'
    exact count over the trials, each hashed once for every ell), the matching Hoeffding bound
    exp(-(1+gamma) E^epsilon), and the asymptotic surrogate exp(-(1+gamma) ell^((1-delta)
    epsilon)).  The deficit of E against the full variance sum is reported per row.
    """
    ells = step2_need(gamma, trials, ell_range, prime_limit)  # before truncated_variance sieves
    sigmas = [step_sigma_ell(ell, step) for ell in ells]
    e_trunc = [prime_series.truncated_variance(sigma, prime_limit) for sigma in sigmas]
    taus = [sqrt(2.0 * (1.0 + gamma) * e**step.epsilon) for e in e_trunc]
    lams = [tau * sqrt(e) for tau, e in zip(taus, e_trunc)]  # raw thresholds of the events
    seeds = rmf_mod.derive_seed(base_seed, np.arange(trials))  # every ell reads one hash per seed
    freqs = (rmf_mod.prime_sum_exceedances(seeds, sigmas, lams, prime_limit) / trials).tolist()
    return [
        Step2Row(
            ell=ell,
            sigma=sigma,
            variance_trunc=e,
            variance_deficit=prime_series.prime_zeta(2.0 * sigma).estimate - e,
            threshold=tau,
            empirical_freq=freq,
            std_err=sqrt(freq * (1.0 - freq) / trials),
            hoeffding_bound=hoeffding_bound(e, lam),
            asymptotic_surrogate=exp(
                -(1.0 + gamma) * float(ell) ** ((1.0 - step.delta) * step.epsilon)
            ),
        )
        for ell, sigma, e, tau, lam, freq in zip(ells, sigmas, e_trunc, taus, lams, freqs)
    ]
