"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the full suite takes a few minutes (it sieves 1.7e8 for the first
9 million primes and runs the larger Monte Carlo sweeps).

c01-c04, c07 and c09-c11 run the check that `rmflab verify all` runs, at the
defaults of ExperimentConfig (pinned below to the acceptance sizes), and
assert the literal bounds of the criterion on the check's detail where it
carries the quantity.
"""

import math
import time

import numpy as np

from rmflab import chaining, concentration, primes, rmf
from rmflab.cli import VERIFY_CHECKS, ExperimentConfig
from rmflab.sequences import StepParams


def report(name: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{name}: {detail}"


def check(name: str) -> tuple[bool, dict]:
    """Run verify's check `name` at the acceptance sizes."""
    return VERIFY_CHECKS[name](ExperimentConfig())


def test_config_defaults_are_the_acceptance_sizes(monkeypatch):
    cfg = ExperimentConfig()
    assert (cfg.n_primes, cfg.claim1_n, cfg.chebyshev_limit) == (9_000_000, 10**7, 10**7)
    assert (cfg.trials, cfg.seed) == (10**4, 0)
    # c07 runs on the primes <= 10^5.
    calls = []
    monkeypatch.setattr(concentration, "step2_experiment", lambda *a, **kw: calls.append(kw) or [])
    VERIFY_CHECKS["hoeffding-validity"](cfg)
    assert [kw["prime_limit"] for kw in calls] == [10**5]
    assert (cfg.ell_min, cfg.ell_max, cfg.gamma, cfg.epsilon) == (1, 8, 1.0, 1.0)
    assert (cfg.k_max, cfg.c, cfg.a0, cfg.a1) == (20, 3.0, 0.1, 1.1)


def test_c01_euler_tail_constant_reproduction():
    t0 = time.monotonic()
    passed, detail = check("euler-tail-constant")
    elapsed = time.monotonic() - t0
    upper = detail["upper"]
    report(
        "01 euler-tail-constant-2.112",
        passed and 2.10 < upper <= 2.1121 and elapsed < 60.0,
        f"upper={upper:.7f} in (2.10, 2.1121], runtime={elapsed:.1f}s < 60s",
    )


def test_c02_log_weighted_bound_grid():
    passed, detail = check("log-weighted-bound-grid")
    worst = detail["worst_margin"]
    report(
        "02 log-weighted-sum-bound",
        passed and worst > 0,
        f"certified upper <= 4/(2s-1)^2 for all 50 sigma, min margin={worst:.3g}",
    )


def test_c03_zeta_asymptotic_ratio_trend():
    t0 = time.monotonic()
    passed, detail = check("zeta-asymptotic-ratio")
    elapsed = time.monotonic() - t0
    gaps = [abs(r - 1.0) for r in detail["ratio_sum"]]
    trend = all(a > b for a, b in zip(gaps, gaps[1:])) and gaps[-1] <= 0.1
    report(
        "03 zeta-asymptotic-ratio",
        passed and trend and elapsed < 5.0,
        f"|ratio-1| strictly decreasing {['%.4f' % g for g in gaps]}, "
        f"last <= 0.1, runtime={elapsed:.2f}s < 5s",
    )


def test_c04_chebyshev_bound_to_1e7():
    passed, detail = check("chebyshev-two-over-log")
    report(
        "04 chebyshev-two-over-log",
        passed and detail["max_ratio"] < 1.0,
        f"pi(x) < 2x/log x for all primes x <= 1e7, max_ratio={detail['max_ratio']:.4f}",
    )


def test_c05_abel_identity_residual():
    worst = 0.0
    for i in range(20):
        seed = rmf.derive_seed(521, i)
        signs = rmf.sample_signs(seed, 10**6)
        for x in (10**4, 10**6):
            f = rmf.signed_values(signs, x)
            n = np.arange(1, x + 1, dtype=np.float64)
            for sigma in (0.6, 1.5):
                scale = float(np.sum(np.abs(f) * n**-sigma))
                rel = rmf.abel_identity_residual(f, sigma) / scale
                worst = max(worst, rel)
    report(
        "05 abel-summation-identity",
        worst <= 1e-8,
        f"max relative residual {worst:.3g} <= 1e-8 over 20 seeds x (0.6, 1.5) x (1e4, 1e6)",
    )


def test_c06_variance_match():
    table = primes.cached_primes(10**6)
    seeds = np.arange(2000, dtype=np.uint64)
    p = table.primes.astype(np.float64)
    details = []
    ok = True
    sigmas = (0.6, 0.75, 1.0)
    # One hash pass for all three sigma; column j equals the scalar call.
    batch = rmf.random_prime_sum_batch(seeds, sigmas, 10**6)
    for j, sigma in enumerate(sigmas):
        values = batch[:, j]
        a2 = p ** (-2.0 * sigma)
        v = float(np.sum(a2))
        mu4 = 3 * v * v - 2 * float(np.sum(a2 * a2))
        n = seeds.size
        se = math.sqrt((mu4 - v * v * (n - 3) / (n - 1)) / n)
        sample = float(np.var(values, ddof=1))
        deviation = abs(sample - v) / se
        ok = ok and deviation <= 5.0
        details.append(f"sigma={sigma}: {deviation:.2f} se")
    report("06 variance-match", ok, "; ".join(details) + " (all <= 5 se, 2000 seeds)")


def test_c07_hoeffding_validity_default_grid():
    passed, detail = check("hoeffding-validity")
    report(
        "07 hoeffding-validity",
        passed,
        f"freq <= bound + 3se on all {detail['rows']} rows (ell 1..8) at 1e4 trials",
    )


def test_c08_dyadic_oscillation_property_suite():
    rng = np.random.default_rng(2024)
    violations = 0
    for _ in range(1000):
        r_max = int(rng.integers(3, 8))
        kind = rng.integers(0, 3)
        n = 2**r_max + 1
        if kind == 0:
            values = np.cumsum(rng.normal(size=n))
        elif kind == 1:
            breaks = np.sort(rng.choice(n, size=4, replace=False))
            values = np.interp(np.arange(n), breaks, rng.normal(scale=5.0, size=4))
        else:
            values = rng.uniform(-1, 1, size=n)
        lams = []
        for r in range(1, r_max + 1):
            level = values[:: 2 ** (r_max - r)]
            lams.append(float(np.max(np.abs(np.diff(level)))))
        rep = chaining.verify_chaining(values, 0.0, 1.0, lams)
        if not (rep.hypothesis_holds and rep.conclusion_holds):
            violations += 1
    report(
        "08 dyadic-bound-property-suite",
        violations == 0,
        f"{violations} violations over 1000 random piecewise-linear instances (zero tolerance)",
    )


def test_c09_borel_cantelli_series():
    passed, detail = check("borel-cantelli-series")
    report(
        "09 borel-cantelli-series",
        passed,
        f"|S800-S400| <= 1e-10 and tail_400={detail['tail_400']:.3g} <= 1e-10; "
        "bigterm partial <= 16 exp(-l^(2d)) for l in [1,100], delta in {0.25, 0.5, 0.9}",
    )


def test_c10_sigma_difference_bound_scan():
    passed, detail = check("sigma-difference-bound-scan")
    report(
        "10 sigma-difference-bound",
        passed and all(ell1 is not None and ell1 <= 100 for ell1 in detail.values()),
        f"ell1={detail} (finite, <= 100, inequality holds through 1e5)",
    )


def test_c11_sequences_and_intervals():
    passed, detail = check("interval-disjointness")
    report(
        "11 interval-sequences",
        passed,
        f"disjoint for k in [1,{detail['k_max']}] at (3, 0.1, 1.1); "
        "loglog X_k = 2 exp(k^c) to 1e-12",
    )


def test_c12_chaining_oscillation_runs():
    step = StepParams(1.0)  # delta = 0.5
    seeds = list(range(20))
    hard_ok = True
    soft_failures = 0
    paper_c = chaining.LambdaSchedule(4.0).chaining_constant()
    worst = 0.0
    for ell in (3, 4, 5):
        for res in chaining.oscillation_batch(seeds, ell, step, r_max=12, limit=10**6):
            worst = max(worst, res.max_osc)
            if res.max_osc > res.paper_c + res.truncation_std:
                soft_failures += 1
            hard_ok = hard_ok and res.max_osc <= 2.0 * res.paper_c
    report(
        "12 chaining-oscillation",
        hard_ok,
        f"60 runs (seeds 0..19, ell 3..5): max osc {worst:.3f} <= 2*C = {2 * paper_c:.3f}; "
        f"{soft_failures} runs above C + truncation_std (reported, expected 0)",
    )


def test_c13_sign_changes_exist():
    # `rmflab signchanges`'s one call, thread pool included; test_rmf pins it to single traces.
    counts = rmf.sign_change_counts(range(100), 10**6)[:, 0]
    median = float(np.median(counts))
    with_change = int(np.sum(counts >= 1))
    ok = median >= 3.0 and with_change >= 95
    report(
        "13 sign-changes-exist",
        ok,
        f"median V_f(1e6) = {median} >= 3; {with_change}/100 seeds with V_f >= 1 (need >= 95)",
    )
