"""Acceptance suite: one test per row of `rmflab.cli.VERIFY_CHECKS`, each printing
`ACCEPTANCE <nn> <name>: PASS/FAIL (...)`.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  Each test
runs the check that `rmflab verify all` runs, at the defaults of
ExperimentConfig (pinned below to the acceptance sizes), then re-asserts the
criterion's literal bounds on the check's detail (BOUNDS) and, for c01 and c03,
a runtime limit.  The tests are made by one loop over the table; each is
named `test_<id>_<BOUNDS name>`.
"""

import re
import time

from rmflab import chaining, concentration
from rmflab.cli import VERIFY_CHECKS, ExperimentConfig

TWO_C = 2.0 * chaining.LambdaSchedule(4.0).chaining_constant()


def _decreases_to_a_tenth(ratios) -> bool:
    gaps = [abs(r - 1.0) for r in ratios]
    return all(a > b for a, b in zip(gaps, gaps[1:])) and gaps[-1] <= 0.1


# Criterion id -> (test name, the criterion's literal bounds on its check's detail).
BOUNDS = {
    "c01": ("euler_tail_constant_reproduction", lambda d: 2.10 < d["upper"] <= 2.1121),
    "c02": ("log_weighted_bound_grid", lambda d: d["worst_margin"] > 0),
    "c03": ("zeta_asymptotic_ratio_trend", lambda d: _decreases_to_a_tenth(d["ratio_sum"])),
    "c04": ("chebyshev_bound_to_1e7", lambda d: d["limit"] == 10**7 and d["max_ratio"] < 1.0),
    "c05": ("abel_summation_identity", lambda d: d["max_rel_residual"] <= 1e-8),
    "c06": ("variance_match",
            lambda d: len(d["deviation_se"]) == 3 and max(d["deviation_se"]) <= 5.0),
    "c07": ("hoeffding_validity_default_grid", lambda d: d["rows"] == 8),
    "c08": ("dyadic_oscillation_property_suite",
            lambda d: d["instances"] == 1000 and d["violations"] == 0),
    "c09": ("borel_cantelli_series", lambda d: d["tail_400"] <= 1e-10),
    "c10": ("sigma_difference_bound_scan",
            lambda d: all(ell1 is not None and ell1 <= 100 for ell1 in d.values())),
    "c11": ("sequences_and_intervals", lambda d: d["k_max"] == 20),
    "c12": ("chaining_oscillation_runs", lambda d: d["runs"] == 60 and d["max_osc"] <= TWO_C),
    "c13": ("sign_changes_exist",
            lambda d: d["seeds"] == 100 and d["median"] >= 3.0
            and d["fraction_with_change"] >= 0.95),
}
RUNTIME_LIMITS = {"c01": 60.0, "c03": 5.0}  # seconds


def criterion(check) -> str:
    """The id `cNN` that starts a check's docstring."""
    return check.__doc__.split(":", 1)[0]


def _acceptance_test(name: str, check):
    cid = criterion(check)

    def test():
        t0 = time.monotonic()
        passed, detail = check(ExperimentConfig())
        elapsed = time.monotonic() - t0
        ok = passed and BOUNDS[cid][1](detail) and elapsed < RUNTIME_LIMITS.get(cid, float("inf"))
        print(f"ACCEPTANCE {cid[1:]} {name}: {'PASS' if ok else 'FAIL'} ({detail}, "
              f"runtime={elapsed:.1f}s)")
        assert ok, f"{cid} {name}: {detail}, runtime={elapsed:.1f}s"

    return test


for _name, _check in sorted(VERIFY_CHECKS.items(), key=lambda item: criterion(item[1])):
    globals()[f"test_{criterion(_check)}_{BOUNDS[criterion(_check)][0]}"] = _acceptance_test(
        _name, _check)


def test_every_criterion_is_one_verify_check():
    ids = [criterion(check) for check in VERIFY_CHECKS.values()]
    assert all(re.fullmatch(r"c\d\d", cid) for cid in ids)
    assert sorted(ids) == [f"c{i:02d}" for i in range(1, 14)]  # distinct, c01..c13
    assert sorted(BOUNDS) == sorted(ids)


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
    # c05, c06, c12 and c13 read these.
    assert (cfg.x_max, cfg.seeds, cfg.prime_limit) == (10**6, 100, 10**6)
    assert (cfg.ells, cfg.r_max) == ([3, 4, 5], 12)
