import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from rmflab import chaining as ch
from rmflab import cli
from rmflab import primes
from rmflab import rmf
from rmflab.sequences import StepParams

import oracles

# 2 sqrt(8) * sum_{r>=1} sqrt(r)/2^r, frozen from a 30-digit mpmath summation.
PAPER_C = 7.62121811630779


def observed_maxima(values, r_max):
    lams = []
    for r in range(1, r_max + 1):
        level = values[:: 2 ** (r_max - r)]
        lams.append(float(np.max(np.abs(np.diff(level)))))
    return lams


def test_chaining_R_examples():
    assert oracles.chaining_R(0, 1, 0.3, 0.0) == 1
    assert oracles.chaining_R(0, 1, 0.5, 0.0) == 1  # boundary 0.25 < 0.5 <= 0.5
    assert oracles.chaining_R(0, 2, 0.3, 0.0) == 2


def test_chaining_R_sandwich_random():
    rng = np.random.default_rng(42)
    for _ in range(10**4):
        a = rng.uniform(-5, 5)
        b = a + rng.uniform(1e-6, 10)
        s, t = rng.uniform(a, b, 2)
        if s == t:
            continue
        r = oracles.chaining_R(a, b, s, t)
        d = abs(s - t)
        assert (b - a) / 2 ** (r + 1) < d <= (b - a) / 2**r


def test_chaining_R_equal_points():
    with pytest.raises(ValueError):
        oracles.chaining_R(0, 1, 0.5, 0.5)


def test_chaining_R_matches_grid_step_formula():
    # verify_chaining reads R off the step count d = |i - j| of two points of the
    # depth-r_max grid, on any [a, b], as r_max - (d - 1).bit_length().
    for r_max in range(1, 9):
        n = 2**r_max
        for i in range(n + 1):
            for j in range(n + 1):
                if i != j:
                    expected = r_max - (abs(i - j) - 1).bit_length()
                    assert oracles.chaining_R(0, 1, i / n, j / n) == expected, (r_max, i, j)


def test_schedule_identity_and_constant():
    sched = ch.LambdaSchedule(4.0)
    for r in range(1, 40):
        assert sched(r) * 2**r / math.sqrt(r) == pytest.approx(math.sqrt(8.0), rel=1e-14)
    assert sched.chaining_constant() == pytest.approx(PAPER_C, rel=1e-12)
    with pytest.raises(ValueError):
        ch.LambdaSchedule(0.0)


def test_paper_constant_against_independent_summation():
    with mp.workdps(30):
        ref = 2 * mp.sqrt(8) * mp.nsum(lambda r: mp.sqrt(r) / 2**r, [1, mp.inf])
    assert ch.LambdaSchedule(4.0).chaining_constant() == pytest.approx(float(ref), rel=1e-13)


def test_verify_chaining_linear_slope_one():
    r_max = 6
    pts = np.linspace(0, 1, 2**r_max + 1)
    lams = [2.0**-r for r in range(1, r_max + 1)]
    rep = ch.verify_chaining(pts, lams)
    assert rep.hypothesis_holds and rep.conclusion_holds
    # For the geometric schedule the finite sum plus extension telescopes to
    # the lemma's 2^(1-R), so |s - t| <= 2^-R sits at exactly half the bound.
    assert rep.max_conclusion_excess <= -(2.0**-r_max)


def test_verify_chaining_constant_function():
    rep = ch.verify_chaining(np.full(2**5 + 1, 3.7), [0.0] * 5)
    assert rep.hypothesis_holds and rep.conclusion_holds


def test_verify_chaining_detects_hypothesis_violation():
    values = np.zeros(2**4 + 1)
    values[7] = 10.0  # odd index: visible only on the finest level
    rep = ch.verify_chaining(values, [1e-6] * 4)
    assert not rep.hypothesis_holds
    assert rep.first_hypothesis_violation_r == 4
    values2 = np.zeros(2**4 + 1)
    values2[8] = 10.0  # midpoint: already visible at the coarsest level
    rep2 = ch.verify_chaining(values2, [1e-6] * 4)
    assert rep2.first_hypothesis_violation_r == 1


def test_verify_chaining_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(200):
        r_max = int(rng.integers(3, 8))
        values = np.cumsum(rng.normal(size=2**r_max + 1))
        rep = ch.verify_chaining(values, observed_maxima(values, r_max))
        assert rep.hypothesis_holds
        assert rep.conclusion_holds, rep


def test_verify_chaining_matches_pairwise_oracle():
    rng = np.random.default_rng(7)
    cases = [(np.linspace(0, 1, 2**6 + 1), [2.0**-r for r in range(1, 7)])]
    for _ in range(60):
        r_max = int(rng.integers(1, 8))
        values = np.cumsum(rng.normal(size=2**r_max + 1))
        lams = observed_maxima(values, r_max)
        if rng.integers(0, 2):
            lams = list(rng.uniform(0, 2, size=r_max))  # hypothesis usually fails
        cases.append((values, lams))
    for values, lams in cases:
        assert ch.verify_chaining(values, lams) == oracles.verify_chaining_pairs(values, lams)


def test_verify_chaining_matches_the_distance_loop_on_c08(monkeypatch):
    reports = []

    def spy(*args):
        reports.append((args, verify(*args)))
        return reports[-1][1]

    verify = ch.verify_chaining
    monkeypatch.setattr(cli.chaining, "verify_chaining", spy)
    assert cli._check_dyadic_property_suite(cli.ExperimentConfig())[0]
    assert len(reports) == 1000
    for args, report in reports:
        assert report == oracles.verify_chaining_loop(*args)


def test_verify_chaining_reads_R_off_grid_steps():
    # The grid points 0 and 4 of depth 3 are 4 steps apart, half of any interval, so R = 1
    # and the bound is 2 (lambda_2 + lambda_3 + lambda_3) = 6.  On [0.1, 0.7] their float
    # distance reads a hair above (b-a)/2, which would give R = 0 and the looser bound 8.
    # Every other pair meets its bound.
    assert 0.4 - 0.1 > (0.7 - 0.1) / 2
    values = np.array([0.0, 2.0, 4.0, 5.5, 7.0, 7.0, 7.0, 7.0, 7.0])
    rep = ch.verify_chaining(values, [1.0, 1.0, 1.0])
    assert not rep.conclusion_holds
    assert rep.max_conclusion_excess == 1.0
    assert rep == oracles.verify_chaining_pairs(values, [1.0, 1.0, 1.0])


def test_verify_chaining_shape_validation():
    with pytest.raises(ValueError):
        ch.verify_chaining(np.zeros(10), [1.0, 1.0])


def test_oscillation_experiment_basic():
    res = ch.oscillation_batch([0], [4], StepParams(1.0), r_max=8, limit=10**5)[0]
    assert res.max_osc >= 0
    assert res.paper_c == pytest.approx(PAPER_C, rel=1e-12)
    assert res.max_osc < res.paper_c
    assert res.truncation_std > 0


def test_oscillation_monotone_in_depth():
    r8 = ch.oscillation_batch([0], [4], StepParams(1.0), r_max=8, limit=10**5)[0]
    r10 = ch.oscillation_batch([0], [4], StepParams(1.0), r_max=10, limit=10**5)[0]
    assert r8.max_osc <= r10.max_osc


def test_oscillation_degenerate_interval():
    res = ch.oscillation_batch([0], [10**6], StepParams(1.0), r_max=4, limit=10**4)[0]
    assert res.max_osc == 0.0  # sigma_ell == sigma_{ell-1} at float precision


def test_oscillation_batch_matches_single():
    batch = ch.oscillation_batch([0, 1], [3], StepParams(1.0), r_max=6, limit=10**4)
    single = ch.oscillation_batch([1], [3], StepParams(1.0), r_max=6, limit=10**4)[0]
    match = [r for r in batch if r.seed == 1][0]
    assert match.max_osc == pytest.approx(single.max_osc, rel=1e-12)
    assert match.first_violation_r == single.first_violation_r


def test_oscillation_batch_accepts_negative_seed():
    step = StepParams(1.0)
    (row,) = ch.oscillation_batch([-1], [3], step, r_max=6, limit=10**4)
    single = ch.oscillation_batch([2**64 - 1], [3], step, r_max=6, limit=10**4)[0]
    assert row == single._replace(seed=-1)
    assert row.seed == -1


def test_oscillation_validation():
    with pytest.raises(ValueError):
        ch.oscillation_batch([0], [1], StepParams(1.0), r_max=4, limit=100)
    with pytest.raises(ValueError):
        ch.oscillation_batch([0], [3], StepParams(1.0), r_max=0, limit=100)


SEEDS = list(range(20))


def lambdas_of(r_max):
    return np.array([ch.OSCILLATION_SCHEDULE(r) for r in range(1, r_max + 1)])


def estimate_inputs(seeds, ell, r_max, limit):
    """The low-rank grid estimate and its bound, next to the oracle's exact grid."""
    step = StepParams(1.0)
    logp, weights, gap = oracles.oscillation_inputs(seeds, ell, step, limit)
    frac = np.arange(2**r_max + 1, dtype=np.float64) / 2.0**r_max
    estimate = rmf._low_rank(logp, gap, False, False, True)
    approx, eps = ch._grid_estimate(estimate, weights, frac * gap, np.abs(weights[:, 0]), logp)
    return approx, eps, oracles.oscillation_grid(seeds, ell, step, r_max, limit)


@pytest.mark.parametrize(
    "ell, r_max, limit",
    [(ell, r_max, limit) for ell in (2, 3, 4, 6) for r_max in (4, 8, 12)
     for limit in (10**3, 10**5, 10**6)]
    + [(10**6, 4, 10**4)],  # the degenerate interval of test_oscillation_degenerate_interval
)
def test_oscillation_batch_matches_direct_bit_for_bit(ell, r_max, limit):
    step = StepParams(1.0)
    max_osc, first = oracles.oscillation_direct(SEEDS, ell, step, r_max, limit)
    res = ch.oscillation_batch(SEEDS, [ell], step, r_max=r_max, limit=limit)
    assert [r.max_osc for r in res] == max_osc.tolist()
    assert [r.first_violation_r for r in res] == first


def test_oscillation_batch_matches_direct_when_levels_are_violated(monkeypatch):
    # With C1 = 0.01 some lambda_r fall below the grid's increments, so the
    # first violations are decided on exact rows (about a third of them at ell 2).
    for module in (ch, oracles):
        monkeypatch.setattr(module, "OSCILLATION_SCHEDULE", ch.LambdaSchedule(0.01))
    step = StepParams(1.0)
    firsts = []
    for ell in (2, 3, 5):
        max_osc, first = oracles.oscillation_direct(SEEDS, ell, step, 10, 10**5)
        res = ch.oscillation_batch(SEEDS, [ell], step, r_max=10, limit=10**5)
        assert [r.max_osc for r in res] == max_osc.tolist()
        assert [r.first_violation_r for r in res] == first
        firsts += first
    assert None in firsts and any(f is not None for f in firsts)


@pytest.mark.parametrize("ells, r_max, limit, c1", [
    ([2, 3, 4, 6], 8, 10**5, 4.0),
    ([2, 3, 5], 10, 10**5, 0.01),  # some lambda_r fall below the grid's increments
    ([3, 10**6, 4], 4, 10**4, 4.0),  # the degenerate interval between two others
])
def test_oscillation_batch_over_ells_equals_per_ell_calls(ells, r_max, limit, c1, monkeypatch):
    # One sign hash serves every ell, each re-signed in place from the last.
    monkeypatch.setattr(ch, "OSCILLATION_SCHEDULE", ch.LambdaSchedule(c1))
    hashes, sign_matrix = [], rmf.sign_matrix
    monkeypatch.setattr(ch.rmf_mod, "sign_matrix",
                        lambda *a, **kw: hashes.append(a) or sign_matrix(*a, **kw))
    seeds, step = [0, 1, 2, 3], StepParams(1.0)
    batch = ch.oscillation_batch(seeds, ells, step, r_max, limit)
    assert len(hashes) == 1
    per_ell = [r for ell in ells for r in ch.oscillation_batch(seeds, [ell], step, r_max, limit)]
    assert batch == per_ell
    assert len(hashes) == 1 + len(ells)
    assert [(r.ell, r.seed) for r in batch] == [(ell, s) for ell in ells for s in seeds]
    if c1 < 1:
        assert any(r.first_violation_r is not None for r in batch)


def test_grid_estimate_bound_dominates_measured_error():
    rng = np.random.default_rng(11)
    for _ in range(8):
        seeds = [int(s) for s in rng.integers(0, 2**63, size=4, dtype=np.int64)]
        ell = int(rng.integers(2, 12))
        limit = int(rng.choice([10**3, 10**4, 10**5]))
        approx, eps, exact = estimate_inputs(seeds, ell, 10, limit)
        assert np.all(np.abs(approx - exact) <= eps), (seeds, ell, limit)
        assert np.all(eps < 1e-6)  # small enough to decide
    approx, eps, exact = estimate_inputs(SEEDS[:4], 2, 10, 10**6)  # the widest |x| of ell >= 2
    assert np.all(np.abs(approx - exact) <= eps)


@pytest.mark.parametrize("ells", [[3], [2, 3, 4, 6]])
def test_oscillation_batch_builds_one_basis_for_every_ell(ells, monkeypatch):
    # _low_rank builds a held basis when called, and its estimates only read it.
    built, low_rank = [], rmf._low_rank
    monkeypatch.setattr(ch.rmf_mod, "_low_rank", lambda *a: built.append(a[2:]) or low_rank(*a))
    ch.oscillation_batch(SEEDS[:4], ells, StepParams(1.0), r_max=6, limit=10**4)
    assert built == [(False, False, True)]


def test_shared_basis_eps_dominates_every_ells_error(monkeypatch):
    # One batch at 10^6: ell 2, the widest |x| (its degree serves all), ell 5 and the degenerate
    # ell 10^6, each estimated on the basis built for ell 2, against the oracle's exact grid.
    seen, pick = [], ch._rows_to_recompute
    monkeypatch.setattr(ch, "_rows_to_recompute", lambda *a: seen.append(a[:2]) or pick(*a))
    ells, step = [2, 5, 10**6], StepParams(1.0)
    ch.oscillation_batch(SEEDS[:4], ells, step, r_max=8, limit=10**6)
    for ell, (approx, eps) in zip(ells, seen, strict=True):
        exact = oracles.oscillation_grid(SEEDS[:4], ell, step, 8, 10**6)
        assert np.all(np.abs(approx - exact) <= eps), ell
        assert np.all(eps < 1e-6)


def test_filter_recomputes_increments_near_lambda_and_keeps_first_violations():
    # No realistic lambda schedule comes near an increment, so place lambda_r
    # within 2 eps of a level's largest exact increment: the decision is then
    # ambiguous from the estimated grid and must be made on exact rows.
    r_max = 12
    approx, eps, exact = estimate_inputs(SEEDS, 3, r_max, 10**5)
    rng = np.random.default_rng(5)
    violated = 0
    for _ in range(12):
        r = int(rng.integers(1, r_max + 1))
        j = int(rng.integers(len(SEEDS)))
        stride = 2 ** (r_max - r)
        inc = np.abs(np.diff(exact[::stride, j]))
        i = int(np.argmax(inc))
        lambdas = lambdas_of(r_max)
        lambdas[r - 1] = inc[i] + rng.uniform(-2.0, 2.0) * eps[j]
        rows = ch._rows_to_recompute(approx, eps, lambdas)
        assert {i * stride, (i + 1) * stride} <= set(rows.tolist())
        grid = np.full_like(exact, np.nan)  # the exact rows oscillation_batch evaluates
        grid[rows] = exact[rows]
        first = ch._first_violations(grid, lambdas)
        assert first == ch._first_violations(exact, lambdas)
        violated += first[j] == r
    assert violated > 0


def test_c12_configuration_recomputes_rows_0_and_4096(monkeypatch):
    picked = []
    pick = ch._rows_to_recompute
    monkeypatch.setattr(ch, "_rows_to_recompute",
                        lambda *a: picked.append(pick(*a)) or picked[-1])
    ch.oscillation_batch(SEEDS, [3, 4, 5], StepParams(1.0), r_max=12, limit=10**6)
    assert [r.tolist() for r in picked] == [[0, 4096]] * 3


def test_check_grid_bounds_the_traced_peak_of_oscillation_batch():
    primes.cached_primes(10**6)  # the prime table exists before the call
    tracemalloc.start()
    try:
        ch.oscillation_batch(SEEDS, [3, 4, 5], StepParams(1.0), r_max=12, limit=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= ch.check_grid([3, 4, 5], 12, len(SEEDS), 10**6)


def test_check_grid_refuses_a_grid_beyond_physical_memory():
    with pytest.raises(primes.ResourceLimitError):
        ch.check_grid([3], 30, 20, 10**6)
    ch.check_grid([3, 4, 5], 12, 20, 10**6)
