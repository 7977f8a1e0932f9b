import math

import numpy as np
import pytest

from rmflab import concentration as cc
from rmflab import rmf
from rmflab.prime_series import truncated_variance
from rmflab.sequences import StepParams


def test_hoeffding_values():
    assert cc.hoeffding_bound(1.0, 2.0) == pytest.approx(math.exp(-2.0))
    assert cc.hoeffding_bound(1.0, 0.0) == 1.0
    with pytest.raises(ValueError):
        cc.hoeffding_bound(0.0, 1.0)
    with pytest.raises(ValueError):
        cc.hoeffding_bound(1.0, -1.0)


def test_hoeffding_against_random_walk():
    # 100-step +-1 walk, lambda = 20: bound exp(-400/200) = e^-2; the exact
    # event probability is the binomial tail P(at least 60 heads).
    exact = sum(math.comb(100, k) for k in range(60, 101)) / 2**100
    assert exact == pytest.approx(0.028444, abs=1e-6)
    assert exact <= cc.hoeffding_bound(100.0, 20.0)
    rng = np.random.default_rng(0)
    walks = rng.choice([-1.0, 1.0], size=(10**5, 100)).sum(axis=1)
    freq = float(np.mean(walks >= 20))
    assert freq == pytest.approx(exact, abs=3e-3)
    assert freq <= cc.hoeffding_bound(100.0, 20.0)


def test_sign_flip_symmetry():
    # Frequencies of {P >= lam} and {P <= -lam} agree within 4 joint std errors.
    seeds = np.asarray([rmf.derive_seed(9, i) for i in range(6000)], dtype=np.uint64)
    values = rmf.random_prime_sum_batch(seeds, [0.6], 10**4)[:, 0]
    lam = 1.5
    up = float(np.mean(values >= lam))
    down = float(np.mean(values <= -lam))
    se = math.sqrt(up * (1 - up) / seeds.size) + math.sqrt(down * (1 - down) / seeds.size)
    assert abs(up - down) <= 4.0 * se


def test_borel_cantelli_step2():
    step = StepParams(1.0)
    r400 = cc.borel_cantelli_step2(400, 1.0, step)
    closed_tail = (math.sqrt(400) + 0.5) * math.exp(-2 * math.sqrt(400))
    assert r400.tail_estimate == pytest.approx(closed_tail, rel=1e-10)
    assert r400.tail_estimate < 1e-10
    r800 = cc.borel_cantelli_step2(800, 1.0, step)
    assert abs(r800.partial_sum - r400.partial_sum) <= r400.tail_estimate


def test_borel_cantelli_step2_cauchy_doubling():
    step = StepParams(0.5)  # delta 0.25, beta 0.375
    for terms in (50, 100, 200):
        a = cc.borel_cantelli_step2(terms, 0.5, step)
        b = cc.borel_cantelli_step2(2 * terms, 0.5, step)
        assert abs(b.partial_sum - a.partial_sum) <= a.tail_estimate


def _bigterm_series(delta: float, ell: int) -> tuple[float, float, float]:
    """(q, the sum of q^r over r = 1..BIGTERM_TERMS, 16 e^(-ell^(2 delta))) with
    q = 2 e^(-ell^(2 delta)): what borel_cantelli_bigterm compares, from the definitions."""
    x = float(ell) ** (2.0 * delta)
    q = 2.0 * math.exp(-x)
    return q, math.fsum(q**r for r in range(1, cc.BIGTERM_TERMS + 1)), 16.0 * math.exp(-x)


def test_borel_cantelli_bigterm_first_value():
    q, partial, closed = _bigterm_series(0.5, 1)
    assert q == pytest.approx(2.0 / math.e, rel=1e-12)
    assert partial == pytest.approx(2.0 / (math.e - 2.0), rel=1e-12)
    assert closed == pytest.approx(16.0 / math.e, rel=1e-12)
    assert cc.borel_cantelli_bigterm(StepParams(1.0), 1) is True


def test_borel_cantelli_bigterm_ratio_below_three_quarters():
    for delta in (0.25, 0.5, 0.9):
        step = StepParams.from_delta(delta)
        for ell in (1, 2, 5, 10, 100):
            q, partial, closed = _bigterm_series(delta, ell)
            assert q < 0.75
            assert 2.0 * partial <= 2.0 * q / (1.0 - q) <= closed
            assert cc.borel_cantelli_bigterm(step, ell) is True


def test_borel_cantelli_validation():
    step = StepParams(1.0)
    with pytest.raises(ValueError):
        cc.borel_cantelli_step2(0, 1.0, step)
    with pytest.raises(ValueError):
        cc.borel_cantelli_step2(10, -1.0, step)
    with pytest.raises(ValueError):
        cc.borel_cantelli_bigterm(step, 0)


def test_step2_experiment_rows():
    step = StepParams(1.0)
    rows = cc.step2_experiment(step, 1.0, range(1, 5), trials=2000, prime_limit=10**5,
                               base_seed=0)
    assert [r.ell for r in rows] == [1, 2, 3, 4]
    for r in rows:
        e_t = truncated_variance(r.sigma, 10**5)
        assert r.variance_trunc == pytest.approx(e_t, rel=1e-12)
        assert r.threshold == pytest.approx(math.sqrt(4.0 * e_t), rel=1e-12)
        assert r.hoeffding_bound == pytest.approx(math.exp(-2.0 * e_t), rel=1e-9)
        assert r.empirical_freq <= r.hoeffding_bound + 3.0 * r.std_err
        assert r.variance_deficit > 0
        assert r.asymptotic_surrogate == pytest.approx(
            math.exp(-2.0 * float(r.ell) ** 0.5), rel=1e-12
        )


def test_step2_experiment_validation():
    step = StepParams(1.0)
    with pytest.raises(ValueError):
        cc.step2_experiment(step, 1.0, range(1, 3), trials=0, prime_limit=100, base_seed=0)
    with pytest.raises(ValueError):
        cc.step2_experiment(step, 0.0, range(1, 3), trials=200, prime_limit=100, base_seed=0)
    with pytest.raises(ValueError):
        cc.step2_experiment(step, 1.0, range(0, 3), trials=200, prime_limit=100, base_seed=0)


def test_step2_hashes_each_trial_once(monkeypatch):
    hashed_rows = []
    original = rmf._sign_tiles  # the tile loop under every sign_matrix and prime-sum block

    def counting(keys, pk, out, tmp=None):
        out = original(keys, pk, out, tmp)
        hashed_rows.append(out.shape[0])
        return out

    monkeypatch.setattr(rmf, "_sign_tiles", counting)
    rows = cc.step2_experiment(StepParams(1.0), 1.0, range(1, 9), trials=600, prime_limit=10**4,
                               base_seed=0)
    assert len(rows) == 8
    assert sum(hashed_rows) == 600
