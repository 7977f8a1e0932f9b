import math

import mpmath as mp
import pytest

from rmflab import sequences as sq


def test_theorem_params_validation():
    sq.TheoremParams()  # defaults valid
    with pytest.raises(ValueError):
        sq.TheoremParams(c=2.0)
    with pytest.raises(ValueError):
        sq.TheoremParams(a0=0.2)
    with pytest.raises(ValueError):
        sq.TheoremParams(a1=1.0)


def test_step_params():
    s = sq.StepParams(epsilon=1.0)
    assert s.delta == 0.5
    assert sq.StepParams.from_delta(0.25).epsilon == 0.5
    for eps in (0.0, 2.0, -1.0):
        with pytest.raises(ValueError):
            sq.StepParams(epsilon=eps)


def test_sigma_k_first_value():
    r = sq.sigma_k(1, sq.TheoremParams())
    assert r.sigma == pytest.approx(0.565988035845, abs=1e-12)
    assert r.log_inv_gap == pytest.approx(math.e, rel=1e-15)
    assert not r.underflow


def test_sigma_k_underflow_levels():
    p = sq.TheoremParams()
    r2 = sq.sigma_k(2, p)  # gap = exp(-e^8) underflows, side value fine
    assert r2.underflow and r2.sigma == 0.5
    assert r2.log_inv_gap == pytest.approx(math.exp(8.0), rel=1e-12)
    r10 = sq.sigma_k(10, p)  # k^c = 1000 > 709: even the side value overflows
    assert r10.underflow and r10.sigma == 0.5 and math.isinf(r10.log_inv_gap)
    with pytest.raises(ValueError):
        sq.sigma_k(0, p)


def test_sigma_k_side_value_consistency():
    # Where the gap is representable the side value matches -log(sigma - 1/2).
    r = sq.sigma_k(1, sq.TheoremParams())
    assert r.log_inv_gap == pytest.approx(-math.log(r.sigma - 0.5), rel=1e-10)


def test_interval_endpoints_first_values():
    p = sq.TheoremParams()  # c=3, A0=0.1, A1=1.1
    y1, x1 = sq.interval_endpoints(1, p)
    assert x1.depth == 2
    assert float(x1.mantissa) == pytest.approx(2 * math.e, rel=1e-15)
    # loglog y_1 = 0.1 e - 1.1 < 0: depth-1 fallback, log y_1 = exp(0.1 e - 1.1)
    assert y1.depth == 1
    assert float(y1.mantissa) == pytest.approx(math.exp(0.1 * math.e - 1.1), rel=1e-12)
    _, x2 = sq.interval_endpoints(2, p)
    assert float(x2.mantissa) == pytest.approx(5961.915974, abs=1e-5)


def test_loglog_identity_exact_through_k20():
    p = sq.TheoremParams()
    for k in range(1, 21):
        _, x_k = sq.interval_endpoints(k, p)
        ratio = x_k.mantissa / mp.exp(mp.mpf(k) ** 3)
        assert abs(float(ratio) - 2.0) <= 1e-12


def test_intervals_disjoint_defaults():
    p = sq.TheoremParams()
    assert all(sq.intervals_disjoint(k, p) for k in range(1, 21))


def test_intervals_disjoint_degenerate_a0():
    p = sq.TheoremParams(c=3.0, a0=1e-4, a1=1.1)
    # loglog y_2 = 1e-4 e^8 - 1.1*8 < 0, so y_2 is tiny and X_1 exceeds it.
    assert not sq.intervals_disjoint(1, p)


def test_nested_log_validation():
    with pytest.raises(ValueError):
        sq.NestedLogReal(3, 1.0)
    with pytest.raises(ValueError):
        sq.NestedLogReal(2, -1.0)


def test_nested_log_total_order_consistency():
    import random

    rng = random.Random(7)
    for _ in range(2000):
        a = rng.uniform(-20, 60)
        b = rng.uniform(-20, 60)
        forms_a = [sq.NestedLogReal.from_real(a)]
        forms_b = [sq.NestedLogReal.from_real(b)]
        if a > 0:
            forms_a.append(sq.NestedLogReal.from_log(math.log(a)))
        if b > 0:
            forms_b.append(sq.NestedLogReal.from_log(math.log(b)))
        if a > math.e:
            forms_a.append(sq.NestedLogReal.from_loglog(math.log(math.log(a))))
        if b > math.e:
            forms_b.append(sq.NestedLogReal.from_loglog(math.log(math.log(b))))
        for fa in forms_a:
            for fb in forms_b:
                assert (fa < fb) == (a < b) or math.isclose(a, b, rel_tol=1e-12)


def test_nested_log_equality_across_depths():
    # mp.log at the working precision keeps both forms on the same value.
    assert sq.NestedLogReal.from_real(100.0) == sq.NestedLogReal.from_log(mp.log(100.0))
    assert sq.NestedLogReal.from_real(5.0) != sq.NestedLogReal.from_real(6.0)
    assert sq.NestedLogReal.from_loglog(3.0) > sq.NestedLogReal.from_real(10.0)


def test_nested_log_to_float():
    assert sq.NestedLogReal.from_log(2.0).to_float() == pytest.approx(math.exp(2.0))
    assert math.isinf(sq.NestedLogReal.from_loglog(1000.0).to_float())


def test_step_sigma_values():
    s = sq.StepParams(epsilon=1.0)
    assert sq.step_sigma_ell(1, s).sigma == pytest.approx(0.6839397206, abs=1e-9)
    r16 = sq.step_sigma_ell(16, s)
    assert r16.sigma == pytest.approx(0.5091578194, abs=1e-9)
    assert r16.log_inv_two_gap == pytest.approx(4.0)
    with pytest.raises(ValueError):
        sq.step_sigma_ell(0, s)


def test_subtraction_bound_scan_small_ell_oracle():
    # Direct high-precision two-sided evaluation at ell = 2, delta = 0.25.
    delta = 0.25
    with mp.workdps(50):
        s1 = mp.mpf(1) / 2 + 1 / (2 * mp.exp(mp.mpf(1) ** (1 - delta)))
        s2 = mp.mpf(1) / 2 + 1 / (2 * mp.exp(mp.mpf(2) ** (1 - delta)))
        lhs = s1 - s2
        rhs = (2 * s2 - 1) / mp.mpf(2) ** delta
        assert lhs <= rhs  # the inequality already holds at ell = 2
    scan = sq.subtraction_bound_scan(sq.StepParams.from_delta(delta), 100)
    assert scan.ell1 == 2 and scan.holds_at_ell_max


def test_subtraction_bound_scan_large():
    for delta in (0.25, 0.5, 0.75):
        scan = sq.subtraction_bound_scan(sq.StepParams.from_delta(delta), 10**5)
        assert scan.holds_at_ell_max
        assert scan.ell1 is not None and scan.ell1 <= 100
    with pytest.raises(ValueError):
        sq.subtraction_bound_scan(sq.StepParams(1.0), 1)


def test_harper_lower_bound_values():
    sigma1 = sq.sigma_k(1, sq.TheoremParams()).sigma
    hb = sq.harper_lower_bound(sigma1, 0.25, 1.5, -1.5)
    assert hb.t_max == pytest.approx(2 * math.e**2, rel=1e-9)
    hb2 = sq.harper_lower_bound(0.6, 0.25, 1.5, -1.5, log_inv_gap=10.0)
    assert hb2.lower == pytest.approx(2.5 - 1.5 * math.log(10.0) - 1.5, rel=1e-12)
    # substitution identity: log gap = e gives C0 e - C1 + C2
    hb3 = sq.harper_lower_bound(0.6, 0.25, 1.5, -1.5, log_inv_gap=math.e)
    assert hb3.lower == pytest.approx(0.25 * math.e - 1.5 - 1.5, rel=1e-12)


def test_harper_lower_bound_validation():
    with pytest.raises(ValueError):
        sq.harper_lower_bound(0.6, 0.6, 1.5, -1.5)
    with pytest.raises(ValueError):
        sq.harper_lower_bound(0.6, 0.25, 0.9, -1.5)
    with pytest.raises(ValueError):
        sq.harper_lower_bound(0.6, 0.25, 1.5, -2.0)
    with pytest.raises(ValueError):
        sq.harper_lower_bound(0.4, 0.25, 1.5, -1.5)
