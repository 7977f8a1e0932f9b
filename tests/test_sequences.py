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


def test_sigma_k_where_k_to_the_c_passes_the_float_range():
    # 20^237 and 3^1000 exceed the largest float; sigma_k is then 1/2 as at k = 10 above.
    boundary = sq.SigmaK(sigma=0.5, log_inv_gap=math.inf, underflow=True)
    for k, c in ((20, 237.0), (20, 250.0), (3, 1000.0)):
        assert sq.sigma_k(k, sq.TheoremParams(c=c)) == boundary


def test_sigma_k_side_value_consistency():
    # Where the gap is representable the side value matches -log(sigma - 1/2).
    r = sq.sigma_k(1, sq.TheoremParams())
    assert r.log_inv_gap == pytest.approx(-math.log(r.sigma - 0.5), rel=1e-10)


def test_interval_endpoints_first_values():
    p = sq.TheoremParams()  # c=3, A0=0.1, A1=1.1
    loglog_y1, loglog_x1 = sq.interval_endpoints(1, p)
    assert isinstance(loglog_x1, mp.mpf) and isinstance(loglog_y1, mp.mpf)
    assert float(loglog_x1) == pytest.approx(2 * math.e, rel=1e-15)
    # loglog y_1 = 0.1 e - 1.1 < 0, so y_1 < e.
    assert float(loglog_y1) == pytest.approx(0.1 * math.e - 1.1, rel=1e-12)
    _, loglog_x2 = sq.interval_endpoints(2, p)
    assert float(loglog_x2) == pytest.approx(5961.915974, abs=1e-5)


def test_loglog_identity_exact_through_k20():
    p = sq.TheoremParams()
    for k in range(1, 21):
        _, loglog_x = sq.interval_endpoints(k, p)
        ratio = loglog_x / mp.exp(mp.mpf(k) ** 3)
        assert abs(float(ratio) - 2.0) <= 1e-12


def test_intervals_disjoint_defaults():
    p = sq.TheoremParams()
    assert all(row[3] for row in sq.interval_rows(20, p))


def test_intervals_disjoint_degenerate_a0():
    p = sq.TheoremParams(c=3.0, a0=1e-4, a1=1.1)
    # loglog y_2 = 1e-4 e^8 - 1.1*8 < 0, so y_2 is tiny and X_1 exceeds it.
    assert not sq.interval_rows(1, p)[0][3]


@pytest.mark.parametrize("params", [sq.TheoremParams(), sq.TheoremParams(c=2.5, a1=5.0),
                                    sq.TheoremParams(c=3.0, a0=1e-4, a1=1.1)])
def test_interval_rows_compute_one_endpoint_pair_per_row(params, monkeypatch):
    # Each row's pair and verdict equal the endpoints taken afresh for k and k + 1.
    direct = [(k, *sq.interval_endpoints(k, params),
               sq.interval_endpoints(k, params)[1] < sq.interval_endpoints(k + 1, params)[0])
              for k in range(1, 21)]
    calls, endpoints = [], sq.interval_endpoints
    monkeypatch.setattr(sq, "interval_endpoints", lambda k, p: calls.append(k) or endpoints(k, p))
    assert sq.interval_rows(20, params) == direct
    assert calls == list(range(1, 22))


def test_table_need_bounds_the_rows_summed_cost():
    # 113 rows at c = 250 pass and 114 are modelled at over 10 s; at the default c = 3 the
    # row count alone is bounded; 21^466 has more than 2,048 bits.
    sq.table_need(113, sq.TheoremParams(c=250.0))
    sq.table_need(59548, sq.TheoremParams())
    for k_max, c in ((114, 250.0), (291, 250.0), (59549, 3.0), (2**63 - 1, 3.0), (21, 466.0)):
        with pytest.raises(ValueError, match="rows at c|bits"):
            sq.table_need(k_max, sq.TheoremParams(c=c))


def test_step_sigma_values():
    s = sq.StepParams(epsilon=1.0)
    assert sq.step_sigma_ell(1, s) == pytest.approx(0.6839397206, abs=1e-9)
    # ell^(1-delta) = 4 at ell = 16: sigma = 1/2 + exp(-4)/2.
    assert sq.step_sigma_ell(16, s) == 0.5 + 0.5 * math.exp(-4.0)
    assert sq.step_sigma_ell(16, s) == pytest.approx(0.5091578194, abs=1e-9)
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
    assert sq.subtraction_bound_scan(sq.StepParams.from_delta(delta), 100) == 2


def test_subtraction_bound_scan_large():
    for delta in (0.25, 0.5, 0.75):
        ell1 = sq.subtraction_bound_scan(sq.StepParams.from_delta(delta), 10**5)
        assert ell1 is not None and ell1 <= 100
    with pytest.raises(ValueError):
        sq.subtraction_bound_scan(sq.StepParams(1.0), 1)


def test_harper_lower_bound_values():
    hb = sq.harper_lower_bound(sq.sigma_k(1, sq.TheoremParams()).sigma, 0.25, 1.5, -1.5)
    assert hb.log_inv_gap == pytest.approx(math.e, rel=1e-15)
    assert hb.t_max == pytest.approx(2 * math.e**2, rel=1e-9)
    hb2 = sq.harper_lower_bound(0.5 + math.exp(-10.0), 0.25, 1.5, -1.5)
    assert hb2.lower == pytest.approx(2.5 - 1.5 * math.log(10.0) - 1.5, rel=1e-12)
    # substitution identity: log gap = e gives C0 e - C1 + C2
    hb3 = sq.harper_lower_bound(0.5 + math.exp(-math.e), 0.25, 1.5, -1.5)
    assert hb3.lower == pytest.approx(0.25 * math.e - 1.5 - 1.5, rel=1e-12)


def test_harper_lower_bound_validation():
    with pytest.raises(ValueError):
        sq.harper_lower_bound(0.6, 0.6, 1.5, -1.5)
    with pytest.raises(ValueError):
        sq.harper_lower_bound(0.6, 0.25, 0.9, -1.5)
    with pytest.raises(ValueError):
        sq.harper_lower_bound(0.6, 0.25, 1.5, -2.0)
    for sigma in (0.5, 0.4, 1.5, 1.6, math.nan):  # refused before log(1/(sigma - 1/2))
        with pytest.raises(ValueError, match="sigma must lie in"):
            sq.harper_lower_bound(sigma, 0.25, 1.5, -1.5)
