import math

import pytest

from sudfdr import bounds
from sudfdr.bounds import (
    BoundInputs,
    aorc_feasible,
    aorc_v_delta,
    du_limit_cdf,
    epsilon_remainder,
    gap_bound_fm,
    gap_bound_rm,
    optimize_delta,
    u_plus_minus,
)
from sudfdr.procedures import u_operator
from sudfdr.thresholds import AorcCurve, LinearCurve


def _inputs(**kw):
    base = dict(rho=LinearCurve(0.5), zeta=0.7, delta=0.03, m=100, kappa=0.1, m0=70)
    base.update(kw)
    return BoundInputs(**base)


def test_linear_closed_form_fixed_points():
    um, up = u_plus_minus(_inputs())
    assert um == pytest.approx(0.27 / 0.65, abs=1e-9)
    assert up == pytest.approx(0.33 / 0.65, abs=1e-9)


def test_small_delta_limit_collapses():
    um, up = u_plus_minus(_inputs(delta=1e-9))
    assert up - um == pytest.approx(0.0, abs=1e-6)
    # both converge to the unperturbed Dirac-uniform fixed point
    u_du = u_operator(0.1, du_limit_cdf(0.7), LinearCurve(0.5))
    assert um <= u_du + 1e-9 <= up + 2e-9


def test_fixed_points_bracket_du_and_floor():
    for zeta in (0.5, 0.7, 0.9):
        for rho in (LinearCurve(0.5), AorcCurve(0.2)):
            if isinstance(rho, AorcCurve) and zeta <= rho.alpha:
                continue
            inp = _inputs(rho=rho, zeta=zeta, m0=round(zeta * 100))
            um, up = u_plus_minus(inp)
            u_du = u_operator(inp.kappa, du_limit_cdf(zeta), rho)
            assert um - 1e-9 <= u_du <= up + 1e-9
            assert up >= 1 - zeta - 1e-9


def test_aorc_first_order_expansions():
    a, z, d = 0.2, 0.5, 0.01
    um, up = u_plus_minus(_inputs(rho=AorcCurve(a), zeta=z, delta=d, kappa=0.3, m0=50))
    center = (1 - z) / (1 - a)
    slope = d * z / (z - a)
    assert up == pytest.approx(center + slope, abs=50 * d * d)
    assert um == pytest.approx(center - slope, abs=50 * d * d)


def test_epsilon_tail_regimes():
    inp = _inputs(delta=0.005)  # delta <= y + 1/m
    y = 0.02
    um, up = u_plus_minus(inp)
    spread = (inp.rho(up) - inp.rho(um)) / up
    assert epsilon_remainder(inp, y) - spread == pytest.approx(4 / 0.3, abs=1e-9)
    # m -> large with delta > y: tail vanishes
    big = _inputs(delta=0.2, m=10**6, m0=7 * 10**5)
    um, up = u_plus_minus(big)
    spread = (big.rho(up) - big.rho(um)) / up
    assert epsilon_remainder(big, 0.05) == pytest.approx(spread, abs=1e-12)


def test_epsilon_linear_spread_bound():
    for d in (0.01, 0.05, 0.1):
        inp = _inputs(delta=d)
        um, up = u_plus_minus(inp)
        spread = (inp.rho(up) - inp.rho(um)) / up
        assert spread <= 2 * 0.5 * d / (1 - 0.7 + d) + 1e-12


def test_epsilon_nonincreasing_in_m():
    y = 0.02
    vals = [epsilon_remainder(_inputs(delta=0.2, m=m, m0=round(0.7 * m)), y) for m in (50, 200, 1000, 5000)]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_epsilon_y_validation():
    with pytest.raises(ValueError):
        epsilon_remainder(_inputs(), 0.0)


def test_fm_bound_structure():
    res = gap_bound_fm(_inputs(m=10**4, zeta=0.7, delta=0.05, m0=7000))
    assert res.branch == "FM"
    assert 0 <= res.u_minus <= res.u_plus <= 1
    assert res.gap_bound == pytest.approx(0.7 * res.epsilon, abs=1e-12)
    assert res.gap_bound > 0
    assert res.vacuous == (res.gap_bound >= 1.0)


def test_each_bound_computes_its_fixed_points_once(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return u_operator(*args)

    monkeypatch.setattr(bounds, "u_operator", counting)
    fm_in = _inputs(m=1000, m0=700, delta=0.05)
    rm_in = _inputs(rho=AorcCurve(0.2), kappa=0.5, gamma=0.05, m0=None)
    fm = gap_bound_fm(fm_in)
    assert len(calls) == 2
    calls.clear()
    rm = gap_bound_rm(rm_in)
    assert len(calls) == 2
    # the remainder from the shared fixed points is the public one
    assert fm.epsilon == epsilon_remainder(fm_in, fm_in.nu)
    assert rm.epsilon == epsilon_remainder(rm_in, rm_in.gamma)


def test_fm_bound_rejects_degenerate_m0():
    with pytest.raises(ValueError):
        gap_bound_fm(_inputs(m0=0))
    with pytest.raises(ValueError):
        gap_bound_fm(_inputs(m0=100))


def test_bound_inputs_reject_non_integer_counts():
    for kwargs, key in [(dict(m0=70.5), "m0"), (dict(m=100.5), "m")]:
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            _inputs(**kwargs)


def test_rm_bound_structure():
    inp = _inputs(m=10**4, delta=0.05, m0=None, gamma=0.025)
    res = gap_bound_rm(inp)
    eps = epsilon_remainder(inp, 0.025)
    tail = 4 * math.exp(-2 * 10**4 * (0.025 - 1e-4) ** 2)
    assert res.gap_bound == pytest.approx(0.7 * eps + tail, abs=1e-12)
    with pytest.raises(ValueError):
        gap_bound_rm(_inputs(gamma=None))


def test_vacuous_regime_flagged():
    # delta - y - 1/m <= 0 makes the tail 4/(1-zeta): bound >= 4*pi0/(1-zeta) > 1
    res = gap_bound_fm(_inputs(m=10, delta=0.05, m0=7))
    assert res.gap_bound >= 4 * 0.7 / 0.3 - 1e-9
    assert res.vacuous


def test_nu_uses_both_neighbours():
    inp = _inputs(m=10, m0=7, zeta=0.7)
    assert inp.nu == pytest.approx(0.1)  # |6/10 - 0.7| dominates |7/10 - 0.7|
    assert _inputs(m=10, m0=7, zeta=0.65).nu == pytest.approx(0.05)


def test_inputs_validation():
    with pytest.raises(ValueError):
        _inputs(zeta=0.0)
    with pytest.raises(ValueError):
        _inputs(delta=1.0)
    with pytest.raises(ValueError):
        _inputs(kappa=1.5)
    with pytest.raises(ValueError):
        _inputs(m=1)


def test_aorc_v_delta():
    a, z = 0.2, 0.5
    for d in (0.01, 0.005):
        v = aorc_v_delta(a, z, d)
        assert abs(v - (1 - d * a / (z - a))) <= 10 * d * d
    assert aorc_v_delta(a, z, 1e-8) == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError):
        aorc_v_delta(0.5, 0.4, 0.01)


def test_aorc_feasibility_gate():
    assert aorc_feasible(0.2, 0.5, 0.01, 0.5)
    assert not aorc_feasible(0.2, 0.5, 0.01, 0.999)


def test_optimize_delta_fm():
    m = 10**4
    od = optimize_delta(LinearCurve(0.5), 0.7, m, 1.0, model="FM", m0=7000)
    nu = 1e-4  # max(|6999/m - 0.7|, |7000/m - 0.7|)
    expo = 2 * m * (od.delta - nu - 1 / m) ** 2 * (1 - nu / 0.7)
    assert math.exp(-expo) == pytest.approx(1 / m, rel=1e-9)
    assert od.bound_grid.gap_bound <= od.bound.gap_bound + 1e-12
    assert od.bound.gap_bound < 1


def test_optimize_delta_rm():
    m = 10**4
    od = optimize_delta(LinearCurve(0.5), 0.7, m, 1.0, model="RM")
    gamma = 1 / m + math.sqrt(math.log(2 * m) / (2 * m))
    assert 2 * math.exp(-2 * m * (gamma - 1 / m) ** 2) == pytest.approx(1 / m, rel=1e-9)
    assert od.bound.branch == "RM"
    assert od.bound.gap_bound < 1


def test_optimize_delta_errors():
    with pytest.raises(ValueError):
        optimize_delta(LinearCurve(0.5), 0.7, 100, 1.0, model="FM", m0=100)
    with pytest.raises(ValueError):
        optimize_delta(LinearCurve(0.5), 0.7, 100, 1.0, model="XX", m0=70)
    with pytest.raises(ValueError):
        # nu >= zeta leaves no feasible delta
        optimize_delta(LinearCurve(0.5), 0.05, 10, 1.0, model="FM", m0=9)


def test_rate_decreases_with_m():
    bounds = []
    for m in (10**3, 10**4, 10**5):
        od = optimize_delta(LinearCurve(0.5), 0.7, m, 1.0, model="FM", m0=round(0.7 * m))
        bounds.append(od.bound.gap_bound)
    assert bounds[0] > bounds[1] > bounds[2]
