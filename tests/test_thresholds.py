import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sudfdr.thresholds import (
    AorcCurve,
    CustomCurve,
    LinearCurve,
    ThresholdCollection,
    check_curve,
    curve_from_config,
    from_rho,
    sd_part,
    su_part,
    validate,
)


def test_linear_from_rho():
    t = from_rho(LinearCurve(0.5), 10)
    assert t.m == 10
    for k in range(1, 11):
        assert t[k] == pytest.approx(0.05 * k, abs=1e-15)


def test_aorc_endpoint_is_one():
    t = from_rho(AorcCurve(0.2), 5)
    assert t[5] == 1.0


def test_aorc_m2_values():
    t = from_rho(AorcCurve(0.5), 2)
    assert t[1] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert t[2] == 1.0


def test_from_rho_rejects_small_m():
    with pytest.raises(ValueError):
        from_rho(LinearCurve(0.5), 1)


def test_getitem_conventions():
    t = from_rho(LinearCurve(0.5), 4)
    assert t[0] == 0.0
    assert t[5] == 1.0  # t_{m+1}


def test_validate_linear_collection():
    rep = validate(from_rho(LinearCurve(0.5), 10))
    assert rep.monotone and rep.tk_over_k_monotone


def test_validate_step_at_one_style_collection():
    rep = validate(ThresholdCollection((0.2, 0.2, 0.2, 1.0)))
    assert rep.monotone
    assert not rep.tk_over_k_monotone  # t_k/k = 0.2, 0.1, 0.0667, 0.25


def test_validate_decreasing_raw_vector():
    rep = validate([0.3, 0.2])
    assert not rep.monotone


def test_collection_rejects_decreasing():
    with pytest.raises(ValueError):
        ThresholdCollection((0.3, 0.2))


def test_collection_rejects_out_of_range():
    with pytest.raises(ValueError):
        ThresholdCollection((0.1, 1.2))


def test_su_sd_parts_linear_m4():
    t = from_rho(LinearCurve(0.5), 4)  # (0.125, 0.25, 0.375, 0.5)
    su = su_part(t, 2)
    sd = sd_part(t, 2)
    assert su.t == (0.125, 0.25, 0.25, 0.25)
    assert sd.t == (0.25, 0.25, 0.375, 0.5)


def test_su_part_at_lambda_m_is_identity():
    t = from_rho(AorcCurve(0.2), 6)
    assert su_part(t, 6).t == t.t


def test_part_lambda_out_of_range():
    t = from_rho(LinearCurve(0.5), 4)
    with pytest.raises(ValueError):
        su_part(t, 0)
    with pytest.raises(ValueError):
        sd_part(t, 5)


@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=12),
    st.data(),
)
def test_parts_sandwich_collection(vals, data):
    t = ThresholdCollection(tuple(sorted(vals)))
    lam = data.draw(st.integers(min_value=1, max_value=t.m))
    su = su_part(t, lam)
    sd = sd_part(t, lam)
    for k in range(1, t.m + 1):
        assert su[k] <= t[k] <= sd[k]


def test_linear_tk_over_k_constant():
    t = from_rho(LinearCurve(0.3), 25)
    ratios = t.as_array() / np.arange(1, 26)
    assert np.allclose(ratios, 0.3 / 25, atol=1e-15)


def test_aorc_inverse_identity():
    rho = AorcCurve(0.2)
    u = np.linspace(0.0, 0.999, 500)
    back = rho.inverse(np.asarray(rho(u)))
    assert np.max(np.abs(back - u)) < 1e-12


def test_check_curve_accepts_standard_families():
    for rho in (LinearCurve(0.05), LinearCurve(0.5), AorcCurve(0.2)):
        ok, reason = check_curve(rho)
        assert ok, reason


def test_custom_curve_rejects_decreasing_ratio():
    # rho(u)/u = (2 - u)/2 is decreasing
    with pytest.raises(ValueError):
        CustomCurve(lambda u: u * (2.0 - u) / 2.0)


def test_custom_curve_rejects_nonmonotone():
    with pytest.raises(ValueError):
        CustomCurve(lambda u: 0.5 * u * (1.0 - u))


def test_custom_curve_maps_scalar_function_over_arrays():
    rho = CustomCurve(lambda u: 0.5 * math.pow(u, 2))
    u = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    out = rho(u)
    assert out.shape == (3, 4) and out.dtype == float
    assert out.tolist() == [[rho(x) for x in row] for row in u.tolist()]
    assert rho(0.5) == 0.125


def test_curve_from_config_roundtrip():
    rho = curve_from_config({"curve": "aorc", "alpha": 0.2})
    assert isinstance(rho, AorcCurve)
    assert rho.to_config() == {"curve": "aorc", "alpha": 0.2}
    with pytest.raises(ValueError):
        curve_from_config({"curve": "spline"})


def test_alpha_validation():
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            LinearCurve(bad)
        with pytest.raises(ValueError):
            AorcCurve(bad)


@pytest.mark.parametrize(
    "t",
    [(0.1, math.nan, 0.5), (math.nan, 0.2), (0.1, 0.2, math.nan), (0.1, math.inf)],
    ids=["nan-middle", "nan-first", "nan-last", "inf"],
)
def test_non_finite_thresholds_are_rejected(t):
    with pytest.raises(ValueError, match="thresholds must"):
        ThresholdCollection(t)


def test_nested_thresholds_are_rejected():
    with pytest.raises(ValueError, match="flat sequence"):
        ThresholdCollection(((0.1, 0.2), (0.3, 0.4)))


@pytest.mark.parametrize(
    "func",
    [lambda u: math.nan, lambda u: math.nan if u > 0.5 else 0.5 * u, lambda u: 0.5 * u if u < 0.9 else math.nan],
    ids=["nan-everywhere", "nan-upper-half", "nan-at-the-end"],
)
def test_nan_valued_curves_are_rejected(func):
    ok, reason = check_curve(func)
    assert not ok and reason
    with pytest.raises(ValueError, match="invalid critical value function"):
        CustomCurve(func)


@pytest.mark.parametrize("m", [2, 3, 7, 10, 30, 100, 1000, 10007])
def test_from_rho_equals_the_scalar_construction(m):
    curves = [LinearCurve(0.05), LinearCurve(0.5), AorcCurve(0.2), CustomCurve(lambda u: 0.5 * math.pow(u, 2))]
    for rho in curves:
        scalar = tuple(float(rho(k / m)) for k in range(1, m + 1))
        assert from_rho(rho, m).t == scalar
