import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sudfdr.bounds import du_limit_cdf
from sudfdr.procedures import (
    EmpiricalCdf,
    _u_scan,
    check_sandwich,
    sud_khat,
    u_operator,
)
from sudfdr.thresholds import (
    AorcCurve,
    CriticalValueFunction,
    CustomCurve,
    LinearCurve,
    ThresholdCollection,
    from_rho,
)


def _halves(t, lam):
    """The capped (t_lambda ^ t_j)_j and floored (t_lambda v t_j)_j collections of an order-lambda SUD."""
    return ThresholdCollection(np.minimum(t.as_array(), t[lam])), ThresholdCollection(np.maximum(t.as_array(), t[lam]))


def _reference_su(p, t):
    """Naive step-up: largest k with p_(k) <= t_k."""
    ps = np.sort(p)
    k_hat = 0
    for k in range(1, len(p) + 1):
        if ps[k - 1] <= t[k]:
            k_hat = k
    return k_hat


def _reference_sd(p, t):
    """Naive step-down: longest initial run with p_(k) <= t_k."""
    ps = np.sort(p)
    k_hat = 0
    for k in range(1, len(p) + 1):
        if ps[k - 1] <= t[k]:
            k_hat = k
        else:
            break
    return k_hat


def test_hand_traced_step_down():
    t = from_rho(LinearCurve(0.5), 4)  # (0.125, 0.25, 0.375, 0.5)
    out = sud_khat([0.01, 0.02, 0.9, 0.95], t, 1)
    assert out.k_hat == 2
    assert out.rejected == frozenset({0, 1})
    assert out.threshold == 0.25


def test_no_rejections():
    t = from_rho(LinearCurve(0.5), 4)
    out = sud_khat([0.5, 0.6, 0.7, 0.8], t, 1)
    assert out.k_hat == 0
    assert out.rejected == frozenset()
    assert out.threshold == 0.0
    assert out.n_rejected == 0


def test_input_validation():
    t = from_rho(LinearCurve(0.5), 4)
    with pytest.raises(ValueError):
        sud_khat([0.1, 0.2, 0.3], t, 1)
    with pytest.raises(ValueError):
        sud_khat([0.1, 0.2, 0.3, 0.4], t, 0)
    with pytest.raises(ValueError):
        sud_khat([0.1, 0.2, 0.3, 0.4], t, 5)


def test_sud_khat_rejects_non_integer_counts():
    t = from_rho(LinearCurve(0.5), 4)
    for lam, m0, key in [(2.0, None, "lambda"), (2, 1.5, "m0"), (2, True, "m0")]:
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            sud_khat([0.1, 0.2, 0.3, 0.4], t, lam, m0=m0)


@pytest.mark.parametrize(
    "p", [[math.nan, 0.01, 0.02, 0.03], [-0.5, 1.7, 0.02, 0.03], [0.01, 0.02, 0.03, -0.0001]]
)
def test_p_values_outside_unit_interval_are_rejected(p):
    t = from_rho(LinearCurve(0.5), 4)
    with pytest.raises(ValueError, match=r"p-values must lie in \[0, 1\]"):
        sud_khat(p, t, 2, m0=2)
    assert sud_khat([0.0, 0.01, 0.02, 1.0], t, 2).k_hat == 3  # both ends are p-values


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=4, max_size=12))
@settings(max_examples=150, deadline=None)
def test_boundary_orders_match_classical_rules(p):
    t = from_rho(LinearCurve(0.4), len(p))
    assert sud_khat(p, t, len(p)).k_hat == _reference_su(p, t)
    assert sud_khat(p, t, 1).k_hat == _reference_sd(p, t)


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=3, max_size=10))
@settings(max_examples=100, deadline=None)
def test_rejections_nested_in_lambda(p):
    t = from_rho(AorcCurve(0.3), len(p))
    previous = frozenset()
    for lam in range(1, len(p) + 1):
        rej = sud_khat(p, t, lam).rejected
        assert previous <= rej
        previous = rej


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=3, max_size=10), st.data())
@settings(max_examples=100, deadline=None)
def test_partition_into_su_and_sd_halves(p, data):
    m = len(p)
    lam = data.draw(st.integers(min_value=1, max_value=m))
    t = from_rho(LinearCurve(0.5), m)
    out = sud_khat(p, t, lam)
    capped, floored = _halves(t, lam)
    su = sud_khat(p, capped, m)  # pure SU on capped collection
    sd = sud_khat(p, floored, 1)  # pure SD on floored collection
    if su.k_hat < lam:
        assert out.k_hat == su.k_hat and out.rejected == su.rejected
        assert not sd.k_hat >= lam or sd.k_hat == out.k_hat
    else:
        assert sd.k_hat >= lam
        assert out.k_hat == sd.k_hat and out.rejected == sd.rejected


def test_fdp_values():
    t = from_rho(LinearCurve(0.5), 4)
    assert sud_khat([0.9] * 4, t, 1, m0=2).fdp == 0.0
    # 2 false among 5 rejections
    t5 = from_rho(LinearCurve(0.9), 5)
    p = [0.01, 0.02, 0.03, 0.04, 0.05]
    out = sud_khat(p, t5, 5, m0=2)
    assert out.n_rejected == 5
    assert out.fdp == pytest.approx(0.4)
    # all-null: everything rejected is false
    assert sud_khat(p, t5, 5, m0=5).fdp == 1.0
    for m0 in (-3, 6):
        with pytest.raises(ValueError, match="m0 must be in"):
            sud_khat(p, t5, 5, m0=m0)


def test_sud_khat_fills_fdp_fields():
    t = from_rho(LinearCurve(0.5), 4)
    out = sud_khat([0.01, 0.02, 0.9, 0.95], t, 1, m0=1)
    assert out.false_rejections == 1
    assert out.fdp == pytest.approx(0.5)
    bare = sud_khat([0.01, 0.02, 0.9, 0.95], t, 1)
    assert bare.false_rejections is None and bare.fdp is None


def test_u_operator_du_fixed_point():
    zeta = 0.7
    rho = LinearCurve(0.5)
    u = u_operator(0.0, lambda x: (1 - zeta) + zeta * x, rho)
    assert u == pytest.approx(0.3 / 0.65, abs=1e-9)


def test_u_operator_identity_g_tau_one():
    rho = AorcCurve(0.3)  # rho(u) <= u, rho(1) = 1
    assert u_operator(1.0, lambda x: x, rho) == pytest.approx(1.0, abs=1e-12)


def test_u_operator_tau_validation():
    with pytest.raises(ValueError):
        u_operator(1.5, lambda x: x, LinearCurve(0.5))


def test_u_operator_empirical_on_grid():
    rng = np.random.default_rng(8)
    rho = LinearCurve(0.5)
    for _ in range(50):
        ghat = EmpiricalCdf(rng.random(10))
        for lam in (1, 4, 10):
            u = u_operator(lam / 10, ghat, rho)
            assert u in {k / 10 for k in range(11)}
            # brute-force the defining sets on the grid
            grid = [k / 10 for k in range(11)]
            tau = lam / 10
            if ghat(rho(tau)) >= tau:
                expect = min(x for x in grid if x >= tau and ghat(rho(x)) <= x)
            else:
                expect = max(x for x in grid if x <= tau and ghat(rho(x)) >= x)
            assert u == pytest.approx(expect, abs=1e-12)


def test_selection_scale_regression_vector():
    # A 10-point family whose selected fraction is 0.7 for orders 8 and 4,
    # while the continuous operator anchored at 0.4 stays at 0.4.
    p = np.array([0.02, 0.06, 0.11, 0.16, 0.24, 0.29, 0.34, 0.41, 0.9, 0.95])
    rho = LinearCurve(0.5)
    t = from_rho(rho, 10)
    assert sud_khat(p, t, 8).k_hat == 7
    assert sud_khat(p, t, 4).k_hat == 7
    assert u_operator(0.4, EmpiricalCdf(p), rho) == pytest.approx(0.4, abs=1e-12)
    assert u_operator(0.8, EmpiricalCdf(p), rho) == pytest.approx(0.7, abs=1e-12)


def test_u_operator_and_sandwich_return_builtin_types():
    # the value grid's point is a Python float, as the continuous search's is
    p = np.array([0.02, 0.06, 0.11, 0.16, 0.24, 0.29, 0.34, 0.41, 0.9, 0.95])
    rho = LinearCurve(0.5)
    for tau, expect in ((0.4, 0.4), (0.8, 0.7), (1.0, 0.7), (0.0, 0.0)):
        u = u_operator(tau, EmpiricalCdf(p), rho)
        assert type(u) is float and u == expect
    assert type(u_operator(0.5, lambda x: x, rho)) is float
    for lam in (1, 4, 8, 10):
        verdict = check_sandwich(p, rho, 10, lam)
        assert type(verdict) is bool and verdict is True


def test_sandwich_on_random_realizations():
    rng = np.random.default_rng(123)
    for _ in range(300):
        m = int(rng.integers(3, 15))
        p = rng.random(m)
        for rho in (LinearCurve(0.5), AorcCurve(0.2)):
            lam = int(rng.integers(1, m + 1))
            assert check_sandwich(p, rho, m, lam)


def test_step_up_branch_left_equality():
    # p_(lambda) > t_lambda forces the step-up branch, where the lower
    # operator value equals k_hat/m exactly.
    rng = np.random.default_rng(77)
    rho = LinearCurve(0.5)
    m = 10
    t = from_rho(rho, m)
    checked = 0
    while checked < 50:
        p = rng.random(m)
        lam = int(rng.integers(1, m + 1))
        if np.sort(p)[lam - 1] <= t[lam]:
            continue
        out = sud_khat(p, t, lam)
        lower = u_operator(lam / m, EmpiricalCdf(p), rho)
        assert lower == pytest.approx(out.k_hat / m, abs=1e-12)
        checked += 1


def test_empirical_cdf_steps():
    g = EmpiricalCdf([0.1, 0.4, 0.4, 0.9])
    assert g(0.05) == 0.0
    assert g(0.1) == 0.25
    assert g(0.4) == 0.75
    assert g(1.0) == 1.0


def test_empirical_cdf_rejects_an_empty_family():
    with pytest.raises(ValueError, match="at least one p-value"):
        EmpiricalCdf([])


@pytest.mark.parametrize("p", [[0.1, math.nan], [0.1, 1.5], [-0.2, 0.3]], ids=["nan", "above_one", "below_zero"])
def test_empirical_cdf_rejects_p_values_outside_unit_interval(p):
    with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
        EmpiricalCdf(p)


# ---------------------------------------------------------------------------
# the u_operator solvers against their scalar reference loops
# ---------------------------------------------------------------------------


def _reference_u_smooth(tau, G, rho, tol=1e-12):
    """Scan-and-bisect with one scalar G(rho(u)) call per scan point."""

    def h(u):
        return float(G(float(rho(u)))) - u

    n_scan = 4096
    if h(tau) >= 0.0:
        if h(tau) == 0.0:
            return tau
        us = np.linspace(tau, 1.0, n_scan)
        hs = np.array([h(u) for u in us])
        idx = np.nonzero(hs <= 0.0)[0]
        if len(idx) == 0:
            return 1.0
        i = idx[0]
        if i == 0:
            return float(us[0])
        lo, hi = us[i - 1], us[i]
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if h(mid) <= 0.0:
                hi = mid
            else:
                lo = mid
        return float(hi)
    us = np.linspace(0.0, tau, n_scan)
    hs = np.array([h(u) for u in us])
    idx = np.nonzero(hs >= 0.0)[0]
    if len(idx) == 0:
        return 0.0
    i = idx[-1]
    if i == n_scan - 1:
        return float(us[-1])
    lo, hi = us[i], us[i + 1]
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if h(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return float(lo)


def _reference_u_grid_scan(tau, G, rho, m):
    """Grid solver walking the value grid one point at a time."""
    grid = np.arange(m + 1) / m
    vals = np.asarray(G(rho(grid)))
    k_tau = round(tau * m) if abs(tau * m - round(tau * m)) < 1e-9 else None
    g_tau = float(G(rho(tau)))
    if g_tau >= tau:
        start = k_tau if k_tau is not None else int(np.ceil(tau * m - 1e-12))
        for k in range(start, m + 1):
            if vals[k] <= grid[k] + 1e-15:
                return grid[k]
        return 1.0
    stop = k_tau if k_tau is not None else int(np.floor(tau * m + 1e-12))
    for k in range(stop, -1, -1):
        if vals[k] >= grid[k] - 1e-15:
            return grid[k]
    return 0.0


def _perturbed(zeta, delta, sign):
    """g_plus (sign +1) or g_minus (sign -1) of the gap bound, array-capable."""
    g = du_limit_cdf(zeta)
    if sign > 0:
        return lambda x: np.minimum(g(x) + delta, 1.0)
    return lambda x: np.maximum(g(x) - delta, 0.0)


class _Counting:
    """Wraps G and counts its calls."""

    def __init__(self, G):
        self.G = G
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.G(x)


SMOOTH_CASES = [
    (rho, zeta, delta, kappa, sign)
    for rho in (LinearCurve(0.05), LinearCurve(0.5), AorcCurve(0.2))
    for zeta in (0.6, 0.8)
    for delta in (0.05, 0.2)
    for kappa in (0.0, 0.3, 0.5, 1.0)
    for sign in (1, -1)
]


def test_smooth_u_operator_equals_scalar_reference():
    for rho, zeta, delta, kappa, sign in SMOOTH_CASES:
        G = _perturbed(zeta, delta, sign)
        assert u_operator(kappa, G, rho) == _reference_u_smooth(kappa, G, rho), (
            rho.kind, rho.alpha, zeta, delta, kappa, sign)


def test_smooth_u_operator_ends_equal_scalar_reference():
    linear = LinearCurve(0.5)
    # h(tau) == 0: g_minus(0) = 1 - 0.75 - 0.25 is exactly 0
    G = _perturbed(0.75, 0.25, -1)
    assert u_operator(0.0, G, linear) == _reference_u_smooth(0.0, G, linear) == 0.0
    assert u_operator(1.0, lambda x: x, AorcCurve(0.3)) == 1.0
    # no crossing above tau: G(rho(u)) > u on all of [tau, 1]
    above = lambda x: x * 0.0 + 1.2  # noqa: E731
    assert u_operator(0.4, above, linear) == _reference_u_smooth(0.4, above, linear) == 1.0
    # no crossing below tau: G(rho(u)) < u on all of [0, tau]
    below = lambda x: x - 0.1  # noqa: E731
    assert u_operator(0.6, below, linear) == _reference_u_smooth(0.6, below, linear) == 0.0


def test_grid_u_operator_equals_scalar_reference():
    rng = np.random.default_rng(2024)
    for rho in (LinearCurve(0.5), AorcCurve(0.2)):
        for m in (2, 7, 10, 33):
            for _ in range(20):
                ghat = EmpiricalCdf(rng.random(m) ** 3)
                taus = [k / m for k in range(m + 1)] + [float(x) for x in rng.random(3)]
                for tau in taus:
                    assert u_operator(tau, ghat, rho) == _reference_u_grid_scan(tau, ghat, rho, m)

                    def g_upper(x):
                        return np.minimum(np.asarray(ghat(x)) + 1.0 / m, 1.0)

                    assert _u_scan(tau, g_upper, rho, m) == _reference_u_grid_scan(
                        tau, g_upper, rho, m)


class _Sizes:
    """Wraps G and records the size of each argument it gets."""

    def __init__(self, G):
        self.G = G
        self.sizes = []

    def __call__(self, x):
        self.sizes.append(np.size(x))
        return self.G(x)


def test_grid_search_evaluates_only_the_searched_side():
    # from tau = k/m the search reads at most the m - k + 1 grid points above
    # tau, or the k + 1 below it, and still equals the one-point-a-time walk
    rng = np.random.default_rng(25)
    for rho in (LinearCurve(0.5), AorcCurve(0.2)):
        for m in (5, 33, 100):
            for _ in range(5):
                ghat = EmpiricalCdf(rng.random(m) ** 3)

                def g_upper(x):
                    return np.minimum(np.asarray(ghat(x)) + 1.0 / m, 1.0)

                for G in (ghat, g_upper):
                    for k in range(m + 1):
                        sized = _Sizes(G)
                        assert _u_scan(k / m, sized, rho, m) == _reference_u_grid_scan(k / m, G, rho, m)
                        up = float(G(rho(k / m))) >= k / m
                        assert max(sized.sizes) <= (m - k + 1 if up else k + 1), (m, k, up)


def test_smooth_scan_evaluates_g_on_arrays():
    # the 4096-point scan is one call; h(tau) and the bisection add ~30 more
    for rho, zeta, delta, kappa, sign in SMOOTH_CASES:
        G = _Counting(_perturbed(zeta, delta, sign))
        u_operator(kappa, G, rho)
        assert G.calls <= 64


class _HalfSquare(CriticalValueFunction):
    """rho(u) = u^2 / 2, evaluated natively on arrays."""

    def __call__(self, u):
        return 0.5 * np.square(u)


def test_scalar_only_custom_curve():
    scalar_only = CustomCurve(lambda u: 0.5 * math.pow(u, 2))
    G = du_limit_cdf(0.7)
    u = u_operator(0.3, G, scalar_only)
    assert u == u_operator(0.3, G, _HalfSquare())
    assert u == _reference_u_smooth(0.3, G, scalar_only)
    assert u == pytest.approx(0.3406038, abs=1e-6)
