from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import steck_reference
from steck_reference import PsiTable, _clamp, psi_prefix
from sudfdr import exact
from sudfdr.exact import PrecisionError
from sudfdr.models import (
    DiracZeroCdf,
    GaussianLocationCdf,
    IdentityCdf,
    StepAtOneCdf,
)
from sudfdr.steck import psi, psi_rational, psi_two_pop, psi_two_pop_rational


def _mc_noncrossing(t, k0, F, n, seed):
    """Monte-Carlo oracle for the ordered-sample noncrossing probability."""
    rng = np.random.default_rng(seed)
    k = len(t)
    hits = 0
    chunk = 10**6
    done = 0
    t = np.asarray(t, dtype=float)
    while done < n:
        size = min(chunk, n - done)
        x = np.empty((size, k))
        x[:, :k0] = rng.random((size, k0))
        if k - k0:
            x[:, k0:] = F.quantile(rng.random((size, k - k0)))
        x.sort(axis=1)
        hits += int(np.sum(np.all(x <= t[None, :], axis=1)))
        done += size
    p_hat = hits / n
    se = np.sqrt(max(p_hat * (1 - p_hat), 1e-12) / n)
    return p_hat, se


def test_psi_k1():
    assert psi([0.3]) == pytest.approx(0.3, abs=1e-15)


def test_psi_k2_closed_form():
    assert psi([0.2, 0.5]) == pytest.approx(0.5**2 - 0.3**2, abs=1e-15)


def test_psi_k5_against_mc():
    t = [0.1, 0.2, 0.3, 0.4, 0.5]
    exact = psi(t)
    est, se = _mc_noncrossing(t, 5, IdentityCdf(), 10**7, seed=2)
    assert abs(exact - est) <= 4 * se


def test_psi_empty_and_ones():
    assert psi([]) == 1.0
    assert psi([1.0, 1.0, 1.0]) == pytest.approx(1.0, abs=1e-12)


def test_psi_input_validation():
    with pytest.raises(ValueError):
        psi([0.5, 0.2])
    with pytest.raises(ValueError):
        psi([-0.1, 0.5])
    with pytest.raises(ValueError):
        psi_rational([Fraction(1, 2), Fraction(1, 5)])
    with pytest.raises(ValueError):
        psi_rational([Fraction(3, 2)])


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12), st.data())
@settings(max_examples=60, deadline=None)
def test_two_pop_k0_equals_k_reduces_to_one_pop(vals, data):
    t = sorted(vals)
    F = data.draw(st.sampled_from([GaussianLocationCdf(1.0), IdentityCdf(), DiracZeroCdf()]))
    assert psi_two_pop(t, len(t), F) == pytest.approx(psi(t), abs=1e-12)


@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_two_pop_identity_reduces_to_one_pop(vals, data):
    t = sorted(vals)
    k0 = data.draw(st.integers(min_value=0, max_value=len(t)))
    assert psi_two_pop(t, k0, IdentityCdf()) == pytest.approx(psi(t), abs=1e-12)


def test_two_pop_dirac_hand_example():
    # One point-mass-at-zero variable always sits below t_1; the remaining
    # uniform must clear t_2 = 0.5.
    assert psi_two_pop([0.1, 0.5], 1, DiracZeroCdf()) == pytest.approx(0.5, abs=1e-14)


def test_two_pop_gaussian_against_mc():
    t = [0.1, 0.2, 0.3, 0.4]
    F = GaussianLocationCdf(1.0)
    exact = psi_two_pop(t, 2, F)
    est, se = _mc_noncrossing(t, 2, F, 10**7, seed=5)
    assert abs(exact - est) <= 4 * se


def test_two_pop_validation():
    with pytest.raises(ValueError):
        psi_two_pop([0.1, 0.5], 3, IdentityCdf())
    with pytest.raises(ValueError):
        psi_two_pop([0.1, 0.5], 1, StepAtOneCdf())
    with pytest.raises(ValueError):
        psi_two_pop([0.5, 0.1], 1, IdentityCdf())


def test_two_pop_all_ones_is_one():
    for F in (IdentityCdf(), GaussianLocationCdf(0.7)):
        assert psi_two_pop([1.0] * 4, 2, F) == pytest.approx(1.0, abs=1e-12)


def test_zero_uniforms_is_probability_integral_transform():
    t = [0.05, 0.2, 0.35, 0.6]
    F = GaussianLocationCdf(1.5)
    lhs = psi_two_pop(t, 0, F)
    rhs = psi([float(F(x)) for x in t])
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_monotone_in_each_threshold():
    rng = np.random.default_rng(17)
    F = GaussianLocationCdf(1.0)
    for _ in range(25):
        t = np.sort(rng.random(6))
        k0 = int(rng.integers(0, 7))
        base = psi_two_pop(t, k0, F)
        j = int(rng.integers(0, 6))
        bumped = t.copy()
        hi = bumped[j + 1] if j < 5 else 1.0
        bumped[j] = bumped[j] + 0.5 * (hi - bumped[j])
        assert psi_two_pop(bumped, k0, F) >= base - 1e-12


def test_rational_one_pop_agreement():
    rng = np.random.default_rng(3)
    for _ in range(10):
        k = int(rng.integers(1, 13))
        fr = sorted(Fraction(int(x), 64) for x in rng.integers(0, 65, k))
        exact = psi_rational(fr)
        approx = psi([float(x) for x in fr])
        assert abs(approx - float(exact)) <= 1e-9


def test_rational_two_pop_agreement():
    rng = np.random.default_rng(4)
    for alt, F in (("identity", IdentityCdf()), ("dirac_zero", DiracZeroCdf())):
        for _ in range(6):
            k = int(rng.integers(1, 11))
            k0 = int(rng.integers(0, k + 1))
            fr = sorted(Fraction(int(x), 32) for x in rng.integers(0, 33, k))
            exact = psi_two_pop_rational(fr, k0, alt=alt)
            approx = psi_two_pop([float(x) for x in fr], k0, F)
            assert abs(approx - float(exact)) <= 1e-9
            assert 0 <= exact <= 1


def test_rational_mode_rejects_other_alternatives():
    with pytest.raises(ValueError):
        psi_two_pop_rational([Fraction(1, 2)], 1, alt="gaussian")
    for alt in ("identity", "dirac_zero"):
        with pytest.raises(ValueError):
            psi_two_pop_rational([Fraction(1, 2), Fraction(1, 5)], 1, alt)
        with pytest.raises(ValueError):
            psi_two_pop_rational([Fraction(-1, 2)], 0, alt)
        with pytest.raises(ValueError):
            psi_two_pop_rational([Fraction(1, 2)], 2, alt)


def test_non_integer_k0_raises_value_error():
    with pytest.raises(ValueError, match="k0 must be an integer"):
        psi_two_pop([0.1, 0.5], 1.5, GaussianLocationCdf(1.0))
    with pytest.raises(ValueError, match="k0 must be an integer"):
        psi_two_pop_rational([Fraction(1, 5), Fraction(1, 2)], 1.0)


def test_table_dirac_shortcut_matches_rational():
    rng = np.random.default_rng(9)
    fr = sorted(Fraction(int(x), 32) for x in rng.integers(1, 33, 8))
    tab = PsiTable([float(x) for x in fr], DiracZeroCdf())
    for k in range(9):
        for k0 in range(k + 1):
            exact = psi_two_pop_rational(fr[:k], k0, alt="dirac_zero")
            assert tab.get(k, k0) == pytest.approx(float(exact), abs=1e-10)


def test_table_constant_vector_closed_form():
    F = GaussianLocationCdf(1.0)
    tab = PsiTable([0.3] * 6, F)
    general = [[psi_two_pop([0.3] * k, k0, F) for k0 in range(k + 1)] for k in range(7)]
    for k in range(7):
        for k0 in range(k + 1):
            assert tab.get(k, k0) == pytest.approx(0.3**k0 * float(F(0.3)) ** (k - k0), abs=1e-12)
            assert tab.get(k, k0) == pytest.approx(general[k][k0], abs=1e-10)


def test_table_step_at_one_mode():
    # Degenerate variables sit at 1 exactly: they clear their thresholds iff
    # the top k - k0 thresholds are 1, and the uniforms handle the rest.
    t = [0.2, 0.4, 1.0, 1.0]
    tab = PsiTable(t, StepAtOneCdf(), allow_degenerate=True)
    assert tab.get(4, 2) == pytest.approx(psi([0.2, 0.4]), abs=1e-14)
    assert tab.get(3, 1) == pytest.approx(0.0, abs=0.0)  # t_1=0.2 < 1 blocks
    assert tab.get(2, 2) == pytest.approx(psi([0.2, 0.4]), abs=1e-14)
    with pytest.raises(ValueError):
        PsiTable(t, StepAtOneCdf())  # rejected without the explicit opt-in


def test_table_matches_prefix_helper():
    t = np.linspace(0.05, 0.5, 10)
    tab = PsiTable(t)
    pref = psi_prefix(t)
    for k in range(11):
        assert tab.get(k, k) == pytest.approx(float(pref[k]), abs=1e-14)


def test_tripwire_negativity_small_on_m100():
    t = 0.5 * np.arange(1, 101) / 100
    tab = PsiTable(t, GaussianLocationCdf(1.0))
    assert tab.max_negativity <= 1e-9
    tab2 = PsiTable(t, DiracZeroCdf())
    assert tab2.max_negativity <= 1e-9


def test_clamp_raises_on_large_negativity():
    with pytest.raises(PrecisionError):
        _clamp(-1e-5, [0.0])
    assert _clamp(-1e-8, [0.0]) == 0.0
    assert _clamp(1.0 + 1e-9, [0.0]) == 1.0


# ---------------------------------------------------------------------------
# the forward counts against Steck's recursions
# ---------------------------------------------------------------------------

ALTERNATIVES = [IdentityCdf(), GaussianLocationCdf(1.0), GaussianLocationCdf(3.0), DiracZeroCdf()]
ALTERNATIVE_IDS = ["identity", "gaussian1", "gaussian3", "dirac_zero"]


def test_forward_counts_match_steck_on_random_thresholds():
    # acceptance 04's instances: k <= 20 sorted uniform thresholds
    rng = np.random.default_rng(41)
    for _ in range(1000):
        k = int(rng.integers(1, 21))
        t = np.sort(rng.random(k))
        k0 = int(rng.integers(0, k + 1))
        F = ALTERNATIVES[int(rng.integers(len(ALTERNATIVES)))]
        assert abs(psi(t) - steck_reference.psi(t)) <= 1e-13, t
        assert abs(psi_two_pop(t, k0, F) - steck_reference.psi_two_pop(t, k0, F)) <= 1e-13, (t, k0, F.kind)


@pytest.mark.parametrize("F", ALTERNATIVES, ids=ALTERNATIVE_IDS)
def test_forward_counts_match_steck_at_extreme_thresholds(F):
    # the values where 1 - t, F(t) or a threshold increment round away,
    # tied, mixed with a few uniform thresholds
    edges = [0.0, 5e-324, 1e-170, 1.0 - 1e-16, 1.0]
    rng = np.random.default_rng(42)
    for _ in range(100):
        t = np.sort(np.concatenate([rng.choice(edges, int(rng.integers(1, 7))), rng.random(int(rng.integers(0, 3)))]))
        assert abs(psi(t) - steck_reference.psi(t)) <= 1e-13, t
        for k0 in range(len(t) + 1):
            assert abs(psi_two_pop(t, k0, F) - steck_reference.psi_two_pop(t, k0, F)) <= 1e-13, (t, k0)


def test_rational_counts_equal_steck():
    rng = np.random.default_rng(43)
    for k in [*range(1, 11), *range(1, 11)]:
        den = 64 if k % 2 else 10**6  # small denominators make ties, 0 and 1
        t = sorted(Fraction(int(x), den) for x in rng.integers(0, den + 1, k))
        assert psi_rational(t) == steck_reference.psi_rational(t)
        for alt in ("identity", "dirac_zero"):
            for k0 in range(k + 1):
                assert psi_two_pop_rational(t, k0, alt) == steck_reference.psi_two_pop_rational(t, k0, alt)
    for k in (20, 30):
        t = sorted(Fraction(int(x), 10**6) for x in rng.integers(0, 10**6 + 1, k))
        assert psi_rational(t) == steck_reference.psi_rational(t)


@pytest.mark.parametrize("defect", [(1e-6, 0.0), (-1e-6, 1e-6)], ids=["total", "negative"])
def test_two_pop_raises_when_its_count_fails_the_mass_check(monkeypatch, defect):
    count = exact._sd_fm_masses

    def faulty(*args):
        masses = count(*args)
        masses[0, [0, 2], [1, 0]] += defect  # (k, j) = (0, 1) and (2, 0), j > k and j < k - m1: both hold 0
        return masses

    monkeypatch.setattr(exact, "_sd_fm_masses", faulty)
    with pytest.raises(PrecisionError):
        psi_two_pop([0.1, 0.5], 1, GaussianLocationCdf(1.0))
