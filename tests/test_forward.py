"""Differential tests of the forward-count engine.

The joint laws of sudfdr.exact are compared against two independent
references: the Steck-recursion assembly below (binomial prefactors times
boundary-noncrossing probabilities from sudfdr.steck) and, for the identity
and point-mass-at-zero alternatives, the same formulas in exact rational
arithmetic.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sudfdr.exact import fdr_sud, joint_pmf, sud_joint_masses
from sudfdr.models import (
    AlternativeCdf,
    DiracZeroCdf,
    GaussianLocationCdf,
    IdentityCdf,
    MixtureConfig,
)
from sudfdr.steck import PsiTable, psi_prefix, psi_rational, psi_two_pop_rational
from sudfdr.thresholds import LinearCurve, ThresholdCollection, from_rho, sd_part, su_part

# ---------------------------------------------------------------------------
# Steck-recursion reference assembly
# ---------------------------------------------------------------------------


def _pow0(base: float, exp: int) -> float:
    return 1.0 if exp == 0 else base**exp


def _fm_j_range(m: int, m0: int, k: int):
    return range(max(0, k - (m - m0)), min(m0, k) + 1)


def _su_fm_masses(t: ThresholdCollection, m0: int, F: AlternativeCdf) -> dict:
    """P(|R n nulls| = j, |R| = k) for the step-up procedure, fixed mixture."""
    m = t.m
    arr = t.as_array()
    s = 1.0 - arr[::-1]  # s_l = 1 - t_{m+1-l}, nondecreasing
    tab = PsiTable(s, F.reflected(), allow_degenerate=True)
    out = {}
    for k in range(m + 1):
        tk = t[k]
        Ftk = float(F(tk)) if k >= 1 else 1.0
        for j in _fm_j_range(m, m0, k):
            out[(k, j)] = (
                math.comb(m0, j)
                * math.comb(m - m0, k - j)
                * _pow0(tk, j)
                * _pow0(Ftk, k - j)
                * tab.get(m - k, m0 - j)
            )
    return out


def _sd_fm_masses(t: ThresholdCollection, m0: int, F: AlternativeCdf) -> dict:
    """Step-down counterpart of _su_fm_masses."""
    m = t.m
    tab = PsiTable(t.as_array(), F)
    out = {}
    for k in range(m + 1):
        tk1 = t[k + 1]  # t_{m+1} = 1 convention
        Ftk1 = float(F(tk1))
        for j in _fm_j_range(m, m0, k):
            out[(k, j)] = (
                math.comb(m0, j)
                * math.comb(m - m0, k - j)
                * _pow0(1.0 - tk1, m0 - j)
                * _pow0(1.0 - Ftk1, (m - m0) - (k - j))
                * tab.get(k, j)
            )
    return out


def _su_rm_masses(t: ThresholdCollection, pi0: float, F: AlternativeCdf) -> dict:
    """Step-up joint masses in the random mixture model."""
    m = t.m
    arr = t.as_array()
    g = pi0 * arr + (1.0 - pi0) * np.asarray(F(arr), dtype=float)
    s = np.maximum(1.0 - g[::-1], 0.0)
    psi1 = psi_prefix(s)
    out = {}
    for k in range(m + 1):
        tk = t[k]
        Ftk = float(F(tk)) if k >= 1 else 1.0
        tail = float(psi1[m - k])
        for j in range(k + 1):
            out[(k, j)] = (
                math.comb(m, j)
                * math.comb(m - j, k - j)
                * _pow0(pi0, j)
                * _pow0(1.0 - pi0, k - j)
                * _pow0(tk, j)
                * _pow0(Ftk, k - j)
                * tail
            )
    return out


def _sd_rm_masses(t: ThresholdCollection, pi0: float, F: AlternativeCdf) -> dict:
    """Step-down joint masses in the random mixture model."""
    m = t.m
    tab = PsiTable(t.as_array(), F)
    out = {}
    for k in range(m + 1):
        tk1 = t[k + 1]
        g1 = pi0 * tk1 + (1.0 - pi0) * float(F(tk1))
        for j in range(k + 1):
            out[(k, j)] = (
                math.comb(m, j)
                * math.comb(m - j, k - j)
                * _pow0(pi0, j)
                * _pow0(1.0 - pi0, k - j)
                * _pow0(max(1.0 - g1, 0.0), m - k)
                * tab.get(k, j)
            )
    return out


def _reference_pure(t: ThresholdCollection, cfg: MixtureConfig, procedure: str) -> dict:
    if cfg.model == "FM":
        builder = _su_fm_masses if procedure == "SU" else _sd_fm_masses
        return builder(t, cfg.m0, cfg.F)
    builder = _su_rm_masses if procedure == "SU" else _sd_rm_masses
    return builder(t, cfg.pi0, cfg.F)


def _reference_sud(t: ThresholdCollection, lam: int, cfg: MixtureConfig) -> dict:
    su = _reference_pure(su_part(t, lam), cfg, "SU")
    sd = _reference_pure(sd_part(t, lam), cfg, "SD")
    entries = {kj: v for kj, v in su.items() if kj[0] < lam}
    entries.update({kj: v for kj, v in sd.items() if kj[0] >= lam})
    return entries


def _max_gap(masses: np.ndarray, reference: dict) -> float:
    expected = np.zeros_like(masses)
    for (k, j), v in reference.items():
        expected[k, j] = float(v)
    return float(np.max(np.abs(masses - expected)))


# ---------------------------------------------------------------------------
# agreement with the Steck reference
# ---------------------------------------------------------------------------

ALTERNATIVES = [IdentityCdf(), GaussianLocationCdf(0.5), GaussianLocationCdf(2.0), DiracZeroCdf()]
ALTERNATIVE_IDS = ["identity", "gaussian0.5", "gaussian2", "dirac_zero"]


def _configs(m: int, F: AlternativeCdf):
    fm = [MixtureConfig(model="FM", m=m, m0=m0, F=F) for m0 in sorted({0, 1, m // 2, m - 1, m})]
    rm = [MixtureConfig(model="RM", m=m, pi0=pi0, F=F) for pi0 in (0.3, 0.7, 1.0)]
    return fm + rm


@pytest.mark.parametrize("F", ALTERNATIVES, ids=ALTERNATIVE_IDS)
@pytest.mark.parametrize("m", [2, 3, 5, 10, 12])
def test_sud_masses_match_steck_reference(m, F):
    t = from_rho(LinearCurve(0.5), m)
    for cfg in _configs(m, F):
        for lam in range(1, m + 1):
            gap = _max_gap(sud_joint_masses(t, lam, cfg).masses, _reference_sud(t, lam, cfg))
            assert gap <= 1e-12, (cfg, lam, gap)
        for procedure in ("SU", "SD"):
            gap = _max_gap(joint_pmf(t, cfg, procedure).masses, _reference_pure(t, cfg, procedure))
            assert gap <= 1e-12, (cfg, procedure, gap)


_GRID = st.sampled_from([0.0, 0.05, 0.25, 0.5, 1.0])  # repeated values make ties


@st.composite
def _threshold_vectors(draw):
    m = draw(st.integers(min_value=2, max_value=8))
    vals = draw(st.lists(st.one_of(_GRID, st.floats(0.0, 1.0)), min_size=m, max_size=m))
    t = sorted(vals)
    if draw(st.booleans()):
        t[0], t[-1] = 0.0, 1.0
    return ThresholdCollection(tuple(t))


@given(_threshold_vectors(), st.data())
@settings(derandomize=True, deadline=None, max_examples=150)
def test_forward_count_matches_steck_on_random_thresholds(t, data):
    F = data.draw(st.sampled_from(ALTERNATIVES))
    if isinstance(F, DiracZeroCdf) and t[1] == 0.0:
        # With t_1 = 0 the reference's step-up masses for the point mass at
        # zero sum to more than 1: its reflected table counts an alternative
        # at 1 - p = 1 as below a reflected threshold 1 - t = 1, i.e. as not
        # rejected at p = t = 0, while the step-up rule rejects when p <= t.
        # That case is checked against exact values in
        # test_point_mass_at_zero_with_zero_threshold and the rational audit.
        F = IdentityCdf()
    m = t.m
    if data.draw(st.booleans()):
        cfg = MixtureConfig(model="FM", m=m, m0=data.draw(st.integers(0, m)), F=F)
    else:
        cfg = MixtureConfig(model="RM", m=m, pi0=data.draw(st.floats(0.0, 1.0)), F=F)
    lam = data.draw(st.integers(1, m))
    gap = _max_gap(sud_joint_masses(t, lam, cfg).masses, _reference_sud(t, lam, cfg))
    assert gap <= 1e-12


def test_point_mass_at_zero_with_zero_threshold():
    # One uniform null U and one alternative at 0, t = (0, 0.5).  Step-up:
    # p_(2) = U <= 0.5 gives (k, j) = (2, 1); otherwise p_(1) = 0 <= t_1
    # gives (1, 0).  Step-down: p_(1) = 0 <= 0 always, so the same law.
    t = ThresholdCollection((0.0, 0.5))
    cfg = MixtureConfig(model="FM", m=2, m0=1, F=DiracZeroCdf())
    expected = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.5, 0.0]])
    for procedure in ("SU", "SD"):
        assert np.array_equal(joint_pmf(t, cfg, procedure).masses, expected)


# ---------------------------------------------------------------------------
# exact-rational audit (identity and point mass at zero)
# ---------------------------------------------------------------------------


def _rational_fm(t: list, m0: int, alt: str, procedure: str) -> dict:
    """FM joint law in Fraction arithmetic from the rational Steck recursions."""
    m = len(t)
    m1 = m - m0
    one = Fraction(1)
    F = (lambda x: x) if alt == "identity" else (lambda x: one)
    s = [one - x for x in reversed(t)]
    out = {}
    for k in range(m + 1):
        for j in _fm_j_range(m, m0, k):
            c = math.comb(m0, j) * math.comb(m1, k - j)
            if procedure == "SD":
                tk1 = t[k] if k < m else one
                out[(k, j)] = (
                    c * (one - tk1) ** (m0 - j) * (one - F(tk1)) ** (m1 - k + j)
                    * psi_two_pop_rational(t[:k], j, alt)
                )
                continue
            tk = t[k - 1] if k else Fraction(0)
            Fk = F(tk) if k else one
            if alt == "identity":
                tail = psi_two_pop_rational(s[: m - k], m0 - j, alt)
            else:
                # reflected alternatives sit at 1 and never fall strictly
                # below a reflected threshold: all of them must be rejected
                tail = psi_rational(s[: m0 - j]) if k - j == m1 else 0
            out[(k, j)] = c * tk**j * Fk ** (k - j) * tail
    return out


def _rational_sud(t: list, lam: int, m0: int, alt: str) -> dict:
    cap = t[lam - 1]
    su = _rational_fm([min(x, cap) for x in t], m0, alt, "SU")
    sd = _rational_fm([max(x, cap) for x in t], m0, alt, "SD")
    return {kj: (su if kj[0] < lam else sd)[kj] for kj in su}


@pytest.mark.parametrize("alt, F", [("identity", IdentityCdf()), ("dirac_zero", DiracZeroCdf())])
def test_rational_audit(alt, F):
    rng = np.random.default_rng(11)
    pi0 = Fraction(3, 10)
    for m in range(2, 7):
        for draw in range(2):
            t = sorted(Fraction(int(x), 16) for x in rng.integers(0, 17, m))
            if draw:
                t[0], t[-1] = Fraction(0), Fraction(1)
            tc = ThresholdCollection(tuple(float(x) for x in t))
            for lam in range(1, m + 1):
                laws = [_rational_sud(t, lam, m0, alt) for m0 in range(m + 1)]
                for m0, law in enumerate(laws):
                    cfg = MixtureConfig(model="FM", m=m, m0=m0, F=F)
                    assert sum(law.values()) == 1
                    assert _max_gap(sud_joint_masses(tc, lam, cfg).masses, law) <= 1e-14
                rm_law = {}
                for m0, law in enumerate(laws):
                    weight = math.comb(m, m0) * pi0**m0 * (1 - pi0) ** (m - m0)
                    for kj, v in law.items():
                        rm_law[kj] = rm_law.get(kj, 0) + weight * v
                cfg = MixtureConfig(model="RM", m=m, pi0=float(pi0), F=F)
                assert _max_gap(sud_joint_masses(tc, lam, cfg).masses, rm_law) <= 1e-14


# ---------------------------------------------------------------------------
# precision at scale
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "F", [IdentityCdf(), DiracZeroCdf(), GaussianLocationCdf(1.0)], ids=lambda F: F.kind
)
def test_linear_step_up_oracle_at_m300(F):
    m, m0, alpha = 300, 210, 0.5
    t = from_rho(LinearCurve(alpha), m)
    cfg = MixtureConfig(model="FM", m=m, m0=m0, F=F)
    assert abs(fdr_sud(t, m, cfg).fdr - m0 * alpha / m) <= 1e-13
    pmf = sud_joint_masses(t, m, cfg)
    assert abs(pmf.total() - 1.0) <= 1e-13
    assert pmf.masses.min() >= 0.0
