"""Differential tests of the forward-count engine.

The joint laws of sudfdr.exact are compared against two independent
references: the Steck-recursion assembly below (binomial prefactors times
boundary-noncrossing probabilities from steck_reference) and, for the identity
and point-mass-at-zero alternatives, the same formulas in exact rational
arithmetic.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammaln
from scipy.stats import binom

from steck_reference import PsiTable, psi_prefix, psi_rational, psi_two_pop_rational, reflected
from sudfdr import exact, steck
from sudfdr.exact import PrecisionError, fdp_cdf, fdp_pmf_histogram, fdr_sud, joint_pmf, kfwer, sud_joint_masses
from sudfdr.models import (
    AlternativeCdf,
    DiracZeroCdf,
    GaussianLocationCdf,
    IdentityCdf,
    MixtureConfig,
)
from sudfdr.thresholds import LinearCurve, ThresholdCollection, from_rho

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
    tab = PsiTable(s, reflected(F), allow_degenerate=True)
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


def _halves(t: ThresholdCollection, lam: int):
    """The capped (t_lambda ^ t_j)_j and floored (t_lambda v t_j)_j collections of an order-lambda SUD."""
    return ThresholdCollection(np.minimum(t.as_array(), t[lam])), ThresholdCollection(np.maximum(t.as_array(), t[lam]))


def _reference_sud(t: ThresholdCollection, lam: int, cfg: MixtureConfig) -> dict:
    capped, floored = _halves(t, lam)
    su = _reference_pure(capped, cfg, "SU")
    sd = _reference_pure(floored, cfg, "SD")
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
    if isinstance(F, DiracZeroCdf) and 1.0 - t[1] == 1.0:
        # When 1 - t_1 rounds to 1 the reference's step-up masses for the
        # point mass at zero sum to more than 1: its reflected table counts
        # an alternative at 1 - p = 1 as below a reflected threshold 1 - t_1
        # = 1, i.e. as not rejected at p = 0 <= t_1, while the step-up rule
        # rejects it.  That case is checked against exact values in
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
    # One uniform null U and one alternative at 0, t = (t_1, 0.5) with t_1
    # zero or so small that 1 - t_1 rounds to 1.  Step-up: p_(2) = U <= 0.5
    # gives (k, j) = (2, 1); otherwise p_(1) = 0 <= t_1 gives (1, 0).
    # Step-down: p_(1) = 0 <= t_1 always, so the same law.
    cfg = MixtureConfig(model="FM", m=2, m0=1, F=DiracZeroCdf())
    expected = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.5, 0.0]])
    for t1 in (0.0, 5e-324, 1e-170):
        t = ThresholdCollection((t1, 0.5))
        for procedure in ("SU", "SD"):
            assert np.array_equal(joint_pmf(t, cfg, procedure).masses, expected), (t1, procedure)


# ---------------------------------------------------------------------------
# jump-started halves, batched kernels and peak memory
# ---------------------------------------------------------------------------


def _tied_thresholds(m: int) -> ThresholdCollection:
    """Linear thresholds with t_1 = 0, t_m = 1 and a run of ties in between."""
    t = list(from_rho(LinearCurve(0.5), m).t)
    t[0], t[-1] = 0.0, 1.0
    t[m // 3 : m // 2] = [t[m // 3]] * (m // 2 - m // 3)
    return ThresholdCollection(tuple(t))


@pytest.mark.parametrize("F", [IdentityCdf(), GaussianLocationCdf(1.0), DiracZeroCdf()], ids=lambda F: F.kind)
@pytest.mark.parametrize("tied", [False, True], ids=["linear", "tied"])
def test_jump_started_halves_match_counts_from_step_one(F, tied):
    # sud_joint_masses starts each half at its jump to t_lambda; joint_pmf
    # counts the capped and floored collections from step 1.
    m = 30
    t = _tied_thresholds(m) if tied else from_rho(LinearCurve(0.5), m)
    cfgs = [MixtureConfig(model="FM", m=m, m0=m0, F=F) for m0 in (0, 21, 30)]
    cfgs += [MixtureConfig(model="RM", m=m, pi0=pi0, F=F) for pi0 in (0.7, 1.0)]
    for cfg in cfgs:
        for lam in range(1, m + 1):
            masses = sud_joint_masses(t, lam, cfg).masses
            capped, floored = _halves(t, lam)
            su = joint_pmf(capped, cfg, "SU").masses
            sd = joint_pmf(floored, cfg, "SD").masses
            assert np.max(np.abs(masses[:lam] - su[:lam])) <= 1e-14, (cfg, lam)
            assert np.max(np.abs(masses[lam:] - sd[lam:])) <= 1e-14, (cfg, lam)


@pytest.mark.parametrize(
    "cfg, most",
    [
        (MixtureConfig(model="FM", m=30, m0=21, F=GaussianLocationCdf(1.0)), 4),
        (MixtureConfig(model="RM", m=30, pi0=0.7, F=GaussianLocationCdf(1.0)), 6),
    ],
    ids=["FM", "RM"],
)
def test_kernels_are_built_in_batches(monkeypatch, cfg, most):
    # one build per step would be about 47 per call; the cold call builds
    # the problem's whole tables, and the later orders slice them
    t = from_rho(LinearCurve(0.5), cfg.m)
    calls = []
    build = exact._binomial_batch

    def counting(*args):
        calls.append(args[1])
        return build(*args)

    monkeypatch.setattr(exact, "_binomial_batch", counting)
    monkeypatch.setattr(exact, "_slot", None)
    for lam in (1, 15, 30):
        calls.clear()
        fdr_sud(t, lam, cfg)
        if lam == 1:
            assert 0 < len(calls) <= most, (lam, calls)
        else:
            assert not calls, (lam, calls)


def _sweep_configs(m: int) -> list:
    """The exact-sweep models of the benchmark: FM m0 = 0.7 m and RM pi0 =
    0.7 with the three alternatives."""
    Fs = (DiracZeroCdf(), GaussianLocationCdf(1.0), IdentityCdf())
    return [MixtureConfig(model="FM", m=m, m0=7 * m // 10, F=F) for F in Fs] + [
        MixtureConfig(model="RM", m=m, pi0=0.7, F=F) for F in Fs
    ]


def test_kernel_batches_build_few_unused_entries(monkeypatch):
    # Over the 180 orders of the m = 30 sweep every kernel is dense; the
    # batches build at most 1.5 times the entries the steps use (1.47; a
    # batch built at the size of its jump kernel builds 4.4 times).
    built, used = [], []
    build, moves = exact._binomial_batch, exact._moves

    def building(log_comb, first, last, *args):
        built.append(int((last - first + 1).sum()) * log_comb.shape[1])  # band entries
        return build(log_comb, first, last, *args)

    def using(*args):
        move, kernels = moves(*args)

        def counted():
            for K in kernels:
                used.append(K.size if isinstance(K, np.ndarray) else K.B.size)
                yield K

        return move, counted()

    monkeypatch.setattr(exact, "_binomial_batch", building)
    monkeypatch.setattr(exact, "_moves", using)
    t = from_rho(LinearCurve(0.5), 30)
    for cfg in _sweep_configs(30):
        for lam in range(1, 31):
            fdr_sud(t, lam, cfg)
    assert sum(built) <= 1.5 * sum(used), (sum(built), sum(used))


# ---------------------------------------------------------------------------
# retained step tables
# ---------------------------------------------------------------------------


def test_a_sweep_builds_each_direction_once(monkeypatch):
    # one _moves call per count, 60 per problem, when every order builds its
    # own kernels: 7830 kernels in 358 batches over the whole sweep
    moves, build = exact._moves, exact._binomial_batch
    calls, kernels = [], []

    def counting(lf, rows, *args):
        calls.append(len(rows))
        return moves(lf, rows, *args)

    def building(log_comb, first, *args):
        kernels.append(len(first))
        return build(log_comb, first, *args)

    monkeypatch.setattr(exact, "_moves", counting)
    monkeypatch.setattr(exact, "_binomial_batch", building)
    monkeypatch.setattr(exact, "_slot", None)
    t = from_rho(LinearCurve(0.5), 30)
    for cfg in _sweep_configs(30):
        calls.clear()
        for lam in range(1, 31):
            fdr_sud(t, lam, cfg)
        assert calls == [29, 29], (cfg, calls)  # steps 2..m of each direction
    assert len(kernels) <= 20 and sum(kernels) <= 600, (len(kernels), sum(kernels))


def test_a_sweep_counts_each_direction_once(monkeypatch):
    # a cold order counts every start of both directions, one count each; a
    # warm order reads its starts' exit tables and counts nothing (when each
    # order counts its own two halves, a problem takes 60 counts)
    calls = []

    def counting(name):
        count = getattr(exact, name)

        def wrapped(steps, *starts):
            calls.append((name, starts))
            return count(steps, *starts)

        return wrapped

    for name in ("_sd_fm_masses", "_sd_rm_masses"):
        monkeypatch.setattr(exact, name, counting(name))
    monkeypatch.setattr(exact, "_slot", None)
    t = from_rho(LinearCurve(0.5), 30)
    for cfg in _sweep_configs(30):
        calls.clear()
        fdr_sud(t, 15, cfg)
        sd = "_sd_rm_masses" if cfg.model == "RM" else "_sd_fm_masses"
        assert sorted(calls) == sorted([(sd, (1, 30)), ("_sd_fm_masses", (1, 30))]), (cfg, calls)
        calls.clear()
        for lam in range(1, 31):
            fdr_sud(t, lam, cfg)
        assert not calls, (cfg, calls)


def _cfgs_at_m30(F: AlternativeCdf) -> list:
    return [MixtureConfig(model="FM", m=30, m0=m0, F=F) for m0 in (0, 21, 30)] + [
        MixtureConfig(model="RM", m=30, pi0=pi0, F=F) for pi0 in (0.7, 1.0)
    ]


@pytest.mark.parametrize("F", [IdentityCdf(), GaussianLocationCdf(1.0), DiracZeroCdf()], ids=lambda F: F.kind)
@pytest.mark.parametrize("tied", [False, True], ids=["linear", "tied"])
def test_cold_and_warm_slots_give_equal_laws(monkeypatch, F, tied):
    # an order's law does not depend on whether its problem's tables were
    # built for it or retained from other orders, in any order of calls,
    # with another problem evicting the slot midway
    m = 30
    linear, ties = from_rho(LinearCurve(0.5), m), _tied_thresholds(m)
    t, other = (ties, linear) if tied else (linear, ties)
    rng = np.random.default_rng(17)
    for cfg in _cfgs_at_m30(F):
        cold = []
        for lam in range(1, m + 1):
            monkeypatch.setattr(exact, "_slot", None)
            cold.append(sud_joint_masses(t, lam, cfg).masses)
        lams = list(range(1, m + 1))
        for order in (lams, lams[::-1], rng.permutation(lams).tolist()):
            for n, lam in enumerate(order):
                if n == m // 2:
                    sud_joint_masses(other, lam, cfg)
                assert np.array_equal(sud_joint_masses(t, lam, cfg).masses, cold[lam - 1]), (cfg, lam)


def test_a_returned_law_belongs_to_the_caller(monkeypatch):
    # the slot keeps exit tables, and every law and histogram handed out is
    # the caller's own array: writing into one leaves every later law of the
    # retained problem as a cold call computes it
    m = 30
    t = from_rho(LinearCurve(0.5), m)
    for cfg in _cfgs_at_m30(GaussianLocationCdf(1.0)):
        cold = []
        for lam in range(1, m + 1):
            monkeypatch.setattr(exact, "_slot", None)
            cold.append(sud_joint_masses(t, lam, cfg).masses)
        slot = exact._slot
        for lam in range(1, m + 1):
            law = sud_joint_masses(t, lam, cfg).masses
            assert np.array_equal(law, cold[lam - 1]), (cfg, lam)
            law += 1.0
            law[0, 0] = np.nan
            fdp_pmf_histogram(t, lam, cfg, 20)[:] = -1.0
        for lam in range(1, m + 1):
            assert np.array_equal(sud_joint_masses(t, lam, cfg).masses, cold[lam - 1]), (cfg, lam)
        assert exact._slot is slot


@pytest.mark.parametrize("m", [30, 49])
def test_retained_and_streamed_laws_agree(monkeypatch, m):
    # every problem here is retained; with no room in the slot each streams
    # its kernels batch by batch instead, which moves a law by rounding only
    Fs = (IdentityCdf(), GaussianLocationCdf(1.0), DiracZeroCdf())
    cfgs = [MixtureConfig(model="FM", m=m, m0=m0, F=F) for F in Fs for m0 in (0, 7 * m // 10, m)]
    cfgs += [MixtureConfig(model="RM", m=m, pi0=pi0, F=F) for F in Fs for pi0 in (0.7, 1.0)]
    ts = (from_rho(LinearCurve(0.5), m), _tied_thresholds(m))
    cases = [(t, cfg, lam) for t in ts for cfg in cfgs for lam in range(1, m + 1)]
    retained = []
    for t, cfg, lam in cases:
        retained.append(sud_joint_masses(t, lam, cfg).masses)
        assert exact._slot is not None and exact._slot[0][2] == t.as_array().tobytes(), cfg
    monkeypatch.setattr(exact, "_SLOT_ENTRIES", 0)
    monkeypatch.setattr(exact, "_slot", None)
    for (t, cfg, lam), law in zip(cases, retained):
        gap = np.max(np.abs(sud_joint_masses(t, lam, cfg).masses - law))
        assert gap <= 1e-15, (cfg, lam, gap)
    assert exact._slot is None


def test_slot_holds_at_most_a_mebibyte(monkeypatch):
    # at the largest m that keeps every order (m0 = 0.7 m, pi0 = 0.7); an
    # m = 70 order replaces it with its one law
    monkeypatch.setattr(exact, "_slot", None)
    F = GaussianLocationCdf(1.0)
    cases = [
        (MixtureConfig(model="FM", m=56, m0=39, F=F), MixtureConfig(model="FM", m=70, m0=49, F=F)),
        (MixtureConfig(model="RM", m=50, pi0=0.7, F=F), MixtureConfig(model="RM", m=70, pi0=0.7, F=F)),
    ]
    for cfg, big in cases:
        fdr_sud(from_rho(LinearCurve(0.5), cfg.m), cfg.m // 2, cfg)
        _, lo, laws = exact._slot
        assert (lo, len(laws)) == (1, cfg.m), cfg
        assert laws.base is None  # no count buffer is kept
        assert laws.nbytes <= (1 << 17) * 8, (cfg, laws.nbytes)
        fdr_sud(from_rho(LinearCurve(0.5), 70), 35, big)
        _, lo, laws = exact._slot
        assert (lo, len(laws)) == (35, 1), big
        assert laws.nbytes <= (1 << 17) * 8, (big, laws.nbytes)


def _counted(monkeypatch) -> list:
    """Record the name and starts of every count the engine runs."""
    calls = []
    for name in ("_sd_fm_masses", "_sd_rm_masses"):

        def wrapped(steps, *starts, name=name, count=getattr(exact, name)):
            calls.append((name, starts))
            return count(steps, *starts)

        monkeypatch.setattr(exact, name, wrapped)
    return calls


@pytest.mark.parametrize(
    "cfg, every",
    [
        (MixtureConfig(model="FM", m=56, m0=39, F=GaussianLocationCdf(1.0)), True),
        (MixtureConfig(model="FM", m=57, m0=39, F=GaussianLocationCdf(1.0)), False),
        (MixtureConfig(model="RM", m=50, pi0=0.7, F=GaussianLocationCdf(1.0)), True),
        (MixtureConfig(model="RM", m=51, pi0=0.7, F=GaussianLocationCdf(1.0)), False),
    ],
    ids=["FM-56", "FM-57", "RM-50", "RM-51"],
)
def test_a_first_order_counts_every_start_up_to_the_budget(monkeypatch, cfg, every):
    # the m laws of a problem, at the width of its larger population, fit
    # in 2^17 entries up to m = 56 in FM (m0 = 0.7 m) and m = 50 in RM: there
    # a first order counts every start of both directions, and above it only
    # its own two starts
    calls = _counted(monkeypatch)
    monkeypatch.setattr(exact, "_slot", None)
    m, lam = cfg.m, cfg.m // 2
    fdr_sud(from_rho(LinearCurve(0.5), m), lam, cfg)
    sd = "_sd_rm_masses" if cfg.model == "RM" else "_sd_fm_masses"
    starts = [(1, m), (1, m)] if every else [(lam, lam), (m - lam + 1, m - lam + 1)]
    assert sorted(calls) == sorted(zip((sd, "_sd_fm_masses"), starts)), calls


@pytest.mark.parametrize("defect", [(0.0, 1e-6), (1e-6, -1e-6)], ids=["total", "negative"])
@pytest.mark.parametrize("model", ["FM", "RM"])
def test_a_law_that_fails_its_mass_check_is_never_retained(monkeypatch, defect, model):
    # the defect goes into the last two columns of every row of the
    # step-down count; the last column holds 0 on the ranks k < j, so the
    # law of order 5 has a total off 1, or a negative mass
    cfg = (
        MixtureConfig(model="RM", m=10, pi0=0.7, F=GaussianLocationCdf(1.0))
        if model == "RM"
        else MixtureConfig(model="FM", m=10, m0=7, F=GaussianLocationCdf(1.0))
    )
    name = "_sd_rm_masses" if model == "RM" else "_sd_fm_masses"
    count = getattr(exact, name)

    def faulty(*args):
        masses = count(*args)
        masses[..., -2:] += defect
        return masses

    monkeypatch.setattr(exact, name, faulty)
    monkeypatch.setattr(exact, "_slot", None)
    with pytest.raises(PrecisionError):
        fdr_sud(from_rho(LinearCurve(0.5), 10), 5, cfg)
    assert exact._slot is None


@pytest.mark.parametrize(
    "cfg, lam",
    [
        (MixtureConfig(model="FM", m=70, m0=49, F=GaussianLocationCdf(1.0)), 35),
        (MixtureConfig(model="RM", m=70, pi0=0.7, F=GaussianLocationCdf(1.0)), 35),
        (MixtureConfig(model="FM", m=300, m0=210, F=IdentityCdf()), 300),
    ],
    ids=["FM", "RM", "FM-identity-m300"],
)
def test_the_functionals_of_one_order_count_it_once(monkeypatch, cfg, lam):
    # a problem too large to count every start counts the two starts of an
    # order, lambda and m - lambda + 1, and the slot keeps their exit
    # tables: the FDR, histogram, FDP c.d.f. and k-FWER of the order count
    # once per direction, and a new order or a new problem counts again
    calls = []

    def counting(name):
        count = getattr(exact, name)

        def wrapped(steps, *starts):
            calls.append((name, starts))
            return count(steps, *starts)

        return wrapped

    for name in ("_sd_fm_masses", "_sd_rm_masses"):
        monkeypatch.setattr(exact, name, counting(name))
    m = cfg.m
    sd = "_sd_rm_masses" if cfg.model == "RM" else "_sd_fm_masses"
    linear, ties = from_rho(LinearCurve(0.5), m), _tied_thresholds(m)
    cases = [(linear, lam), (linear, lam // 2), (ties, lam // 2), (linear, lam)]
    cold = []
    for t, order in cases:
        monkeypatch.setattr(exact, "_slot", None)
        cold.append(sud_joint_masses(t, order, cfg).masses)
    monkeypatch.setattr(exact, "_slot", None)
    for (t, order), law in zip(cases, cold):
        calls.clear()
        fdr_sud(t, order, cfg)
        fdp_pmf_histogram(t, order, cfg, 20)
        for x in (0.1, 0.3, 0.6):
            fdp_cdf(t, order, cfg, x)
        for k in (1, 2):
            kfwer(t, order, cfg, k)
        assert np.array_equal(sud_joint_masses(t, order, cfg).masses, law), (cfg, order)
        assert sorted(calls) == sorted([(sd, (order, order)), ("_sd_fm_masses", (m - order + 1,) * 2)]), calls
        held = exact._slot[2].nbytes
        assert held <= (1 << 17) * 8, (cfg, order, held)


def test_a_count_with_nothing_to_move_builds_no_kernels(monkeypatch):
    # started at its last step, a streamed count is its jump: points stay
    # above with probability 1 - u, and at most one may
    def refuse(*args):
        raise AssertionError("_moves called")

    monkeypatch.setattr(exact, "_moves", refuse)
    m, m0 = 30, 21
    t = from_rho(LinearCurve(0.5), m).as_array()
    Fv = GaussianLocationCdf(1.0)(t)
    u, v = t[-1], Fv[-1]
    one = exact._sd_fm_masses(exact._fm_steps(np.zeros(m), t, 0), m)  # the ranks k >= m - 1
    expected = np.zeros((m + 1, 1))
    expected[m - 1 :, 0] = binom.pmf([1, 0], m, 1.0 - u)
    np.testing.assert_allclose(one[0], expected[m - 1 :], rtol=1e-13, atol=0.0)
    two = exact._sd_fm_masses(exact._fm_steps(t, Fv, m0), m)
    expected = np.zeros((m + 1, m0 + 1))
    expected[m - 1, m0 - 1] = binom.pmf(1, m0, 1.0 - u) * v ** (m - m0)
    expected[m - 1, m0] = u**m0 * binom.pmf(1, m - m0, 1.0 - v)
    expected[m, m0] = u**m0 * v ** (m - m0)
    np.testing.assert_allclose(two[0], expected[m - 1 :], rtol=1e-13, atol=0.0)
    pi0 = 0.7
    rm = exact._sd_rm_masses(exact._steps("SD", t, Fv, MixtureConfig(model="RM", m=m, pi0=pi0, F=GaussianLocationCdf(1.0))), m)
    drop = pi0 * u + (1.0 - pi0) * v
    null = np.arange(m + 1)
    expected = np.zeros((m + 1, m + 1))
    expected[m - 1] = binom.pmf(1, m, 1.0 - drop) * binom.pmf(null, m - 1, pi0 * u / drop)
    expected[m] = binom.pmf(0, m, 1.0 - drop) * binom.pmf(null, m, pi0 * u / drop)
    np.testing.assert_allclose(rm[0], expected[m - 1 :], rtol=1e-13, atol=1e-300)


@pytest.mark.parametrize("tied", [False, True], ids=["linear", "tied"])
def test_a_stacked_count_holds_each_starts_exit_table(tied):
    # a count of the starts lo..hi returns table[s - lo, k - lo + 1], the
    # exit law of start s at rank k: from rank s - 1 on it is the count of
    # start s alone, within rounding, and below it exactly 0
    m = 30
    t = (_tied_thresholds(m) if tied else from_rho(LinearCurve(0.5), m)).as_array()
    F = GaussianLocationCdf(1.0)
    Fv = F(t)
    for cfg in (MixtureConfig(model="FM", m=m, m0=21, F=F), MixtureConfig(model="RM", m=m, pi0=0.7, F=F)):
        for procedure in ("SD", "SU"):
            steps = exact._steps(procedure, t, Fv, cfg)
            for lo, hi in ((1, m), (7, 19)):
                table = steps.count(steps, lo, hi)
                assert table.shape == (hi - lo + 1, m - lo + 2, steps.width), (cfg, procedure, lo, hi)
                for s in range(lo, hi + 1):
                    one = steps.count(steps, s)
                    assert one.shape == (1, m - s + 2, steps.width)
                    assert not table[s - lo, : s - lo].any(), (cfg, procedure, lo, hi, s)
                    gap = np.max(np.abs(table[s - lo, s - lo :] - one[0]))
                    assert gap <= 1e-15, (cfg, procedure, lo, hi, s, gap)


def _dense_kernel(n: int, drop: float, stay: float) -> np.ndarray:
    """P(s of r points stay), r, s = 0..n, built whole from an (n+1)^2 table
    of log-binomials: the dense reference for the banded kernels."""
    r = np.arange(n + 1)
    lf = gammaln(r + 1.0)
    log_comb = np.where(r[:, None] >= r, lf[:, None] - lf[np.maximum(r[:, None] - r, 0)] - lf, -np.inf)
    log_drop = np.log(drop / (drop + stay))
    with np.errstate(divide="ignore", invalid="ignore"):  # when nothing stays
        col = r * (np.log(stay / (drop + stay)) - log_drop)
    col[0] = 0.0
    B = np.exp(log_comb + (r * log_drop)[:, None] + col)
    return B / B.sum(axis=1, keepdims=True)


def _dense_moves(lf, rows, cols, drop, stay):
    """exact._moves with every kernel dense, on the same rows and columns."""
    move = drop > 0.0
    kernels = (
        _dense_kernel(max(n, e), d, s)[o : n + 1, c : e + 1]
        for (o, n), (c, e), d, s in zip(rows[move].tolist(), cols[move].tolist(), drop[move], stay[move])
    )
    return move.tolist(), kernels


def _dense_from_blocks(K: "exact._Blocks", n: int) -> np.ndarray:
    """The (n + 1) square kernel whose diagonal blocks K holds."""
    blocks, h, w = K.B.shape
    dense = np.zeros((blocks * w + h, blocks * w))
    for j in range(blocks):
        dense[j * w : j * w + h, j * w : (j + 1) * w] = K.B[j]
    assert not dense[n + 1 :].any() and not dense[:, n + 1 :].any()
    return dense[: n + 1, : n + 1]


def test_binomial_rows_match_scipy():
    # one batch: every n against every success probability, 0 and 1 included
    sizes, probs = (0, 1, 9, 21, 300), (0.0, 1e-12, 0.3, 1.0 - 1e-12, 1.0)
    n = np.array([k for _ in probs for k in sizes])
    p = np.repeat(probs, len(sizes))
    rows = exact._binomial_rows(exact._log_factorials(300), n, exact._log(p), exact._log(1.0 - p))
    assert rows.shape == (len(n), 301)
    for row, k, q in zip(rows, n.tolist(), p.tolist()):
        np.testing.assert_allclose(row[: k + 1], binom.pmf(np.arange(k + 1), k, q), rtol=1e-11, atol=1e-300)
        assert not row[k + 1 :].any()
        assert abs(row.sum() - 1.0) <= 1e-15


@pytest.mark.parametrize("n, drop, partial", [(200, 0.01, True), (150, 0.05, True), (299, 0.002, False)])
def test_blocks_product_equals_dense_product(n, drop, partial):
    # X @ K for an X as wide as K, narrower than K, and carrying extra zero
    # columns, on kernels whose last block is partial or whole
    whole = np.array([[[0, n]]])
    _, kernels = exact._moves(exact._log_factorials(n), whole, whole, np.array([[drop]]), np.array([[1.0 - drop]]))
    K = next(kernels)
    assert isinstance(K, exact._Blocks)
    w = K.B.shape[2]
    assert ((n + 1) % w != 0) == partial
    dense = _dense_from_blocks(K, n)
    np.testing.assert_allclose(dense, _dense_kernel(n, drop, 1.0 - drop), rtol=1e-12, atol=1e-38)
    rng = np.random.default_rng(n)
    for cols, extra in [(n + 1, 0), (n + 1 - w // 2, 0), (n // 3, 0), (n + 1, w)]:
        X = np.zeros((7, cols + extra))
        X[:, :cols] = rng.random((7, cols))
        out = X @ K
        assert out.shape[1] >= n + 1 and not out[:, n + 1 :].any()
        np.testing.assert_allclose(out[:, : n + 1], X[:, :cols] @ dense[:cols], rtol=1e-14, atol=1e-16)


@pytest.mark.parametrize("m", [100, 300])
def test_banded_count_matches_dense_count(monkeypatch, m):
    # The same counts with every kernel dense, on thresholds with t_1 = 0,
    # t_m = 1 and a run of ties: some steps drop nothing, the last drops all.
    t = _tied_thresholds(m)
    cases = [(cfg, lam) for cfg in _sweep_configs(m) for lam in (1, m // 2, m)]
    staircase = np.minimum(np.arange(1, m + 1) / m + 0.1, 1.0)
    blocked = []
    moves = exact._moves

    def counting(*args):
        move, kernels = moves(*args)
        kernels = list(kernels)
        blocked.extend(isinstance(K, exact._Blocks) for K in kernels)
        return move, iter(kernels)

    monkeypatch.setattr(exact, "_moves", counting)
    banded = [sud_joint_masses(t, lam, cfg).masses for cfg, lam in cases]
    psi = [steck.psi(staircase), steck.psi(np.minimum(t.as_array() + 0.05, 1.0))]
    assert any(blocked)
    monkeypatch.setattr(exact, "_moves", _dense_moves)
    for (cfg, lam), masses in zip(cases, banded):
        gap = np.max(np.abs(masses - sud_joint_masses(t, lam, cfg).masses))
        assert gap <= 1e-13, (cfg, lam, gap)
    assert psi[0] == pytest.approx(steck.psi(staircase), rel=1e-13, abs=0.0)
    assert psi[1] == pytest.approx(steck.psi(np.minimum(t.as_array() + 0.05, 1.0)), rel=1e-13, abs=0.0)


class _Touched:
    """A kernel that records the cells of every state it moves."""

    __array_ufunc__ = None

    def __init__(self, K, cells: list):
        self.K, self.cells = K, cells

    def __rmatmul__(self, X):
        self.cells.append(X.size)
        return X @ self.K


def _window_cells(n: int, u: np.ndarray) -> np.ndarray:
    """The cells of Bin(n, 1 - u_i) of probability at least 1e-40, per step i."""
    return (binom.pmf(np.arange(n + 1), n, 1.0 - u[:, None]) >= 1e-40).sum(axis=1)


@pytest.mark.parametrize("m", [100, 300])
def test_the_window_drops_only_cells_below_the_cut(monkeypatch, m):
    # On the grid of test_banded_count_matches_dense_count, every law agrees
    # within 1e-13 with the count on whole ranges (where every kernel is
    # dense too, its band the whole row).  A one-start FM count
    # from step 1 moves no more state cells than the products of the
    # binomial windows of its steps, Bin(m0, 1 - u0_i) x Bin(m1, 1 - u1_i),
    # computed here from scipy: each step moves its last state (the window
    # of step i - 1) and then the state of the nulls moved on (window i x
    # window i - 1).
    t = _tied_thresholds(m)
    cases = [(cfg, lam) for cfg in _sweep_configs(m) for lam in (1, m // 2, m)]
    cells, moves = [], exact._moves

    def touching(*args):
        move, kernels = moves(*args)
        return move, (_Touched(K, cells) for K in kernels)

    monkeypatch.setattr(exact, "_moves", touching)
    windowed = []
    for cfg, lam in cases:
        cells.clear()
        windowed.append(sud_joint_masses(t, lam, cfg).masses)
        if cfg.model == "FM" and lam in (1, m):  # the count of start 1 of one direction
            arr = t.as_array()
            u = np.array((arr, cfg.F(arr))) if lam == 1 else 1.0 - np.array((arr, cfg.F(arr)))[:, ::-1]
            c0, c1 = _window_cells(cfg.m0, u[0]), _window_cells(m - cfg.m0, u[1])
            total = int(((c0[:-1] + c0[1:]) * c1[:-1]).sum())
            assert 0 < sum(cells) <= total, (cfg, lam, sum(cells), total)
    monkeypatch.setattr(exact, "_moves", moves)
    monkeypatch.setattr(exact, "_window", lambda lf, n, p: (np.zeros_like(n), n.copy()))
    for (cfg, lam), masses in zip(cases, windowed):
        gap = np.max(np.abs(masses - sud_joint_masses(t, lam, cfg).masses))
        assert gap <= 1e-13, (cfg, lam, gap)


@pytest.mark.parametrize(
    "cfg, lam, bound",
    [
        (MixtureConfig(model="FM", m=300, m0=210, F=IdentityCdf()), 300, 3.35),
        (MixtureConfig(model="FM", m=300, m0=210, F=GaussianLocationCdf(1.0)), 150, 3.0),
        (MixtureConfig(model="RM", m=300, pi0=0.7, F=GaussianLocationCdf(1.0)), 150, 5.5),
        (MixtureConfig(model="RM", m=300, pi0=0.7, F=GaussianLocationCdf(1.0)), 1, 6.0),
    ],
    ids=["FM-identity", "FM-gaussian", "RM-gaussian", "RM-gaussian-jump"],
)
def test_engine_peak_memory_is_bounded(cfg, lam, bound):
    # in units of one (m+1)^2 float64 table, measured under tracemalloc on
    # an emptied slot: 2.26, 2.06, 3.69 and 3.68.  The FM bounds sit below
    # 3.50 and 3.16, the peaks of an FM count that returns a square table
    # instead of its m0 + 1 admissible columns.  The last case is the RM
    # step-down count's jump from step 1.
    t = from_rho(LinearCurve(0.5), cfg.m)
    tracemalloc.start()
    try:
        fdr_sud(t, lam, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound * (cfg.m + 1) ** 2 * 8


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


def _rational_law(t: list, Fv: list, m0: int, procedure: str) -> dict:
    """FM joint law in Fraction arithmetic for rational t_i and F(t_i) =
    Fv[i] of a continuous F, from the exact counts of steck._rational_count."""
    m = len(t)
    m1 = m - m0
    one = Fraction(1)
    s = [one - x for x in reversed(t)]  # the reflected thresholds and F values
    g = [one - x for x in reversed(Fv)]
    out = {}
    for k in range(m + 1):
        for j in _fm_j_range(m, m0, k):
            c = math.comb(m0, j) * math.comb(m1, k - j)
            if procedure == "SD":
                tk1, Fk1 = (t[k], Fv[k]) if k < m else (one, one)
                tail = steck._rational_count(t[:k], j, Fv[:k])
                out[(k, j)] = c * (one - tk1) ** (m0 - j) * (one - Fk1) ** (m1 - k + j) * tail
            else:
                tk, Fk = (t[k - 1], Fv[k - 1]) if k else (Fraction(0), one)
                out[(k, j)] = c * tk**j * Fk ** (k - j) * steck._rational_count(s[: m - k], m0 - j, g[: m - k])
    return out


def test_rational_audit_gaussian():
    # test_rational_audit's grid for gaussian mu = 1, whose F(t_i) enter the
    # rational counts as the exact values of their floats
    F = GaussianLocationCdf(1.0)
    rng = np.random.default_rng(11)
    pi0 = Fraction(3, 10)
    for m in range(2, 7):
        for draw in range(2):
            t = sorted(Fraction(int(x), 16) for x in rng.integers(0, 17, m))
            if draw:
                t[0], t[-1] = Fraction(0), Fraction(1)
            tc = ThresholdCollection(tuple(float(x) for x in t))
            Fv = [Fraction(x) for x in F(tc.as_array()).tolist()]
            for lam in range(1, m + 1):
                cap, Fcap = t[lam - 1], Fv[lam - 1]
                laws = []
                for m0 in range(m + 1):
                    su = _rational_law([min(x, cap) for x in t], [min(x, Fcap) for x in Fv], m0, "SU")
                    sd = _rational_law([max(x, cap) for x in t], [max(x, Fcap) for x in Fv], m0, "SD")
                    laws.append({kj: (su if kj[0] < lam else sd)[kj] for kj in su})
                for m0, law in enumerate(laws):
                    cfg = MixtureConfig(model="FM", m=m, m0=m0, F=F)
                    assert sum(law.values()) == 1
                    assert _max_gap(sud_joint_masses(tc, lam, cfg).masses, law) <= 1e-14, (t, lam, m0)
                rm_law = {}
                for m0, law in enumerate(laws):
                    weight = math.comb(m, m0) * pi0**m0 * (1 - pi0) ** (m - m0)
                    for kj, v in law.items():
                        rm_law[kj] = rm_law.get(kj, 0) + weight * v
                cfg = MixtureConfig(model="RM", m=m, pi0=float(pi0), F=F)
                assert _max_gap(sud_joint_masses(tc, lam, cfg).masses, rm_law) <= 1e-14, (t, lam)


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
    if isinstance(F, DiracZeroCdf):
        return
    # m = 500 in FM and RM, with tighter tolerances: seen <= 8.6e-15 and a
    # mass defect <= 4.5e-15
    m = 500
    t = from_rho(LinearCurve(alpha), m)
    for cfg in (MixtureConfig(model="FM", m=m, m0=350, F=F), MixtureConfig(model="RM", m=m, pi0=0.7, F=F)):
        assert abs(fdr_sud(t, m, cfg).fdr - 0.7 * alpha) <= 2e-14, cfg
        pmf = sud_joint_masses(t, m, cfg)
        assert abs(pmf.total() - 1.0) <= 5e-15, cfg
        assert pmf.masses.min() >= 0.0


def test_linear_step_up_oracle_at_m1000():
    # the north star's scale: linear step-up FDR is pi0 alpha within 1e-13,
    # with a mass defect of at most 5e-15, in FM and RM (seen: 3.9e-15 and
    # 0, with defects 5.6e-16 and 2.4e-15)
    m, alpha = 1000, 0.5
    t = from_rho(LinearCurve(alpha), m)
    F = GaussianLocationCdf(1.0)
    for cfg in (MixtureConfig(model="FM", m=m, m0=700, F=F), MixtureConfig(model="RM", m=m, pi0=0.7, F=F)):
        assert abs(fdr_sud(t, m, cfg).fdr - 0.7 * alpha) <= 1e-13, cfg
        pmf = sud_joint_masses(t, m, cfg)
        assert abs(pmf.total() - 1.0) <= 5e-15, cfg
        assert pmf.masses.min() >= 0.0
