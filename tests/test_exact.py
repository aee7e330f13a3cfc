import math

import numpy as np
import pytest

from sudfdr.exact import (
    SUM_TOL,
    JointPmf,
    PrecisionError,
    fdp_cdf,
    fdp_mean,
    fdp_pmf_histogram,
    fdr_sud,
    fdr_sud_fm,
    fdr_sud_rm,
    joint_pmf,
    kfwer,
    step_at_one_closed_forms,
    sud_joint_masses,
)
from sudfdr.models import (
    DiracZeroCdf,
    GaussianLocationCdf,
    IdentityCdf,
    MixtureConfig,
    StepAtOneCdf,
)
from sudfdr.montecarlo import cross_validate, simulate_fdr, simulate_kfwer
from sudfdr.thresholds import LinearCurve, ThresholdCollection, from_rho

T10 = from_rho(LinearCurve(0.5), 10)


def _fm(F, m=10, m0=7):
    return MixtureConfig(model="FM", m=m, m0=m0, F=F)


def _rm(F, m=10, pi0=0.7):
    return MixtureConfig(model="RM", m=m, pi0=pi0, F=F)


def _cells(pmf):
    """(k, j, mass) over the triangle j <= k of the dense joint law."""
    return [(k, j, float(pmf.masses[k, j])) for k in range(pmf.m + 1) for j in range(k + 1)]


def test_all_null_su_m2_hand_table():
    # Two uniforms, step-up with t = (0.25, 0.5): k=2 iff both below 0.5;
    # k=1 iff the minimum is below 0.25 and the maximum above 0.5.
    t = ThresholdCollection((0.25, 0.5))
    pmf = joint_pmf(t, _fm(IdentityCdf(), m=2, m0=2), "SU")
    assert pmf.get(2, 2) == pytest.approx(0.25, abs=1e-12)
    assert pmf.get(1, 1) == pytest.approx(2 * 0.25 * 0.5, abs=1e-12)
    assert pmf.get(0, 0) == pytest.approx(0.5, abs=1e-12)


def test_dirac_sd_forces_minimum_rejections():
    # All m - m0 point-mass-at-zero p-values are rejected whenever t_1 > 0,
    # so |R| < m - m0 has zero probability under the step-down rule.
    pmf = joint_pmf(T10, _fm(DiracZeroCdf()), "SD")
    assert np.all(np.abs(pmf.masses[:3]) <= 1e-12)


def test_joint_index_validation():
    with pytest.raises(ValueError):
        joint_pmf(T10, _fm(StepAtOneCdf()), "SU")
    with pytest.raises(ValueError):
        joint_pmf(T10, _fm(IdentityCdf()), "SUD")


@pytest.mark.parametrize("model_cfg", [_fm(IdentityCdf()), _fm(GaussianLocationCdf(1.0)), _rm(DiracZeroCdf()), _rm(GaussianLocationCdf(0.5))])
@pytest.mark.parametrize("procedure", ["SU", "SD"])
def test_joint_tables_are_distributions(model_cfg, procedure):
    pmf = joint_pmf(T10, model_cfg, procedure)
    assert pmf.total() == pytest.approx(1.0, abs=1e-8)
    assert pmf.masses.min() >= -1e-9


@pytest.mark.parametrize("lam", [1, 4, 7, 10])
def test_sud_masses_are_distributions(lam):
    for cfg in (_fm(GaussianLocationCdf(1.0)), _rm(IdentityCdf())):
        pmf = sud_joint_masses(T10, lam, cfg)
        assert pmf.total() == pytest.approx(1.0, abs=1e-8)


def test_mass_check_raises_precision_error():
    good = np.array([[0.5, 0.0], [0.25, 0.25]])
    assert JointPmf(good).total() == 1.0
    short = good.copy()
    short[1, 1] -= 10 * SUM_TOL  # total misses 1 by more than SUM_TOL
    with pytest.raises(PrecisionError):
        JointPmf(short)
    negative = good.copy()
    negative[0, 0] += 0.5
    negative[1, 0] -= 0.5  # sums to 1 with one mass below -SUM_TOL
    with pytest.raises(PrecisionError):
        JointPmf(negative)
    undefined = good.copy()
    undefined[1, 1] = np.nan
    with pytest.raises(PrecisionError):
        JointPmf(undefined)


def test_boundary_orders_match_pure_procedures():
    for cfg in (_fm(GaussianLocationCdf(1.0)), _rm(GaussianLocationCdf(1.0)), _fm(DiracZeroCdf())):
        su = joint_pmf(T10, cfg, "SU")
        sd = joint_pmf(T10, cfg, "SD")
        fdr_su = math.fsum(j / k * v for k, j, v in _cells(su) if k >= 1)
        fdr_sd = math.fsum(j / k * v for k, j, v in _cells(sd) if k >= 1)
        assert fdr_sud(T10, 10, cfg).fdr == pytest.approx(fdr_su, abs=1e-10)
        assert fdr_sud(T10, 1, cfg).fdr == pytest.approx(fdr_sd, abs=1e-10)


def test_fm_degenerate_null_counts():
    assert fdr_sud_fm(T10, 5, 0, GaussianLocationCdf(1.0)).fdr == 0.0
    all_null = fdr_sud_fm(T10, 10, 10, GaussianLocationCdf(1.0))
    # all-null LSU: FDR = P(k_hat >= 1) = P(min p_i <= some threshold) > 0
    assert 0.0 < all_null.fdr <= 1.0


def test_rm_pi0_zero():
    assert fdr_sud_rm(T10, 5, 0.0, GaussianLocationCdf(1.0)).fdr == 0.0


def test_lsu_rm_linear_exactness():
    for pi0 in (0.2, 0.5, 0.7, 0.95):
        for F in (IdentityCdf(), GaussianLocationCdf(0.5), DiracZeroCdf()):
            res = fdr_sud_rm(T10, 10, pi0, F)
            assert res.fdr == pytest.approx(pi0 * 0.5, abs=1e-8)


def test_lsu_fm_linear_exactness():
    for F in (IdentityCdf(), GaussianLocationCdf(1.0), DiracZeroCdf()):
        assert fdr_sud_fm(T10, 10, 7, F).fdr == pytest.approx(0.35, abs=1e-8)


def test_lsu_fm_gaussian_matches_mc():
    exact = fdr_sud_fm(T10, 10, 7, GaussianLocationCdf(1.0)).fdr
    mc = simulate_fdr(T10, 10, _fm(GaussianLocationCdf(1.0)), 300_000, seed=21)
    assert cross_validate(exact, mc, 4.0).passed


def test_counterexample_orders():
    for lam in (4, 5, 6, 7):
        assert fdr_sud_fm(T10, lam, 7, IdentityCdf()).fdr > fdr_sud_fm(T10, lam, 7, DiracZeroCdf()).fdr
        assert fdr_sud_rm(T10, lam, 0.7, IdentityCdf()).fdr > fdr_sud_rm(T10, lam, 0.7, DiracZeroCdf()).fdr


def test_result_decomposition():
    res = fdr_sud_fm(T10, 5, 7, GaussianLocationCdf(1.0))
    assert res.fdr == pytest.approx(res.su_component + res.sd_component, abs=1e-14)
    assert res.su_component >= 0 and res.sd_component >= 0
    assert res.config["model"] == "FM" and res.config["lambda"] == 5


def test_rm_is_binomial_mixture_of_fm():
    pi0 = 0.7
    F = GaussianLocationCdf(1.0)
    for lam in (1, 5, 10):
        rm = fdr_sud_rm(T10, lam, pi0, F).fdr
        mix = math.fsum(
            math.comb(10, m0) * pi0**m0 * (1 - pi0) ** (10 - m0) * fdr_sud_fm(T10, lam, m0, F).fdr
            for m0 in range(11)
        )
        assert rm == pytest.approx(mix, abs=1e-8)


def test_fdp_cdf_limits():
    cfg = _fm(GaussianLocationCdf(1.0))
    # The x -> 1 limit reaches total mass minus the atom at FDP = 1 (the
    # event that every rejection is a null); adding the atom recovers 1.
    atom = float(fdp_pmf_histogram(T10, 5, cfg, 10)[-1])
    assert fdp_cdf(T10, 5, cfg, 1 - 1e-9) + atom == pytest.approx(1.0, abs=1e-8)
    assert fdp_cdf(T10, 5, MixtureConfig(model="FM", m=10, m0=0, F=GaussianLocationCdf(1.0)), 0.5) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError):
        fdp_cdf(T10, 5, cfg, 0.0)
    with pytest.raises(ValueError):
        fdp_cdf(T10, 5, cfg, 1.0)


def test_fdp_cdf_includes_integer_boundary():
    # At x = 0.5, the (k=2, j=1) mass must be counted (weak inequality).
    cfg = _rm(GaussianLocationCdf(1.0))
    pmf = sud_joint_masses(T10, 10, cfg)
    direct = math.fsum(v for k, j, v in _cells(pmf) if k == 0 or j <= 0.5 * k + 1e-12)
    assert fdp_cdf(T10, 10, cfg, 0.5) == pytest.approx(direct, abs=1e-12)


def test_fdp_histogram_consistency():
    cfg = _rm(GaussianLocationCdf(1.0))
    masses = fdp_pmf_histogram(T10, 10, cfg, 20)
    assert len(masses) == 21
    assert math.fsum(masses) == pytest.approx(1.0, abs=1e-8)
    # prefix sums match the c.d.f. at bin edges
    for i in (1, 5, 10, 19):
        assert math.fsum(masses[:i]) == pytest.approx(fdp_cdf(T10, 10, cfg, i / 20 - 1e-12), abs=1e-9)


def test_fdp_mean_equals_fdr():
    for cfg in (_fm(GaussianLocationCdf(1.0)), _rm(IdentityCdf()), _fm(DiracZeroCdf())):
        for lam in (1, 4, 10):
            assert fdp_mean(T10, lam, cfg) == pytest.approx(fdr_sud(T10, lam, cfg).fdr, abs=1e-8)


def test_fig6_style_config_mean():
    t = from_rho(LinearCurve(0.5), 100)
    cfg = MixtureConfig(model="RM", m=100, pi0=0.5, F=GaussianLocationCdf(0.5))
    masses = fdp_pmf_histogram(t, 100, cfg, 50)
    assert math.fsum(masses) == pytest.approx(1.0, abs=1e-8)
    assert fdp_mean(t, 100, cfg) == pytest.approx(0.25, abs=1e-8)


@pytest.mark.parametrize("F", [IdentityCdf(), GaussianLocationCdf(1.0), DiracZeroCdf()])
def test_fdr_monotone_in_lambda(F):
    for cfg in (_fm(F), _rm(F)):
        values = [fdr_sud(T10, lam, cfg).fdr for lam in range(1, 11)]
        assert all(b >= a - 1e-10 for a, b in zip(values, values[1:]))
        assert all(v <= values[-1] + 1e-10 for v in values)  # SU dominates


def test_su_monotone_in_alternative():
    # identity <= gaussian <= dirac pointwise
    weaker = fdr_sud_fm(T10, 10, 7, IdentityCdf()).fdr
    middle = fdr_sud_fm(T10, 10, 7, GaussianLocationCdf(1.0)).fdr
    stronger = fdr_sud_fm(T10, 10, 7, DiracZeroCdf()).fdr
    assert weaker <= middle + 1e-10 <= stronger + 2e-10


def test_closed_forms():
    fdr_sud_val, fdr_su_val, crossover = step_at_one_closed_forms(10, 7, 0.2)
    assert fdr_sud_val == pytest.approx(1 - 0.8**7, abs=1e-12)
    assert fdr_su_val == pytest.approx(0.7, abs=1e-15)
    assert crossover == pytest.approx(1 - 0.3 ** (1 / 7), abs=1e-12)
    assert round(crossover, 3) == 0.158
    assert fdr_sud_val > fdr_su_val
    tiny = step_at_one_closed_forms(10, 7, 1e-9)[0]
    assert tiny == pytest.approx(0.0, abs=1e-7)
    with pytest.raises(ValueError):
        step_at_one_closed_forms(10, 7, 0.0)
    with pytest.raises(ValueError):
        step_at_one_closed_forms(10, 0, 0.2)


def test_mismatched_m_rejected():
    with pytest.raises(ValueError):
        fdr_sud(T10, 5, _fm(IdentityCdf(), m=8, m0=4))


def _masked_fsum_reference(masses: np.ndarray, lam: int, bins: int, x: float):
    """FDR components, FDP histogram and FDP c.d.f. at x, each an fsum over
    every cell of a mask."""
    k = np.arange(masses.shape[0])
    fdp = np.where(k <= k[:, None], k / np.maximum(k[:, None], 1), 0.0)
    terms = fdp * masses
    fdr = (math.fsum(terms[1:lam].ravel().tolist()), math.fsum(terms[lam:].ravel().tolist()))
    idx = np.minimum(np.floor(fdp * bins + 1e-9).astype(np.int64), bins)
    hist = [math.fsum(masses[idx == b].tolist()) for b in range(bins + 1)]
    below = k <= np.floor(x * k[:, None] + 1e-12)
    below[0] = True
    return fdr, hist, min(math.fsum(masses[below].tolist()), 1.0)


@pytest.mark.parametrize("m", [10, 30, 100])
@pytest.mark.parametrize("model", ["FM", "RM"])
def test_functionals_equal_a_masked_fsum(m, model):
    t = from_rho(LinearCurve(0.5), m)
    gauss = GaussianLocationCdf(1.0)
    cfg = _fm(gauss, m=m, m0=int(0.7 * m)) if model == "FM" else _rm(gauss, m=m)
    for lam in (1, m // 2, m):
        fdr, hist, cdf = _masked_fsum_reference(sud_joint_masses(t, lam, cfg).masses, lam, bins=20, x=0.3)
        res = fdr_sud(t, lam, cfg)
        assert (res.su_component, res.sd_component) == fdr
        assert fdp_pmf_histogram(t, lam, cfg, bins=20).tolist() == hist
        assert fdp_cdf(t, lam, cfg, 0.3) == cdf


@pytest.mark.parametrize("F", [DiracZeroCdf(), GaussianLocationCdf(1.0)], ids=lambda F: F.kind)
@pytest.mark.parametrize("model", ["FM", "RM"])
def test_kfwer_matches_monte_carlo(model, F):
    cfg = _fm(F) if model == "FM" else _rm(F)
    seed = 7100 + 100 * (model == "RM") + 50 * (F.kind == "gaussian")
    for lam in (1, 5, 10):
        for k in (1, 2, 3):
            seed += 1
            mc = simulate_kfwer(T10, lam, cfg, k=k, n=200_000, seed=seed)
            verdict = cross_validate(kfwer(T10, lam, cfg, k), mc, 4.0)
            assert verdict.passed, (model, F.kind, lam, k, verdict.z_score)


def test_kfwer_identities():
    for cfg in (_fm(GaussianLocationCdf(1.0)), _rm(IdentityCdf()), _fm(DiracZeroCdf())):
        for lam in (1, 4, 10):
            none_false = math.fsum(sud_joint_masses(T10, lam, cfg).masses[:, 0].tolist())
            assert kfwer(T10, lam, cfg, 1) == pytest.approx(1.0 - none_false, abs=1e-12)
            if cfg.model == "FM":
                assert kfwer(T10, lam, cfg, cfg.m0 + 1) == 0.0  # at most m0 false rejections
    for k in (0, -1):
        with pytest.raises(ValueError):
            kfwer(T10, 5, _fm(IdentityCdf()), k)


T4 = from_rho(LinearCurve(0.5), 4)
FM4 = _fm(GaussianLocationCdf(1.0), m=4, m0=2)


@pytest.mark.parametrize(
    "call, key",
    [
        (lambda: kfwer(T4, 2, FM4, 1.5), "k"),
        (lambda: fdp_pmf_histogram(T4, 2, FM4, 2.5), "bins"),
        (lambda: fdr_sud(T4, 2.0, FM4), "lambda"),
        (lambda: sud_joint_masses(T4, True, FM4), "lambda"),
        (lambda: step_at_one_closed_forms(4, 1.5, 0.1), "m0"),
    ],
    ids=["kfwer-k", "fdp_pmf_histogram-bins", "fdr_sud-lambda", "sud_joint_masses-bool", "closed-forms-m0"],
)
def test_non_integer_counts_raise_value_error(call, key):
    with pytest.raises(ValueError, match=f"{key} must be an integer"):
        call()


def test_numpy_integer_counts_are_accepted():
    cfg = _fm(FM4.F, m=np.int64(4), m0=np.int32(2))
    assert kfwer(T4, np.int64(2), cfg, np.int32(2)) == kfwer(T4, 2, FM4, 2)
    assert np.array_equal(fdp_pmf_histogram(T4, 2, FM4, np.uint8(3)), fdp_pmf_histogram(T4, 2, FM4, 3))
