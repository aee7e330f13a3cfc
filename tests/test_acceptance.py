"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a one-line
``[ACCEPTANCE NN] ...: PASS/FAIL`` verdict directly to the terminal in
addition to the usual pytest outcome.
"""

import math
import time
from fractions import Fraction

import numpy as np

from sudfdr.bounds import (
    BoundInputs,
    aorc_feasible,
    gap_bound_fm,
    optimize_delta,
)
from sudfdr.exact import (
    fdp_mean,
    fdp_pmf_histogram,
    fdr_sud,
    fdr_sud_fm,
    fdr_sud_rm,
    joint_pmf,
    step_at_one_closed_forms,
)
from sudfdr.models import (
    DiracZeroCdf,
    GaussianLocationCdf,
    IdentityCdf,
    MixtureConfig,
    StepAtOneCdf,
)
from sudfdr.montecarlo import (
    cross_validate,
    simulate_fdr,
    simulate_fdr_sweep,
    simulate_joint_counts,
)
from sudfdr.procedures import check_sandwich
from sudfdr.steck import (
    psi,
    psi_rational,
    psi_two_pop,
    psi_two_pop_rational,
)
from sudfdr.thresholds import AorcCurve, LinearCurve, ThresholdCollection, from_rho

SEED = 20260824
T10 = from_rho(LinearCurve(0.5), 10)


def _report(capsys, number: int, label: str, ok: bool):
    with capsys.disabled():
        print(f"[ACCEPTANCE {number:02d}] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number:02d} failed: {label}"


def _fm(F, m=10, m0=7):
    return MixtureConfig(model="FM", m=m, m0=m0, F=F)


def _rm(F, m=10, pi0=0.7):
    return MixtureConfig(model="RM", m=m, pi0=pi0, F=F)


def test_criterion_01_intermediate_orders_beat_point_mass(capsys):
    """Uniform alternatives give strictly larger FDR than the point mass at
    zero for orders 4..7 at m=10, alpha=0.5, in both mixture models; the
    exact values are confirmed by Monte-Carlo at 4 sigma with n=1e7."""
    start = time.perf_counter()
    exact = {}
    ok = True
    for tag, make in (("FM", _fm), ("RM", _rm)):
        for lam in (4, 5, 6, 7):
            f_id = fdr_sud(T10, lam, make(IdentityCdf())).fdr
            f_du = fdr_sud(T10, lam, make(DiracZeroCdf())).fdr
            exact[(tag, "identity", lam)] = f_id
            exact[(tag, "dirac", lam)] = f_du
            ok = ok and f_id > f_du
    exact_elapsed = time.perf_counter() - start
    ok = ok and exact_elapsed < 5.0
    n = 10**7
    for i, (tag, fname, make, F) in enumerate(
        [
            ("FM", "identity", _fm, IdentityCdf()),
            ("FM", "dirac", _fm, DiracZeroCdf()),
            ("RM", "identity", _rm, IdentityCdf()),
            ("RM", "dirac", _rm, DiracZeroCdf()),
        ]
    ):
        sweep = simulate_fdr_sweep(T10, [4, 5, 6, 7], make(F), n, seed=SEED + i)
        for lam in (4, 5, 6, 7):
            ok = ok and cross_validate(exact[(tag, fname, lam)], sweep[lam], 4.0).passed
    total_elapsed = time.perf_counter() - start
    ok = ok and total_elapsed < 60.0
    _report(capsys, 1, "intermediate-order counterexample (exact + MC, timed)", ok)


def test_criterion_02_linear_step_up_exactness(capsys):
    """Linear step-up FDR equals pi0 * alpha to 1e-8 regardless of the
    alternative, across pi0, alpha, alternatives, and m in {10, 100}."""
    ok = True
    for m in (10, 100):
        alternatives = [
            IdentityCdf(),
            GaussianLocationCdf(0.5),
            GaussianLocationCdf(5.0 / math.sqrt(m)),
            DiracZeroCdf(),
        ]
        for alpha in (0.05, 0.5):
            t = from_rho(LinearCurve(alpha), m)
            for pi0 in (0.2, 0.5, 0.7, 0.95):
                for F in alternatives:
                    fdr = fdr_sud_rm(t, m, pi0, F).fdr
                    ok = ok and abs(fdr - pi0 * alpha) <= 1e-8
    _report(capsys, 2, "linear SU FDR = pi0*alpha over the parameter grid", ok)


def test_criterion_03_step_at_one_closed_forms(capsys):
    """Closed-form FDR for the alternative concentrated at one, with constant
    thresholds t0 below rank m: MC-confirmed at 4 sigma, and the crossover
    threshold for m=10, m0=7 rounds to 0.158."""
    m, m0, t0 = 10, 7, 0.2
    t = ThresholdCollection((t0,) * (m - 1) + (1.0,))
    cfg = _fm(StepAtOneCdf(), m=m, m0=m0)
    closed_sud, closed_su, crossover = step_at_one_closed_forms(m, m0, t0)
    ok = abs(closed_sud - (1 - (1 - t0) ** m0)) <= 1e-12
    ok = ok and abs(closed_su - m0 / m) <= 1e-15
    n = 10**6
    for i, lam in enumerate((1, 5, m - 1)):
        est = simulate_fdr(t, lam, cfg, n, seed=SEED + i)
        ok = ok and abs(est.mean - closed_sud) <= 4 * est.std_error
    est_su = simulate_fdr(t, m, cfg, n, seed=SEED + 9)
    ok = ok and abs(est_su.mean - closed_su) <= 4 * est_su.std_error
    ok = ok and round(crossover, 3) == 0.158
    _report(capsys, 3, "point-mass-at-one closed forms and crossover", ok)


def test_criterion_04_recursion_reduction_identities(capsys):
    """Two-population noncrossing recursion reduces to the one-population one
    when every variable is null or the alternative is uniform (1e-12, 1000
    random instances each); exact-rational evaluation agrees with doubles to
    1e-9 for m <= 30."""
    rng = np.random.default_rng(SEED)
    alts = [IdentityCdf(), GaussianLocationCdf(1.0), DiracZeroCdf()]
    ok = True
    for _ in range(1000):
        k = int(rng.integers(1, 21))
        t = np.sort(rng.random(k))
        base = psi(t)
        F = alts[int(rng.integers(len(alts)))]
        ok = ok and abs(psi_two_pop(t, k, F) - base) <= 1e-12
    for _ in range(1000):
        k = int(rng.integers(1, 21))
        t = np.sort(rng.random(k))
        k0 = int(rng.integers(0, k + 1))
        ok = ok and abs(psi_two_pop(t, k0, IdentityCdf()) - psi(t)) <= 1e-12
    for _ in range(30):
        k = int(rng.integers(2, 31))
        fracs = sorted(Fraction(int(x), 10**6) for x in rng.integers(0, 10**6, k))
        floats = [float(f) for f in fracs]
        ok = ok and abs(float(psi_rational(fracs)) - psi(floats)) <= 1e-9
        k0 = int(rng.integers(0, k + 1))
        for alt, F in (("identity", IdentityCdf()), ("dirac_zero", DiracZeroCdf())):
            exact = float(psi_two_pop_rational(fracs, k0, alt))
            ok = ok and abs(exact - psi_two_pop(floats, k0, F)) <= 1e-9
    _report(capsys, 4, "recursion reduction and rational-mode agreement", ok)


def test_criterion_05_joint_tables_vs_monte_carlo(capsys):
    """All four joint (rejections, false rejections) tables sum to one and
    every cell matches a 1e7-replicate simulation within 4 sigma."""
    n = 10**7
    ok = True
    for i, (cfg, lam, tag) in enumerate(
        [
            (_fm(GaussianLocationCdf(1.0)), 10, "SU"),
            (_fm(GaussianLocationCdf(1.0)), 1, "SD"),
            (_rm(GaussianLocationCdf(1.0)), 10, "SU"),
            (_rm(GaussianLocationCdf(1.0)), 1, "SD"),
        ]
    ):
        pmf = joint_pmf(T10, cfg, tag)
        ok = ok and abs(pmf.total() - 1.0) <= 1e-8
        counts = simulate_joint_counts(T10, lam, cfg, n, seed=SEED + 100 + i)
        for k in range(11):
            for j in range(11):
                p = pmf.get(k, j)
                p_hat = counts[k, j] / n
                p_star = max(p, p_hat)
                tol = 4.0 * math.sqrt(p_star * (1.0 - p_star) / n) + 1e-9
                ok = ok and abs(p_hat - p) <= tol
    _report(capsys, 5, "joint pmf tables sum to one and match MC per cell", ok)


def test_criterion_06_structural_identities(capsys):
    """Boundary orders coincide with the pure step-down/step-up laws (1e-10);
    the random mixture is the binomial mixture of fixed mixtures (1e-8); the
    FDP distribution has mean equal to the FDR (1e-8)."""
    ok = True
    configs = [_fm(GaussianLocationCdf(1.0)), _fm(DiracZeroCdf()), _rm(GaussianLocationCdf(1.0)), _rm(IdentityCdf())]
    for cfg in configs:
        su = joint_pmf(T10, cfg, "SU")
        sd = joint_pmf(T10, cfg, "SD")
        fdr_su = math.fsum(j / k * su.masses[k, j] for k in range(1, 11) for j in range(k + 1))
        fdr_sd = math.fsum(j / k * sd.masses[k, j] for k in range(1, 11) for j in range(k + 1))
        ok = ok and abs(fdr_sud(T10, 10, cfg).fdr - fdr_su) <= 1e-10
        ok = ok and abs(fdr_sud(T10, 1, cfg).fdr - fdr_sd) <= 1e-10
    pi0, F = 0.7, GaussianLocationCdf(1.0)
    for lam in (1, 5, 10):
        rm = fdr_sud_rm(T10, lam, pi0, F).fdr
        mix = math.fsum(
            math.comb(10, m0) * pi0**m0 * (1 - pi0) ** (10 - m0) * fdr_sud_fm(T10, lam, m0, F).fdr
            for m0 in range(11)
        )
        ok = ok and abs(rm - mix) <= 1e-8
    for cfg in configs:
        for lam in (1, 4, 10):
            ok = ok and abs(fdp_mean(T10, lam, cfg) - fdr_sud(T10, lam, cfg).fdr) <= 1e-8
            masses = fdp_pmf_histogram(T10, lam, cfg, 20)
            ok = ok and abs(math.fsum(masses) - 1.0) <= 1e-8
    _report(capsys, 6, "boundary, mixture, and mean identities", ok)


def test_criterion_07_monotonicity_suite(capsys):
    """For concave alternatives and linear thresholds the FDR is
    nondecreasing in the order and never exceeds the step-up value
    (1e-10 slack, zero violations)."""
    ok = True
    for alpha in (0.05, 0.5):
        t = from_rho(LinearCurve(alpha), 10)
        for F in (IdentityCdf(), GaussianLocationCdf(1.0), DiracZeroCdf()):
            for cfg in (_fm(F), _rm(F)):
                values = [fdr_sud(t, lam, cfg).fdr for lam in range(1, 11)]
                ok = ok and all(b >= a - 1e-10 for a, b in zip(values, values[1:]))
                ok = ok and all(v <= values[-1] + 1e-10 for v in values)
    _report(capsys, 7, "FDR nondecreasing in order and below step-up", ok)


def test_criterion_08_sandwich_inequality(capsys):
    """The selected fraction k_hat/m is sandwiched between the fixed-point
    operator applied to the empirical c.d.f. and its +1/m shift, on 1e5
    random realizations across sample sizes, curves, and orders."""
    rng = np.random.default_rng(SEED + 8)
    curves = (LinearCurve(0.5), LinearCurve(0.05), AorcCurve(0.2))
    violations = 0
    total = 0
    while total < 100_000:
        m = int(rng.choice((5, 10)))
        style = int(rng.integers(3))
        u = rng.random(m)
        if style == 1:  # strong alternatives on three coordinates
            u[:3] = 0.0
        elif style == 2:  # gaussian-shifted alternatives on half
            from scipy.special import ndtr, ndtri

            half = m // 2
            u[:half] = ndtr(ndtri(u[:half]) - 1.0)
        rho = curves[int(rng.integers(len(curves)))]
        lam = int(rng.integers(1, m + 1))
        if not check_sandwich(u, rho, m, lam):
            violations += 1
        total += 1
    _report(capsys, 8, "empirical fixed-point sandwich on 1e5 realizations", violations == 0)


def test_criterion_09_gap_bound_soundness(capsys):
    """The exact FDR gap over the point-mass-at-zero configuration never
    exceeds the analytic bound, for every delta on a 50-point grid across
    curves, null fractions, sizes, and alternatives; the vacuous flag is set
    exactly when the bound reaches one."""
    ok = True
    deltas = np.linspace(0.01, 0.30, 50)
    for rho in (LinearCurve(0.5), AorcCurve(0.2)):
        for zeta in (0.5, 0.7, 0.9):
            for m in (10, 50, 100):
                m0 = round(zeta * m)
                lam = m // 2
                t = from_rho(rho, m)
                f_du = fdr_sud_fm(t, lam, m0, DiracZeroCdf()).fdr
                gaps = [
                    fdr_sud_fm(t, lam, m0, F).fdr - f_du
                    for F in (IdentityCdf(), GaussianLocationCdf(1.0))
                ]
                best = math.inf
                for d in deltas:
                    res = gap_bound_fm(
                        BoundInputs(rho=rho, zeta=zeta, delta=float(d), m=m, kappa=0.5, m0=m0)
                    )
                    ok = ok and res.vacuous == (res.gap_bound >= 1.0)
                    best = min(best, res.gap_bound)
                ok = ok and all(gap <= best + 1e-9 for gap in gaps)
    _report(capsys, 9, "gap bound sound on the full delta grid", ok)


def test_criterion_10_rate_boundedness(capsys):
    """With the rate-optimal delta the bound times (1-zeta)*sqrt(m/log m)
    stays below a fixed constant over five decades of m, for the linear curve
    and the feasibility-gated AORC curve."""
    zeta = 0.7
    ok = True
    for rho, kappa, is_aorc in ((LinearCurve(0.5), 1.0, False), (AorcCurve(0.2), 0.5, True)):
        for m in (10**3, 10**4, 10**5, 10**6, 10**7):
            od = optimize_delta(rho, zeta, m, kappa, model="FM", m0=round(zeta * m), n_grid=60)
            if is_aorc:
                ok = ok and aorc_feasible(0.2, zeta, od.delta, kappa)
            constant = od.bound_grid.gap_bound * (1 - zeta) * math.sqrt(m / math.log(m))
            ok = ok and constant <= 1.0
    _report(capsys, 10, "optimized bound rate uniformly bounded in m", ok)


def test_criterion_11_gap_shrinks_with_m(capsys):
    """The largest order-wise FDR advantage of the uniform alternative over
    the point mass at zero is smaller at m=100 than at m=10."""

    def max_gap(m, m0):
        t = from_rho(LinearCurve(0.5), m)
        return max(
            fdr_sud_fm(t, lam, m0, IdentityCdf()).fdr
            - fdr_sud_fm(t, lam, m0, DiracZeroCdf()).fdr
            for lam in range(1, m + 1)
        )

    gap10 = max_gap(10, 7)
    gap100 = max_gap(100, 70)
    ok = gap10 > 0 and gap100 < gap10
    _report(capsys, 11, "identity-over-point-mass advantage shrinks with m", ok)


def test_criterion_12_kfwer_ordering(capsys):
    """Monte-Carlo k-FWER under the point-mass-at-zero configuration is at
    least the k-FWER under a unit gaussian shift, up to 4 pooled standard
    errors, for k in {1,2,3} and both boundary orders."""
    n = 10**6
    ok = True
    for lam in (1, 10):
        counts_du = simulate_joint_counts(T10, lam, _fm(DiracZeroCdf()), n, seed=SEED + 50)
        counts_g = simulate_joint_counts(T10, lam, _fm(GaussianLocationCdf(1.0)), n, seed=SEED + 51)
        for k in (1, 2, 3):
            p_du = counts_du[:, k:].sum() / n
            p_g = counts_g[:, k:].sum() / n
            se = math.sqrt((p_du * (1 - p_du) + p_g * (1 - p_g)) / n)
            ok = ok and p_du >= p_g - 4.0 * se
    _report(capsys, 12, "k-FWER dominated by the point-mass configuration", ok)
