"""Exact joint distributions, FDR, and FDP distribution of SUD procedures.

Every exact number is a functional of one object, the dense joint law
masses[k, j] = P(|R| = k, |R n nulls| = j).  It is computed by a forward
count: the numbers of nulls and alternatives still above the current
threshold are propagated past t_1, t_2, ... with binomial transitions, and
the states that cross the step-down boundary (fewer than i points below
t_i) leave the count as k = i - 1 rejections.  Every quantity is a sum of
nonnegative products, so there is no cancellation.  A step-down rule is
counted directly on its thresholds; a step-up rule is counted on the
reflected p-values 1 - p, whose step-down law is the step-up law read
backwards.  A step-up-down procedure of order lambda is a two-case
combination of a step-up run on the capped collection (t_lambda ^ t_j)_j
(ranks k < lambda) and a step-down run on the floored collection
(t_lambda v t_j)_j (ranks k >= lambda); the two cases partition the
probability space.

Each joint law is checked on construction: a mass below -SUM_TOL or a total
more than SUM_TOL away from 1 raises PrecisionError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, xlogy

from sudfdr.models import AlternativeCdf, MixtureConfig
from sudfdr.steck import PrecisionError
from sudfdr.thresholds import ThresholdCollection

__all__ = [
    "JointPmf",
    "FdrResult",
    "joint_su_rm",
    "joint_sd_rm",
    "joint_su_fm",
    "joint_sd_fm",
    "joint_pmf",
    "sud_joint_masses",
    "fdr_sud_fm",
    "fdr_sud_rm",
    "fdr_sud",
    "fdp_cdf",
    "fdp_pmf_histogram",
    "step_at_one_closed_forms",
]

SUM_TOL = 1e-8


def _require_continuous(F: AlternativeCdf):
    if not F.continuous:
        raise ValueError(
            "exact formulas require a continuous alternative c.d.f.; "
            "the point-mass-at-one distribution is only supported by the "
            "closed forms and the Monte-Carlo engine"
        )


def _fm_j_range(m: int, m0: int, k: int):
    return range(max(0, k - (m - m0)), min(m0, k) + 1)


def _check_masses(masses: np.ndarray):
    """Raise PrecisionError unless masses is a distribution within SUM_TOL."""
    low = float(masses.min())
    defect = abs(float(masses.sum()) - 1.0)
    if not (low >= -SUM_TOL and defect <= SUM_TOL):  # NaN fails too
        raise PrecisionError(
            f"joint law fails the mass check (min {low:.3e}, |total - 1| {defect:.3e}, "
            f"tolerance {SUM_TOL:.0e}); double precision exhausted for this configuration"
        )


@dataclass(frozen=True)
class JointPmf:
    """Dense law masses[k, j] = P(|R| = k, |R n nulls| = j), k, j = 0..m.

    Cells with j > k (and, under FM, j outside the admissible range) hold 0.
    """

    masses: np.ndarray
    model_tag: str  # "FM" or "RM"
    procedure_tag: str  # "SU", "SD" or "SUD"

    def __post_init__(self):
        _check_masses(self.masses)

    @property
    def m(self) -> int:
        return self.masses.shape[0] - 1

    def get(self, k: int, j: int) -> float:
        return float(self.masses[k, j]) if 0 <= j <= k <= self.m else 0.0

    def total(self) -> float:
        return math.fsum(self.masses.ravel().tolist())


@dataclass(frozen=True, slots=True)
class FdrResult:
    """Exact FDR of one SUD order, split into its step-up (k < lambda) and
    step-down (k >= lambda) parts."""

    fdr: float
    su_component: float
    sd_component: float
    cfg: MixtureConfig
    lam: int

    @property
    def config(self) -> dict:
        """The model and order that produced the result, in the wire format."""
        return {**self.cfg.to_config(), "lambda": self.lam}


# ---------------------------------------------------------------------------
# forward-count kernel
# ---------------------------------------------------------------------------


def _log_comb(n: int) -> np.ndarray:
    """log C(r, s) for r, s = 0..n; -inf where s > r."""
    r = np.arange(n + 1)
    lf = gammaln(r + 1.0)
    return np.where(r[:, None] >= r, lf[:, None] - lf[np.maximum(r[:, None] - r, 0)] - lf, -np.inf)


def _normalized_exp(log_masses: np.ndarray) -> np.ndarray:
    """exp of a table of log-masses, each row renormalized to sum to 1."""
    B = np.exp(log_masses, out=log_masses)
    B /= B.sum(axis=1, keepdims=True)
    return B


def _binomial_rows(log_comb: np.ndarray, n: int, drop: float, stay: float) -> np.ndarray:
    """B[r, s] = P(s of r points stay) for r, s = 0..n, when each point drops
    or stays with odds drop : stay (drop > 0).  Rows are renormalized to
    sum to 1."""
    if stay == 0.0:
        B = np.zeros((n + 1, n + 1))
        B[:, 0] = 1.0
        return B
    r = np.arange(n + 1)
    log_drop = math.log(drop / (drop + stay))
    B = log_comb[: n + 1, : n + 1] + r[:, None] * log_drop
    B += r * (math.log(stay / (drop + stay)) - log_drop)
    return _normalized_exp(B)


def _sd_fm_masses(u0: np.ndarray, u1: np.ndarray, m0: int) -> np.ndarray:
    """Step-down count of m0 nulls and m - m0 alternatives.

    u0[i-1] and u1[i-1] (nondecreasing in i) are the probabilities that a
    null and an alternative lie below the i-th threshold.  Returns
    M[k, j] = P(the first i with fewer than i points below is k + 1, and j
    nulls lie below it), with k = m when there is no such i.  The state
    P[r0, r1] holds the nulls and alternatives still above the threshold.
    """
    m = len(u0)
    m1 = m - m0
    log_comb = _log_comb(max(m0, m1))
    out = np.zeros((m + 1, m + 1))
    P = np.zeros((m0 + 1, m1 + 1))
    P[m0, m1] = 1.0
    prev0 = prev1 = 0.0
    for i in range(1, m + 1):
        live = m - i + 1  # every state has at most `live` points above
        a, b = min(m0, live), min(m1, live)
        P = P[: a + 1, : b + 1]
        v0, v1 = u0[i - 1], u1[i - 1]
        if v0 > prev0:
            P = _binomial_rows(log_comb, a, v0 - prev0, 1.0 - v0).T @ P
            prev0 = v0
        if v1 > prev1:
            P = P @ _binomial_rows(log_comb, b, v1 - prev1, 1.0 - v1)
            prev1 = v1
        r0 = np.arange(max(0, live - b), a + 1)  # exactly i - 1 points below t_i
        out[i - 1, m0 - r0] = P[r0, live - r0]
        P[r0, live - r0] = 0.0
    out[m, m0] = P[0, 0]
    return out


def _sd_rm_masses(t: np.ndarray, Fv: np.ndarray, pi0: float) -> np.ndarray:
    """Step-down count in RM(m, pi0, F): masses[k, j] as in _sd_fm_masses.

    The state P[n0, r] holds the nulls below and the points above the
    threshold.  The points that drop below are split into nulls, moved in
    the (n1, r) layout where n1 = m - n0 - r stays fixed, and alternatives,
    moved in the (n0, r) layout.
    """
    m = len(t)
    log_comb = _log_comb(m)
    n = np.arange(m + 1)
    shear = m - n[:, None] - n  # row of (n0, r) in the (n1, r) layout and back
    inside = shear >= 0
    shear = np.maximum(shear, 0)
    out = np.zeros((m + 1, m + 1))
    P = np.zeros((m + 1, m + 1))
    P[0, m] = 1.0
    prev_t = prev_F = 0.0
    for i in range(1, m + 1):
        live = m - i + 1
        P = P[:, : live + 1]
        w0 = pi0 * (t[i - 1] - prev_t)
        w1 = (1.0 - pi0) * (Fv[i - 1] - prev_F)
        above = pi0 * (1.0 - t[i - 1]) + (1.0 - pi0) * (1.0 - Fv[i - 1])
        if w0 > 0.0:
            rows, keep = shear[:, : live + 1], inside[:, : live + 1]
            P = np.where(keep, np.take_along_axis(P, rows, axis=0), 0.0)
            P = P @ _binomial_rows(log_comb, live, w0, w1 + above)
            P = np.where(keep, np.take_along_axis(P, rows, axis=0), 0.0)
        if w1 > 0.0:
            P = P @ _binomial_rows(log_comb, live, w1, above)
        prev_t, prev_F = t[i - 1], Fv[i - 1]
        out[i - 1] = P[:, live]
        P[:, live] = 0.0
    out[m] = P[:, 0]
    return out


# ---------------------------------------------------------------------------
# joint mass tables for pure step-up / step-down procedures
# ---------------------------------------------------------------------------


def _su_fm_masses(t: np.ndarray, Fv: np.ndarray, m0: int) -> np.ndarray:
    """Step-up law in FM: the step-down count of 1 - p, read backwards."""
    M = _sd_fm_masses(1.0 - t[::-1], 1.0 - Fv[::-1], m0)
    out = np.zeros_like(M)
    out[:, : m0 + 1] = M[::-1, m0::-1]
    return out


def _su_rm_masses(t: np.ndarray, Fv: np.ndarray, pi0: float) -> np.ndarray:
    """Step-up law in RM: the count of p-values with c.d.f. G gives k, and
    the k rejected p-values, i.i.d. below t_k, are null with probability
    pi0*t_k/G(t_k) each."""
    m = len(t)
    above = (pi0 * (1.0 - t) + (1.0 - pi0) * (1.0 - Fv))[::-1]
    counts = np.diag(_sd_fm_masses(above, np.zeros(m), m))[::-1]  # P(|R| = k)
    tk = np.concatenate(([0.0], t))[:, None]
    Fk = np.concatenate(([0.0], Fv))[:, None]
    G = pi0 * tk + (1.0 - pi0) * Fk
    hit = G > 0.0  # where G(t_k) = 0, P(|R| = k) = 0 for k >= 1
    safe = np.where(hit, G, 1.0)
    null = np.where(hit, pi0 * tk / safe, 1.0)
    alt = np.where(hit, (1.0 - pi0) * Fk / safe, 0.0)
    k = np.arange(m + 1)
    split = _log_comb(m) + xlogy(np.maximum(k[:, None] - k, 0), alt) + xlogy(k, null)
    return counts[:, None] * _normalized_exp(split)


def _masses(procedure: str, t: np.ndarray, Fv: np.ndarray, cfg: MixtureConfig) -> np.ndarray:
    if cfg.model == "FM":
        builder = _su_fm_masses if procedure == "SU" else _sd_fm_masses
        return builder(t, Fv, cfg.m0)
    builder = _su_rm_masses if procedure == "SU" else _sd_rm_masses
    return builder(t, Fv, cfg.pi0)


# ---------------------------------------------------------------------------
# single-entry accessors (shared contract)
# ---------------------------------------------------------------------------


def _entry(procedure: str, t: ThresholdCollection, cfg: MixtureConfig, k: int, j: int) -> float:
    _require_continuous(cfg.F)
    arr = t.as_array()
    return float(_masses(procedure, arr, cfg.F(arr), cfg)[k, j])


def joint_su_rm(t: ThresholdCollection, k: int, j: int, pi0: float, F: AlternativeCdf) -> float:
    """P(|R n nulls| = j, |R| = k) for R = SU(t) in RM(m, pi0, F)."""
    _check_rm_indices(t.m, k, j)
    return _entry("SU", t, MixtureConfig(model="RM", m=t.m, pi0=pi0, F=F), k, j)


def joint_sd_rm(t: ThresholdCollection, k: int, j: int, pi0: float, F: AlternativeCdf) -> float:
    """P(|R n nulls| = j, |R| = k) for R = SD(t) in RM(m, pi0, F)."""
    _check_rm_indices(t.m, k, j)
    return _entry("SD", t, MixtureConfig(model="RM", m=t.m, pi0=pi0, F=F), k, j)


def joint_su_fm(t: ThresholdCollection, k: int, j: int, m0: int, F: AlternativeCdf) -> float:
    """P(|R n nulls| = j, |R| = k) for R = SU(t) in FM(m, m0, F)."""
    _check_fm_indices(t.m, m0, k, j)
    return _entry("SU", t, MixtureConfig(model="FM", m=t.m, m0=m0, F=F), k, j)


def joint_sd_fm(t: ThresholdCollection, k: int, j: int, m0: int, F: AlternativeCdf) -> float:
    """P(|R n nulls| = j, |R| = k) for R = SD(t) in FM(m, m0, F)."""
    _check_fm_indices(t.m, m0, k, j)
    return _entry("SD", t, MixtureConfig(model="FM", m=t.m, m0=m0, F=F), k, j)


def _check_rm_indices(m: int, k: int, j: int):
    if not (0 <= k <= m and 0 <= j <= k):
        raise ValueError(f"need 0 <= j <= k <= m, got k={k}, j={j}, m={m}")


def _check_fm_indices(m: int, m0: int, k: int, j: int):
    if not 0 <= k <= m:
        raise ValueError(f"need 0 <= k <= m, got k={k}")
    if j not in _fm_j_range(m, m0, k):
        raise ValueError(
            f"j={j} outside the admissible range "
            f"[{max(0, k - (m - m0))}, {min(m0, k)}] for k={k}, m0={m0}, m={m}"
        )


def joint_pmf(t: ThresholdCollection, cfg: MixtureConfig, procedure: str) -> JointPmf:
    """Full joint table for a pure step-up ("SU") or step-down ("SD") rule."""
    _require_continuous(cfg.F)
    if t.m != cfg.m:
        raise ValueError("threshold collection and model disagree on m")
    if procedure not in ("SU", "SD"):
        raise ValueError(f"procedure must be 'SU' or 'SD', got {procedure!r}")
    arr = t.as_array()
    return JointPmf(_masses(procedure, arr, cfg.F(arr), cfg), cfg.model, procedure)


# ---------------------------------------------------------------------------
# SUD combination
# ---------------------------------------------------------------------------


def sud_joint_masses(t: ThresholdCollection, lam: int, cfg: MixtureConfig) -> JointPmf:
    """Joint (k, j) masses of the order-lambda SUD procedure.

    Ranks k < lambda come from the step-up rule on (t_lambda ^ t_j)_j, ranks
    k >= lambda from the step-down rule on (t_lambda v t_j)_j; the two events
    partition the probability space.  F is monotone, so its values on the
    capped and floored collections are the capped and floored F(t_j).
    """
    _require_continuous(cfg.F)
    m = t.m
    if t.m != cfg.m:
        raise ValueError("threshold collection and model disagree on m")
    if not 1 <= lam <= m:
        raise ValueError(f"lambda must be in [1, {m}], got {lam}")
    arr = t.as_array()
    Fv = cfg.F(arr)
    cap, Fcap = arr[lam - 1], Fv[lam - 1]
    masses = _masses("SD", np.maximum(arr, cap), np.maximum(Fv, Fcap), cfg)
    masses[:lam] = _masses("SU", np.minimum(arr, cap), np.minimum(Fv, Fcap), cfg)[:lam]
    return JointPmf(masses, cfg.model, "SUD")


def _fdp_values(m: int) -> np.ndarray:
    """FDP j/k of every cell (k, j), 0 where k = 0 or j > k."""
    k = np.arange(m + 1)
    return np.where(k <= k[:, None], k / np.maximum(k[:, None], 1), 0.0)


def fdr_sud(t: ThresholdCollection, lam: int, cfg: MixtureConfig) -> FdrResult:
    """Exact FDR of the order-lambda SUD procedure in the model cfg."""
    terms = _fdp_values(t.m) * sud_joint_masses(t, lam, cfg).masses
    su_sum = math.fsum(terms[1:lam].ravel().tolist())
    sd_sum = math.fsum(terms[lam:].ravel().tolist())
    return FdrResult(su_sum + sd_sum, su_sum, sd_sum, cfg, lam)


def fdr_sud_fm(t: ThresholdCollection, lam: int, m0: int, F: AlternativeCdf) -> FdrResult:
    """Exact FDR of the order-lambda SUD procedure in FM(m, m0, F)."""
    return fdr_sud(t, lam, MixtureConfig(model="FM", m=t.m, m0=m0, F=F))


def fdr_sud_rm(t: ThresholdCollection, lam: int, pi0: float, F: AlternativeCdf) -> FdrResult:
    """Exact FDR of the order-lambda SUD procedure in RM(m, pi0, F)."""
    return fdr_sud(t, lam, MixtureConfig(model="RM", m=t.m, pi0=pi0, F=F))


# ---------------------------------------------------------------------------
# FDP distribution
# ---------------------------------------------------------------------------


def fdp_cdf(t: ThresholdCollection, lam: int, cfg: MixtureConfig, x: float) -> float:
    """P(FDP(SUD_lambda(t)) <= x) for x in (0,1).

    The zero-rejection event carries FDP = 0 and is always included.
    """
    if not 0.0 < x < 1.0:
        raise ValueError(f"x must be in (0,1), got {x}")
    pmf = sud_joint_masses(t, lam, cfg)
    k = np.arange(pmf.m + 1)
    below = k <= np.floor(x * k[:, None] + 1e-12)
    below[0] = True
    return min(math.fsum(pmf.masses[below].tolist()), 1.0)


def fdp_pmf_histogram(t: ThresholdCollection, lam: int, cfg: MixtureConfig, bins: int) -> np.ndarray:
    """Bin masses P(FDP in [i/bins, (i+1)/bins)) for i = 0..bins.

    The final entry holds the atom at FDP = 1; entry 0 includes P(FDP = 0).
    Masses sum to 1 up to the documented tolerance.
    """
    if bins < 1:
        raise ValueError(f"need bins >= 1, got {bins}")
    pmf = sud_joint_masses(t, lam, cfg)
    idx = np.minimum(np.floor(_fdp_values(pmf.m) * bins + 1e-9).astype(int), bins)
    return np.asarray([math.fsum(pmf.masses[idx == b].tolist()) for b in range(bins + 1)])


def fdp_mean(t: ThresholdCollection, lam: int, cfg: MixtureConfig) -> float:
    """Expectation of the FDP taken over the joint masses (equals the FDR)."""
    pmf = sud_joint_masses(t, lam, cfg)
    return math.fsum((_fdp_values(pmf.m) * pmf.masses).ravel().tolist())


# ---------------------------------------------------------------------------
# extreme-configuration closed forms
# ---------------------------------------------------------------------------


def step_at_one_closed_forms(m: int, m0: int, t0: float):
    """Closed-form FDRs for alternatives fixed at 1 and thresholds
    (t0, ..., t0, 1).

    Every SUD of order lambda in {1, ..., m-1} has FDR 1 - (1-t0)^m0 while
    the step-up has FDR m0/m; the step-down exceeds the step-up once t0
    passes the returned crossover value.
    """
    if not 0.0 < t0 < 1.0:
        raise ValueError(f"need t0 in (0,1), got {t0}")
    if not 1 <= m0 <= m:
        raise ValueError(f"need 1 <= m0 <= m, got m0={m0}, m={m}")
    fdr_sud_val = 1.0 - (1.0 - t0) ** m0
    fdr_su_val = m0 / m
    crossover = 1.0 - (1.0 - m0 / m) ** (1.0 / m0)
    return fdr_sud_val, fdr_su_val, crossover
