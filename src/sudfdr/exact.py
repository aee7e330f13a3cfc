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

The floored collection is tied at t_lambda up to step lambda, so its count
starts there: one jump moves every point from above 0 to above t_lambda,
giving the product state Bin(m0, 1 - t_lambda) x Bin(m1, 1 - F(t_lambda)),
and the states that would have left at the tied steps are cut.  The
reflected capped collection likewise starts at step m - lambda + 1.  The
row-normalized binomial kernels of consecutive moving steps are built in
one batched expression of at most about 2^15 entries (one kernel at a time
once a kernel is that large), and each batch is used up before the next is
built.  In the FM state P[r0, r1] each exit anti-diagonal r0 + r1 = m - i + 1
is read and cleared through a strided slice of the C-contiguous array; the
RM null moves work on a skewed view of the (n0, r) state that indexes it by
(n1, r).

Each joint law is checked on construction: a mass below -SUM_TOL or a total
more than SUM_TOL away from 1 raises PrecisionError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.special import gammaln, xlogy

from sudfdr.models import AlternativeCdf, MixtureConfig
from sudfdr.thresholds import ThresholdCollection

__all__ = [
    "JointPmf",
    "FdrResult",
    "joint_pmf",
    "sud_joint_masses",
    "fdr_sud_fm",
    "fdr_sud_rm",
    "fdr_sud",
    "fdp_cdf",
    "fdp_pmf_histogram",
    "fdp_mean",
    "step_at_one_closed_forms",
    "PrecisionError",
]

SUM_TOL = 1e-8


class PrecisionError(ArithmeticError):
    """Raised when double precision is exhausted: an exact joint law or
    noncrossing count fails its mass check."""


def _require_continuous(F: AlternativeCdf):
    if not F.continuous:
        raise ValueError(
            "exact formulas require a continuous alternative c.d.f.; "
            "the point-mass-at-one distribution is only supported by the "
            "closed forms and the Monte-Carlo engine"
        )


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

    su_component: float
    sd_component: float
    cfg: MixtureConfig
    lam: int

    @property
    def fdr(self) -> float:
        return self.su_component + self.sd_component

    @property
    def config(self) -> dict:
        """The model and order that produced the result, in the wire format."""
        return {**self.cfg.to_config(), "lambda": self.lam}


# ---------------------------------------------------------------------------
# forward-count kernel
# ---------------------------------------------------------------------------

_BATCH_ENTRIES = 1 << 15  # kernel entries built at once


def _log_comb(n: int) -> np.ndarray:
    """log C(r, s) for r, s = 0..n; -inf where s > r."""
    r = np.arange(n + 1)
    lf = gammaln(r + 1.0)
    return np.where(r[:, None] >= r, lf[:, None] - lf[np.maximum(r[:, None] - r, 0)] - lf, -np.inf)


def _normalized_exp(log_masses: np.ndarray) -> np.ndarray:
    """exp of a table of log-masses, each row renormalized to sum to 1."""
    B = np.exp(log_masses, out=log_masses)
    B /= B.sum(axis=-1, keepdims=True)
    return B


def _binomial_batch(log_comb: np.ndarray, n: int, drop: np.ndarray, stay: np.ndarray) -> np.ndarray:
    """B[b, r, s] = P(s of r points stay) for r, s = 0..n, when each point
    drops or stays with odds drop[b] : stay[b] (drop > 0).  Rows are
    renormalized to sum to 1."""
    r = np.arange(n + 1)
    log_drop = np.log(drop / (drop + stay))
    with np.errstate(divide="ignore", invalid="ignore"):  # when nothing stays
        col = r * (np.log(stay / (drop + stay)) - log_drop)[:, None]
    col[:, 0] = 0.0
    B = log_comb[: n + 1, : n + 1] + (r * log_drop[:, None])[:, :, None]
    B += col[:, None, :]
    return _normalized_exp(B)


def _increments(v: np.ndarray) -> np.ndarray:
    """v[i] - v[i-1], with v[-1] = 0."""
    d = v.copy()
    d[1:] -= v[:-1]
    return d


def _moves(log_comb: np.ndarray, sizes: np.ndarray, drop: np.ndarray, stay: np.ndarray):
    """The steps with drop > 0, and an iterator over their kernels, each
    sizes[i] + 1 square.  Consecutive kernels are built in one batch of at
    most _BATCH_ENTRIES entries (or one kernel), at the size of its first,
    largest kernel; a batch is freed once its last kernel has been used."""
    move = drop > 0.0
    sizes, drop, stay = sizes[move].tolist(), drop[move], stay[move]

    def kernels():
        lo = 0
        while lo < len(sizes):
            hi = lo + max(1, _BATCH_ENTRIES // (sizes[lo] + 1) ** 2)
            batch = list(_binomial_batch(log_comb, sizes[lo], drop[lo:hi], stay[lo:hi]))
            for n in sizes[lo:hi]:
                yield batch.pop(0)[: n + 1, : n + 1]
            lo = hi

    return move.tolist(), kernels()


def _sd_fm_masses(u0: np.ndarray, u1: np.ndarray, m0: int, start: int = 1) -> np.ndarray:
    """Step-down count of m0 nulls and m - m0 alternatives.

    u0[i-1] and u1[i-1] (nondecreasing in i) are the probabilities that a
    null and an alternative lie below the i-th threshold.  Returns
    M[k, j] = P(the first i with fewer than i points below is k + 1, and j
    nulls lie below it), with k = m when there is no such i.  The state
    P[r0, r1] holds the nulls and alternatives still above the threshold.

    The count starts at step `start` with one jump of every point to
    u[start-1], and cuts the states that would have left before it; when the
    first `start` thresholds are tied this is exact for rows k >= start - 1,
    and the rows below are left 0.
    """
    m = len(u0)
    m1 = m - m0
    log_comb = _log_comb(max(m0, m1))
    live = np.arange(m - start + 1, 0, -1)  # every state has at most `live` points above
    v0, v1 = u0[start - 1 :], u1[start - 1 :]
    size0, size1 = np.minimum(live, m0), np.minimum(live, m1)
    size0[0], size1[0] = m0, m1  # the jump moves from all points above
    move0, K0 = _moves(log_comb, size0, _increments(v0), 1.0 - v0)
    move1, K1 = _moves(log_comb, size1, _increments(v1), 1.0 - v1)
    a, b = min(m0, live[0]), min(m1, live[0])
    P = np.outer(
        (next(K0) if move0[0] else np.eye(m0 + 1))[m0, : a + 1],
        (next(K1) if move1[0] else np.eye(m1 + 1))[m1, : b + 1],
    )
    P[np.add.outer(np.arange(a + 1), np.arange(b + 1)) > live[0]] = 0.0
    out = np.zeros((m + 1, m + 1))
    for i in range(start, m + 1):
        L = m - i + 1
        if i > start:
            a, b = min(m0, L), min(m1, L)
            if move0[i - start]:
                P = next(K0).T @ P[: a + 1, : b + 1]
            if move1[i - start]:
                P = P[: a + 1, : b + 1] @ next(K1)
        # the anti-diagonal r0 + r1 = L (exactly i - 1 points below t_i) leaves
        a, b = P.shape[0] - 1, P.shape[1] - 1
        lo, hi = max(0, L - b), min(a, L)
        exits = P.reshape(-1)[L + lo * b : L + hi * b + 1 : max(b, 1)]
        out[i - 1, m0 - hi : m0 - lo + 1] = exits[::-1]
        exits[:] = 0.0
    out[m, m0] = P[0, 0]
    return out


def _sd_rm_masses(t: np.ndarray, Fv: np.ndarray, pi0: float, start: int = 1) -> np.ndarray:
    """Step-down count in RM(m, pi0, F): masses[k, j] as in _sd_fm_masses,
    with the same jump start.

    The state P[n0, r] holds the nulls below and the points above the
    threshold.  The points that drop below are split into nulls, moved in
    the (n1, r) layout where n1 = m - n0 - r stays fixed, and alternatives,
    moved in the (n0, r) layout.  Both layouts are views of one buffer: P
    sits below `pad` zero rows, and S[n1, r] = P[m - n1 - r, r] is a
    skewed view that reaches into them where n0 would be negative.
    """
    m = len(t)
    log_comb = _log_comb(m)
    live = np.arange(m - start + 1, 0, -1)
    tt, FF = t[start - 1 :], Fv[start - 1 :]
    w0 = pi0 * _increments(tt)
    w1 = (1.0 - pi0) * _increments(FF)
    above = pi0 * (1.0 - tt) + (1.0 - pi0) * (1.0 - FF)
    size = live.copy()
    size[0] = m
    move0, K0 = _moves(log_comb, size, w0, w1 + above)
    move1, K1 = _moves(log_comb, size, w1, above)
    pad = int(live[0])
    Z = np.zeros((pad + m + 1, pad + 1))
    P = Z[pad:]
    row, col = Z.strides
    S = as_strided(Z[pad + m :], (m + 1, pad + 1), (-row, col - row))
    # the jump: m - n0 points stay above once the nulls have dropped, and
    # r of them once the alternatives have
    stay = (next(K0) if move0[0] else np.eye(m + 1))[m, ::-1].copy()
    np.multiply(stay[:, None], (next(K1) if move1[0] else np.eye(m + 1))[::-1, : pad + 1], out=P)
    out = np.zeros((m + 1, m + 1))
    for i in range(start, m + 1):
        L = m - i + 1
        if i > start:
            if move0[i - start]:
                shear = S[:, : L + 1]
                shear[...] = np.ascontiguousarray(shear) @ next(K0)
            if move1[i - start]:
                P[:, : L + 1] = P[:, : L + 1] @ next(K1)
        out[i - 1] = P[:, L]
        P[:, L] = 0.0
    out[m] = P[:, 0]
    return out


# ---------------------------------------------------------------------------
# joint mass tables for pure step-up / step-down procedures
# ---------------------------------------------------------------------------


def _su_fm_masses(t: np.ndarray, Fv: np.ndarray, m0: int, start: int = 1) -> np.ndarray:
    """Step-up law in FM: the step-down count of 1 - p, read backwards.
    Starting the count at reflected step `start` leaves the ranks
    k > m - start + 1 at 0."""
    M = _sd_fm_masses(1.0 - t[::-1], 1.0 - Fv[::-1], m0, start)
    out = np.zeros_like(M)
    out[:, : m0 + 1] = M[::-1, m0::-1]
    return out


def _su_rm_masses(t: np.ndarray, Fv: np.ndarray, pi0: float, start: int = 1) -> np.ndarray:
    """Step-up law in RM: the count of p-values with c.d.f. G gives k, and
    the k rejected p-values, i.i.d. below t_k, are null with probability
    pi0*t_k/G(t_k) each.  `start` is as in _su_fm_masses."""
    m = len(t)
    above = (pi0 * (1.0 - t) + (1.0 - pi0) * (1.0 - Fv))[::-1]
    counts = np.diag(_sd_fm_masses(above, np.zeros(m), m, start))[::-1]  # P(|R| = k)
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


def _masses(procedure: str, t: np.ndarray, Fv: np.ndarray, cfg: MixtureConfig, start: int = 1) -> np.ndarray:
    if cfg.model == "FM":
        builder = _su_fm_masses if procedure == "SU" else _sd_fm_masses
        return builder(t, Fv, cfg.m0, start)
    builder = _su_rm_masses if procedure == "SU" else _sd_rm_masses
    return builder(t, Fv, cfg.pi0, start)


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
    capped and floored collections are the capped and floored F(t_j).  The
    floored collection is tied at t_lambda up to step lambda and the
    reflected capped one up to step m - lambda + 1, so each count starts
    there with one jump.
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
    masses = _masses("SD", np.maximum(arr, cap), np.maximum(Fv, Fcap), cfg, lam)
    masses[:lam] = _masses("SU", np.minimum(arr, cap), np.minimum(Fv, Fcap), cfg, m - lam + 1)[:lam]
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
    return FdrResult(su_sum, sd_sum, cfg, lam)


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
