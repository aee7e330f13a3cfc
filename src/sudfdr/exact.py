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
the outer product of two binomial p.m.f. rows, and the states that would
have left at the tied steps are cut.  The reflected capped collection
likewise starts at step m - lambda + 1.  Every dense binomial p.m.f. row
(the jumps, the RM null/alternative splits and the widest kernel rows that
set the bands) comes from one batched builder, _binomial_rows.  The RM
step-up law and steck.psi run one single-population count, _exits.

A step's kernel K[r, s] = P(s of r points stay) is built only on its band
0 <= r - s < w: w is the smallest width that keeps every entry of its widest
row r = n that is at least 1e-40.  So row n drops only entries below 1e-40,
and a shorter row, whose number of drops is stochastically smaller, drops no
more tail mass; each row of the band is renormalized.  Each entry comes from a
1-D table of log-factorials.  A kernel is applied as one batched matmul over
its 2w x w diagonal blocks K[jw : jw + 2w, jw : jw + w], which are strided
views of the band; when the band covers more than half of the kernel (w >
(n + 1) / 2), or the kernel has fewer than 64 rows, it is applied whole, as
one plain product.  The bands of consecutive moving steps of both
populations are built in one batched expression of at most 2^14 entries
(one kernel at a time once a kernel is that large), at the widest band
among them, and each batch is used up before the next is built.  Each
state move is a view of the state times the next kernel: the FM state
P[r0, r1] moves as P @ K (alternatives) and (P.T @ K).T (nulls), and is
made C-contiguous for the strided slice that reads and clears each exit
anti-diagonal r0 + r1 = m - i + 1; the RM null moves multiply a skewed view
of the (n0, r) state that indexes it by (n1, r).

Each joint law is checked on construction: a mass below -SUM_TOL or a total
more than SUM_TOL away from 1 raises PrecisionError.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.special import gammaln

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

_BATCH_ENTRIES = 1 << 14  # band entries built at once
_BANDED_MIN = 64  # smaller kernels stay dense: there the band saves less than it costs to find
_CUT = 1e-40  # the band keeps every entry of its widest row of at least this
# log 0: k * _LOG_ZERO for a count k >= 1 outweighs every log-binomial here,
# so its exp is 0, and the rounding error of r * _LOG_ZERO, which a fused
# multiply-add in the rank-2 product of _binomial_batch leaves uncancelled,
# stays far below 1 (with -1e300 it overflowed exp)
_LOG_ZERO = -1e10
_F8 = np.dtype(np.float64)


@functools.cache
def _log_factorials(n: int) -> np.ndarray:
    """log r! for r = 0..n, as a view of a buffer that holds n + 1 entries of
    +inf on either side: a negative index r - s (s > r) reads +inf, so that
    log C(r, s) comes out -inf, and _binomial_batch reads windows that start
    before r = 0."""
    buf = np.full(3 * (n + 1), np.inf)
    buf[n + 1 : 2 * (n + 1)] = gammaln(np.arange(n + 1) + 1.0)
    buf.flags.writeable = False
    return buf[n + 1 :]


def _log(x: np.ndarray) -> np.ndarray:
    """log x elementwise, with log 0 = _LOG_ZERO so that 0 * log 0 = 0 and nothing is NaN."""
    return np.log(x, out=np.full(x.shape, _LOG_ZERO), where=x > 0.0)


def _binomial_rows(lf: np.ndarray, n: np.ndarray, log_success, log_failure) -> np.ndarray:
    """P(s of n[i] points succeed), s = 0..max(n), one normalized row per
    n[i], when each point succeeds with log-probability log_success and fails
    with log-probability log_failure (one of each per row, or one for all);
    0 for s > n[i], where log C(n[i], s) reads -inf."""
    n = n[:, None]
    s = np.arange(int(n.max()) + 1)
    d = n - s
    rows = lf[n] - lf[: len(s)] - lf[d] + s * np.asarray(log_success)[..., None]
    rows += d * np.asarray(log_failure)[..., None]
    np.exp(rows, out=rows)
    return np.divide(rows, rows.sum(axis=1, keepdims=True), out=rows)


def _band_widths(lf: np.ndarray, n: np.ndarray, lp: np.ndarray, lq: np.ndarray) -> np.ndarray:
    """The band of each kernel: one more than the largest number of drops
    whose probability in row n, the widest, is at least _CUT; the whole
    kernel, n + 1, when that is more than half of it or the kernel has fewer
    than _BANDED_MIN rows."""
    w = n + 1
    wide = (w >= _BANDED_MIN).nonzero()[0]
    if not wide.size:
        return w
    chunk = max(1, _BATCH_ENTRIES // 4 // int(w.max()))  # _binomial_rows makes about four such tables
    for lo in range(0, len(wide), chunk):
        i = wide[lo : lo + chunk]
        keep = _binomial_rows(lf, n[i], lp[i], lq[i]) >= _CUT
        w[i] = keep.shape[1] - keep[:, ::-1].argmax(axis=1)
    return np.where(2 * w > n + 1, n + 1, w)


def _binomial_batch(lf: np.ndarray, n: np.ndarray, lp: np.ndarray, lq: np.ndarray, width: int, pad: int) -> np.ndarray:
    """The bands of consecutive kernels: kernel b holds P(s of r points
    stay) for r = 0..n[b], when each point drops with log-probability lp[b]
    and stays with log-probability lq[b], renormalized over the band.

    Row r of kernel b is row off_b + r of the returned Z, off_b the number of
    rows before it: Z[., width:] holds the entries s = r - width + 1 .. r in
    ascending order and Z[., :width] is zero.  So entry (r, s) of kernel b
    sits at flat position (off_b + 1) * 2 width - 1 + r (2 width - 1) + s,
    which reads 0 for r < s < r + width and for r - 2 width < s <= r - width:
    the dense square and the 2w x w diagonal blocks of any band w <= width
    are strided views of Z.  Z ends in `pad` zero rows that those views reach.
    """
    sizes = n + 1
    starts = sizes.cumsum() - sizes
    rows = np.arange(starts[-1] + sizes[-1]) - starts.repeat(sizes)
    d = np.arange(width - 1, -1, -1)
    # log C(r, d) = log r! - log s! - log d!, s = r - d = r - width + 1 .. r,
    # from the +inf entries that precede lf[0]; -inf where s < 0
    window = np.ndarray((int(sizes.max()), width), _F8, lf.base, 8 * (len(lf) // 2 - width + 1), (8, 8))
    log_comb = (lf[: len(window), None] - lf[d]) - window
    # + r log q + d log(p / q), as one rank-2 product
    coef = np.array((lq, lp - lq)).T.repeat(sizes, axis=0)
    coef[:, 0] *= rows
    logs = log_comb[rows]
    logs += coef @ np.array((np.ones(width), d))
    band = np.zeros(logs.shape)
    np.exp(logs, out=band, where=logs > -np.inf)  # s < 0 is 0 (and slow to exponentiate)
    del logs
    Z = np.zeros((len(rows) + pad, 2 * width))
    np.divide(band, (band @ np.ones(width))[:, None], out=Z[: len(rows), width:])
    return Z


def _moves(lf: np.ndarray, sizes: np.ndarray, drop: np.ndarray, stay: np.ndarray):
    """Which populations move at each step, and one iterator over their
    kernels in step order.

    sizes, drop and stay are (steps, populations) arrays: a population moves
    when drop > 0, and its kernel moves sizes + 1 states.  A dense kernel is
    handed out as its (n + 1) square, a kernel with a narrower band as
    _Blocks; both are strided views of one batch of consecutive kernels,
    built at the widest band among them with at most _BATCH_ENTRIES band
    entries (or one kernel).  A batch is freed once its last kernel has been
    used.
    """
    move = drop > 0.0
    n, drop, stay = sizes[move], drop[move], stay[move]
    lp = np.log(drop / (drop + stay))
    lq = _log(stay / (drop + stay))
    widths = _band_widths(lf, n, lp, lq)

    def batch(lo: int, hi: int) -> list:
        rows, ws = (n[lo:hi] + 1).tolist(), widths[lo:hi].tolist()
        starts = list(itertools.accumulate(rows, initial=0))
        # the blocks of a kernel with band w span ceil(rows / w) + 1 blocks of w rows
        reach = max((s + (-(-k // w) + 1) * w for s, k, w in zip(starts, rows, ws) if w < k), default=0)
        W = max(ws)
        Z = _binomial_batch(lf, n[lo:hi], lp[lo:hi], lq[lo:hi], W, max(0, reach - starts[-1]))
        A = 8 * (2 * W)  # bytes per row of Z; entry (0, 0) of a kernel sits at byte s * A + A - 8
        return [
            np.ndarray((w, w), _F8, Z, s * A + A - 8, (A - 8, 8))
            if w == k
            else _Blocks(np.ndarray((-(-k // w), 2 * w, w), _F8, Z, s * A + A - 8, (w * A, A - 8, 8)))
            for s, k, w in zip(starts, rows, ws)
        ]

    def kernels():
        lo = 0
        while lo < len(n):
            entries = (n[lo:] + 1).cumsum() * np.maximum.accumulate(widths[lo:])
            hi = lo + max(1, int(entries.searchsorted(_BATCH_ENTRIES, side="right")))
            yield from batch(lo, hi)
            lo = hi

    return move.tolist(), kernels()


class _Blocks:
    """A kernel K with band w, held as its diagonal blocks B[j] = K[jw : jw +
    2w, jw : jw + w] (strided views of its batch).  It defines one product,
    X @ K, as one batched matmul over the blocks: column block j of X @ K is
    X[:, jw : jw + 2w] @ B[j], with X copied into a buffer padded with zero
    columns, so X may be narrower than K or carry extra zero columns."""

    __array_ufunc__ = None  # ndarray @ _Blocks defers to _Blocks.__rmatmul__

    def __init__(self, B: np.ndarray):
        self.B = B

    def __rmatmul__(self, X: np.ndarray) -> np.ndarray:  # X @ K
        blocks, h, w = self.B.shape
        r, c = X.shape[0], (blocks + 1) * w
        Xp = np.zeros((r, c))
        Xp[:, : X.shape[1]] = X
        out = np.empty((r, blocks * w))
        np.matmul(np.ndarray((blocks, r, h), float, Xp, 0, (8 * w, 8 * c, 8)), self.B, out=out.reshape(r, blocks, w).transpose(1, 0, 2))
        return out


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
    lf = _log_factorials(max(m0, m1))
    live = np.arange(m - start + 1, 0, -1)  # every state has at most `live` points above
    v = np.array((u0[start - 1 :], u1[start - 1 :])).T
    move, K = _moves(lf, np.minimum(live[1:, None], (m0, m1)), v[1:] - v[:-1], 1.0 - v[1:])
    a, b = min(m0, live[0]), min(m1, live[0])
    P = _binomial_rows(lf, np.array((m0, m1)), *_log(np.array((1.0 - v[0], v[0]))))  # points that stay above
    P = np.outer(P[0, : a + 1], P[1, : b + 1])
    P[np.add.outer(np.arange(a + 1), np.arange(b + 1)) > live[0]] = 0.0
    out = np.zeros((m + 1, m + 1))
    for i in range(start, m + 1):
        L = m - i + 1
        a, b = min(m0, L), min(m1, L)
        if i > start:
            move0, move1 = move[i - start - 1]
            if move0:
                P = (P[: a + 1, : b + 1].T @ next(K)).T
            if move1:
                P = P[: a + 1, : b + 1] @ next(K)
            P = np.ascontiguousarray(P)
        # the anti-diagonal r0 + r1 = L (exactly i - 1 points below t_i)
        # leaves; P is C-contiguous and may carry extra zero rows and columns
        lo, hi = max(0, L - b), min(a, L)
        c = P.shape[1]
        exits = P.reshape(-1)[L + lo * (c - 1) : L + hi * (c - 1) + 1 : max(c - 1, 1)]
        out[i - 1, m0 - hi : m0 - lo + 1] = exits[::-1]
        exits[:] = 0.0
    out[m, m0] = P[0, 0]
    return out


def _exits(u: np.ndarray, start: int = 1) -> np.ndarray:
    """The exit law out[k] = M[k, k] of M = _sd_fm_masses(u, zeros, m, start)
    of m = len(u) points, each below the i-th threshold with probability
    u[i-1], counted on a one-row state P[0, r] of the points still above."""
    m = len(u)
    lf = _log_factorials(m)
    live = np.arange(m - start + 1, 0, -1)
    v = u[start - 1 :, None]
    move, K = _moves(lf, live[1:, None], v[1:] - v[:-1], 1.0 - v[1:])
    P = _binomial_rows(lf, np.array((m,)), *_log(np.array((1.0 - v[0], v[0]))))[:, : live[0] + 1]
    out = np.zeros(m + 1)
    for i, L in enumerate(live.tolist(), start):
        if i > start and move[i - start - 1][0]:
            P = P[:, : L + 1] @ next(K)
        out[i - 1] = P[0, L]  # only i - 1 points below t_i
        P[0, L] = 0.0
    out[m] = P[0, 0]
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
    lf = _log_factorials(m)
    live = np.arange(m - start + 1, 0, -1)
    tt, FF = t[start - 1 :], Fv[start - 1 :]
    w0 = pi0 * (tt[1:] - tt[:-1])
    w1 = (1.0 - pi0) * (FF[1:] - FF[:-1])
    above = pi0 * (1.0 - tt) + (1.0 - pi0) * (1.0 - FF)
    move, K = _moves(
        lf, live[1:, None].repeat(2, axis=1), np.array((w0, w1)).T, np.array((w1 + above[1:], above[1:])).T
    )
    pad = int(live[0])
    Z = np.zeros((pad + m + 1, pad + 1))
    P = Z[pad:]
    row, col = Z.strides
    S = as_strided(Z[pad + m :], (m + 1, pad + 1), (-row, col - row))
    # the jump: r of the m points stay above, and n0 of the m - r that drop are nulls
    drop = pi0 * tt[0] + (1.0 - pi0) * FF[0]
    null, alt = (pi0 * tt[0] / drop, (1.0 - pi0) * FF[0] / drop) if drop > 0.0 else (0.0, 1.0)
    # row 0: the stay row of all m points; row 1 + r: the split of m - r
    logs = _log(np.array([(above[0] / (drop + above[0]), drop / (drop + above[0]))] + [(null, alt)] * (pad + 1)))
    rows = _binomial_rows(lf, np.concatenate(((m,), m - np.arange(pad + 1))), logs[:, 0], logs[:, 1])
    P[...] = np.multiply(rows[1:], rows[0, : pad + 1, None], out=rows[1:]).T
    del rows
    out = np.zeros((m + 1, m + 1))
    for i in range(start, m + 1):
        L = m - i + 1
        if i > start:
            move0, move1 = move[i - start - 1]
            if move0:
                shear = S[:, : L + 1]
                shear[...] = (shear @ next(K))[:, : L + 1]
            if move1:
                P[:, : L + 1] = (P[:, : L + 1] @ next(K))[:, : L + 1]
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
    pi0*t_k/G(t_k) each.  `start` is as in _su_fm_masses, and the split is
    built only for the ranks k <= m - start + 1 that the count reaches."""
    m = len(t)
    top = m - start + 1
    above = (pi0 * (1.0 - t) + (1.0 - pi0) * (1.0 - Fv))[::-1]
    counts = _exits(above, start)[::-1][: top + 1]  # P(|R| = k), k = 0..top
    tk = np.concatenate(([0.0], t[:top]))
    Fk = np.concatenate(([0.0], Fv[:top]))
    G = pi0 * tk + (1.0 - pi0) * Fk
    hit = G > 0.0  # where G(t_k) = 0, P(|R| = k) = 0 for k >= 1
    null = np.divide(pi0 * tk, G, out=np.ones(top + 1), where=hit)
    alt = np.divide((1.0 - pi0) * Fk, G, out=np.zeros(top + 1), where=hit)
    split = _binomial_rows(_log_factorials(m), np.arange(top + 1), _log(null), _log(alt))
    out = np.zeros((m + 1, m + 1))
    np.multiply(split, counts[:, None], out=out[: top + 1, : top + 1])
    return out


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


def _fdp_bin(fdp: np.ndarray, bins: int) -> np.ndarray:
    """The bin of each FDP value, floor(fdp * bins); the atom at 1 is bin `bins`."""
    return np.minimum(np.floor(fdp * bins + 1e-9).astype(np.int64), bins)


def fdp_pmf_histogram(t: ThresholdCollection, lam: int, cfg: MixtureConfig, bins: int) -> np.ndarray:
    """Bin masses P(FDP in [i/bins, (i+1)/bins)) for i = 0..bins.

    The final entry holds the atom at FDP = 1; entry 0 includes P(FDP = 0).
    Masses sum to 1 up to the documented tolerance.
    """
    if bins < 1:
        raise ValueError(f"need bins >= 1, got {bins}")
    pmf = sud_joint_masses(t, lam, cfg)
    idx = _fdp_bin(_fdp_values(pmf.m), bins)
    return np.asarray([math.fsum(pmf.masses[idx == b].tolist()) for b in range(bins + 1)])


def fdp_mean(t: ThresholdCollection, lam: int, cfg: MixtureConfig) -> float:
    """Expectation of the FDP taken over the joint masses, which is the FDR."""
    return fdr_sud(t, lam, cfg).fdr


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
