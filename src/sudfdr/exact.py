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
(the jumps and the RM null/alternative splits) comes from _binomial_rows,
which builds many rows in one expression.  There are two counts, one per
state layout: the FM count _sd_fm_masses and the RM count _sd_rm_masses.
The RM step-up law and steck.psi need one population only, and run the FM
count with no nulls, on a one-row state.

Each count carries its state on a window, the mass window of its step.
Without the cut at the boundary, the state at step i would be the law of the
points above t_i: Bin(m0, 1 - u0_i) x Bin(m1, 1 - u1_i) in FM (u the
probabilities below t_i), and in RM the multinomial whose nulls below and
points above are Bin(m, pi0 t_i) and Bin(m, 1 - G(t_i)).  The cut only
removes nonnegative mass, so every count state is a sub-measure of that
law, and a cell outside the product of its two marginal windows, the counts
whose binomial probabilities are at least _CUT = 1e-40 (_window), holds less
than 1e-40.  The window of a step is that product, clipped to the cells the
state can hold (r0 + r1 <= m - i + 1 in FM; r <= m - i + 1 and n0 + r <= m in
RM; each RM end of r at most the last step's, as the points above never
grow).  It depends on the step, not on the start, so every count of a
direction reads the same windows.  A count keeps only the cells inside:
each step drops less than 1e-40 in each of at most (m + 1)^2 cells, so no
mass moves by more than (m + 1)^2 1e-40 per step, and the kernels, whose
rows sum to 1, carry no dropped mass on.

A step's kernel K[r, s] = P(s of r points stay) is built only on the rows r
of the last window and read only at the columns s of this one.  Its band is
0 <= r - s < w, w the smallest width that keeps every entry of its last row
r = n that is at least 1e-40.  So row n drops only entries below 1e-40, and
a shorter row, whose number of drops is stochastically smaller, drops no
more tail mass; each row of the band is renormalized.  A kernel of at least
64 rows whose band is at most half of them is built only on its band and
applied as one batched matmul over its blocks of b = ceil(w / 2) columns and
the b + w - 1 rows that reach them, K[c + jb : c + jb + b + w - 1, c + jb :
c + jb + b] from its first column c, which are strided views of the band
(half as wide a block as the band computes a quarter fewer products); any
other kernel is applied whole, as one plain product of its rows and columns.
Each entry comes from one table of log C(r, d), built once per count at its
widest width.  The kernels of consecutive moving steps of both populations
are built in one batched expression of at most 2^14 entries (one kernel at a
time once a kernel is that large), at the widest width among them, and each
batch is used up before the next is built.  Each state move is a view of the
state times the next kernel: the FM state P[r0, r1] moves as P @ K
(alternatives) and (P.T @ K).T (nulls), and is kept C-contiguous for the
strided slice that reads and clears each exit anti-diagonal r0 + r1 = m - i
+ 1; the RM null moves multiply a skewed view of the (n0, r) state that
indexes it by (n1, r).

A sweep over lambda runs many counts on one problem, (the model, m0 or pi0,
t, F(t)), and they share their steps: the floored collection of order
lambda equals t after step lambda, the reflected capped one equals the
reflected t after step m - lambda + 1, and the windows depend on the step i
alone.  So each count direction of a problem has one step source from step
1, which _steps builds (the one place that maps the model and SU/SD to a
count layout): the windows, the drop and stay inputs of steps 2..m and the
jump inputs.  A count runs a contiguous
range of starts lo..hi as one stack, on the kernels of the steps after lo:
at step i the states of the starts before i move together, one batched
matmul per population, start i joins with its jump, and one strided read
takes and clears every start's exit anti-diagonal.  It returns one table of
shape (hi - lo + 1, m - lo + 2, null counts), whose [s - lo, k - lo + 1] is
the exit law of start s at rank k (0 for k < s - 1).  _laws runs the two
counts of the orders lo..hi, the step-down starts lo..hi and the step-up
starts m - hi + 1..m - lo + 1, and builds the law of every order at once,
laws[lambda - lo, k, j], with a column for each null count (m0 + 1 in FM,
m + 1 in RM): one slice copy of the step-down tables, and the ranks below
each order from the step-up tables flipped on their starts and ranks.
steck.psi runs the count itself and reads its table[0].

sud_joint_masses keeps the laws of the last problem it counted in one
module-level slot, _slot, keyed by value (the model, m0 or pi0, and the
bytes of t and F(t)), in a budget of 2^17 float64 entries (1 MiB), and
copies its order's law into a dense (m + 1)^2 array; joint_pmf is the law
of order 1 (SD) or m (SU).  A small problem, whose m laws fit the budget at
the width of its larger population (counted from (model, m, m0): at m0 =
0.7 m or pi0 = 0.7 that is m <= 56 in FM and m <= 50 in RM), counts every
start of both directions on its first order, which costs a few one-order
calls (about 2x at m = 30), so a sweep gains from its third order or so on,
and no later order counts.  A larger problem counts the two starts of each
new order, lambda and m - lambda + 1, and the slot keeps its law when it
fits (every order up to m = 431 in FM at m0 = 0.7 m and m = 361 in RM; else
it stays as it was), so the FDR, FDP c.d.f., histogram and k-FWER of one
order count once.  Laws that fail their mass check are not kept.  A law is
the same array whether the slot was cold or warm, in any order of calls;
the law of a small problem differs from a one-order count of the same order
by rounding only, as the batches that build a kernel differ.

Every exact number is one call of one functional, _expect, on the law of
one order: a payoff(k, j), evaluated on the index arrays of the law's
nonzero cells, gives each cell a value and a group, and the result is one
math.fsum of value times mass per group (one stable argsort gathers the
groups).  FDR is the FDP payoff j/k in two groups, its step-up (k < lambda)
and step-down parts; the FDP c.d.f. at x is the indicator of
j <= floor(x k + 1e-12) or k = 0; the histogram puts mass 1 in the bin of
the FDP, one group per bin; the k-FWER is the indicator of j >= k.  fsum is
correctly rounded, so no value depends on the order of the cells.

Each joint law is checked on construction: a mass below -SUM_TOL or a total
more than SUM_TOL away from 1 raises PrecisionError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from sudfdr.models import AlternativeCdf, MixtureConfig, _as_int
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
    "kfwer",
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


def _mass_check(masses: np.ndarray, axis=None) -> tuple:
    """The least mass and |total - 1| of masses (over axis), and whether
    they pass: no mass below -SUM_TOL and a total within SUM_TOL of 1."""
    low = masses.min(axis=axis)
    defect = np.abs(masses.sum(axis=axis) - 1.0)
    return low, defect, (low >= -SUM_TOL) & (defect <= SUM_TOL)  # NaN fails too


def _check_masses(masses: np.ndarray):
    """Raise PrecisionError unless masses is a distribution within SUM_TOL."""
    low, defect, ok = _mass_check(masses)
    if not ok:
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


def _window(lf: np.ndarray, n: np.ndarray, p: np.ndarray) -> tuple:
    """(lo, hi): the counts lo..hi whose Bin(n, p) probabilities are at
    least _CUT, elementwise over the 1-D arrays n and p.

    The p.m.f. rises up to its mode floor((n + 1) p) and falls after it, so
    lo is 0 when the p.m.f. at 0 is kept, else a bisection of
    log-probabilities on 0..mode; hi is n less the lo of Bin(n, 1 - p), and
    both ends run as one bisection."""
    k, success = np.concatenate((n, n)), np.concatenate((p, 1.0 - p))
    log_success = _log(success)
    log_failure = np.concatenate((log_success[len(p) :], log_success[: len(p)]))  # log p for the mirrored half, exactly
    cut = math.log(_CUT)
    lo = np.zeros(len(k), np.int64)
    i = (k * log_failure < cut).nonzero()[0]  # the p.m.f. at 0 is cut
    k, a = k[i], lo[i]
    b = np.minimum((k + 1) * success[i], k).astype(np.int64)  # the mode, which is kept
    base, slope = lf[k] + k * log_failure[i], log_success[i] - log_failure[i]
    for _ in range(int(b.max(initial=0)).bit_length()):  # the least kept count lies in a..b
        mid = (a + b) >> 1
        kept = base - lf[mid] - lf[k - mid] + mid * slope >= cut
        np.copyto(b, mid, where=kept)
        np.add(mid, 1, out=a, where=~kept)
    lo[i] = a
    return lo[: len(p)], n - lo[len(p) :]


def _binomial_batch(log_comb: np.ndarray, first: np.ndarray, last: np.ndarray, lp: np.ndarray, lq: np.ndarray, front: int, pad: int) -> np.ndarray:
    """The bands of consecutive kernels on their rows: kernel b holds P(s of
    r points stay) for r = first[b]..last[b], when each point drops with
    log-probability lp[b] and stays with log-probability lq[b], renormalized
    over the band.  log_comb[r, c] is log C(r, d) for d = width - 1 - c,
    width = log_comb.shape[1].

    Row r of kernel b is row front + off_b + r - first[b] of the returned Z,
    off_b the number of rows before it: Z[., width:] holds the entries s = r
    - width + 1 .. r in ascending order and Z[., :width] is zero.  So entry
    (r, s) of kernel b sits at flat position (front + off_b - first[b] + 1) *
    2 width - 1 + r (2 width - 1) + s, which reads 0 for r < s <= r + width
    and for r - 2 width < s <= r - width: a dense view of the kernel and the
    blocks of any band w <= width (see _Blocks) are strided views of Z.  Z
    begins with `front` and ends with `pad` zero rows that those views reach.
    """
    width = log_comb.shape[1]
    sizes = last - first + 1
    starts = sizes.cumsum() - sizes
    rows = np.arange(starts[-1] + sizes[-1]) - (starts - first).repeat(sizes)
    d = np.arange(width - 1, -1, -1)
    # + r log q + d log(p / q), as one rank-2 product
    coef = np.array((lq, lp - lq)).T.repeat(sizes, axis=0)
    coef[:, 0] *= rows
    logs = log_comb[rows]
    logs += coef @ np.array((np.ones(width), d))
    band = np.zeros(logs.shape)
    np.exp(logs, out=band, where=logs > -np.inf)  # s < 0 is 0 (and slow to exponentiate)
    del logs
    Z = np.zeros((front + len(rows) + pad, 2 * width))
    np.divide(band, (band @ np.ones(width))[:, None], out=Z[front : front + len(rows), width:])
    return Z


def _moves(lf: np.ndarray, rows: np.ndarray, cols: np.ndarray, drop: np.ndarray, stay: np.ndarray):
    """Which populations move at each step, and one iterator over their
    kernels in step order.

    drop and stay are (steps, populations) arrays, and rows and cols
    (steps, populations, 2) arrays of (first, last) pairs: a population
    moves when drop > 0, and its kernel K[r, s] = P(s of r points stay) is
    handed out on the rows r and the columns s of the pairs, so that X @ K
    takes a state X on the rows to one on the columns.  The band w of a
    kernel is the smallest width that keeps every entry of its last row r =
    n that is at least _CUT.  A kernel with at least _BANDED_MIN rows and a
    band of at most half of them is handed out as _Blocks, any other as one
    dense view that reads every entry of its rows at its columns.  Both are
    strided views of one batch of consecutive kernels, built at the widest
    width among them (the band, or the span of the dense rows and columns)
    with at most _BATCH_ENTRIES entries (or one kernel), from one table of
    log C(r, d) built once for the call at its widest width.  A batch is
    freed once its last kernel has been used.
    """
    move = drop > 0.0
    (o, n), (clo, chi) = rows[move].T, cols[move].T
    drop, stay = drop[move], stay[move]
    p = drop / (drop + stay)
    lp, lq = np.log(p), _log(stay / (drop + stay))
    size = n - o + 1
    widths = np.maximum(n, chi) - np.minimum(o, clo) + 1  # every entry a dense view reads
    banded = np.zeros(len(n), bool)
    wide = (size >= _BANDED_MIN).nonzero()[0]
    if wide.size:
        w = _window(lf, n[wide], p[wide])[1] + 1
        banded[wide] = 2 * w <= size[wide]
        widths[wide] = np.where(banded[wide], w, widths[wide])
    if len(n):  # log C(r, d), d = widest - 1 - c, from the +inf entries that precede lf[0]
        widest = int(widths.max())
        d = np.arange(widest - 1, -1, -1)
        window = np.ndarray((int(n.max()) + 1, widest), _F8, lf.base, 8 * (len(lf) // 2 - widest + 1), (8, 8))
        log_comb = (lf[: len(window), None] - lf[d]) - window
    # a band w is applied in blocks of b = ceil(w / 2) columns and b + w - 1
    # rows from row clo, ceil(columns / b) of them
    shift, span, step = o - clo, chi - clo + 1, (widths + 1) // 2
    blocks = -(-span // step)
    reach = blocks * step + widths - shift  # the rows from its first that a kernel's blocks reach, and a spare one
    layout = np.array((size, shift, span, widths, step, blocks, banded))

    def batch(lo: int, hi: int) -> list:
        at = size[lo:hi].cumsum() - size[lo:hi]  # the rows before each kernel
        front, pad = 0, 1
        if banded[lo:hi].any():  # the zero rows the blocks reach before and after the batch's rows
            g = banded[lo:hi]
            front = max(0, int(np.max(shift[lo:hi][g] - at[g])))
            pad = max(1, int(np.max(reach[lo:hi][g] + at[g])) - int(at[-1] + size[hi - 1]))
        W = int(widths[lo:hi].max())
        Z = _binomial_batch(log_comb[:, widest - W :], o[lo:hi], n[lo:hi], lp[lo:hi], lq[lo:hi], front, pad)
        A = 8 * (2 * W)  # bytes per row of Z; entry (r, r) of a kernel sits at byte (its row of r) * A + A - 8
        return [
            _Blocks(np.ndarray((nb, b + w - 1, b), _F8, Z, (s - sh + 1) * A - 8, (b * A, A - 8, 8)), sh, c)
            if g
            else np.ndarray((r, c), _F8, Z, (s + 1) * A - 8 * (sh + 1), (A - 8, 8))
            for s, (r, sh, c, w, b, nb, g) in zip((at + front).tolist(), layout[:, lo:hi].T.tolist())
        ]

    def kernels():
        lo = 0
        while lo < len(n):
            entries = size[lo:].cumsum() * np.maximum.accumulate(widths[lo:])
            hi = lo + max(1, int(entries.searchsorted(_BATCH_ENTRIES, side="right")))
            yield from batch(lo, hi)
            lo = hi

    return move.tolist(), kernels()


class _Blocks:
    """A kernel K with band w, held as its blocks B[j] = K[c + jb : c + jb +
    h, c + jb : c + jb + b] of b columns and h = b + w - 1 rows, which hold
    every entry of the band in those columns (strided views of its batch), c
    its first column.  It defines one product, X @ K, for an X on the rows c
    + shift.. of K, as one batched matmul over the blocks: column block j of
    X @ K is X[..., jb - shift : jb + h - shift] @ B[j], with X copied into a
    buffer padded with zero columns; the product keeps the first `cols`
    columns.  X may be a stack of matrices."""

    __array_ufunc__ = None  # ndarray @ _Blocks defers to _Blocks.__rmatmul__

    def __init__(self, B: np.ndarray, shift: int, cols: int):
        self.B, self.shift, self.cols = B, shift, cols

    def __rmatmul__(self, X: np.ndarray) -> np.ndarray:  # X @ K
        blocks, h, b = self.B.shape
        *stack, r = X.shape[:-1]
        c = blocks * b + h - b
        Xp = np.zeros((*stack, r, c))
        skip, at = max(0, -self.shift), max(0, self.shift)
        k = max(0, min(X.shape[-1] - skip, c - at))
        Xp[..., at : at + k] = X[..., skip : skip + k]
        out = np.empty((*stack, r, blocks * b))
        view = np.ndarray((*stack, blocks, r, h), float, Xp, 0, (*Xp.strides[:-2], 8 * b, 8 * c, 8))
        np.matmul(view, self.B, out=out.reshape(*stack, r, blocks, b).swapaxes(-3, -2))
        return out[..., : self.cols]


def _rewindow(X: np.ndarray, lo: int, new: tuple) -> np.ndarray:
    """X, whose last axis holds the counts lo.., on the counts new[0]..new[1]:
    a view when X holds them all, else a copy with zeros where it holds none."""
    a, b = new
    if lo <= a and b < lo + X.shape[-1]:
        return X[..., a - lo : b - lo + 1]
    out = np.zeros((*X.shape[:-1], b - a + 1))
    f, t = max(a, lo), min(b, lo + X.shape[-1] - 1)
    if f <= t:
        out[..., f - a : t - a + 1] = X[..., f - lo : t - lo + 1]
    return out


class _Steps:
    """One count direction of a problem from step 1, streamed.  win[i - 1]
    holds the (first, last) count of each state axis at step i (the nulls
    and alternatives above t_i in the FM layout, the nulls below and the
    points above it in the RM one): every cell outside it is below _CUT,
    and the count keeps only the cells inside.  rows and cols are the
    _moves windows of the kernels of steps 2..m, and drop and stay their
    inputs.  width is the number of null counts of the count's table.
    jumps(lo, hi) builds the jump inputs of the starts lo + 1..hi: a
    binomial pair in the FM layout (see _fm_steps), and in the RM one the
    null and alternative weights below t_start and the weight above it.
    count is the count of its layout, _sd_fm_masses or _sd_rm_masses.
    split(top), of the RM step-up law only, builds the null split of ranks
    0..top (see _rm_split)."""

    def __init__(self, lf: np.ndarray, width: int, win: np.ndarray, rows: np.ndarray, cols: np.ndarray, drop: np.ndarray, stay: np.ndarray, jumps, count, split=None):
        self.lf, self.width, self.win, self.rows, self.cols = lf, width, win, rows, cols
        self.drop, self.stay, self.jumps, self.count, self.split = drop, stay, jumps, count, split

    def after(self, start: int):
        """The move flags and the kernels of the steps after `start`, as _moves hands them out."""
        if start == len(self.win):  # nothing moves after the last step
            return [], iter(())
        s = slice(start - 1, None)
        return _moves(self.lf, self.rows[s], self.cols[s], self.drop[s], self.stay[s])


def _clip(lo: np.ndarray, hi: np.ndarray, top: np.ndarray) -> np.ndarray:
    """The windows (lo, hi) of two axes, as (steps, 2, 2) (first, last)
    pairs, with each last count at most top less the other axis's first
    (the cells beyond hold no mass) and never below its first."""
    hi = np.maximum(np.minimum(hi, top[:, None] - lo[:, ::-1]), lo)
    return np.stack((lo, hi), axis=-1)


def _fm_steps(u0: np.ndarray, u1: np.ndarray, m0: int, split=None) -> _Steps:
    """The FM-layout steps of m0 nulls and len(u0) - m0 alternatives, which
    lie below the i-th threshold with probabilities u0[i-1] and u1[i-1].
    At step i every count state is a sub-measure of Bin(m0, 1 - u0[i-1]) x
    Bin(m - m0, 1 - u1[i-1]), the nulls and alternatives above t_i, so its
    window is the product of the two marginal windows, clipped to the
    triangle r0 + r1 <= m - i + 1.  The jump rows of start s are those two
    binomials, built for many starts in one _binomial_rows call."""
    m = len(u0)
    lf = _log_factorials(max(m0, m - m0))
    v = np.array((u0, u1)).T
    lo, hi = _window(lf, np.tile((m0, m - m0), m), (1.0 - v).ravel())
    win = _clip(lo.reshape(m, 2), hi.reshape(m, 2), np.arange(m, 0, -1))

    def jumps(lo: int, hi: int) -> np.ndarray:
        logs = _log(np.array((1.0 - v[lo:hi], v[lo:hi]))).reshape(2, -1)
        return _binomial_rows(lf, np.tile((m0, m - m0), hi - lo), *logs).reshape(hi - lo, 2, -1)

    return _Steps(lf, m0 + 1, win, win[:-1], win[1:], v[1:] - v[:-1], 1.0 - v[1:], jumps, _sd_fm_masses, split)


def _sd_fm_masses(steps: _Steps, lo: int = 1, hi: int | None = None) -> np.ndarray:
    """Step-down counts of m0 nulls and m - m0 alternatives on the FM-layout
    steps of (u0, u1, m0) (see _fm_steps), one from each start lo..hi (hi =
    lo by default).

    u0[i-1] and u1[i-1] (nondecreasing in i) are the probabilities that a
    null and an alternative lie below the i-th threshold.  The count from
    step 1 is the (m + 1, m0 + 1) table M[k, j] = P(the first i with fewer
    than i points below is k + 1, and j nulls lie below it), with k = m when
    there is no such i.  The state P[r0, r1] holds the nulls and
    alternatives still above the threshold, on the step's window: at step i
    it holds the cells (lo0 + x, lo1 + y) of win[i - 1].  With m0 = 0 (and
    u0 = 0) it is the one-population count of m points below t_i with
    probability u1[i-1]: its state is one row, and M[:, 0] is its exit law.

    The count from step s starts there with one jump of every point to
    u[s-1], and cuts the states that would have left before it; when the
    first s thresholds are tied this is exact for the rows k >= s - 1, the
    only rows it fills.  The starts run as one stack of states: at step i
    those of the starts before i move together, one batched matmul per
    population from the last window to this one, start i joins with its
    jump, and one strided read takes and clears the exit anti-diagonal of
    every state.  The returned (hi - lo + 1, m - lo + 2, m0 + 1) table holds
    the rows k >= s - 1 of start s at [s - lo, k - lo + 1], and 0 at its
    ranks below s - 1; from the one start 1, table[0] is the whole M.
    """
    hi = lo if hi is None else hi
    m, win = len(steps.win), steps.win.reshape(-1, 4).tolist()
    move, K = steps.after(lo)
    # every start's jump on the box of their windows, cut to the states with
    # at most m - start + 1 points above
    (f0, f1), (t0, t1) = steps.win[lo - 1 : hi, :, 0].min(axis=0), steps.win[lo - 1 : hi, :, 1].max(axis=0)
    jumps = steps.jumps(lo - 1, hi)
    J = jumps[:, 0, f0 : t0 + 1, None] * jumps[:, 1, None, f1 : t1 + 1]
    if t0 + t1 > m - hi + 1:
        J[np.add.outer(np.arange(f0, t0 + 1), np.arange(f1, t1 + 1)) > np.arange(m - lo + 1, m - hi, -1)[:, None, None]] = 0.0
    del jumps
    out = np.zeros((len(J), m - lo + 2, steps.width))
    by_r0 = out[..., ::-1]  # by_r0[., ., r0] = out[., ., m0 - r0]: r0 nulls above, m0 - r0 below
    for i, (lo0, hi0, lo1, hi1) in enumerate(win[lo - 1 :], lo):
        L = m - i + 1
        if i > lo:
            was0, _, was1, _ = win[i - 2]
            move0, move1 = move[i - lo - 1]
            P = (P.mT @ next(K)).mT if move0 else _rewindow(P.mT, was0, (lo0, hi0)).mT
            P = P @ next(K) if move1 else _rewindow(P, was1, (lo1, hi1))
        if i <= hi:  # start i joins
            jump = J[i - lo : i - lo + 1, lo0 - f0 : hi0 - f0 + 1, lo1 - f1 : hi1 - f1 + 1]
            P = np.ascontiguousarray(jump) if i == lo else np.concatenate((P, jump))
            if i == hi:  # free the jumps once the last start has joined
                del J, jump
        else:
            P = np.ascontiguousarray(P)
        # the anti-diagonal r0 + r1 = L (exactly i - 1 points below t_i) leaves;
        # P is C-contiguous, so cell (r0, L - r0) sits at flat
        # (r0 - lo0) c + L - r0 - lo1, c the row length
        f, t = max(lo0, L - hi1), min(hi0, L - lo1)
        if f <= t:
            c = P.shape[2]
            at = (f - lo0) * c + L - f - lo1
            exits = P.reshape(len(P), -1)[:, at : at + (t - f) * (c - 1) + 1 : max(c - 1, 1)]
            by_r0[: len(P), i - lo, f : t + 1] = exits
            exits.fill(0.0)
    if lo0 == lo1 == 0:  # the cell (0, 0), no point above t_m
        out[:, -1, -1] = P[:, 0, 0]
    return out


def _sd_rm_masses(steps: _Steps, lo: int = 1, hi: int | None = None) -> np.ndarray:
    """Step-down counts in RM(m, pi0, F) on its steps (see _steps), one from
    each start lo..hi: masses[k, j] as in _sd_fm_masses, with the same jump
    starts, the same stack and the same (hi - lo + 1, m - lo + 2, m + 1)
    table.

    The state P[n0, r] holds the nulls below and the points above the
    threshold, on the step's window.  The points that drop below are split
    into nulls, moved in the (n1, r) layout where n1 = m - n0 - r stays
    fixed, and alternatives, moved in the (n0, r) layout.  The null move of
    step i takes the rows r of the last window to the columns from this
    window's first r up: it runs on a skewed view S[n1, r] of a buffer in
    the (n0, r) layout that holds the last state on the rows n0 that can
    reach this window, with zero rows where n0 reaches past them.
    """
    hi = lo if hi is None else hi
    m, win = len(steps.win), steps.win.reshape(-1, 4).tolist()
    move, K = steps.after(lo)
    # every start's jump on the box of their windows, n0 = na..nb and r =
    # ra..rb: r of the m points stay above, and n0 of the m - r that drop are
    # nulls.  Start s has a row q = 0, the stay row of all m points, and a
    # row q = 1 + r - ra, the split of the m - r that drop, for each r up to
    # m - s + 1 (no more points may stay above), all in one _binomial_rows
    # call.
    w0, w1, above = steps.jumps(lo - 1, hi).T
    drop = w0 + w1
    hit = drop > 0.0
    null = np.divide(w0, drop, out=np.zeros(len(drop)), where=hit)
    alt = np.divide(w1, drop, out=np.ones(len(drop)), where=hit)
    logs = _log(np.array((above / (drop + above), drop / (drop + above), null, alt)))
    (na, ra), (nb, rb) = steps.win[lo - 1 : hi, :, 0].min(axis=0), steps.win[lo - 1 : hi, :, 1].max(axis=0)
    size = np.maximum(np.minimum(rb, np.arange(m - lo + 1, m - hi, -1)) - ra + 2, 1)
    at = size.cumsum() - size  # the stay row of each start
    q = np.arange(at[-1] + size[-1]) - at.repeat(size)
    by_row = logs[2:].repeat(size, axis=1)
    by_row[:, at] = logs[:2]
    r = ra - 1 + q
    rows = _binomial_rows(_log_factorials(m), np.where(q > 0, m - r, m), *by_row)
    splits = q > 0
    start, r = np.arange(len(size)).repeat(size)[splits], r[splits]
    J = np.zeros((len(size), nb - na + 1, rb - ra + 1))
    J[start, :, r - ra] = rows[splits, na : nb + 1] * rows[at[start], r][:, None]
    del rows
    out = np.zeros((len(J), m - lo + 2, steps.width))
    for i, (A0, A1, B0, B1) in enumerate(win[lo - 1 :], lo):
        L = m - i + 1
        n = min(i, hi + 1) - lo  # the starts before i
        # the state of step i lives in a buffer whose columns are the points
        # above after the next null move, r = c..B1, and whose rows n0 =
        # nu..top hold this window's A0..A1 and every row the next skewed
        # view reads: X rows n1 = m - A - c - x >= 0 of C columns
        c, nu, top = B0, A0, A1
        if i < m:
            A, A1n, c, _ = win[i]
            C = B1 - c + 1
            X = min(A1n - A + C, m - A - c + 1)
            nu, top = min(A0, A - C + 1), max(A1, A + X - 1)
        buf = np.zeros((n + (i <= hi), top - nu + 1, B1 - c + 1))
        P = buf[:, A0 - nu : A1 - nu + 1, B0 - c :]
        if n:
            move0, move1 = move[i - lo - 1]
            b0 = win[i - 2][2]
            if move0:  # S[., x, y] = last[., n0 - nu_, y] at n0 = A0 + x - y: n1 = m - A0 - B0 - x, r = B0 + y
                S = np.ndarray((n, X_, C_), _F8, last, 8 * (A0 - nu_) * C_, (last.strides[0], 8 * C_, 8 * (1 - C_)))
                S[...] = S[..., b0 - B0 :] @ next(K)
            Q = last[:, A0 - nu_ : A1 - nu_ + 1]  # n0 = A0..A1, r = B0..b1
            P[:n] = Q @ next(K) if move1 else Q[..., : B1 - B0 + 1]
        if i <= hi:  # start i joins
            P[n] = J[i - lo, A0 - na : A1 - na + 1, B0 - ra : B1 - ra + 1]
            if i == hi:  # free the jumps once the last start has joined
                del J
        if B0 <= L <= B1:  # the column r = L (exactly i - 1 points below t_i) leaves
            out[: len(P), i - lo, A0 : A1 + 1] = P[:, :, L - B0]
            P[:, :, L - B0] = 0.0
        if i < m:
            last, nu_, X_, C_ = buf, nu, X, C
    if B0 == 0:  # the column r = 0, no point above t_m
        out[:, -1, A0 : A1 + 1] = P[:, :, 0]
    return out


# ---------------------------------------------------------------------------
# the laws of SUD orders
# ---------------------------------------------------------------------------


def _rm_split(lf: np.ndarray, t: np.ndarray, Fv: np.ndarray, pi0: float) -> np.ndarray:
    """Row k, k = 0..len(t), is the law of the nulls among k rejected
    p-values: they are i.i.d. below t_k, null with probability
    pi0*t_k/G(t_k) each."""
    tk = np.concatenate(([0.0], t))
    Fk = np.concatenate(([0.0], Fv))
    G = pi0 * tk + (1.0 - pi0) * Fk
    hit = G > 0.0  # where G(t_k) = 0, P(|R| = k) = 0 for k >= 1
    null = np.divide(pi0 * tk, G, out=np.ones(len(tk)), where=hit)
    alt = np.divide((1.0 - pi0) * Fk, G, out=np.zeros(len(tk)), where=hit)
    return _binomial_rows(lf, np.arange(len(tk)), _log(null), _log(alt))


def _steps(procedure: str, t: np.ndarray, Fv: np.ndarray, cfg: MixtureConfig) -> _Steps:
    """The steps of one count direction of the problem (cfg, t, F(t)), from
    step 1: the one place that says which count a (model, procedure) runs.
    A step-down rule is counted on t and F(t); a step-up rule on the
    reflected 1 - p, as the FM count of the reflected probabilities, and in
    RM as the one-population count of the p-values, of c.d.f. G, whose k
    rejected ones are then split into nulls."""
    m = len(t)
    if cfg.model == "RM" and procedure == "SD":
        pi0 = cfg.pi0
        # the jump inputs: the null and alternative weights below t_i, and the weight above
        v = np.array((pi0 * t, (1.0 - pi0) * Fv, pi0 * (1.0 - t) + (1.0 - pi0) * (1.0 - Fv))).T
        # both populations hold the live points; the drops split into nulls and alternatives
        drop = np.array((pi0 * (t[1:] - t[:-1]), (1.0 - pi0) * (Fv[1:] - Fv[:-1]))).T
        stay = np.array((drop[:, 1] + v[1:, 2], v[1:, 2])).T
        # the window of step i: the nulls below t_i and the points above it,
        # Bin(m, pi0 t_i) and Bin(m, 1 - G(t_i)), with at most m - i + 1
        # points above and at most m points in all; the points above never
        # grow, and both ends of their window fall step by step
        lf = _log_factorials(m)
        lo, hi = (x.reshape(m, 2) for x in _window(lf, np.full(2 * m, m), v[:, ::2].ravel()))
        lo[:, 1] = np.minimum.accumulate(lo[:, 1])
        hi[:, 1] = np.minimum(hi[:, 1], np.arange(m, 0, -1))
        win = _clip(lo, hi, np.full(m, m))
        win[:, 1, 1] = np.maximum(np.minimum.accumulate(win[:, 1, 1]), win[:, 1, 0])
        # the null move takes the points above from the last window to this
        # window's first count up, and the alternative move on to this window
        r = win[:, 1]
        mid = np.array((r[1:, 0], r[:-1, 1])).T
        return _Steps(lf, m + 1, win, np.stack((r[:-1], mid), axis=1), np.stack((mid, r[1:]), axis=1), drop, stay, lambda lo, hi: v[lo:hi], _sd_rm_masses)
    if cfg.model == "RM":
        above = (cfg.pi0 * (1.0 - t) + (1.0 - cfg.pi0) * (1.0 - Fv))[::-1]
        return _fm_steps(np.zeros(m), above, 0, lambda top: _rm_split(_log_factorials(m), t[:top], Fv[:top], cfg.pi0))
    if procedure == "SD":
        return _fm_steps(t, Fv, cfg.m0)
    return _fm_steps(1.0 - t[::-1], 1.0 - Fv[::-1], cfg.m0)


def _laws(t: np.ndarray, Fv: np.ndarray, cfg: MixtureConfig, lo: int, hi: int) -> np.ndarray:
    """The laws of the orders lo..hi of the problem (cfg, t, F(t)), as
    laws[lambda - lo, k, j], j = 0..m0 in FM and 0..m in RM.

    Each direction runs one count: the step-down one of the starts lo..hi and
    the step-up one of the starts m - hi + 1..m - lo + 1.  The ranks k >=
    lambda are those of step-down start lambda, so the step-down tables,
    whose rank k sits at column k - lo + 1, are one slice copy into the
    ranks lo - 1..m.  The ranks k < lambda are those of step-up start m -
    lambda + 1 read backwards: its rank m - k, with m0 - j nulls below in
    FM, and in RM P(|R| = k) times the split of rank k.  The step-up tables
    flipped on their starts and ranks hold that rank at [lambda - lo, k],
    and every order's ranks below lambda are written whole from them, over
    the step-down rank lambda - 1 (an RM row is zeroed first, as the split
    fills its null counts 0..hi only)."""
    m = len(t)
    sd, su = _steps("SD", t, Fv, cfg), _steps("SU", t, Fv, cfg)
    down = sd.count(sd, lo, hi)
    up = su.count(su, m - hi + 1, m - lo + 1)[::-1, ::-1]  # up[lambda - lo, k]: rank m - k of step-up start m - lambda + 1
    laws = np.zeros((hi - lo + 1, m + 1, sd.width))
    laws[:, lo - 1 :] = down
    del down
    below = (np.arange(hi + 1) < np.arange(lo, hi + 1)[:, None])[..., None]  # the ranks k < lambda
    head = laws[:, : hi + 1]
    if cfg.model == "RM":
        np.copyto(head, 0.0, where=below)
        np.multiply(su.split(hi), up, out=head[..., : hi + 1], where=below)
    else:
        np.copyto(head, up[..., ::-1], where=below)
    return laws


# ---------------------------------------------------------------------------
# the retained laws
# ---------------------------------------------------------------------------

_SLOT_ENTRIES = 1 << 17  # float64 entries the slot may hold: 1 MiB
_slot = None  # (key, lo, laws) of the last problem kept, its orders lo..lo + len(laws) - 1, or None


def _law(t: np.ndarray, Fv: np.ndarray, cfg: MixtureConfig, lam: int) -> np.ndarray:
    """The law of order lambda of the problem (cfg, t, F(t)), as _laws gives
    it: the slot's when it holds it.  Otherwise a small problem, whose m
    laws fit in _SLOT_ENTRIES at the width of its larger population (m + 1
    in RM, max(m0, m - m0) + 1 in FM: counting every order costs with the
    states, not with the laws), counts every order into the slot, and a
    larger one its one order, which the slot keeps when it fits (else it
    stays as it was).  Laws that fail their mass check are not kept."""
    global _slot
    m = len(t)
    key = (cfg.model, cfg.m0 if cfg.model == "FM" else cfg.pi0, t.tobytes(), Fv.tobytes())
    slot = _slot
    if slot is not None and slot[0] == key and 0 <= lam - slot[1] < len(slot[2]):
        return slot[2][lam - slot[1]]
    width = m + 1 if cfg.model == "RM" else max(cfg.m0, m - cfg.m0) + 1
    if m * (m + 1) * width <= _SLOT_ENTRIES:
        _slot = None  # free the old problem's laws before counting the new ones
        lo, hi = 1, m
    else:
        lo = hi = lam
    laws = _laws(t, Fv, cfg, lo, hi)
    if laws.size <= _SLOT_ENTRIES and _mass_check(laws, (1, 2))[2].all():
        _slot = key, lo, laws
    return laws[lam - lo]


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
    there with one jump, and reads only the thresholds from its start on,
    which the floor and the cap leave as they are: both counts run on t.
    """
    _require_continuous(cfg.F)
    m = t.m
    if t.m != cfg.m:
        raise ValueError("threshold collection and model disagree on m")
    if not 1 <= _as_int(lam, "lambda") <= m:
        raise ValueError(f"lambda must be in [1, {m}], got {lam}")
    arr = t.as_array()
    law = _law(arr, cfg.F(arr), cfg, lam)  # counted before the dense law exists, for the peak
    masses = np.zeros((m + 1, m + 1))
    masses[:, : law.shape[1]] = law
    return JointPmf(masses)


def joint_pmf(t: ThresholdCollection, cfg: MixtureConfig, procedure: str) -> JointPmf:
    """Full joint table for a pure step-up ("SU") or step-down ("SD") rule:
    the SUD law of order m or 1."""
    if procedure not in ("SU", "SD"):
        raise ValueError(f"procedure must be 'SU' or 'SD', got {procedure!r}")
    return sud_joint_masses(t, 1 if procedure == "SD" else t.m, cfg)


def _expect(t: ThresholdCollection, lam: int, cfg: MixtureConfig, payoff, groups: int) -> list:
    """One fsum of payoff times mass per group over the order-lambda law.

    payoff(k, j) gets the rank and false-rejection arrays of the law's
    nonzero cells, in row-major order, and returns each cell's value and
    group in 0..groups-1 (either may be a scalar for all cells).  fsum is
    correctly rounded, so neither the zero cells nor the order changes a sum.
    """
    masses = sud_joint_masses(t, lam, cfg).masses
    side, cells = len(masses), np.flatnonzero(masses)
    mass = masses.ravel()[cells]
    del masses  # the rest reads only the nonzero cells
    k, j = np.divmod(cells, side)
    del cells
    value, group = payoff(k, j)
    terms = value * mass
    del k, j, mass, value  # the sort and the list below need only the terms
    group = np.full(terms.shape, group)
    order = np.argsort(group, kind="stable")
    terms = terms[order].tolist()
    cuts = np.searchsorted(group[order], np.arange(groups + 1)).tolist()
    return [math.fsum(terms[a:b]) for a, b in zip(cuts, cuts[1:])]


def _fdp(k: np.ndarray, j: np.ndarray) -> np.ndarray:
    """FDP j/k of the cells (k, j), 0 where k = 0 or j > k."""
    return np.where(j <= k, j / np.maximum(k, 1), 0.0)


def fdr_sud(t: ThresholdCollection, lam: int, cfg: MixtureConfig) -> FdrResult:
    """Exact FDR of the order-lambda SUD procedure in the model cfg."""
    su, sd = _expect(t, lam, cfg, lambda k, j: (_fdp(k, j), k >= lam), 2)
    return FdrResult(su, sd, cfg, _as_int(lam, "lambda"))


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
    return min(_expect(t, lam, cfg, lambda k, j: ((j <= np.floor(x * k + 1e-12)) | (k == 0), 0), 1)[0], 1.0)


def _fdp_bin(fdp: np.ndarray, bins: int) -> np.ndarray:
    """The bin of each FDP value, floor(fdp * bins); the atom at 1 is bin `bins`."""
    return np.minimum(np.floor(fdp * bins + 1e-9).astype(np.int64), bins)


def fdp_pmf_histogram(t: ThresholdCollection, lam: int, cfg: MixtureConfig, bins: int) -> np.ndarray:
    """Bin masses P(FDP in [i/bins, (i+1)/bins)) for i = 0..bins.

    The final entry holds the atom at FDP = 1; entry 0 includes P(FDP = 0).
    Masses sum to 1 up to the documented tolerance.
    """
    if _as_int(bins, "bins") < 1:
        raise ValueError(f"need bins >= 1, got {bins}")
    return np.asarray(_expect(t, lam, cfg, lambda k, j: (1.0, _fdp_bin(_fdp(k, j), bins)), bins + 1))


def fdp_mean(t: ThresholdCollection, lam: int, cfg: MixtureConfig) -> float:
    """Expectation of the FDP taken over the joint masses, which is the FDR."""
    return fdr_sud(t, lam, cfg).fdr


def kfwer(t: ThresholdCollection, lam: int, cfg: MixtureConfig, k: int) -> float:
    """Exact k-FWER of the order-lambda SUD procedure: P(at least k false rejections)."""
    if _as_int(k, "k") < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return _expect(t, lam, cfg, lambda _, j: (j >= k, 0), 1)[0]


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
    if not 1 <= _as_int(m0, "m0") <= _as_int(m, "m"):
        raise ValueError(f"need 1 <= m0 <= m, got m0={m0}, m={m}")
    fdr_sud_val = 1.0 - (1.0 - t0) ** m0
    fdr_su_val = m0 / m
    crossover = 1.0 - (1.0 - m0 / m) ** (1.0 / m0)
    return fdr_sud_val, fdr_su_val, crossover
