"""Boundary-noncrossing probabilities of ordered samples (Steck recursions).

psi(t) is the probability that the order statistics of i.i.d. uniforms stay
below the staircase t_1 <= ... <= t_k.  psi_two_pop extends this to two
populations: k0 uniforms mixed with k - k0 variables of c.d.f. F, computed by
a generalized Steck recursion with memoization over (prefix length, number of
uniforms).  Cost is O(k^4) in the worst case; the alternating sums are
assembled with exact accumulation (math.fsum) and exact integer binomial
coefficients, and final values are clamped to [0,1] with a loud failure if the
pre-clamp value signals precision exhaustion.

An exact-rational mode (Fraction arithmetic) is provided for the identity and
Dirac-at-zero alternatives to calibrate double-precision error.

The exact engine (sudfdr.exact) computes joint laws by a positive forward
count and does not call these recursions; they are the independent oracle
that its differential and rational tests compare against.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from sudfdr.models import AlternativeCdf

__all__ = [
    "PrecisionError",
    "psi",
    "psi_two_pop",
    "psi_prefix",
    "PsiTable",
    "psi_rational",
    "psi_two_pop_rational",
]

# Pre-clamp values below this threshold abort instead of clamping silently.
NEGATIVITY_LIMIT = -1e-6


class PrecisionError(ArithmeticError):
    """Raised when double precision is exhausted: an exact joint law fails
    its mass check, or a recursion output is negative beyond tolerance."""


def _check_thresholds(t: np.ndarray):
    if np.any(t < 0.0) or np.any(t > 1.0):
        raise ValueError("thresholds must lie in [0,1]")
    if np.any(np.diff(t) < 0.0):
        raise ValueError("thresholds must be nondecreasing")


def _comb_table(n: int) -> np.ndarray:
    c = np.zeros((n + 1, n + 1))
    for i in range(n + 1):
        for j in range(i + 1):
            c[i, j] = float(math.comb(i, j))
    return c


def _pow0(base: float, exp: int) -> float:
    # 0**0 = 1 convention used throughout the recursions
    return 1.0 if exp == 0 else base**exp


def _clamp(value: float, tracker: list) -> float:
    if value < tracker[0]:
        tracker[0] = value
    if value < NEGATIVITY_LIMIT:
        raise PrecisionError(
            f"recursion value {value:.3e} below tolerance {NEGATIVITY_LIMIT:.0e}; "
            "double precision exhausted for this configuration"
        )
    return min(max(value, 0.0), 1.0)


def _fill_one_pop(t: np.ndarray, tracker: list) -> np.ndarray:
    """Prefix table psi1[j] = Psi_j(t_1..t_j), j = 0..len(t)."""
    K = len(t)
    psi1 = np.zeros(K + 1)
    psi1[0] = 1.0
    for k in range(1, K + 1):
        tk = t[k - 1]
        terms = [
            math.comb(k, j) * (tk - t[j]) ** (k - j) * psi1[j]
            for j in range(k - 1)
        ]
        psi1[k] = _clamp(_pow0(tk, k) - math.fsum(terms), tracker)
    return psi1


def _fill_two_pop_general(t: np.ndarray, Fv: np.ndarray, tracker: list) -> np.ndarray:
    """Full table psi2[k, k0] = Psi_{k,k0,F}(t_1..t_k) by the two-population
    recursion, vectorized over the (j, j0) double sum."""
    K = len(t)
    comb = _comb_table(K)
    psi2 = np.zeros((K + 1, K + 1))
    psi2[0, 0] = 1.0
    jj = np.arange(K)
    for k in range(1, K + 1):
        tk = t[k - 1]
        Fk = Fv[k - 1]
        a = np.maximum(tk - t[: k - 1], 0.0)  # t_k - t_{j+1}, j = 0..k-2
        b = np.maximum(Fk - Fv[: k - 1], 0.0)
        j = jj[: k - 1]
        for k0 in range(k + 1):
            head = _pow0(tk, k0) * _pow0(Fk, k - k0)
            if k >= 2:
                j0 = np.arange(min(k0, k - 2) + 1)
                dj = j[:, None] - j0[None, :]
                valid = (dj >= 0) & (dj <= k - k0)
                c2 = np.where(valid, comb[k - k0][np.clip(dj, 0, K)], 0.0)
                ea = k0 - j0  # >= 0
                eb = np.where(valid, (k - k0) - dj, 0)
                terms = (
                    comb[k0, j0][None, :]
                    * c2
                    * a[:, None] ** ea[None, :]
                    * b[:, None] ** eb
                    * psi2[j[:, None], np.broadcast_to(j0[None, :], dj.shape)]
                )
                s = math.fsum(terms.ravel().tolist())
            else:
                s = 0.0
            psi2[k, k0] = _clamp(head - s, tracker)
    return psi2


def _fill_two_pop_dirac(t: np.ndarray, tracker: list) -> np.ndarray:
    """Table for the Dirac-at-zero alternative (c.d.f. representative F == 1).

    The F-difference factor collapses the inner double sum to a single index,
    giving O(k^3) total cost; equivalently Psi_{k,k0,1}(t) is the one-population
    Psi_{k0} of the window (t_{k-k0+1}, ..., t_k).
    """
    K = len(t)
    psi2 = np.zeros((K + 1, K + 1))
    psi2[0, 0] = 1.0
    for k in range(1, K + 1):
        tk = t[k - 1]
        psi2[k, 0] = 1.0
        for k0 in range(1, k + 1):
            terms = [
                math.comb(k0, j0)
                * (tk - t[j0 + k - k0]) ** (k0 - j0)
                * psi2[j0 + k - k0, j0]
                for j0 in range(k0 - 1)
            ]
            psi2[k, k0] = _clamp(_pow0(tk, k0) - math.fsum(terms), tracker)
    return psi2


class PsiTable:
    """Memoized boundary-noncrossing probabilities over the prefixes of t.

    get(k, k0) returns Psi_{k,k0,F}(t_1,...,t_k) where k0 of the k variables
    are uniform and the rest follow F.  With F=None the table is purely
    one-population and get(k, k0) ignores k0.

    Structural shortcuts (constant threshold vector; identity, Dirac-at-zero
    and point-mass-at-one alternatives) replace the generic O(k^4) fill where
    they apply; the generic recursion remains the reference path and the two
    are cross-checked in the test suite.
    """

    def __init__(self, t, F: AlternativeCdf | None = None, allow_degenerate: bool = False):
        t = np.asarray(t, dtype=float)
        _check_thresholds(t)
        self.t = t
        self.F = F
        self.k_max = len(t)
        self._tracker = [0.0]
        kind = F.kind if F is not None else "one_pop"
        if kind == "step_at_one" and not allow_degenerate:
            raise ValueError("non-continuous alternative c.d.f. rejected by the recursion")
        if len(t) > 0 and np.all(t == t[0]):
            self._mode = "constant"
            self._Fv = np.asarray(F(t), dtype=float) if F is not None else t.copy()
        elif F is None or kind == "identity":
            self._mode = "one_pop"
            self._psi1 = _fill_one_pop(t, self._tracker)
        elif kind == "dirac_zero":
            self._mode = "dirac"
            self._psi2 = _fill_two_pop_dirac(t, self._tracker)
        elif kind == "step_at_one":
            # Degenerate variables sit at 1: they must clear the top
            # thresholds exactly, the uniforms fill the bottom ones.
            self._mode = "step_at_one"
            self._psi1 = _fill_one_pop(t, self._tracker)
        else:
            self._mode = "general"
            Fv = np.asarray(F(t), dtype=float)
            self._psi2 = _fill_two_pop_general(t, Fv, self._tracker)

    @property
    def max_negativity(self) -> float:
        """Largest pre-clamp negativity encountered (reported as >= 0)."""
        return -self._tracker[0]

    def get(self, k: int, k0: int) -> float:
        if not 0 <= k0 <= k <= self.k_max:
            raise ValueError(f"need 0 <= k0 <= k <= {self.k_max}, got k={k}, k0={k0}")
        if k == 0:
            return 1.0
        if self._mode == "constant":
            c = self.t[0]
            if self.F is None:
                return _pow0(c, k)
            return _pow0(c, k0) * _pow0(float(self._Fv[0]), k - k0)
        if self._mode == "one_pop":
            return float(self._psi1[k])
        if self._mode == "step_at_one":
            if k0 < k and self.t[k0] < 1.0:
                return 0.0
            return float(self._psi1[k0])
        return float(self._psi2[k, k0])


def psi_prefix(t) -> np.ndarray:
    """One-population prefix values (Psi_0, Psi_1(t_1), ..., Psi_k(t))."""
    t = np.asarray(t, dtype=float)
    _check_thresholds(t)
    return _fill_one_pop(t, [0.0])


def psi(t) -> float:
    """P(U_(1) <= t_1, ..., U_(k) <= t_k) for k i.i.d. uniforms."""
    t = np.asarray(t, dtype=float)
    _check_thresholds(t)
    if len(t) == 0:
        return 1.0
    return float(_fill_one_pop(t, [0.0])[-1])


def psi_two_pop(t, k0: int, F: AlternativeCdf) -> float:
    """Two-population boundary-noncrossing probability Psi_{k,k0,F}(t).

    Always evaluates the generalized recursion (no structural shortcut), so
    reductions such as k0 = k or F = identity are genuine identities.
    """
    t = np.asarray(t, dtype=float)
    _check_thresholds(t)
    k = len(t)
    if not 0 <= k0 <= k:
        raise ValueError(f"need 0 <= k0 <= k, got k0={k0}, k={k}")
    if not F.continuous:
        raise ValueError("psi_two_pop requires a continuous alternative c.d.f.")
    if k == 0:
        return 1.0
    Fv = np.asarray(F(t), dtype=float)
    return float(_fill_two_pop_general(t, Fv, [0.0])[k, k0])


# ---------------------------------------------------------------------------
# exact-rational mode (identity / Dirac-at-zero alternatives only)
# ---------------------------------------------------------------------------


def _frac_pow0(base: Fraction, exp: int) -> Fraction:
    return Fraction(1) if exp == 0 else base**exp


def psi_rational(t) -> Fraction:
    """One-population recursion in exact rational arithmetic."""
    ts = [Fraction(x) for x in t]
    K = len(ts)
    psi1 = [Fraction(1)] + [Fraction(0)] * K
    for k in range(1, K + 1):
        tk = ts[k - 1]
        acc = _frac_pow0(tk, k)
        for j in range(k - 1):
            acc -= math.comb(k, j) * (tk - ts[j]) ** (k - j) * psi1[j]
        psi1[k] = acc
    return psi1[K]


def psi_two_pop_rational(t, k0: int, alt: str = "identity") -> Fraction:
    """Two-population recursion in exact rational arithmetic.

    alt selects the alternative c.d.f.: "identity" (F(t) = t) or "dirac_zero"
    (F == 1).  All quantities are polynomial in the thresholds, so the result
    is exact.
    """
    ts = [Fraction(x) for x in t]
    K = len(ts)
    if not 0 <= k0 <= K:
        raise ValueError(f"need 0 <= k0 <= k, got k0={k0}, k={K}")
    if alt == "identity":
        Fv = ts
    elif alt == "dirac_zero":
        Fv = [Fraction(1)] * K
    else:
        raise ValueError(f"rational mode supports identity/dirac_zero, got {alt!r}")
    psi2 = {(0, 0): Fraction(1)}
    for k in range(1, K + 1):
        tk, Fk = ts[k - 1], Fv[k - 1]
        for kk0 in range(k + 1):
            acc = _frac_pow0(tk, kk0) * _frac_pow0(Fk, k - kk0)
            for j in range(k - 1):
                for j0 in range(min(j, kk0) + 1):
                    if j - j0 > k - kk0:
                        continue
                    acc -= (
                        math.comb(kk0, j0)
                        * math.comb(k - kk0, j - j0)
                        * _frac_pow0(tk - ts[j], kk0 - j0)
                        * _frac_pow0(Fk - Fv[j], (k - kk0) - (j - j0))
                        * psi2[(j, j0)]
                    )
            psi2[(k, kk0)] = acc
    return psi2[(K, k0)]
