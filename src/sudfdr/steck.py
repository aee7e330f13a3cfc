"""Boundary-noncrossing probabilities of ordered samples, by forward count.

psi(t) is the probability that the order statistics of k i.i.d. uniforms
stay below the staircase t_1 <= ... <= t_k, i.e. that at least i of them lie
below t_i for every i.  psi_two_pop(t, k0, F) is the same probability when
k0 of the variables are uniform and the other k - k0 have c.d.f. F.

Both are forward counts: the number of points still above the threshold is
carried past t_1, t_2, ... with binomial transitions, and the states with
fewer than i points below t_i are cut.  Both read the engine's step-down
count exact._sd_fm_masses: psi_two_pop its no-exit cell with k0 nulls, and
psi the no-exit mass of its one-population case (no nulls, every point in
the second population), the count the RM step-up law also runs.  Every
term is a nonnegative product, so nothing is clamped: the masses of each
count (the cut ones and the survivors) pass the engine's mass check, which
raises PrecisionError when double precision runs out.

psi_rational and psi_two_pop_rational run the two-population count in exact
integer arithmetic, to calibrate the double-precision error.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from sudfdr import exact
from sudfdr.models import AlternativeCdf, _as_int

__all__ = ["psi", "psi_two_pop", "psi_rational", "psi_two_pop_rational"]


def _check_thresholds(t):
    if not all(0 <= x <= 1 for x in t):
        raise ValueError("thresholds must lie in [0,1]")
    if any(a > b for a, b in zip(t[:-1], t[1:])):
        raise ValueError("thresholds must be nondecreasing")


def _check_k0(k0: int, k: int):
    if not 0 <= _as_int(k0, "k0") <= k:
        raise ValueError(f"need 0 <= k0 <= k, got k0={k0}, k={k}")


def psi(t) -> float:
    """P(U_(1) <= t_1, ..., U_(k) <= t_k) for k i.i.d. uniforms: the no-exit
    mass of exact._sd_fm_masses with no nulls, whose exit law must pass the mass check."""
    t = np.asarray(t, dtype=float)
    _check_thresholds(t)
    out = exact._sd_fm_masses(exact._fm_steps(np.zeros(len(t)), t, 0))[0, :, 0] if len(t) else np.ones(1)  # nothing to cross
    exact._check_masses(out)
    return float(out[-1])


def psi_two_pop(t, k0: int, F: AlternativeCdf) -> float:
    """Psi_{k,k0,F}(t): the probability that k0 uniforms and k - k0
    variables of c.d.f. F, ordered together, stay below t_1 <= ... <= t_k.

    It is the no-exit cell of the step-down count exact._sd_fm_masses with
    k0 nulls, whose table must pass the mass check.
    """
    t = np.asarray(t, dtype=float)
    _check_thresholds(t)
    k = len(t)
    _check_k0(k0, k)
    exact._require_continuous(F)
    if k == 0:
        return 1.0
    masses = exact._sd_fm_masses(exact._fm_steps(t, np.asarray(F(t), dtype=float), k0))[0]
    exact._check_masses(masses)
    return float(masses[k, k0])


# ---------------------------------------------------------------------------
# exact-rational mode
# ---------------------------------------------------------------------------


def _rational_count(t: list, k0: int, Fv: list) -> Fraction:
    """Psi_{k,k0,F}(t) in exact arithmetic, for rational t_i and F(t_i).

    Over a common denominator D every value is an integer.  W[r0, r1] is
    D^(k - r0 - r1) (1 - t_i)^-r0 (1 - F(t_i))^-r1 times the probability
    that r0 uniforms and r1 alternatives lie above t_i with no crossing so
    far.  A step moves each population by the kernel C(r, s) d^(r - s),
    where d is D times the increment of its c.d.f., so every term stays an
    integer.
    """
    k = len(t)
    D = math.lcm(*(x.denominator for x in t + Fv))
    u0, u1 = ([0] + [x.numerator * (D // x.denominator) for x in u] for u in (t, Fv))

    def kernel(n: int, d: int) -> np.ndarray:
        return np.array(
            [[math.comb(r, s) * d ** (r - s) if s <= r else 0 for s in range(n + 1)] for r in range(n + 1)],
            dtype=object,
        )

    W = np.zeros((k0 + 1, k - k0 + 1), dtype=object)
    W[k0, k - k0] = 1
    for i in range(1, k + 1):
        L = k - i + 1  # at most L points lie above t_i
        a, b = min(k0, L), min(k - k0, L)
        W = kernel(a, u0[i] - u0[i - 1]).T @ W[: a + 1, : b + 1] @ kernel(b, u1[i] - u1[i - 1])
        W[np.add.outer(np.arange(a + 1), np.arange(b + 1)) >= L] = 0  # crossed at t_i
    return Fraction(int(W[0, 0]), D**k)


def _rationals(t) -> list:
    ts = [Fraction(x) for x in t]
    _check_thresholds(ts)
    return ts


def psi_rational(t) -> Fraction:
    """psi(t) in exact rational arithmetic."""
    ts = _rationals(t)
    return _rational_count(ts, len(ts), ts)


def psi_two_pop_rational(t, k0: int, alt: str = "identity") -> Fraction:
    """psi_two_pop(t, k0, F) in exact rational arithmetic.

    alt selects the alternative c.d.f.: "identity" (F(t) = t) or "dirac_zero"
    (F == 1).
    """
    ts = _rationals(t)
    _check_k0(k0, len(ts))
    if alt == "identity":
        Fv = ts
    elif alt == "dirac_zero":
        Fv = [Fraction(1)] * len(ts)
    else:
        raise ValueError(f"rational mode supports identity/dirac_zero, got {alt!r}")
    return _rational_count(ts, k0, Fv)
