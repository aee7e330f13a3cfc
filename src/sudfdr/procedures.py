"""Step-up-down rejection rule, false discovery proportion, and the
continuous threshold-selection operator.

The SUD procedure of order lambda first checks the ordered p-value at rank
lambda.  If it clears its threshold, the procedure steps *up* from lambda as
long as consecutive order statistics keep clearing their thresholds; otherwise
it steps *down* to the largest rank at or below lambda whose order statistic
clears its threshold.  lambda = 1 is the classical step-down, lambda = m the
classical step-up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sudfdr.models import _as_int
from sudfdr.thresholds import CriticalValueFunction, ThresholdCollection, from_rho

__all__ = [
    "SudOutcome",
    "EmpiricalCdf",
    "sud_khat",
    "u_operator",
    "check_sandwich",
]


@dataclass(frozen=True)
class SudOutcome:
    """Result of applying an SUD rule to one realized p-value family.

    false_rejections and fdp are filled when the number of true nulls is
    supplied to sud_khat (nulls occupy the leading indices).
    """

    k_hat: int
    rejected: frozenset
    threshold: float
    false_rejections: int | None = None
    fdp: float | None = None

    @property
    def n_rejected(self) -> int:
        return len(self.rejected)


class EmpiricalCdf:
    """Right-continuous empirical c.d.f. of a p-value family."""

    def __init__(self, p):
        self.sorted = np.sort(np.asarray(p, dtype=float))
        self.m = len(self.sorted)

    def __call__(self, x):
        return np.searchsorted(self.sorted, x, side="right") / self.m


def sud_khat(p, t: ThresholdCollection, lam: int, m0: int | None = None) -> SudOutcome:
    """Apply the order-lambda SUD procedure with threshold collection t.

    Returns the selected rank k_hat and the rejection set
    {i : p_i <= t_{k_hat}} (with t_0 = 0).  Passing m0 also fills the
    false-rejection count and the FDP.
    """
    p = np.asarray(p, dtype=float)
    m = t.m
    if len(p) != m:
        raise ValueError(f"expected {m} p-values, got {len(p)}")
    if not np.all((p >= 0.0) & (p <= 1.0)):  # NaN fails too
        raise ValueError("p-values must lie in [0, 1]")
    if not 1 <= _as_int(lam, "lambda") <= m:
        raise ValueError(f"lambda must be in [1, {m}], got {lam}")
    if m0 is not None and not 0 <= _as_int(m0, "m0") <= m:
        raise ValueError(f"m0 must be in [0, {m}], got {m0}")
    ps = np.sort(p)
    thr = t.as_array()
    below = ps <= thr
    if below[lam - 1]:
        # step-down branch: longest run of clearances starting at lambda
        k_hat = lam
        while k_hat < m and below[k_hat]:
            k_hat += 1
    else:
        # step-up branch: largest clearing rank at or below lambda (0 if none)
        idx = np.nonzero(below[:lam])[0]
        k_hat = int(idx[-1]) + 1 if len(idx) else 0
    t_sel = t[k_hat]
    rejected = frozenset(np.nonzero(p <= t_sel)[0].tolist()) if k_hat >= 1 else frozenset()
    v = f = None
    if m0 is not None:
        v = sum(1 for i in rejected if i < m0)
        f = v / max(len(rejected), 1)
    return SudOutcome(
        k_hat=k_hat,
        rejected=rejected,
        threshold=t_sel if k_hat >= 1 else 0.0,
        false_rejections=v,
        fdp=f,
    )


def _u_grid_scan(tau: float, G, rho, m: int) -> float:
    """Exact evaluation on step functions with values in {0, 1/m, ..., 1}:
    any solution is a fixed point of G o rho, hence lies on that grid."""
    grid = np.arange(m + 1) / m
    vals = np.asarray(G(rho(grid)))
    k_tau = round(tau * m) if abs(tau * m - round(tau * m)) < 1e-9 else None
    g_tau = float(G(rho(tau)))
    if g_tau >= tau:
        start = k_tau if k_tau is not None else int(np.ceil(tau * m - 1e-12))
        idx = np.nonzero(vals[start:] <= grid[start:] + 1e-15)[0]
        return grid[start + idx[0]] if len(idx) else 1.0
    stop = k_tau if k_tau is not None else int(np.floor(tau * m + 1e-12))
    idx = np.nonzero(vals[: stop + 1] >= grid[: stop + 1] - 1e-15)[0]
    return grid[idx[-1]] if len(idx) else 0.0


_SCAN = 4096  # points of the grid that brackets a smooth crossing
_TOL = 1e-12  # width to which bisection narrows the bracket


def _u_smooth(tau: float, G, rho) -> float:
    """Scan-and-bisect solver for nondecreasing continuous G: one array
    evaluation of G o rho on a _SCAN-point grid brackets the crossing, and
    scalar bisection narrows the bracket to _TOL.

    Above tau it seeks the least u with G(rho(u)) <= u, below tau the
    greatest u with G(rho(u)) >= u: the same search of the first u from tau
    outward with sign * (G(rho(u)) - u) <= 0, sign = -1 below tau."""

    def h(u):
        return float(G(float(rho(u)))) - u

    sign = 1.0 if h(tau) >= 0.0 else -1.0
    us = np.linspace(tau, 1.0, _SCAN) if sign > 0.0 else np.linspace(0.0, tau, _SCAN)
    hs = sign * (G(rho(us)) - us)
    if sign < 0.0:  # from tau down
        us, hs = us[::-1], hs[::-1]
    idx = np.nonzero(hs <= 0.0)[0]
    if len(idx) == 0:
        return 1.0 if sign > 0.0 else 0.0
    i = idx[0]
    if i == 0:
        return float(us[0])
    near, far = us[i - 1], us[i]
    while abs(far - near) > _TOL:
        mid = 0.5 * (near + far)
        if sign * h(mid) <= 0.0:
            far = mid
        else:
            near = mid
    return float(far)


def u_operator(tau: float, G, rho) -> float:
    """Threshold-selection fixed point of G o rho anchored at tau.

    If G(rho(tau)) >= tau, returns the smallest u >= tau with G(rho(u)) <= u;
    otherwise the largest u <= tau with G(rho(u)) >= u.  Step functions
    (EmpiricalCdf) are handled exactly on their value grid; smooth G uses
    bisection to 1e-12.

    G and rho are called on float64 arrays as well as on floats, and must
    return an array of the same shape (or a value that broadcasts to it)
    that equals their elementwise value: the solvers evaluate G(rho(u)) on
    a whole grid of u at once.  Every curve in `sudfdr.thresholds` does,
    `CustomCurve` by mapping its function over the array.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0,1], got {tau}")
    if isinstance(G, EmpiricalCdf):
        return _u_grid_scan(tau, G, rho, G.m)
    return _u_smooth(tau, G, rho)


def check_sandwich(p, rho: CriticalValueFunction, m: int, lam: int) -> bool:
    """Check U(lambda/m, Ghat) <= k_hat/m <= U(lambda/m, (Ghat + 1/m) ^ 1)
    for one realization, with thresholds t_k = rho(k/m)."""
    t = from_rho(rho, m)
    out = sud_khat(p, t, lam)
    ghat = EmpiricalCdf(p)
    lower = u_operator(lam / m, ghat, rho)

    def g_upper(x):
        return np.minimum(np.asarray(ghat(x)) + 1.0 / m, 1.0)

    upper = _u_grid_scan(lam / m, g_upper, rho, m)
    k_over_m = out.k_hat / m
    return lower <= k_over_m + 1e-12 and k_over_m <= upper + 1e-12
