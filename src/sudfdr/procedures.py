"""Step-up-down rejection rule, false discovery proportion, and the
threshold-selection operator, one outward search for step and continuous G.

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
    """Right-continuous empirical c.d.f. of a nonempty p-value family."""

    def __init__(self, p):
        self.sorted = np.sort(np.asarray(p, dtype=float))
        self.m = len(self.sorted)
        if self.m == 0:
            raise ValueError("need at least one p-value")
        if not (self.sorted[0] >= 0.0 and self.sorted[-1] <= 1.0):  # NaN sorts last and fails too
            raise ValueError("p-values must lie in [0, 1]")

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


_SCAN = 4096  # points of the grid that brackets a smooth crossing
_TOL = 1e-12  # width to which bisection narrows the bracket


def _u_scan(tau: float, G, rho, m: int | None) -> float:
    """The first u from tau outward with G(rho(u)) <= u above tau, or with
    G(rho(u)) >= u below it, searching up when G(rho(tau)) >= tau.  G o rho
    is evaluated once, on that side's grid: with m given, G is a step
    function with values in {0, 1/m, ..., 1}, so u is a grid point k/m
    (compared with slack 1e-15); otherwise a _SCAN-point grid brackets u and
    bisection narrows the bracket to _TOL."""
    up = float(G(float(rho(tau)))) >= tau
    if m is None:
        us = np.linspace(tau, 1.0, _SCAN) if up else np.linspace(0.0, tau, _SCAN)
        slack = 0.0
    else:
        km = tau * m  # k/m is the grid point at tau, or the first one beyond it
        k = round(km) if abs(km - round(km)) < 1e-9 else int(np.ceil(km - 1e-12) if up else np.floor(km + 1e-12))
        us = np.arange(k, m + 1) / m if up else np.arange(k + 1) / m
        slack = 1e-15

    def passes(vals, u):
        return vals <= u + slack if up else vals >= u - slack

    ok = passes(G(rho(us)), us)
    if not up:  # evaluated on the ascending grid, read from tau down
        us, ok = us[::-1], ok[::-1]
    idx = np.nonzero(ok)[0]
    if len(idx) == 0:
        return 1.0 if up else 0.0
    i = idx[0]
    if m is not None:  # exact on the value grid
        return float(us[i])
    if i == 0:
        return float(us[0])
    near, far = us[i - 1], us[i]
    while abs(far - near) > _TOL:
        mid = 0.5 * (near + far)
        if passes(float(G(float(rho(mid)))), mid):
            far = mid
        else:
            near = mid
    return float(far)


def u_operator(tau: float, G, rho) -> float:
    """Threshold-selection fixed point of G o rho anchored at tau.

    If G(rho(tau)) >= tau, returns the smallest u >= tau with G(rho(u)) <= u;
    otherwise the largest u <= tau with G(rho(u)) >= u.  Both are one
    outward search from tau: on the value grid k/m, exactly, for a step
    function (EmpiricalCdf), and by scan and bisection to 1e-12 otherwise.

    G and rho are called on float64 arrays as well as on floats, and must
    return an array of the same shape (or a value that broadcasts to it)
    that equals their elementwise value: the search evaluates G(rho(u)) on
    a whole grid of u at once.  Every curve in `sudfdr.thresholds` does,
    `CustomCurve` by mapping its function over the array.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0,1], got {tau}")
    return _u_scan(tau, G, rho, G.m if isinstance(G, EmpiricalCdf) else None)


def check_sandwich(p, rho: CriticalValueFunction, m: int, lam: int) -> bool:
    """Check U(lambda/m, Ghat) <= k_hat/m <= U(lambda/m, (Ghat + 1/m) ^ 1)
    for one realization, with thresholds t_k = rho(k/m)."""
    t = from_rho(rho, m)
    out = sud_khat(p, t, lam)
    ghat = EmpiricalCdf(p)
    lower = u_operator(lam / m, ghat, rho)

    def g_upper(x):
        return np.minimum(np.asarray(ghat(x)) + 1.0 / m, 1.0)

    upper = _u_scan(lam / m, g_upper, rho, m)
    k_over_m = out.k_hat / m
    return lower <= k_over_m + 1e-12 and k_over_m <= upper + 1e-12
