"""Nonasymptotic bound on the gap between any FDR and the Dirac-uniform FDR.

For a threshold collection generated by a curve rho (with rho(u)/u
nondecreasing), the FDR of an SUD procedure under any alternative exceeds the
Dirac-uniform FDR by at most a remainder built from two perturbed fixed
points of the limiting Dirac-uniform c.d.f. composed with rho, plus an
empirical-process (DKW/Hoeffding) tail.  Choosing the perturbation level
delta ~ sqrt(log m / m) yields an explicit vanishing rate in m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sudfdr.models import _as_int
from sudfdr.procedures import u_operator
from sudfdr.thresholds import CriticalValueFunction

__all__ = [
    "BoundInputs",
    "BoundResult",
    "OptimizedDelta",
    "du_limit_cdf",
    "u_plus_minus",
    "epsilon_remainder",
    "gap_bound_fm",
    "gap_bound_rm",
    "optimize_delta",
    "aorc_v_delta",
    "aorc_feasible",
]


@dataclass(frozen=True)
class BoundInputs:
    """Parameters of the gap bound.

    zeta is the (limiting) null proportion, delta the c.d.f. perturbation,
    kappa = lambda/m the SUD order on the unit scale.  m0 feeds the fixed
    mixture branch (its nu is derived exactly), gamma the random mixture
    branch.
    """

    rho: CriticalValueFunction
    zeta: float
    delta: float
    m: int
    kappa: float
    m0: int | None = None
    gamma: float | None = None

    def __post_init__(self):
        if not 0.0 < self.zeta < 1.0:
            raise ValueError(f"zeta must be in (0,1), got {self.zeta}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0,1), got {self.delta}")
        if not 0.0 <= self.kappa <= 1.0:
            raise ValueError(f"kappa must be in [0,1], got {self.kappa}")
        if _as_int(self.m, "m") < 2:
            raise ValueError(f"need m >= 2, got {self.m}")
        if self.m0 is not None:
            _as_int(self.m0, "m0")

    @property
    def nu(self) -> float:
        """max over k in {m0-1, m0} of |k/m - zeta| (exact, never the
        single-point approximation)."""
        if self.m0 is None:
            raise ValueError("nu requires m0")
        return max(abs((self.m0 - 1) / self.m - self.zeta), abs(self.m0 / self.m - self.zeta))


@dataclass(frozen=True, slots=True)
class BoundResult:
    u_minus: float
    u_plus: float
    epsilon: float
    gap_bound: float
    branch: str  # "FM" or "RM"
    vacuous: bool


def du_limit_cdf(zeta: float):
    """Limiting p-value c.d.f. of the Dirac-uniform configuration:
    x -> (1 - zeta) + zeta * x, on floats and float arrays."""

    def g(x):
        return (1.0 - zeta) + zeta * x

    return g


def u_plus_minus(inputs: BoundInputs) -> tuple:
    """Perturbed fixed points (u_minus, u_plus) of the Dirac-uniform limit
    composed with rho, anchored at kappa."""
    g = du_limit_cdf(inputs.zeta)
    d = inputs.delta

    def g_plus(x):
        return np.minimum(g(x) + d, 1.0)

    def g_minus(x):
        return np.maximum(g(x) - d, 0.0)

    u_plus = u_operator(inputs.kappa, g_plus, inputs.rho)
    u_minus = u_operator(inputs.kappa, g_minus, inputs.rho)
    return u_minus, u_plus


def _positive_part(x: float) -> float:
    return x if x > 0.0 else 0.0


def epsilon_remainder(inputs: BoundInputs, y: float) -> float:
    """Remainder eps(delta, m, zeta, y): curve spread between the perturbed
    fixed points plus the concentration tail."""
    if not 0.0 < y < 1.0:
        raise ValueError(f"y must be in (0,1), got {y}")
    return _epsilon(inputs, y, *u_plus_minus(inputs))


def _epsilon(inputs: BoundInputs, y: float, u_minus: float, u_plus: float) -> float:
    """epsilon_remainder with the fixed points already computed; the caller
    has checked y."""
    rho = inputs.rho
    spread = (float(rho(u_plus)) - float(rho(u_minus))) / u_plus
    expo = (
        -2.0
        * inputs.m
        * _positive_part(inputs.delta - y - 1.0 / inputs.m) ** 2
        * _positive_part(1.0 - y / inputs.zeta)
    )
    tail = 4.0 / (1.0 - inputs.zeta) * math.exp(expo)
    return spread + tail


def gap_bound_fm(inputs: BoundInputs) -> BoundResult:
    """Fixed mixture bound: (m0/m) * eps(delta, m, zeta, nu)."""
    if inputs.m0 is None or not 0 < inputs.m0 < inputs.m:
        raise ValueError("fixed mixture bound needs 0 < m0 < m")
    u_minus, u_plus = u_plus_minus(inputs)
    # nu = max_k |k/m - zeta| over two adjacent grid points lies in (0, 1)
    eps = _epsilon(inputs, inputs.nu, u_minus, u_plus)
    gap = inputs.m0 / inputs.m * eps
    return BoundResult(u_minus, u_plus, eps, gap, "FM", vacuous=gap >= 1.0)


def gap_bound_rm(inputs: BoundInputs) -> BoundResult:
    """Random mixture bound: pi0*eps(delta, m, zeta, gamma) plus the binomial
    concentration tail, with pi0 = zeta."""
    if inputs.gamma is None or not 0.0 < inputs.gamma < 1.0:
        raise ValueError("random mixture bound needs gamma in (0,1)")
    u_minus, u_plus = u_plus_minus(inputs)
    eps = _epsilon(inputs, inputs.gamma, u_minus, u_plus)
    tail = 4.0 * math.exp(-2.0 * inputs.m * _positive_part(inputs.gamma - 1.0 / inputs.m) ** 2)
    gap = inputs.zeta * eps + tail
    return BoundResult(u_minus, u_plus, eps, gap, "RM", vacuous=gap >= 1.0)


@dataclass(frozen=True, slots=True)
class OptimizedDelta:
    delta: float
    bound: BoundResult
    delta_grid: float
    bound_grid: BoundResult


def optimize_delta(
    rho: CriticalValueFunction,
    zeta: float,
    m: int,
    kappa: float,
    model: str = "FM",
    m0: int | None = None,
    n_grid: int = 200,
) -> OptimizedDelta:
    """Evaluate the bound at the rate-optimal delta and at a grid minimum.

    The closed-form choice solves 2*(1 - y/zeta)*(delta - y - 1/m)^2 =
    log(m)/m with y = nu (FM) or y = gamma (RM), making the concentration
    tail equal to 1/m; for RM, gamma itself is set so that its Hoeffding term
    equals 1/m.  The grid minimum over delta is returned for comparison.
    """
    if model == "FM":
        if m0 is None or not 0 < m0 < m:
            raise ValueError("FM needs 0 < m0 < m")
        y = max(abs((m0 - 1) / m - zeta), abs(m0 / m - zeta))
        gamma = None
    elif model == "RM":
        gamma = 1.0 / m + math.sqrt(math.log(2.0 * m) / (2.0 * m))
        y = gamma
    else:
        raise ValueError(f"model must be 'FM' or 'RM', got {model!r}")
    if y >= zeta:
        raise ValueError("no feasible delta: y >= zeta")
    delta_star = y + 1.0 / m + math.sqrt(math.log(m) / (2.0 * m * (1.0 - y / zeta)))
    if not delta_star < 1.0:
        raise ValueError("no feasible delta in (y, 1)")

    def evaluate(delta: float) -> BoundResult:
        inputs = BoundInputs(
            rho=rho, zeta=zeta, delta=delta, m=m, kappa=kappa, m0=m0, gamma=gamma
        )
        return gap_bound_fm(inputs) if model == "FM" else gap_bound_rm(inputs)

    bound_star = evaluate(delta_star)
    best_delta, best = delta_star, bound_star
    lo = y + 1.0 / m + 1e-12
    if lo < 1.0:
        for i in range(1, n_grid + 1):
            d = lo + (1.0 - 1e-9 - lo) * i / (n_grid + 1)
            res = evaluate(d)
            if res.gap_bound < best.gap_bound:
                best_delta, best = d, res
    return OptimizedDelta(delta=delta_star, bound=bound_star, delta_grid=best_delta, bound_grid=best)


def aorc_v_delta(alpha: float, zeta: float, delta: float) -> float:
    """Upper feasibility limit for the AORC gap bound.

    The largest fixed point of (G_DU + delta) ^ 1 composed with the AORC
    curve: for kappa beyond it the upper perturbed fixed point u+ escapes to
    1 and the bound degenerates.  First-order behaviour:
    1 - delta*alpha/(zeta - alpha) + O(delta^2).
    """
    if zeta <= alpha:
        raise ValueError("AORC bound analysis requires zeta > alpha")
    b = 1.0 - alpha
    c = 1.0 - zeta + delta
    coef = 1.0 + c * b - zeta * alpha
    disc = coef * coef - 4.0 * b * c
    if disc < 0.0:
        raise ValueError("no real fixed point: delta too large for this (alpha, zeta)")
    return (coef + math.sqrt(disc)) / (2.0 * b)


def aorc_feasible(alpha: float, zeta: float, delta: float, kappa: float) -> bool:
    """Gate for quoting the AORC bound: the SUD order must sit below the
    larger fixed point v_delta."""
    return kappa < aorc_v_delta(alpha, zeta, delta)
