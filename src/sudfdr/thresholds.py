"""Critical value functions and threshold collections for step-up-down tests.

A step-up-down procedure compares the ordered p-values against a nondecreasing
threshold collection (t_1, ..., t_m).  Collections are usually generated from a
critical value function rho via t_k = rho(k/m); the two standard families are
the linear (Simes) curve rho(u) = alpha*u and the AORC
rho(u) = alpha*u / (1 - u*(1 - alpha)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from sudfdr.models import _as_int

__all__ = [
    "CriticalValueFunction",
    "LinearCurve",
    "AorcCurve",
    "CustomCurve",
    "ThresholdCollection",
    "ValidationReport",
    "from_rho",
    "validate",
    "check_curve",
    "curve_from_config",
]

MONOTONE_TOL = 1e-12  # slack of the range and monotonicity checks in check_curve and validate
DEFAULT_GRID = 10_000  # points of the [0, 1] grid on which check_curve checks a curve


class CriticalValueFunction:
    """Base class: a map u in [0,1] -> rho(u) in [0,1]."""

    kind = "custom"
    alpha: float | None = None

    def __call__(self, u):
        raise NotImplementedError

    def to_config(self) -> dict:
        cfg = {"curve": self.kind}
        if self.alpha is not None:
            cfg["alpha"] = self.alpha
        return cfg


class LinearCurve(CriticalValueFunction):
    """Simes/linear critical value function rho(u) = alpha*u."""

    kind = "linear"

    def __init__(self, alpha: float):
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0,1), got {alpha}")
        self.alpha = alpha

    def __call__(self, u):
        return self.alpha * np.asarray(u, dtype=float) if np.ndim(u) else self.alpha * float(u)

    def inverse(self, t):
        return t / self.alpha


class AorcCurve(CriticalValueFunction):
    """Asymptotically optimal rejection curve rho(u) = alpha*u / (1 - u*(1-alpha)).

    At u = 1 the removable form gives rho(1) = alpha/alpha = 1 exactly.
    """

    kind = "aorc"

    def __init__(self, alpha: float):
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0,1), got {alpha}")
        self.alpha = alpha

    def __call__(self, u):
        if np.ndim(u):
            u = np.asarray(u, dtype=float)
            with np.errstate(divide="ignore", invalid="ignore"):
                out = self.alpha * u / (1.0 - u * (1.0 - self.alpha))
            return np.where(u >= 1.0, 1.0, out)
        u = float(u)
        if u >= 1.0:
            return 1.0
        return self.alpha * u / (1.0 - u * (1.0 - self.alpha))

    def inverse(self, t):
        return t / (self.alpha + t * (1.0 - self.alpha))


class CustomCurve(CriticalValueFunction):
    """User-supplied critical value function, checked by `check_curve`.

    func is only ever called on one float, so it may use scalar-only code
    such as `math.pow`; an array argument is mapped over elementwise.
    """

    kind = "custom"

    def __init__(self, func, alpha: float | None = None):
        self.func = func
        self.alpha = alpha
        ok, reason = check_curve(func)
        if not ok:
            raise ValueError(f"invalid critical value function: {reason}")

    def __call__(self, u):
        if np.ndim(u):
            u = np.asarray(u, dtype=float)
            return np.fromiter(map(self.func, u.ravel().tolist()), float, u.size).reshape(u.shape)
        return self.func(u)


def check_curve(rho):
    """Grid check of the two standard curve conditions.

    Returns (ok, reason); ok is True iff rho is nondecreasing on [0,1] with
    values in [0,1] and u -> rho(u)/u is nondecreasing on (0,1], checked on
    DEFAULT_GRID (10 000) evenly spaced points of [0,1] with slack
    MONOTONE_TOL (1e-12).
    """
    u = np.linspace(0.0, 1.0, DEFAULT_GRID)
    v = np.asarray([float(rho(x)) for x in u])
    if not np.all((v >= -MONOTONE_TOL) & (v <= 1.0 + MONOTONE_TOL)):  # NaN fails too
        return False, "values leave [0,1]"
    if not np.all(np.diff(v) >= -MONOTONE_TOL):
        return False, "rho is not nondecreasing"
    ratio = v[1:] / u[1:]
    if not np.all(np.diff(ratio) >= -MONOTONE_TOL):
        return False, "rho(u)/u is not nondecreasing"
    return True, ""


@dataclass(frozen=True)
class ThresholdCollection:
    """A nondecreasing vector (t_1, ..., t_m) of critical values in [0,1].

    The convention t_0 = 0 is implicit and applied by consumers.
    """

    t: tuple
    m: int = field(init=False)

    def __post_init__(self):
        arr = np.asarray(self.t, dtype=float)
        if arr.ndim != 1:
            raise ValueError(f"thresholds must be a flat sequence, got shape {arr.shape}")
        object.__setattr__(self, "t", tuple(arr.tolist()))
        object.__setattr__(self, "m", len(arr))
        if self.m < 2:
            raise ValueError(f"need m >= 2 thresholds, got {self.m}")
        if not np.all((arr >= 0.0) & (arr <= 1.0)):  # NaN fails too
            raise ValueError("thresholds must lie in [0,1]")
        if not np.all(np.diff(arr) >= 0.0):
            raise ValueError("thresholds must be nondecreasing")

    def __getitem__(self, k: int) -> float:
        """1-based access with t_0 = 0 and t_{m+1} = 1 conventions."""
        if not 0 <= k <= self.m + 1:
            raise IndexError(f"threshold index must be in [0, {self.m + 1}], got {k}")
        if k == 0:
            return 0.0
        if k == self.m + 1:
            return 1.0
        return self.t[k - 1]

    def __iter__(self):  # t_1..t_m: indexing's t_0 and t_{m+1} are conventions
        return iter(self.t)

    def __len__(self) -> int:
        return self.m

    def as_array(self) -> np.ndarray:
        return np.asarray(self.t)


@dataclass(frozen=True)
class ValidationReport:
    monotone: bool
    tk_over_k_monotone: bool


def from_rho(rho: CriticalValueFunction, m: int) -> ThresholdCollection:
    """Build the threshold collection t_k = rho(k/m), k = 1..m."""
    if _as_int(m, "m") < 2:
        raise ValueError(f"need m >= 2, got {m}")
    return ThresholdCollection(rho(np.arange(1, m + 1) / m))


def validate(t) -> ValidationReport:
    """Report whether t is nondecreasing and whether k -> t_k/k is nondecreasing,
    each up to slack MONOTONE_TOL (1e-12).

    Accepts a ThresholdCollection or a raw sequence (the latter so that
    decreasing candidate vectors can be diagnosed rather than rejected).  The
    second property is the discrete equivalent of the standard curve
    conditions.  Nothing refuses a collection failing it: the exact formulas
    and the Monte-Carlo engine take any nondecreasing collection, and the gap
    bound takes a curve, not a collection (CustomCurve checks the conditions).
    """
    arr = t.as_array() if isinstance(t, ThresholdCollection) else np.asarray(t, dtype=float)
    monotone = bool(np.all(np.diff(arr) >= -MONOTONE_TOL))
    ratio = arr / np.arange(1, len(arr) + 1)
    ratio_monotone = bool(np.all(np.diff(ratio) >= -MONOTONE_TOL))
    return ValidationReport(monotone=monotone, tk_over_k_monotone=ratio_monotone)


def curve_from_config(cfg: dict) -> CriticalValueFunction:
    """Build a curve from {"curve": "linear"|"aorc", "alpha": a}."""
    kind = cfg.get("curve")
    if kind == "linear":
        return LinearCurve(float(cfg["alpha"]))
    if kind == "aorc":
        return AorcCurve(float(cfg["alpha"]))
    raise ValueError(f"unknown curve kind: {kind!r}")
