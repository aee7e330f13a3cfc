"""Alternative p-value distributions and two-group mixture models.

Under the fixed mixture model FM(m, m0, F) the first m0 p-values are i.i.d.
uniform (true nulls) and the remaining m - m0 are i.i.d. with c.d.f. F.  Under
the random mixture model RM(m, pi0, F) the number of true nulls is first drawn
as Binomial(m, pi0); unconditionally the p-values are i.i.d. with c.d.f.
G(t) = pi0*t + (1 - pi0)*F(t).

Sampling is two steps, and every sampler composes the same two.  The draw,
`draw_blocks`, consumes the RNG stream: RM's null counts for every family
first, then the uniforms one block of families at a time, so the stream is
the same for any block size.  The transform, `transform_block`, maps a
block's alternatives in place through the generalized inverse `F.quantile`
and touches no RNG, so a block can be transformed on any thread once it is
drawn.  The Monte-Carlo oracle draws its chunks a cache-sized block at a
time on the calling thread and transforms them on worker threads;
`sample_families` draws and transforms one block, and `sample` draws
through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

__all__ = [
    "AlternativeCdf",
    "IdentityCdf",
    "GaussianLocationCdf",
    "DiracZeroCdf",
    "StepAtOneCdf",
    "MixtureConfig",
    "PValueSample",
    "eval_G",
    "draw_blocks",
    "transform_block",
    "sample_families",
    "sample",
    "cdf_from_config",
    "mixture_from_config",
]


class AlternativeCdf:
    """Base class for alternative p-value c.d.f.s on [0,1]."""

    kind = "abstract"
    continuous = True

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if not np.all((t >= 0.0) & (t <= 1.0)):  # NaN fails too
            raise ValueError("argument outside [0,1]")
        out = self._eval(t)
        return float(out) if np.ndim(out) == 0 else out

    def _eval(self, t):
        raise NotImplementedError

    def quantile(self, u: np.ndarray) -> np.ndarray:
        """Generalized inverse inf{x : F(x) >= u} for u in (0, 1], applied in
        place to the float array u of uniforms, which is returned.

        The Monte-Carlo oracle calls it from worker threads, on several
        blocks of one call at once, so it must be thread-safe: state that it
        changes (a table built on first use, a counter) needs a lock.  It
        does not run under the caller's np.errstate or warnings filters."""
        raise NotImplementedError

    def to_config(self) -> dict:
        return {"kind": self.kind}


class IdentityCdf(AlternativeCdf):
    """Uniform alternatives: F(t) = t."""

    kind = "identity"

    def _eval(self, t):
        return t

    def quantile(self, u):
        return u


class GaussianLocationCdf(AlternativeCdf):
    """One-sided Gaussian location alternatives with mean mu > 0.

    F(t) is the c.d.f. of the p-value sf(X) for X ~ N(mu, 1), i.e.
    F(t) = sf(isf(t) - mu) = Phi(Phi^{-1}(t) + mu).
    """

    kind = "gaussian"

    def __init__(self, mu: float):
        if not mu > 0:  # NaN fails too
            raise ValueError(f"mu must be > 0, got {mu}")
        self.mu = float(mu)

    def _eval(self, t):
        with np.errstate(invalid="ignore"):
            out = ndtr(ndtri(t) + self.mu)
        out = np.where(t <= 0.0, 0.0, out)
        return np.where(t >= 1.0, 1.0, out)

    def quantile(self, u):
        ndtri(u, out=u)
        u -= self.mu
        return ndtr(u, out=u)

    def to_config(self):
        return {"kind": "gaussian", "mu": self.mu}


class DiracZeroCdf(AlternativeCdf):
    """Point mass at zero (infinitely strong signal).

    Dual representation: the quantile is p = 0 exactly, while the c.d.f. used
    in the exact formulas is the limiting continuous representative F == 1
    (including F(0) = 1).
    """

    kind = "dirac_zero"

    def _eval(self, t):
        return np.ones_like(t)

    def quantile(self, u):
        u.fill(0.0)
        return u


class StepAtOneCdf(AlternativeCdf):
    """Point mass at one: F(t) = 1{t >= 1}.  Not continuous.

    Only the extreme-configuration closed forms and the Monte-Carlo engine
    accept this distribution; the exact recursions reject it.
    """

    kind = "step_at_one"
    continuous = False

    def _eval(self, t):
        return (t >= 1.0).astype(float)

    def quantile(self, u):
        u.fill(1.0)
        return u


@dataclass(frozen=True)
class MixtureConfig:
    """Two-group model description: FM(m, m0, F) or RM(m, pi0, F)."""

    model: str  # "FM" or "RM"
    m: int
    F: AlternativeCdf
    m0: int | None = None
    pi0: float | None = None

    def __post_init__(self):
        # counts are stored as int, so a numpy integer given here cannot reach to_config()'s JSON
        if self.model not in ("FM", "RM"):
            raise ValueError(f"model must be 'FM' or 'RM', got {self.model!r}")
        object.__setattr__(self, "m", _as_int(self.m, "m"))
        if self.m < 2:
            raise ValueError(f"need m >= 2, got {self.m}")
        if self.model == "FM":
            if self.m0 is None or not 0 <= _as_int(self.m0, "m0") <= self.m:
                raise ValueError(f"FM needs 0 <= m0 <= m, got m0={self.m0}")
            object.__setattr__(self, "m0", int(self.m0))
        else:
            if self.pi0 is None or not 0.0 <= self.pi0 <= 1.0:
                raise ValueError(f"RM needs pi0 in [0,1], got pi0={self.pi0}")

    def to_config(self) -> dict:
        cfg = {"model": self.model, "m": self.m, "F": self.F.to_config()}
        if self.model == "FM":
            cfg["m0"] = self.m0
        else:
            cfg["pi0"] = self.pi0
        return cfg


@dataclass(frozen=True)
class PValueSample:
    """One realized p-value family; nulls occupy the first m0_realized slots."""

    p: np.ndarray
    m0_realized: int


def eval_G(cfg: MixtureConfig, t):
    """Mixed c.d.f. G(t) = pi0*t + (1 - pi0)*F(t) of the RM model."""
    if cfg.model != "RM":
        raise ValueError("eval_G is defined for RM configurations only")
    t = np.asarray(t, dtype=float)
    out = cfg.pi0 * t + (1.0 - cfg.pi0) * np.asarray(cfg.F(t))
    return out if out.ndim else float(out)


def draw_blocks(rng: np.random.Generator, cfg: MixtureConfig, size: int, rows: int):
    """Draw the uniforms of `size` p-value families as rows and yield them
    `rows` at a time as (u, null_mask) blocks; a `size` of 0 yields one
    empty block.

    Each row holds its nulls first, m0 of them in FM and Binomial(m, pi0) in
    RM.  RM's null counts are drawn for all `size` rows before the first
    uniform, and each block's uniforms continue the stream where the
    previous block's ended, so the blocks join into the single block of
    rows = size bit for bit.
    """
    m = cfg.m
    if cfg.model == "FM":
        m0 = np.full(size, cfg.m0)
    else:
        m0 = rng.binomial(m, cfg.pi0, size)
    ranks = np.arange(m)
    for start in range(0, max(size, 1), rows):
        block = m0[start : start + rows]
        yield rng.random((len(block), m)), ranks < block[:, None]


def transform_block(cfg: MixtureConfig, u: np.ndarray, null_mask: np.ndarray) -> np.ndarray:
    """Turn a drawn block into p-values in place and return it: nulls keep
    their uniforms and the alternatives' go through F.quantile, so only they
    pay for the inverse c.d.f.  In FM they are the trailing columns, which
    quantile transforms as one view."""
    if cfg.model == "FM":
        cfg.F.quantile(u[:, cfg.m0:])
    else:
        alt = ~null_mask
        u[alt] = cfg.F.quantile(u[alt])
    return u


def sample_families(rng: np.random.Generator, cfg: MixtureConfig, size: int):
    """Draw `size` p-value families as rows in one block; returns (p, null_mask)."""
    u, null_mask = next(draw_blocks(rng, cfg, size, max(size, 1)))
    return transform_block(cfg, u, null_mask), null_mask


def sample(cfg: MixtureConfig, seed: int) -> PValueSample:
    """Draw one p-value family; deterministic given (cfg, seed)."""
    p, null_mask = sample_families(np.random.default_rng(seed), cfg, 1)
    return PValueSample(p=p[0], m0_realized=int(null_mask[0].sum()))


def cdf_from_config(cfg: dict) -> AlternativeCdf:
    """Build an alternative c.d.f. from {"kind": ..., ...}."""
    kind = cfg.get("kind")
    if kind == "identity":
        return IdentityCdf()
    if kind == "gaussian":
        return GaussianLocationCdf(float(cfg["mu"]))
    if kind == "dirac_zero":
        return DiracZeroCdf()
    if kind == "step_at_one":
        return StepAtOneCdf()
    raise ValueError(f"unknown alternative c.d.f. kind: {kind!r}")


def _as_int(x, key: str) -> int:
    """x as an int if it is a Python or numpy integer, else ValueError (a bool
    too); every count and order (m, m0, k, bins, lambda, n) goes through it."""
    if isinstance(x, bool) or not hasattr(type(x), "__index__"):
        raise ValueError(f"{key} must be an integer, got {x!r}")
    return int(x)


def mixture_from_config(cfg: dict) -> MixtureConfig:
    """Build a MixtureConfig from the JSON wire format."""
    model = cfg.get("model")
    F = cdf_from_config(cfg["F"])
    if model == "FM":
        return MixtureConfig(model="FM", m=cfg["m"], m0=cfg["m0"], F=F)
    if model == "RM":
        return MixtureConfig(model="RM", m=cfg["m"], pi0=float(cfg["pi0"]), F=F)
    raise ValueError(f"unknown model: {model!r}")
