"""Seeded Monte-Carlo estimation of FDR, FDP distribution, and k-FWER.

Plain Monte-Carlo only: it is the independent oracle for the exact formulas
and must stay simple.  Replicates are generated in fixed-size chunks, each
chunk drawing from its own RNG stream derived from (seed, chunk index), so a
run is bit-reproducible given (seed, n, config) no matter how the chunks are
scheduled.  Chunk aggregates are combined with exact (fsum) accumulation.

Each chunk is sorted once.  The SUD rule rejects exactly the k_hat smallest
p-values: p_(k_hat) <= t_k_hat < p_(k_hat+1) in both of its branches, so no
tie straddles the cut, and the false rejections V are the nulls among the
k_hat smallest.  The sort therefore carries each p-value's null flag: every
p lies in [+0.0, 1], so the int64 bit pattern of p orders like p and its top
two bits are clear, and after a left shift the flag rides in its low bit
through one in-place integer sort.  The result is two tables per chunk, the
SUD rank of every replicate for every order and the running null count,
from which V for any order lambda is one O(n) gather.  The sort consumes
the sampled p-values in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sudfdr.exact import _fdp_bin
from sudfdr.models import MixtureConfig, sample_families
from sudfdr.thresholds import ThresholdCollection

__all__ = [
    "McEstimate",
    "VerdictReport",
    "simulate_fdr",
    "simulate_fdr_sweep",
    "simulate_fdp_hist",
    "simulate_kfwer",
    "simulate_joint_counts",
    "cross_validate",
]

CHUNK = 1 << 16


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float | None
    n_replicates: int
    seed: int
    per_bin: tuple | None = None


@dataclass(frozen=True)
class VerdictReport:
    passed: bool
    z_score: float
    exact: float
    estimate: McEstimate
    sigmas: float


def _chunk_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def _chunk_tables(rng, cfg: MixtureConfig, size: int, t_arr: np.ndarray):
    """Sample one chunk and sort it once, in place; returns (khat, nulls).

    khat is `_khat_table` of the clearance matrix; nulls[:, k] counts the
    nulls among the k smallest p-values.  The null flag rides in the low bit
    of the shifted int64 pattern of p (see the module docstring).
    """
    p, null_mask = sample_families(rng, cfg, size)
    key = p.view(np.int64)
    del p
    key <<= 1
    key |= null_mask
    del null_mask
    key.sort(axis=1)
    flags = np.bitwise_and(key, 1, out=np.empty(key.shape, dtype=np.int8))
    key >>= 1
    below = key.view(np.float64) <= t_arr[None, :]
    del key
    nulls = np.zeros((size, cfg.m + 1), dtype=np.int32)
    np.cumsum(flags, axis=1, dtype=np.int32, out=nulls[:, 1:])
    return _khat_table(below), nulls


def _khat_table(below: np.ndarray) -> np.ndarray:
    """khat[lam - 1] holds every replicate's SUD rank for the order lam,
    from the clearance matrix below[:, k] = (p_(k+1) <= t_{k+1}).

    If rank lam clears, the rule steps up through the streak of cleared
    ranks from lam and stops before the first rank that does not clear;
    otherwise it steps down to the largest cleared rank below lam (0 if
    none).  Both scans run over contiguous rows of the transposed matrix.
    """
    cleared = np.ascontiguousarray(below.T)
    blocked = ~cleared
    m, size = cleared.shape
    khat = np.empty((m, size), dtype=np.int32)
    edge = np.full(size, m, dtype=np.int32)
    for k in range(m - 1, -1, -1):  # edge: ranks k+1..edge all clear
        np.copyto(edge, k, where=blocked[k])
        khat[k] = edge
    edge[:] = 0
    for k in range(m):  # edge: the largest cleared rank <= k+1
        np.copyto(edge, k + 1, where=cleared[k])
        np.copyto(khat[k], edge, where=blocked[k])
    return khat


def _orders(lambdas, m: int, n: int) -> list:
    """The distinct orders in first-seen order, after checking that each
    lies in [1, m] and that n >= 1."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    orders = list(dict.fromkeys(lambdas))
    for lam in orders:
        if not 1 <= lam <= m:
            raise ValueError(f"lambda must be in [1, {m}], got {lam}")
    return orders


def _outcomes(t: ThresholdCollection, orders: list, cfg: MixtureConfig, n: int, seed: int):
    """Yield (lam, khat, v) per chunk and order: the rejections and false
    rejections of every replicate, v gathered from the null counts."""
    t_arr = t.as_array()
    for index, size in _iter_chunks(n):
        khat, nulls = _chunk_tables(_chunk_rng(seed, index), cfg, size, t_arr)
        starts = np.arange(size) * nulls.shape[1]  # row starts in nulls.ravel()
        for lam in orders:
            yield lam, khat[lam - 1], nulls.ravel().take(starts + khat[lam - 1])


def _iter_chunks(n: int):
    start = 0
    index = 0
    while start < n:
        yield index, min(CHUNK, n - start)
        start += CHUNK
        index += 1


def _mean_se(total: float, total_sq: float, n: int):
    mean = total / n
    if n < 2:
        return mean, None
    var = max(total_sq - n * mean * mean, 0.0) / (n - 1)
    return mean, math.sqrt(var / n)


def simulate_fdr(t: ThresholdCollection, lam: int, cfg: MixtureConfig, n: int, seed: int) -> McEstimate:
    """Sample mean of the FDP over n independent p-value families."""
    return simulate_fdr_sweep(t, [lam], cfg, n, seed)[lam]


def simulate_fdr_sweep(t: ThresholdCollection, lambdas, cfg: MixtureConfig, n: int, seed: int) -> dict:
    """simulate_fdr for several orders lambda sharing the same samples.

    Sharing the sampling and sorting pass across the lambda sweep keeps the
    dominant cost paid once; estimates for a given lambda are identical to a
    standalone simulate_fdr call with the same seed.  A repeated order is
    estimated once.
    """
    orders = _orders(lambdas, t.m, n)
    sums = {lam: [] for lam in orders}
    sums_sq = {lam: [] for lam in orders}
    for lam, khat, v in _outcomes(t, orders, cfg, n, seed):
        fdp = v / np.maximum(khat, 1)
        sums[lam].append(float(np.sum(fdp)))
        sums_sq[lam].append(float(np.sum(fdp * fdp)))
    out = {}
    for lam in orders:
        mean, se = _mean_se(math.fsum(sums[lam]), math.fsum(sums_sq[lam]), n)
        out[lam] = McEstimate(mean=mean, std_error=se, n_replicates=n, seed=seed)
    return out


def simulate_fdp_hist(
    t: ThresholdCollection, lam: int, cfg: MixtureConfig, n: int, bins: int, seed: int
) -> McEstimate:
    """Binned FDP frequencies; bin i covers [i/bins, (i+1)/bins), the last
    bin holding the atom at 1, by the bin rule of the exact histogram."""
    if bins < 1:
        raise ValueError(f"need bins >= 1, got {bins}")
    counts = np.zeros(bins + 1, dtype=np.int64)
    total = []
    total_sq = []
    for _, khat, v in _outcomes(t, _orders([lam], t.m, n), cfg, n, seed):
        fdp = v / np.maximum(khat, 1)
        counts += np.bincount(_fdp_bin(fdp, bins), minlength=bins + 1)
        total.append(float(np.sum(fdp)))
        total_sq.append(float(np.sum(fdp * fdp)))
    mean, se = _mean_se(math.fsum(total), math.fsum(total_sq), n)
    freq = counts / n
    bin_se = np.sqrt(np.maximum(freq * (1.0 - freq), 0.0) / n)
    per_bin = tuple((float(f), float(s)) for f, s in zip(freq, bin_se))
    return McEstimate(mean=mean, std_error=se, n_replicates=n, seed=seed, per_bin=per_bin)


def simulate_kfwer(
    t: ThresholdCollection, lam: int, cfg: MixtureConfig, k: int, n: int, seed: int
) -> McEstimate:
    """Frequency of {at least k false rejections}, read off the joint counts."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    n_hits = float(simulate_joint_counts(t, lam, cfg, n, seed)[:, k:].sum())
    mean, se = _mean_se(n_hits, n_hits, n)  # indicator: x^2 = x
    return McEstimate(mean=mean, std_error=se, n_replicates=n, seed=seed)


def simulate_joint_counts(
    t: ThresholdCollection, lam: int, cfg: MixtureConfig, n: int, seed: int
) -> np.ndarray:
    """Counts of (khat, false rejections) over n replicates; shape (m+1, m+1).

    With lam = m this samples the step-up joint law, with lam = 1 the
    step-down one.
    """
    side = t.m + 1
    counts = np.zeros(side * side, dtype=np.int64)
    for _, khat, v in _outcomes(t, _orders([lam], t.m, n), cfg, n, seed):
        counts += np.bincount(khat.astype(np.intp) * side + v, minlength=side * side)
    return counts.reshape(side, side)


def cross_validate(exact_value: float, mc: McEstimate, sigmas: float) -> VerdictReport:
    """Pass iff |exact - mc.mean| <= sigmas * mc.std_error."""
    if sigmas <= 0:
        raise ValueError(f"need sigmas > 0, got {sigmas}")
    diff = exact_value - mc.mean
    if not mc.std_error:
        # degenerate estimator (constant statistic or n = 1)
        passed = abs(diff) <= 1e-12
        z = 0.0 if passed else math.inf
    else:
        z = diff / mc.std_error
        passed = abs(diff) <= sigmas * mc.std_error
    return VerdictReport(passed=passed, z_score=z, exact=exact_value, estimate=mc, sigmas=sigmas)
