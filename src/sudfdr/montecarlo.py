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
through one in-place integer sort.  The sort consumes the sampled p-values.

The reduce is rank-major.  The null flags and the clearance matrix
cleared[k] = (p_(k+1) <= t_(k+1)) of the sorted chunk are transposed once
each into one row per rank, so every later step is whole-row arithmetic:
the running null count is m row adds, and the SUD ranks come from two
branch-free scans over the clearance rows that keep a row only for each
requested order (the backward scan stops at the smallest of them and the
forward scan at the largest).  V for an order lambda is then one O(n)
gather from the null count.  A chunk's tables are freed before the next
chunk is sampled.
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
BLOCK = 1 << 15  # keys per block of the rank-major transpose


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


def _chunk_outcomes(rng, cfg: MixtureConfig, size: int, bound: np.ndarray, orders: list):
    """Sample one chunk, sort it once in place and yield (lam, khat, v) for
    each order: every replicate's SUD rank and false rejections.  nulls[k]
    counts the nulls among the k smallest p-values; each table is freed once
    it has been read."""
    p, null_mask = sample_families(rng, cfg, size)
    key = p.view(np.int64)
    del p
    key <<= 1
    key |= null_mask
    del null_mask
    key.sort(axis=1)
    flags, cleared = _rank_major(key, bound)
    del key
    nulls = np.zeros((cfg.m + 1, size), dtype=np.int32)
    for k in range(cfg.m):
        np.add(nulls[k], flags[k], out=nulls[k + 1])
    del flags
    khat = _khat_rows(cleared, orders)
    del cleared
    cols = np.arange(size)
    for lam in orders:
        yield lam, khat[lam], nulls.ravel().take(khat[lam] * np.intp(size) + cols)


def _rank_major(key: np.ndarray, bound: np.ndarray):
    """The null flags and the clearance matrix of the sorted keys, one row
    per rank, transposed a block of replicates at a time.

    A key is the p-value's bit pattern shifted left over its null flag, so
    p <= t exactly when key <= bound = (bits of t) << 1 | 1.
    """
    size, m = key.shape
    flags = np.empty((m, size), dtype=np.int8)
    cleared = np.empty((m, size), dtype=bool)
    step = max(1, BLOCK // m)
    for start in range(0, size, step):
        rows = key[start : start + step]
        flags[:, start : start + step] = np.bitwise_and(rows, 1, out=np.empty(rows.shape, np.int8)).T
        cleared[:, start : start + step] = (rows <= bound).T
    return flags, cleared


def _khat_rows(cleared: np.ndarray, orders: list) -> dict:
    """The SUD rank khat[lam] of every replicate for each order lam in
    orders, from the rank-major clearance matrix cleared[k] = (p_(k+1) <=
    t_(k+1)).

    If rank lam clears, the rule steps up through the streak of cleared
    ranks from lam; otherwise it steps down to the largest cleared rank
    below lam (0 if none).  A backward scan, stopping at min(orders), gives
    the end of the streak from lam (0 where rank lam does not clear), a
    forward scan, stopping at max(orders), the largest cleared rank below
    lam, and khat[lam] is the larger of the two.
    """
    m, size = cleared.shape
    clear = cleared.view(np.int8)
    khat = {lam: np.empty(size, dtype=np.int32) for lam in orders}
    edge = np.full(size, m, dtype=np.int32)
    for k in range(m - 1, min(orders) - 2, -1):  # edge: ranks k+2..edge all clear
        np.multiply(edge, clear[k], out=edge)
        if k + 1 in khat:
            np.copyto(khat[k + 1], edge)
        np.maximum(edge, k, out=edge)
    edge[:] = 0
    rank = np.empty(size, dtype=np.int32)
    for k in range(max(orders)):  # edge: the largest cleared rank <= k
        if k + 1 in khat:
            np.maximum(khat[k + 1], edge, out=khat[k + 1])
        np.multiply(clear[k], np.int32(k + 1), out=rank)
        np.maximum(edge, rank, out=edge)
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
    bound = (t.as_array().view(np.int64) << 1) | 1  # the shift drops the sign bit of a -0.0
    for index, size in _iter_chunks(n):
        yield from _chunk_outcomes(_chunk_rng(seed, index), cfg, size, bound, orders)


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
