"""Seeded Monte-Carlo estimation of FDR, FDP distribution, and k-FWER.

Plain Monte-Carlo only: it is the independent oracle for the exact
formulas.  Replicates are generated in fixed-size chunks, each chunk
drawing from its own RNG stream derived from (seed, chunk index), so a run
is bit-reproducible given (seed, n, config).  Chunk aggregates are combined
with exact (fsum) accumulation.

A chunk streams through cache-sized blocks of rows.  The calling thread
draws every block's uniforms from the chunk's stream, in stream order.
Where the process may run on two CPUs it hands each block to one of two
workers of a module-level thread pool, made on first use; otherwise, and
once the pool takes no more work (after the interpreter began to shut
down), it works each block itself.  The worker transforms, keys, sorts and
transposes its block into its own columns of the chunk's tables, so the
chunk's float64 sample and int64 keys never exist whole.  At most two
blocks per worker are in flight: after handing on a block the draw waits
for the oldest before it draws another.  Each of two workers' blocks
holds at most BLOCK // 2 keys, so the blocks in flight hold at most 2 BLOCK
keys (one family, where a family alone holds more).  There are no more
workers than two because smaller blocks lose more to the hand-offs between
threads than a worker gains: on a two-CPU host, blocks of BLOCK // 4 keys
on two workers were slower than one thread (BENCH_23.json).  Every block is joined before
the reduce, which runs on the calling thread over the whole tables in a
fixed order.  A block's values depend only on its uniforms and each table
cell on one block, so every output is the same for any worker count, block
size and schedule.  A worker's exception is raised again on the calling
thread.

The SUD rule rejects exactly the k_hat smallest p-values:
p_(k_hat) <= t_k_hat < p_(k_hat+1) in both of its branches, so no tie
straddles the cut, and the false rejections V are the nulls among the
k_hat smallest.  The sort therefore carries each p-value's null flag:
every p lies in [+0.0, 1], so the int64 bit pattern of p orders like p
and its top two bits are clear, and after a left shift the flag rides in
its low bit through one in-place integer sort of the block's rows.

The reduce is rank-major.  Each sorted block is written, transposed, into
two chunk tables with one column per replicate: the clearance matrix
cleared[k] = (p_(k+1) <= t_(k+1)) and the null flags, which m row adds
turn into the running null count in place.  The null counts are held at
the smallest unsigned type that holds m; below m = 256 that is uint8, and
the two tables together are a quarter of the chunk's float64 sample.
The SUD ranks come from two branch-free scans over the clearance rows
that keep a row only for each requested order (the backward scan stops at
the smallest of them and the forward scan at the largest), held at the
type of the null counts: below m = 256 a full-order sweep's rows weigh as
much as the clearance matrix.  V for an
order lambda is then one O(n) gather from the null count.  A chunk's
tables are freed before the next chunk is sampled.
"""

from __future__ import annotations

import math
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from sudfdr.exact import _fdp_bin
from sudfdr.models import MixtureConfig, _as_int, draw_blocks, transform_block
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
BLOCK = 1 << 15  # keys per block on one thread; each of two workers takes BLOCK // 2
WORKERS = 2

_pool = None  # (pid, executor), made on first use
_pool_lock = threading.Lock()


@dataclass(frozen=True, slots=True)
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


def _executor(m: int):
    """The number of block workers for families of m p-values and their
    pool, or (1, None) where the calling thread works every block itself:
    where the process may run on one CPU, or a family holds more than
    BLOCK // 2 p-values, so that two workers' blocks would not fit in 2
    BLOCK keys.  The pool is made on first use, and again in a forked
    child, whose copy of the parent's pool has no threads."""
    global _pool
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if cpus < WORKERS or m * WORKERS > BLOCK:
        return 1, None
    with _pool_lock:
        if _pool is None or _pool[0] != os.getpid():
            _pool = (os.getpid(), ThreadPoolExecutor(WORKERS, thread_name_prefix="sudfdr-mc"))
        return WORKERS, _pool[1]


def _chunk_outcomes(rng, cfg: MixtureConfig, size: int, bound: np.ndarray, orders: list):
    """Sample one chunk a block of rows at a time and yield (lam, khat, v)
    for each order: every replicate's SUD rank and false rejections.

    A worker, or the calling thread, sorts each block's keys in place and
    writes them, transposed, into the block's columns of the chunk's rank-major tables: the
    clearance matrix, and in rows 1..m of nulls the null flags of ranks
    1..m, which m row adds turn into nulls[k] = the nulls among the k
    smallest p-values.  A key is the p-value's bit pattern shifted left
    over its null flag, so p <= t exactly when key <= bound = (bits of t)
    << 1 | 1.
    """
    m = cfg.m
    cleared = np.empty((m, size), dtype=bool)
    nulls = np.empty((m + 1, size), dtype=np.min_scalar_type(m))
    nulls[0] = 0

    def place(start, u, null_mask):
        key = transform_block(cfg, u, null_mask).view(np.int64)
        key <<= 1
        key |= null_mask
        key.sort(axis=1)
        stop = start + len(key)
        cleared[:, start:stop] = (key <= bound).T
        key &= 1
        nulls[1:, start:stop] = key.T

    workers, pool = _executor(m)
    pending = deque()
    start = 0
    try:
        for u, null_mask in draw_blocks(rng, cfg, size, max(1, BLOCK // (m * workers))):
            if pool is not None:
                try:
                    pending.append(pool.submit(place, start, u, null_mask))
                except RuntimeError:  # the interpreter is shutting down
                    pool = None
            if pool is None:
                place(start, u, null_mask)
            start += len(u)
            if len(pending) == 2 * workers:  # wait before drawing another
                pending.popleft().result()
        while pending:
            pending.popleft().result()
    finally:  # after a failure, no block outlives the call
        for future in pending:
            future.cancel()
        wait(pending)
    for k in range(m):
        nulls[k + 1] += nulls[k]
    khat = _khat_rows(cleared, orders)
    del cleared
    cols = np.arange(size)
    for lam in orders:
        yield lam, khat[lam], nulls.ravel().take(khat[lam] * np.intp(size) + cols)


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
    clear = cleared.view(np.uint8)
    rank = np.min_scalar_type(m).type  # every rank fits, as in the null counts
    khat = {lam: np.empty(size, dtype=rank) for lam in orders}
    edge = np.full(size, m, dtype=rank)
    for k in range(m - 1, min(orders) - 2, -1):  # edge: ranks k+2..edge all clear
        np.multiply(edge, clear[k], out=edge)
        if k + 1 in khat:
            np.copyto(khat[k + 1], edge)
        np.maximum(edge, rank(k), out=edge)
    edge[:] = 0
    row = np.empty(size, dtype=rank)
    for k in range(max(orders)):  # edge: the largest cleared rank <= k
        if k + 1 in khat:
            np.maximum(khat[k + 1], edge, out=khat[k + 1])
        np.multiply(clear[k], rank(k + 1), out=row)
        np.maximum(edge, row, out=edge)
    return khat


def _orders(lambdas, t: ThresholdCollection, cfg: MixtureConfig, n: int) -> list:
    """The distinct orders in first-seen order, after checking that t and
    cfg agree on m, that each order lies in [1, m] and that n >= 1."""
    m = t.m
    if cfg.m != m:
        raise ValueError("threshold collection and model disagree on m")
    if _as_int(n, "n") < 1:
        raise ValueError(f"need n >= 1, got {n}")
    orders = list(dict.fromkeys(lambdas))
    for lam in orders:
        if not 1 <= _as_int(lam, "lambda") <= m:
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
    orders = _orders(lambdas, t, cfg, n)
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
    if _as_int(bins, "bins") < 1:
        raise ValueError(f"need bins >= 1, got {bins}")
    counts = np.zeros(bins + 1, dtype=np.int64)
    total = []
    total_sq = []
    for _, khat, v in _outcomes(t, _orders([lam], t, cfg, n), cfg, n, seed):
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
    if _as_int(k, "k") < 1:
        raise ValueError(f"need k >= 1, got {k}")
    n_hits = float(simulate_joint_counts(t, lam, cfg, n, seed)[:, k:].sum())
    mean, se = _mean_se(n_hits, n_hits, n)  # indicator: x^2 = x
    return McEstimate(mean=mean, std_error=se, n_replicates=n, seed=seed)


def simulate_joint_counts(
    t: ThresholdCollection, lam: int, cfg: MixtureConfig, n: int, seed: int
) -> np.ndarray:
    """Counts of (khat, false rejections) over n replicates; shape (m+1, m+1).

    With lam = m this samples the step-up joint law, with lam = 1 the
    step-down one.  The counts are int32, or int64 from n = 2^31 on.
    """
    side = t.m + 1
    counts = np.zeros(side * side, dtype=np.int64)
    for _, khat, v in _outcomes(t, _orders([lam], t, cfg, n), cfg, n, seed):
        counts += np.bincount(khat.astype(np.intp) * side + v, minlength=side * side)
    return counts.reshape(side, side).astype(np.int32 if n < 1 << 31 else np.int64)


def cross_validate(exact_value: float, mc: McEstimate, sigmas: float) -> VerdictReport:
    """Pass iff |exact - mc.mean| <= sigmas * mc.std_error."""
    if not sigmas > 0:  # NaN fails too
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
