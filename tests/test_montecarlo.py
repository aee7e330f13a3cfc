import hashlib
import itertools
import math
import os
import subprocess
import sys
import textwrap
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sudfdr
from sudfdr import montecarlo
from sudfdr.exact import fdr_sud, joint_pmf, step_at_one_closed_forms
from sudfdr.models import (
    AlternativeCdf,
    DiracZeroCdf,
    GaussianLocationCdf,
    IdentityCdf,
    MixtureConfig,
    StepAtOneCdf,
    sample_families,
)
from sudfdr.montecarlo import (
    CHUNK,
    McEstimate,
    _chunk_rng,
    _khat_rows,
    _outcomes,
    cross_validate,
    simulate_fdp_hist,
    simulate_fdr,
    simulate_fdr_sweep,
    simulate_joint_counts,
    simulate_kfwer,
)
from sudfdr.procedures import sud_khat
from sudfdr.thresholds import LinearCurve, ThresholdCollection, from_rho

T10 = from_rho(LinearCurve(0.5), 10)


def _fm(F, m=10, m0=7):
    return MixtureConfig(model="FM", m=m, m0=m0, F=F)


def test_determinism():
    cfg = _fm(GaussianLocationCdf(1.0))
    a = simulate_fdr(T10, 5, cfg, 50_000, seed=3)
    b = simulate_fdr(T10, 5, cfg, 50_000, seed=3)
    assert a.mean == b.mean and a.std_error == b.std_error
    c = simulate_fdr(T10, 5, cfg, 50_000, seed=4)
    assert c.mean != a.mean


def test_sweep_matches_standalone():
    cfg = _fm(GaussianLocationCdf(1.0))
    sweep = simulate_fdr_sweep(T10, [2, 5, 9], cfg, 70_000, seed=11)  # crosses a chunk boundary
    for lam in (2, 5, 9):
        solo = simulate_fdr(T10, lam, cfg, 70_000, seed=11)
        assert sweep[lam].mean == solo.mean
        assert sweep[lam].std_error == solo.std_error


def test_single_replicate_has_no_se():
    est = simulate_fdr(T10, 10, _fm(IdentityCdf()), 1, seed=0)
    assert est.std_error is None
    assert est.n_replicates == 1


def test_n_validation():
    with pytest.raises(ValueError):
        simulate_fdr(T10, 5, _fm(IdentityCdf()), 0, seed=0)
    with pytest.raises(ValueError, match="need n >= 1"):
        simulate_joint_counts(T10, 5, _fm(IdentityCdf()), 0, seed=0)


def test_all_null_su_matches_rejection_probability():
    cfg = MixtureConfig(model="FM", m=10, m0=10, F=IdentityCdf())
    exact = fdr_sud(T10, 10, cfg).fdr  # all-null: FDR = P(k_hat >= 1)
    pmf = joint_pmf(T10, cfg, "SU")
    assert exact == pytest.approx(1.0 - pmf.get(0, 0), abs=1e-10)
    mc = simulate_fdr(T10, 10, cfg, 200_000, seed=6)
    assert cross_validate(exact, mc, 4.0).passed


def test_dirac_lsu_rm():
    cfg = MixtureConfig(model="RM", m=10, pi0=0.7, F=DiracZeroCdf())
    mc = simulate_fdr(T10, 10, cfg, 200_000, seed=9)
    assert abs(mc.mean - 0.35) <= 4 * mc.std_error


def test_fdp_hist_bins():
    cfg = _fm(GaussianLocationCdf(1.0))
    est = simulate_fdp_hist(T10, 10, cfg, 50_000, bins=20, seed=2)
    freqs = [f for f, _ in est.per_bin]
    assert len(est.per_bin) == 21
    assert math.fsum(freqs) == pytest.approx(1.0, abs=1e-12)
    assert all(se >= 0 for _, se in est.per_bin)


def test_kfwer_edge_cases():
    cfg = MixtureConfig(model="FM", m=10, m0=10, F=IdentityCdf())
    beyond = simulate_kfwer(T10, 10, cfg, k=11, n=10_000, seed=1)
    assert beyond.mean == 0.0
    # k=1 under all-null: same event as {k_hat >= 1}
    one = simulate_kfwer(T10, 10, cfg, k=1, n=100_000, seed=1)
    exact = fdr_sud(T10, 10, cfg).fdr
    assert abs(one.mean - exact) <= 4 * one.std_error
    with pytest.raises(ValueError):
        simulate_kfwer(T10, 10, cfg, k=0, n=100, seed=1)


def test_step_at_one_sampler_closed_form():
    t0 = 0.2
    t = ThresholdCollection((t0,) * 9 + (1.0,))
    cfg = _fm(StepAtOneCdf())
    closed_sud, closed_su, _ = step_at_one_closed_forms(10, 7, t0)
    sud_est = simulate_fdr(t, 5, cfg, 200_000, seed=13)
    su_est = simulate_fdr(t, 10, cfg, 200_000, seed=14)
    assert abs(sud_est.mean - closed_sud) <= 4 * sud_est.std_error
    assert abs(su_est.mean - closed_su) <= 4 * su_est.std_error


def test_joint_counts_shape_and_total():
    counts = simulate_joint_counts(T10, 10, _fm(GaussianLocationCdf(1.0)), 30_000, seed=4)
    assert counts.shape == (11, 11)
    assert counts.sum() == 30_000
    assert np.all(counts >= 0)


def test_cross_validate_verdicts():
    est = McEstimate(mean=0.35, std_error=0.001, n_replicates=1000, seed=0)
    ok = cross_validate(0.3503, est, 4.0)
    assert ok.passed and ok.z_score == pytest.approx(0.3, abs=1e-9)
    bad = cross_validate(0.36, est, 4.0)
    assert not bad.passed and abs(bad.z_score) == pytest.approx(10.0, abs=1e-9)
    degenerate = McEstimate(mean=0.5, std_error=None, n_replicates=1, seed=0)
    assert cross_validate(0.5, degenerate, 4.0).passed
    assert not cross_validate(0.6, degenerate, 4.0).passed
    with pytest.raises(ValueError):
        cross_validate(0.5, est, 0.0)


_GAUSS_FM = _fm(GaussianLocationCdf(1.0))


@pytest.mark.parametrize("lam", [0, -3, 11])
def test_every_entry_point_rejects_orders_outside_1_m(lam):
    calls = [
        lambda: simulate_fdr(T10, lam, _GAUSS_FM, 100, seed=0),
        lambda: simulate_fdr_sweep(T10, [5, lam], _GAUSS_FM, 100, seed=0),
        lambda: simulate_fdp_hist(T10, lam, _GAUSS_FM, 100, bins=4, seed=0),
        lambda: simulate_kfwer(T10, lam, _GAUSS_FM, k=1, n=100, seed=0),
        lambda: simulate_joint_counts(T10, lam, _GAUSS_FM, 100, seed=0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="lambda must be in"):
            call()


@pytest.mark.parametrize(
    "call, key",
    [
        (lambda: simulate_fdr(T10, 2.0, _GAUSS_FM, 100, seed=0), "lambda"),
        (lambda: simulate_fdr_sweep(T10, [5, 2.0], _GAUSS_FM, 100, seed=0), "lambda"),
        (lambda: simulate_kfwer(T10, 5, _GAUSS_FM, k=1.5, n=100, seed=0), "k"),
        (lambda: simulate_fdp_hist(T10, 5, _GAUSS_FM, 100, bins=2.5, seed=0), "bins"),
        (lambda: simulate_joint_counts(T10, 5, _GAUSS_FM, 100.0, seed=0), "n"),
    ],
    ids=["simulate_fdr-lambda", "sweep-lambda", "simulate_kfwer-k", "simulate_fdp_hist-bins", "joint-counts-n"],
)
def test_non_integer_counts_raise_value_error(call, key):
    with pytest.raises(ValueError, match=f"{key} must be an integer"):
        call()


def test_sweep_counts_a_repeated_order_once():
    twice = simulate_fdr_sweep(T10, [5, 5], _GAUSS_FM, 1000, seed=0)
    once = simulate_fdr_sweep(T10, [5], _GAUSS_FM, 1000, seed=0)
    assert list(twice) == [5]
    assert (twice[5].mean, twice[5].std_error) == (once[5].mean, once[5].std_error)
    assert 0.2 < once[5].mean < 0.5


def test_kfwer_reads_the_joint_counts():
    # both draw the same replicates; V >= k is the columns k.. of the counts
    m, n, seed = 10, 70_000, 5
    counts = simulate_joint_counts(T10, 5, _GAUSS_FM, n, seed)
    for k in range(1, m + 2):
        est = simulate_kfwer(T10, 5, _GAUSS_FM, k=k, n=n, seed=seed)
        assert est.mean == counts[:, k:].sum() / n


T_TIES = ThresholdCollection((0.0, 0.1, 0.1, 0.1, 0.3, 0.3, 0.5, 0.5, 0.8, 1.0))


def _reference_outcomes(p, null_mask, t, lam):
    """(khat, V) by rank selection on each family and a compare of every
    null p-value against t_khat."""
    t_arr = t.as_array()
    khat = np.array([sud_khat(row, t, lam).k_hat for row in p])
    thr = np.concatenate(([-1.0], t_arr))[khat]
    null_p = np.where(null_mask, p, 2.0)  # sentinel above every threshold
    return khat, (null_p <= thr[:, None]).sum(axis=1)


@pytest.mark.parametrize("t", [T10, T_TIES], ids=["linear", "ties"])
@pytest.mark.parametrize(
    "F",
    [IdentityCdf(), GaussianLocationCdf(1.0), DiracZeroCdf(), StepAtOneCdf()],
    ids=lambda F: F.kind,
)
@pytest.mark.parametrize("model", ["FM", "RM"])
def test_gather_matches_per_order_compare(t, F, model):
    cfg = _fm(F) if model == "FM" else MixtureConfig(model="RM", m=10, pi0=0.6, F=F)
    size, seed = 300, 17
    p, null_mask = sample_families(_chunk_rng(seed, 0), cfg, size)
    orders = list(range(1, t.m + 1))
    seen = set()
    for lam, khat, v in _outcomes(t, orders, cfg, size, seed):
        ref_khat, ref_v = _reference_outcomes(p, null_mask, t, lam)
        np.testing.assert_array_equal(khat, ref_khat)
        np.testing.assert_array_equal(v, ref_v)
        seen.add(lam)
    assert seen == set(orders)


@pytest.mark.parametrize("model", ["FM", "RM"])
def test_signed_zero_thresholds_clear_only_zero_p_values(model):
    # -0.0 passes the [0, 1] check; it must clear exactly the p-values 0.0
    t = ThresholdCollection((-0.0, -0.0, 0.1, 0.1, 0.3, 0.3, 0.5, 0.5, 0.8, 1.0))
    cfg = _fm(DiracZeroCdf()) if model == "FM" else MixtureConfig(model="RM", m=10, pi0=0.6, F=DiracZeroCdf())
    size, seed = 300, 17
    p, null_mask = sample_families(_chunk_rng(seed, 0), cfg, size)
    for lam, khat, v in _outcomes(t, [1, 2, 5, 10], cfg, size, seed):
        ref_khat, ref_v = _reference_outcomes(p, null_mask, t, lam)
        np.testing.assert_array_equal(khat, ref_khat)
        np.testing.assert_array_equal(v, ref_v)


def test_outputs_equal_recorded_values():
    # recorded with the per-order compare, before V became a gather
    sweep = simulate_fdr_sweep(T10, [3, 10], _GAUSS_FM, 70_000, seed=11)[3]
    assert sweep.mean == 0.32010875850340137
    assert sweep.std_error == 0.001164001858355587
    rm = MixtureConfig(model="RM", m=10, pi0=0.7, F=GaussianLocationCdf(1.0))
    hist = simulate_fdp_hist(T10, 5, rm, 70_000, bins=4, seed=2)
    assert hist.per_bin == (
        (0.41687142857142856, 0.001863520633533071),
        (0.17787142857142857, 0.0014453530634879878),
        (0.26634285714285716, 0.0016707754384110594),
        (0.058128571428571425, 0.0008843855058921251),
        (0.08078571428571428, 0.0010299749140708042),
    )
    assert simulate_kfwer(T10, 5, _GAUSS_FM, k=2, n=70_000, seed=1).mean == 0.40755714285714284
    t4 = from_rho(LinearCurve(0.5), 4)
    rm4 = MixtureConfig(model="RM", m=4, pi0=0.5, F=GaussianLocationCdf(1.0))
    counts = simulate_joint_counts(t4, 3, rm4, 70_000, seed=4)
    assert counts.tolist() == [
        [13338, 0, 0, 0, 0],
        [9578, 2649, 0, 0, 0],
        [7920, 6166, 1235, 0, 0],
        [5012, 7313, 3682, 631, 0],
        [2107, 4753, 4018, 1426, 172],
    ]


def test_m100_outputs_equal_recorded_values():
    # recorded before the reduce became rank-major; n crosses CHUNK
    m, n = 100, 70_000
    t = from_rho(LinearCurve(0.5), m)
    fm = MixtureConfig(model="FM", m=m, m0=70, F=GaussianLocationCdf(1.0))
    sweep = simulate_fdr_sweep(t, [1, 50, 100], fm, n, seed=21)
    assert {lam: (e.mean, e.std_error) for lam, e in sweep.items()} == {
        1: (0.2721784023264192, 0.0007600298614218118),
        50: (0.3499814547766781, 0.000568678782555837),
        100: (0.34999291959853734, 0.0005687281756064372),
    }
    rm = MixtureConfig(model="RM", m=m, pi0=0.7, F=GaussianLocationCdf(1.0))
    counts = simulate_joint_counts(t, 50, rm, n, seed=22)
    assert hashlib.sha256(counts.astype(np.int64).tobytes()).hexdigest() == (
        "781a65c41fa3650eb0c34a7a3eb51db342c510f0c628aa10ed7fecdbe0af45f6"
    )
    k = np.arange(m + 1)
    assert counts[:3, :3].tolist() == [[1625, 0, 0], [917, 181, 0], [740, 388, 45]]
    assert int((counts * k[:, None] * k[None, :]).sum()) == 13804018
    hist = simulate_fdp_hist(t, 30, fm, n, bins=5, seed=23)
    assert (hist.mean, hist.std_error) == (0.3474579746452243, 0.0005695242568514628)
    assert hist.per_bin == (
        (0.14008571428571429, 0.0013118237410935942),
        (0.4354857142857143, 0.0018740251063220485),
        (0.4052, 0.0018555436631117808),
        (0.016685714285714286, 0.00048413842802726517),
        (0.00035714285714285714, 7.14158151874788e-05),
        (0.0021857142857142856, 0.00017651130837005114),
    )


def test_sweep_peak_memory_is_bounded():
    # in units of one float64 chunk: 1.56 with the packed sort, 3.64 with an
    # argsort in its place and 3.43 with the former per-order compare
    m, n = 100, 1 << 14
    t = from_rho(LinearCurve(0.5), m)
    cfg = MixtureConfig(model="FM", m=m, m0=70, F=GaussianLocationCdf(1.0))
    tracemalloc.start()
    try:
        simulate_fdr_sweep(t, range(1, m + 1), cfg, n, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * n * m * 8


@st.composite
def _clearance_patterns(draw):
    """A rank-major clearance matrix with all-clear and none-clear replicates,
    and a subset of the orders."""
    m = draw(st.integers(min_value=2, max_value=30))
    size = draw(st.integers(min_value=0, max_value=20))
    rows = draw(st.lists(st.lists(st.booleans(), min_size=m, max_size=m), min_size=size, max_size=size))
    cleared = np.array([[True] * m, [False] * m] + rows).T.copy()
    orders = draw(st.lists(st.integers(1, m), min_size=1, max_size=m, unique=True))
    return cleared, orders


@given(_clearance_patterns())
@settings(derandomize=True, deadline=None, max_examples=200)
def test_khat_rows_for_a_subset_of_orders_match_every_order_and_sud_khat(case):
    cleared, orders = case
    m, size = cleared.shape
    every = _khat_rows(cleared, list(range(1, m + 1)))
    subset = _khat_rows(cleared, orders)
    assert list(subset) == orders
    # p_(k) sits just below t_k where rank k clears and just above it otherwise
    t = ThresholdCollection(tuple(np.arange(1, m + 1) / (m + 1)))
    p = t.as_array()[:, None] + np.where(cleared, -0.25, 0.25) / (m + 1)
    for lam in orders:
        np.testing.assert_array_equal(subset[lam], every[lam])
        assert subset[lam].tolist() == [sud_khat(p[:, i], t, lam).k_hat for i in range(size)]


def test_khat_rows_keep_only_the_requested_orders():
    m, size = 100, 1 << 12
    cleared = np.random.default_rng(0).random((m, size)) < 0.5
    peaks = {}
    for name, orders in (("one", [m // 2]), ("every", list(range(1, m + 1)))):
        tracemalloc.start()
        try:
            _khat_rows(cleared, orders)
            _, peaks[name] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    row = size * np.min_scalar_type(m).itemsize  # one rank per replicate, at the narrowest type that holds m
    assert peaks["one"] <= 5 * row  # its k-hat row, the two scan rows and small objects
    assert peaks["every"] >= m * row


@pytest.mark.parametrize("n", [1 << 14, CHUNK + (1 << 12)], ids=["one-chunk", "two-chunks"])
def test_single_order_peak_memory_is_at_most_the_sweep(n):
    # in units of one float64 chunk: the sorted keys (1), the null flags and
    # the clearance matrix (1/8 each) set the peak; a chunk's tables are gone
    # before the next chunk is sampled
    m = 100
    t = from_rho(LinearCurve(0.5), m)
    cfg = MixtureConfig(model="FM", m=m, m0=70, F=GaussianLocationCdf(1.0))
    peaks = {}
    for name, call in (
        ("single", lambda: simulate_fdr(t, m // 2, cfg, n, seed=1)),
        ("sweep", lambda: simulate_fdr_sweep(t, range(1, m + 1), cfg, n, seed=1)),
    ):
        tracemalloc.start()
        try:
            call()
            _, peaks[name] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    unit = min(n, CHUNK) * m * 8
    assert peaks["single"] <= peaks["sweep"] <= 1.3 * unit


@pytest.mark.parametrize("n", [1 << 14, CHUNK + (1 << 12)], ids=["one-chunk", "two-chunks"])
@pytest.mark.parametrize("model", ["FM", "RM"])
def test_streamed_chunk_peak_memory(model, n):
    # in units of one float64 chunk: a chunk is sampled, sorted and
    # transposed a block of rows at a time, so only its clearance matrix and
    # null counts (1/8 each at m = 100) are whole; every order adds its
    # int32 k-hat row (1/2 for all m orders)
    m = 100
    t = from_rho(LinearCurve(0.5), m)
    gauss = GaussianLocationCdf(1.0)
    cfg = (
        MixtureConfig(model="FM", m=m, m0=70, F=gauss)
        if model == "FM"
        else MixtureConfig(model="RM", m=m, pi0=0.7, F=gauss)
    )
    peaks = {}
    for name, call in (
        ("single", lambda: simulate_fdr(t, m // 2, cfg, n, seed=1)),
        ("sweep", lambda: simulate_fdr_sweep(t, range(1, m + 1), cfg, n, seed=1)),
    ):
        tracemalloc.start()
        try:
            call()
            _, peaks[name] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    unit = min(n, CHUNK) * m * 8
    assert peaks["single"] <= 0.5 * unit
    assert peaks["sweep"] <= 0.9 * unit


def _every_output(t, cfg, n):
    lam = t.m // 2
    sweep = simulate_fdr_sweep(t, range(1, t.m + 1), cfg, n, seed=31)
    hist = simulate_fdp_hist(t, lam, cfg, n, bins=7, seed=32)
    return (
        [(e.mean, e.std_error) for e in sweep.values()],
        (hist.mean, hist.std_error, hist.per_bin),
        simulate_joint_counts(t, lam, cfg, n, seed=33).tobytes(),
        simulate_kfwer(t, lam, cfg, k=2, n=n, seed=34).mean,
    )


@pytest.mark.parametrize("m, n", [(10, CHUNK + 5000), (100, 1 << 14)], ids=["two-chunks", "one-chunk"])
@pytest.mark.parametrize("F", [IdentityCdf(), GaussianLocationCdf(1.0), DiracZeroCdf()], ids=lambda F: F.kind)
@pytest.mark.parametrize("model", ["FM", "RM"])
def test_outputs_do_not_depend_on_the_worker_count(model, F, m, n, monkeypatch):
    # the calling thread alone takes whole blocks in turn; three workers,
    # more than the host may have CPUs, take smaller blocks and race to
    # finish them, switching threads often
    t = from_rho(LinearCurve(0.5), m)
    cfg = _fm(F, m, int(0.7 * m)) if model == "FM" else MixtureConfig(model="RM", m=m, pi0=0.7, F=F)
    default = _every_output(t, cfg, n)
    interval = sys.getswitchinterval()
    try:
        monkeypatch.setattr(montecarlo, "_executor", lambda m: (1, None))
        assert _every_output(t, cfg, n) == default
        with ThreadPoolExecutor(3) as pool:
            monkeypatch.setattr(montecarlo, "_executor", lambda m: (3, pool))
            sys.setswitchinterval(1e-5)
            assert _every_output(t, cfg, n) == default
    finally:
        sys.setswitchinterval(interval)


def test_two_workers_at_most_and_none_for_wide_families():
    workers, pool = montecarlo._executor(100)
    assert workers == min(2, len(os.sched_getaffinity(0))) and (pool is None) == (workers == 1)
    assert montecarlo._executor(montecarlo.BLOCK // 2 + 1) == (1, None)


class _Broken(Exception):
    pass


class _FailsOnOneBlock(AlternativeCdf):
    """Raises on the block with index `fail_at`; counts its calls."""

    def __init__(self, fail_at):
        self.fail_at = fail_at
        self.calls = itertools.count()

    def quantile(self, u):
        if next(self.calls) == self.fail_at:
            raise _Broken("quantile failed")
        return u


@pytest.mark.parametrize("where", ["third", "last"])
@pytest.mark.parametrize("model", ["FM", "RM"])
def test_a_worker_exception_reaches_the_caller_and_the_next_call_succeeds(model, where):
    m, n = 100, 1 << 14
    t = from_rho(LinearCurve(0.5), m)
    workers, _ = montecarlo._executor(m)
    blocks = -(-n // max(1, montecarlo.BLOCK // (m * workers)))
    F = _FailsOnOneBlock(2 if where == "third" else blocks - 1)
    cfg = _fm(F, m, 70) if model == "FM" else MixtureConfig(model="RM", m=m, pi0=0.7, F=F)
    with pytest.raises(_Broken, match="quantile failed"):
        simulate_fdr(t, m, cfg, n, seed=1)
    done = next(F.calls)
    time.sleep(0.1)
    assert next(F.calls) == done + 1  # no block of the failed call ran after it returned
    assert done <= F.fail_at + 2 * workers  # nor was any block drawn after the failure was seen
    cfg = _fm(IdentityCdf(), m, 70)
    assert simulate_fdr(t, m, cfg, n, seed=1) == simulate_fdr(t, m, cfg, n, seed=1)


def _run(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sudfdr.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_and_exact_calls_start_no_thread():
    out = _run(
        """
        import threading
        before = threading.active_count()
        import sudfdr
        t = sudfdr.from_rho(sudfdr.LinearCurve(0.5), 30)
        cfg = sudfdr.MixtureConfig(model="FM", m=30, m0=21, F=sudfdr.GaussianLocationCdf(1.0))
        sudfdr.fdr_sud(t, 15, cfg)
        print(threading.active_count() - before)
        """
    )
    assert out.split() == ["0"]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_a_process_on_one_cpu_samples_on_the_calling_thread():
    out = _run(
        """
        import os, threading
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        import sudfdr
        t = sudfdr.from_rho(sudfdr.LinearCurve(0.5), 10)
        cfg = sudfdr.MixtureConfig(model="FM", m=10, m0=7, F=sudfdr.GaussianLocationCdf(1.0))
        before = threading.active_count()
        sudfdr.simulate_fdr(t, 5, cfg, 70_000, seed=3)
        print(threading.active_count() - before)
        """
    )
    assert out.split() == ["0"]


def test_a_thread_outliving_the_main_thread_still_samples():
    # once the main thread has returned, the interpreter's shutdown stops
    # every thread pool taking work; the call then works its blocks itself
    out = _run(
        """
        import threading, time
        from concurrent.futures import ThreadPoolExecutor
        import sudfdr
        t = sudfdr.from_rho(sudfdr.LinearCurve(0.5), 10)
        cfg = sudfdr.MixtureConfig(model="FM", m=10, m0=7, F=sudfdr.GaussianLocationCdf(1.0))
        expected = sudfdr.simulate_fdr(t, 5, cfg, 70_000, seed=3)

        def late():
            threading.main_thread().join()
            probe = ThreadPoolExecutor(1)
            for _ in range(1000):
                try:
                    probe.submit(int).result()
                except RuntimeError:  # the pools take no more work
                    break
                time.sleep(0.01)
            else:
                print("the pools still take work")
            print(sudfdr.simulate_fdr(t, 5, cfg, 70_000, seed=3) == expected, flush=True)

        threading.Thread(target=late).start()
        """
    )
    assert out.split() == ["True"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_samples_on_its_own_pool():
    # the child's copy of the parent's pool has no threads; a child that used
    # it would wait forever, so it is killed by an alarm instead
    out = _run(
        """
        import os, signal
        import sudfdr
        t = sudfdr.from_rho(sudfdr.LinearCurve(0.5), 10)
        cfg = sudfdr.MixtureConfig(model="FM", m=10, m0=7, F=sudfdr.GaussianLocationCdf(1.0))
        parent = sudfdr.simulate_fdr(t, 5, cfg, 70_000, seed=3)
        pid = os.fork()
        if pid == 0:
            signal.alarm(60)
            os._exit(0 if sudfdr.simulate_fdr(t, 5, cfg, 70_000, seed=3) == parent else 3)
        print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
        """
    )
    assert out.split() == ["0"]


def test_joint_counts_are_int32_and_equal_the_int64_counts():
    m, n, lam = 100, CHUNK + 5000, 50
    t = from_rho(LinearCurve(0.5), m)
    cfg = MixtureConfig(model="RM", m=m, pi0=0.7, F=GaussianLocationCdf(1.0))
    counts = simulate_joint_counts(t, lam, cfg, n, seed=22)
    wide = np.zeros((m + 1) ** 2, dtype=np.int64)
    for _, khat, v in _outcomes(t, [lam], cfg, n, seed=22):
        np.add.at(wide, khat.astype(np.intp) * (m + 1) + v, 1)
    assert counts.dtype == np.int32
    np.testing.assert_array_equal(counts, wide.reshape(m + 1, m + 1))
