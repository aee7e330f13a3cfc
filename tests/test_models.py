import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from steck_reference import reflected
from sudfdr.exact import fdr_sud
from sudfdr.models import (
    DiracZeroCdf,
    GaussianLocationCdf,
    IdentityCdf,
    MixtureConfig,
    StepAtOneCdf,
    cdf_from_config,
    eval_G,
    mixture_from_config,
    draw_blocks,
    sample,
    sample_families,
    transform_block,
)
from sudfdr.thresholds import LinearCurve, from_rho

# Phi(0.5) from a published high-precision normal table
PHI_HALF = 0.6914624612740131


def test_eval_f_identity():
    assert IdentityCdf()(0.3) == 0.3


def test_eval_f_dirac():
    assert DiracZeroCdf()(0.001) == 1.0
    assert DiracZeroCdf()(0.0) == 1.0


def test_eval_f_gaussian_location():
    F = GaussianLocationCdf(0.5)
    assert F(0.5) == pytest.approx(PHI_HALF, abs=1e-12)
    assert F(0.0) == 0.0 and F(1.0) == 1.0


def test_eval_f_range_check():
    with pytest.raises(ValueError):
        IdentityCdf()(1.2)
    with pytest.raises(ValueError):
        GaussianLocationCdf(1.0)(-0.1)


@pytest.mark.parametrize("F", [IdentityCdf(), GaussianLocationCdf(1.0), DiracZeroCdf(), StepAtOneCdf()], ids=lambda F: F.kind)
def test_eval_f_rejects_nan(F):
    with pytest.raises(ValueError):
        F(float("nan"))
    with pytest.raises(ValueError):
        F(np.array([0.2, np.nan, 0.7]))


def test_gaussian_requires_positive_mu():
    with pytest.raises(ValueError):
        GaussianLocationCdf(0.0)
    with pytest.raises(ValueError):
        GaussianLocationCdf(-1.0)


def test_gaussian_rejects_nan_mu():
    with pytest.raises(ValueError, match="mu must be > 0"):
        GaussianLocationCdf(float("nan"))


def test_eval_g_identity():
    cfg = MixtureConfig(model="RM", m=10, pi0=0.7, F=IdentityCdf())
    assert eval_G(cfg, 0.2) == pytest.approx(0.2, abs=1e-15)


def test_eval_g_dirac():
    cfg = MixtureConfig(model="RM", m=10, pi0=0.5, F=DiracZeroCdf())
    assert eval_G(cfg, 0.4) == pytest.approx(0.7, abs=1e-15)


def test_eval_g_gaussian_composition():
    F = GaussianLocationCdf(1.0)
    cfg = MixtureConfig(model="RM", m=10, pi0=0.7, F=F)
    assert eval_G(cfg, 0.05) == pytest.approx(0.7 * 0.05 + 0.3 * F(0.05), abs=1e-14)


def test_eval_g_rejects_fm():
    cfg = MixtureConfig(model="FM", m=10, m0=7, F=IdentityCdf())
    with pytest.raises(ValueError):
        eval_G(cfg, 0.2)


def test_eval_g_pi0_one_is_identity():
    grid = np.linspace(0.0, 1.0, 21)
    for F in (IdentityCdf(), GaussianLocationCdf(2.0), DiracZeroCdf()):
        cfg = MixtureConfig(model="RM", m=10, pi0=1.0, F=F)
        assert np.allclose(eval_G(cfg, grid), grid, atol=1e-14)


@pytest.mark.parametrize("F", [IdentityCdf(), GaussianLocationCdf(0.5), GaussianLocationCdf(3.0), DiracZeroCdf()])
def test_dominates_uniform_and_concave(F):
    grid = np.linspace(0.0, 1.0, 201)
    vals = np.asarray(F(grid))
    assert np.all(vals >= grid - 1e-12)
    second_diff = np.diff(vals, 2)
    assert np.all(second_diff <= 1e-9)


@pytest.mark.parametrize(
    "F",
    [IdentityCdf(), GaussianLocationCdf(0.5), GaussianLocationCdf(1.0), GaussianLocationCdf(3.0),
     DiracZeroCdf(), StepAtOneCdf()],
    ids=lambda F: f"{F.kind}{getattr(F, 'mu', '')}",
)
def test_quantile_is_generalized_inverse(F):
    u = np.arange(1, 10**4 + 1) / 10**4
    q = F.quantile(u.copy())
    assert np.all(np.diff(q) >= 0.0)
    Fq = np.asarray(F(q))
    assert np.all(Fq >= u - 1e-12)
    if F.kind == "gaussian":
        assert np.max(np.abs(Fq - u)) <= 1e-12
    # the infimum: q(u) lies at or below every grid point x with F(x) >= u
    x = np.linspace(0.0, 1.0, 1001)
    first = x[np.searchsorted(np.asarray(F(x)), u, side="left")]
    assert np.all(q <= first + 1e-12)


@given(st.floats(min_value=1e-6, max_value=1 - 1e-6), st.floats(min_value=0.1, max_value=5.0))
def test_gaussian_cdf_in_range(t, mu):
    v = GaussianLocationCdf(mu)(t)
    assert 0.0 <= v <= 1.0
    assert v >= t - 1e-12


def test_reflection_pairs():
    assert isinstance(reflected(DiracZeroCdf()), StepAtOneCdf)
    assert isinstance(reflected(StepAtOneCdf()), DiracZeroCdf)
    ident = IdentityCdf()
    assert reflected(ident) is ident


def test_reflection_formula_gaussian():
    F = GaussianLocationCdf(1.0)
    R = reflected(F)
    for t in (0.1, 0.45, 0.9):
        assert R(t) == pytest.approx(1.0 - F(1.0 - t), abs=1e-14)


def test_step_at_one_values():
    F = StepAtOneCdf()
    assert not F.continuous
    assert F(0.999) == 0.0 and F(1.0) == 1.0


def test_sample_all_null():
    s = sample(MixtureConfig(model="FM", m=5, m0=5, F=DiracZeroCdf()), seed=3)
    assert s.m0_realized == 5
    assert np.all((s.p >= 0.0) & (s.p < 1.0))


def test_sample_dirac_alternatives_are_zero():
    s = sample(MixtureConfig(model="FM", m=3, m0=1, F=DiracZeroCdf()), seed=11)
    assert s.p[1] == 0.0 and s.p[2] == 0.0
    assert 0.0 <= s.p[0] < 1.0


def test_sample_deterministic():
    cfg = MixtureConfig(model="RM", m=20, pi0=0.6, F=GaussianLocationCdf(1.0))
    a, b = sample(cfg, seed=99), sample(cfg, seed=99)
    assert a.m0_realized == b.m0_realized
    assert np.array_equal(a.p, b.p)


def test_rm_binomial_concentration():
    cfg = MixtureConfig(model="RM", m=10**6, pi0=0.7, F=IdentityCdf())
    s = sample(cfg, seed=1)
    assert abs(s.m0_realized / 10**6 - 0.7) < 0.002


def test_mixture_config_validation():
    with pytest.raises(ValueError):
        MixtureConfig(model="FM", m=10, m0=11, F=IdentityCdf())
    with pytest.raises(ValueError):
        MixtureConfig(model="RM", m=10, pi0=1.5, F=IdentityCdf())
    with pytest.raises(ValueError):
        MixtureConfig(model="XX", m=10, m0=5, F=IdentityCdf())


@pytest.mark.parametrize(
    "kwargs, key",
    [
        (dict(model="FM", m=4, m0=1.5), "m0"),
        (dict(model="FM", m=4, m0=True), "m0"),
        (dict(model="FM", m=4.0, m0=2), "m"),
        (dict(model="RM", m=10.5, pi0=0.5), "m"),
    ],
    ids=["FM-m0", "FM-m0-bool", "FM-m", "RM-m"],
)
def test_mixture_config_rejects_non_integer_counts(kwargs, key):
    with pytest.raises(ValueError, match=f"{key} must be an integer"):
        MixtureConfig(F=IdentityCdf(), **kwargs)


def test_numpy_integer_counts_give_a_json_config():
    cfg = MixtureConfig(model="FM", m=np.int64(10), m0=np.int64(7), F=IdentityCdf())
    assert json.loads(json.dumps(cfg.to_config())) == {"model": "FM", "m": 10, "m0": 7, "F": {"kind": "identity"}}
    assert type(cfg.m) is int and type(cfg.m0) is int
    rm = MixtureConfig(model="RM", m=np.int32(10), pi0=0.7, F=IdentityCdf())
    assert json.dumps(rm.to_config()) == '{"model": "RM", "m": 10, "F": {"kind": "identity"}, "pi0": 0.7}'
    for lam in (5, np.int64(5)):
        res = fdr_sud(from_rho(LinearCurve(0.5), 10), lam, cfg)
        assert json.loads(json.dumps(res.config)) == {**cfg.to_config(), "lambda": 5}
        assert type(res.lam) is int


def test_config_roundtrips():
    cfg = mixture_from_config({"model": "FM", "m": 10, "m0": 7, "F": {"kind": "gaussian", "mu": 1.0}})
    assert cfg.to_config() == {"model": "FM", "m": 10, "m0": 7, "F": {"kind": "gaussian", "mu": 1.0}}
    assert cdf_from_config({"kind": "identity"}).kind == "identity"
    with pytest.raises(ValueError):
        cdf_from_config({"kind": "cauchy"})
    with pytest.raises(ValueError):
        mixture_from_config({"model": "ZZ", "m": 10, "F": {"kind": "identity"}})


@pytest.mark.parametrize(
    "F",
    [IdentityCdf(), GaussianLocationCdf(1.0), DiracZeroCdf(), StepAtOneCdf()],
    ids=lambda F: F.kind,
)
@pytest.mark.parametrize("model", ["FM", "RM"])
@pytest.mark.parametrize("rows", [1, 7, 64, 300])
def test_blocked_sampling_equals_one_draw(F, model, rows):
    # 300 is not a multiple of 7 or 64, and rows = 1 is the one-row block
    cfg = (
        MixtureConfig(model="FM", m=10, m0=6, F=F)
        if model == "FM"
        else MixtureConfig(model="RM", m=10, pi0=0.6, F=F)
    )
    size = 300
    p, null_mask = sample_families(np.random.default_rng(5), cfg, size)
    blocks = [(transform_block(cfg, u, mask), mask) for u, mask in draw_blocks(np.random.default_rng(5), cfg, size, rows)]
    assert [len(b) for b, _ in blocks] == [min(rows, size - s) for s in range(0, size, rows)]
    assert np.concatenate([b for b, _ in blocks]).tobytes() == p.tobytes()
    np.testing.assert_array_equal(np.concatenate([mask for _, mask in blocks]), null_mask)


def test_sampling_zero_families_yields_one_empty_block():
    cfg = MixtureConfig(model="RM", m=10, pi0=0.6, F=IdentityCdf())
    p, null_mask = sample_families(np.random.default_rng(0), cfg, 0)
    assert p.shape == null_mask.shape == (0, 10)
