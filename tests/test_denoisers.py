"""Separable posterior denoisers against brute-force integration oracles."""

import dataclasses

import numpy as np
import pytest

from ibsmamp import denoisers
from ibsmamp.denoisers import (DenoiserResult, denoise_bernoulli_gaussian,
                               denoise_qpsk)
from ibsmamp.estimators import MampConfig, run_cd_mamp
from ibsmamp.ibs import IbsSpec, build_ibs_transform
from ibsmamp.rng import generator
from ibsmamp.scenarios import (BernoulliGaussianPrior, CirculantOperator, QpskPrior,
                               gen_multipath_channel, gen_sensing_diagonal,
                               simulate_observation)
from ibsmamp.selftest import check_denoisers


def bg_posterior_by_quadrature(r: complex, v: float, rho: float,
                               sigma_s2: float) -> tuple[complex, float]:
    """Grid-integrate the spike-and-Gaussian posterior in the complex plane."""
    half = 6.0 * np.sqrt(sigma_s2 / 2.0)
    axis = np.linspace(-half, half, 801)
    re, im = np.meshgrid(axis, axis)
    s = re + 1j * im
    prior = np.exp(-np.abs(s) ** 2 / sigma_s2) / (np.pi * sigma_s2)
    lik = np.exp(-np.abs(r - s) ** 2 / v)
    cell = (axis[1] - axis[0]) ** 2
    w_gauss = rho * np.sum(prior * lik) * cell
    w_spike = (1.0 - rho) * np.exp(-abs(r) ** 2 / v)
    mean = rho * np.sum(s * prior * lik) * cell / (w_gauss + w_spike)
    second = rho * np.sum(np.abs(s) ** 2 * prior * lik) * cell / (w_gauss + w_spike)
    return mean, second - abs(mean) ** 2


def test_bg_matches_quadrature_oracle():
    v, rho, sigma_s2 = 0.4, 0.3, 2.0
    r = np.array([0.2 + 0.1j, -1.5 + 0.7j, 2.4 - 0.3j, 0.0 + 0j])
    out = denoise_bernoulli_gaussian(r, v, rho, sigma_s2)
    means, variances = [], []
    for ri in r:
        m, var = bg_posterior_by_quadrature(complex(ri), v, rho, sigma_s2)
        means.append(m)
        variances.append(var)
    assert np.max(np.abs(out.posterior_mean - np.array(means))) < 1e-6
    assert abs(np.mean(out.coord_var) - np.mean(variances)) < 1e-6


def test_bg_dense_case_is_wiener():
    # rho = 1 removes the spike: linear shrinkage with constant variance.
    v, sigma_s2 = 0.5, 2.0
    r = np.array([1.0 + 1j, -0.3j, 4.0])
    out = denoise_bernoulli_gaussian(r, v, 1.0, sigma_s2)
    c = sigma_s2 / (sigma_s2 + v)
    assert np.max(np.abs(out.posterior_mean - c * r)) < 1e-14
    assert abs(np.mean(out.coord_var) - c * v) < 1e-14
    mid = denoise_bernoulli_gaussian(np.array([0.0 + 0j]), 1.0, 1.0, 1.0)
    assert abs(np.mean(mid.coord_var) - 0.5) < 1e-14


def test_bg_extremes_keep_finite_outputs():
    out = denoise_bernoulli_gaussian(np.array([100.0 + 0j, -100.0j]), 1e-6,
                                     0.05, 20.0)
    assert np.all(np.isfinite(out.posterior_mean))
    assert np.isfinite(np.mean(out.coord_var))
    tiny = denoise_bernoulli_gaussian(np.array([1e-12 + 0j]), 5.0, 0.05, 20.0)
    assert np.all(np.isfinite(tiny.posterior_mean))


def test_bg_shrinks_toward_zero_for_weak_observations():
    v, rho, sigma_s2 = 1.0, 0.1, 10.0
    weak = denoise_bernoulli_gaussian(np.array([0.05 + 0j]), v, rho, sigma_s2)
    strong = denoise_bernoulli_gaussian(np.array([5.0 + 0j]), v, rho, sigma_s2)
    assert abs(weak.posterior_mean[0]) < 0.05
    assert abs(strong.posterior_mean[0]) > 4.0


def test_qpsk_matches_four_point_oracle():
    ok, detail = check_denoisers(r=(0.3 - 0.1j, 1.2 + 0.8j, -2.0 + 0.4j, 0.0), v=0.6)
    assert ok, detail


def test_qpsk_saturates_at_high_snr():
    out = denoise_qpsk(np.array([10.0 + 10.0j]), 0.01)
    want = (1.0 + 1.0j) / np.sqrt(2.0)
    assert abs(out.posterior_mean[0] - want) < 1e-12
    assert np.mean(out.coord_var) < 1e-12


def test_denoiser_input_validation():
    r = np.array([0.1 + 0j])
    for bad_v in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            denoise_qpsk(r, bad_v)
    with pytest.raises(ValueError):
        denoise_bernoulli_gaussian(r, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        denoise_bernoulli_gaussian(r, 1.0, 1.2, 1.0)
    with pytest.raises(ValueError):
        denoise_bernoulli_gaussian(r, 1.0, 0.5, -2.0)
    with pytest.raises(ValueError):
        denoise_qpsk(np.zeros((2, 2)), 1.0)
    with pytest.raises(ValueError):
        denoise_qpsk(np.zeros(0), 1.0)


def test_result_is_frozen():
    out = denoise_qpsk(np.array([0.1 + 0j]), 1.0)
    assert isinstance(out, DenoiserResult)
    assert [f.name for f in dataclasses.fields(out)] == ["posterior_mean", "coord_var"]
    with pytest.raises(AttributeError):
        out.coord_var = np.zeros(1)


def test_per_coordinate_variance_matches_scalar_calls():
    rng = generator(7)
    r = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    v = np.repeat([0.05, 0.4, 2.0, 9.0], 16)
    for denoise in (lambda x, w: denoise_bernoulli_gaussian(x, w, 0.2, 5.0),
                    denoise_qpsk):
        out = denoise(r, v)
        assert out.coord_var.shape == r.shape
        for block in range(4):
            part = slice(16 * block, 16 * (block + 1))
            want = denoise(r[part], float(v[16 * block]))
            assert np.max(np.abs(out.posterior_mean[part]
                                 - want.posterior_mean)) < 1e-15
            assert np.max(np.abs(out.coord_var[part] - want.coord_var)) < 1e-15
    with pytest.raises(ValueError):
        denoise_qpsk(r, np.ones(63))
    with pytest.raises(ValueError):
        denoise_qpsk(r, np.r_[np.ones(63), 0.0])


def repeat_then_denoise_bg(r, v, rho, sigma_s2):
    """Bernoulli-Gaussian posterior with every term computed per coordinate:
    a block variance is first repeated over its block."""
    if np.ndim(v):
        v = np.repeat(v, r.size // np.size(v))
    c = sigma_s2 / (sigma_s2 + v)
    beta = c / v
    abs2 = np.abs(r) ** 2
    if rho < 1.0:
        log_odds = np.log((1.0 - rho) / rho) + np.log((sigma_s2 + v) / v) - beta * abs2
        pi = 1.0 / (1.0 + np.exp(np.minimum(log_odds, 700.0)))
    else:
        pi = np.ones_like(abs2)
    return DenoiserResult(posterior_mean=pi * c * r,
                          coord_var=pi * c * v + pi * (1.0 - pi) * c * c * abs2)


def repeat_then_denoise_qpsk(r, v):
    """QPSK posterior with a block variance first repeated over its block."""
    if np.ndim(v):
        v = np.repeat(v, r.size // np.size(v))
    t_re = np.tanh(np.sqrt(2.0) * r.real / v)
    t_im = np.tanh(np.sqrt(2.0) * r.imag / v)
    mean = (1.0 / np.sqrt(2.0)) * (t_re + 1j * t_im)
    return DenoiserResult(posterior_mean=mean, coord_var=1.0 - np.abs(mean) ** 2)


BLOCK_DENOISERS = {
    "bg-sparse": (lambda r, v: denoise_bernoulli_gaussian(r, v, 0.1, 10.0),
                  lambda r, v: repeat_then_denoise_bg(r, v, 0.1, 10.0)),
    "bg-dense": (lambda r, v: denoise_bernoulli_gaussian(r, v, 1.0, 2.0),
                 lambda r, v: repeat_then_denoise_bg(r, v, 1.0, 2.0)),
    "qpsk": (denoise_qpsk, repeat_then_denoise_qpsk),
}


def assert_bitwise_equal(got: DenoiserResult, want: DenoiserResult):
    for name in ("posterior_mean", "coord_var"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape, name
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), name


@pytest.mark.parametrize("blocks", [1, 4, 32])
@pytest.mark.parametrize("kind", sorted(BLOCK_DENOISERS))
def test_block_variances_match_repeat_then_denoise_bitwise(kind, blocks):
    denoise, reference = BLOCK_DENOISERS[kind]
    rng = generator(21)
    n = 256
    scale = 10.0 ** rng.uniform(-7.0, 1.0, n)
    r = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * scale
    values = np.geomspace(1e-13, 10.0, 8 if blocks == 1 else blocks)
    # One block is a scalar variance; more blocks get the values shuffled.
    cases = list(values) if blocks == 1 else [rng.permutation(values)]
    for v in cases:
        got = denoise(r, v)
        assert got.posterior_mean.shape == r.shape
        assert_bitwise_equal(got, reference(r, v))


def test_block_variances_must_divide_the_observation():
    r = np.ones(12, dtype=complex)
    for denoise in (denoise_qpsk, lambda x, w: denoise_bernoulli_gaussian(x, w, 0.2, 5.0)):
        for bad in (np.ones(5), np.ones(24), np.ones(0), np.ones((3, 1))):
            with pytest.raises(ValueError, match="one per block"):
                denoise(r, bad)
        for blocks in (1, 2, 3, 12):
            assert denoise(r, np.ones(blocks)).coord_var.shape == r.shape


def record_shapes(monkeypatch, name, reference):
    """Replace denoisers.<name> by the repeat-then-denoise reference and
    return the list of variance shapes it is called with."""
    shapes = []

    def patched(r, v, *args):
        shapes.append(np.shape(v))
        return reference(r, v, *args)

    monkeypatch.setattr(denoisers, name, patched)
    return shapes


def assert_same_run(a, b):
    assert np.array_equal(a.s_hat.view(np.uint64), b.s_hat.view(np.uint64))
    assert a.points == b.points
    assert a.stop_reason == b.stop_reason


def test_block_diagonal_run_matches_repeat_then_denoise(monkeypatch):
    n, m, n_s = 512, 256, 32
    A = gen_sensing_diagonal(m, n, 10.0)
    Xi = build_ibs_transform(IbsSpec(n=n, n_s=n_s, m=m, variant="BW_IBS",
                                     block_seed_base=31, whole_seed=32))
    prior = BernoulliGaussianPrior(rho=0.1)
    instance = simulate_observation(A, Xi, prior.sample(n, generator(3, 2)), 30.0, 3)
    cfg = MampConfig(max_iters=24)
    run = run_cd_mamp(instance, Xi, prior, cfg)
    shapes = record_shapes(monkeypatch, "denoise_bernoulli_gaussian",
                           repeat_then_denoise_bg)
    want = run_cd_mamp(instance, Xi, prior, cfg)
    # The block variances reach the denoiser as they are, one per block.
    assert shapes == [(n // n_s,)] * 24
    assert_same_run(run, want)


def test_circulant_qpsk_run_matches_repeat_then_denoise(monkeypatch):
    n = 256
    A = gen_multipath_channel(n, 4, seed=5)
    assert isinstance(A, CirculantOperator)
    Xi = build_ibs_transform(IbsSpec(n=n, n_s=32, m=n, variant="BW_IBS",
                                     direction="kernel-adjoint",
                                     block_seed_base=41, whole_seed=42))
    prior = QpskPrior()
    instance = simulate_observation(A, Xi, prior.sample(n, generator(5, 2)), 10.0, 5)
    cfg = MampConfig(max_iters=12)
    run = run_cd_mamp(instance, Xi, prior, cfg)
    shapes = record_shapes(monkeypatch, "denoise_qpsk", repeat_then_denoise_qpsk)
    want = run_cd_mamp(instance, Xi, prior, cfg)
    assert shapes and set(shapes) == {()}
    assert_same_run(run, want)
