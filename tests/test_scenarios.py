"""Channels, priors, and observation synthesis."""

import numpy as np
import pytest

from ibsmamp.errors import ConfigurationError
from ibsmamp.kernels import fft_operator
from ibsmamp.operators import materialize_dense
from ibsmamp.rng import generator
from ibsmamp.scenarios import (STREAM_NOISE, BernoulliGaussianPrior,
                               CirculantOperator, QpskPrior,
                               TimeVaryingChannelOperator, ber_qpsk,
                               doppler_preset_4ghz_100kmh_15khz,
                               gen_multipath_channel, gen_sensing_diagonal,
                               mse, mse_db, simulate_observation)


def circulant_dense(n, delays, gains):
    M = np.zeros((n, n), dtype=np.complex128)
    for d, g in zip(delays, gains):
        for i in range(n):
            M[i, (i - d) % n] += g
    return M


def test_doppler_preset_value():
    v, f_c, c, df = 100.0e3 / 3600.0, 4.0e9, 299792458.0, 15.0e3
    want = 2.0 * np.pi * v * f_c / c / df
    assert abs(doppler_preset_4ghz_100kmh_15khz() - want) < 1e-12
    assert abs(want - 0.155248) < 1e-4


def test_sensing_diagonal_profile_law():
    m, n, kappa = 64, 128, 10.0
    op = gen_sensing_diagonal(m, n, kappa)
    assert op.shape == (m, m)
    a = op.weights
    assert a.shape == (m,) and a.dtype == np.float64
    assert abs(np.sum(a * a) - n) < 1e-9
    ratios = a[:-1] / a[1:]
    assert np.allclose(ratios, kappa ** (1.0 / m), atol=1e-12)
    assert np.all(np.diff(a) < 0)


def test_sensing_diagonal_validation():
    with pytest.raises(ConfigurationError):
        gen_sensing_diagonal(0, 8, 10.0)
    with pytest.raises(ConfigurationError):
        gen_sensing_diagonal(9, 8, 10.0)
    with pytest.raises(ConfigurationError):
        gen_sensing_diagonal(4, 8, 0.5)


def test_circulant_matches_dense_oracle():
    n = 16
    delays = np.array([0, 3, 7])
    gains = np.array([1.0 + 0.5j, -0.25, 0.1j])
    op = CirculantOperator(n, delays, gains)
    M = circulant_dense(n, delays, gains)
    assert np.max(np.abs(materialize_dense(op) - M)) < 1e-12
    rng = generator(4)
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert np.max(np.abs(op.apply_adjoint(u) - M.conj().T @ u)) < 1e-12


def test_circulant_frequency_response_diagonalizes():
    n = 8
    op = CirculantOperator(n, np.array([0, 2]), np.array([1.0, 0.5j]))
    rng = generator(5)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    via_dft = np.fft.ifft(op.freq_response * np.fft.fft(v))
    assert np.max(np.abs(op.apply(v) - via_dft)) < 1e-12


def test_circulant_solve_shifted_matches_dense_solve():
    n = 16
    op = CirculantOperator(n, np.array([0, 1, 5]), np.array([0.9, 0.3j, -0.2]))
    M = circulant_dense(n, op.delays, op.gains)
    rng = generator(6)
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v_scale, sigma2 = 0.7, 0.05
    want = np.linalg.solve(v_scale * M @ M.conj().T + sigma2 * np.eye(n), z)
    assert np.max(np.abs(op.solve_shifted(v_scale, sigma2, z) - want)) < 1e-10


def test_channel_tap_validation():
    with pytest.raises(ConfigurationError):
        CirculantOperator(8, np.array([0, 0]), np.array([1.0, 1.0]))
    with pytest.raises(ConfigurationError):
        CirculantOperator(8, np.array([0, 8]), np.array([1.0, 1.0]))
    with pytest.raises(ConfigurationError):
        CirculantOperator(8, np.array([0, 1]), np.array([1.0, 0.0]))
    with pytest.raises(ConfigurationError):
        CirculantOperator(8, np.array([0, 1]), np.array([1.0]))
    with pytest.raises(ConfigurationError):
        TimeVaryingChannelOperator(8, np.array([0]), np.ones((2, 8), complex))


def test_time_varying_channel_matches_dense_oracle():
    n = 12
    delays = np.array([0, 4])
    rng = generator(7)
    tracks = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    op = TimeVaryingChannelOperator(n, delays, tracks)
    M = np.zeros((n, n), dtype=np.complex128)
    for k, d in enumerate(delays):
        for i in range(n):
            M[i, (i - d) % n] += tracks[k, i]
    assert np.max(np.abs(materialize_dense(op) - M)) < 1e-12
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert np.max(np.abs(op.apply_adjoint(u) - M.conj().T @ u)) < 1e-12


def roll_sum_circulant(v, delays, gains, adjoint):
    """Reference formulation of the static channel: one np.roll per tap."""
    out = np.zeros_like(v, dtype=np.complex128)
    for d, g in zip(delays, gains):
        out += np.conj(g) * np.roll(v, -d) if adjoint else g * np.roll(v, d)
    return out


def roll_sum_time_varying(v, delays, tracks, adjoint):
    """Reference formulation of the drifting channel: one np.roll per tap."""
    out = np.zeros_like(v, dtype=np.complex128)
    for d, track in zip(delays, tracks):
        out += np.roll(np.conj(track) * v, -d) if adjoint else track * np.roll(v, d)
    return out


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("n, delays", [(16, [0]), (16, [5]), (16, [0, 3, 7]),
                                       (32, [1, 31]), (1024, [0, 17, 400, 1023])])
def test_channel_applies_are_bit_identical_to_rolled_sums(n, delays):
    rng = generator(n + len(delays))
    delays = np.array(delays)
    gains = rng.standard_normal(delays.size) + 1j * rng.standard_normal(delays.size)
    tracks = rng.standard_normal((delays.size, n)) + 1j * rng.standard_normal((delays.size, n))
    circ = CirculantOperator(n, delays, gains)
    tv = TimeVaryingChannelOperator(n, delays, tracks)
    for v in (rng.standard_normal(n) + 1j * rng.standard_normal(n), rng.standard_normal(n)):
        assert_same_bits(circ.apply(v), roll_sum_circulant(v, delays, gains, False))
        assert_same_bits(circ.apply_adjoint(v), roll_sum_circulant(v, delays, gains, True))
        assert_same_bits(tv.apply(v), roll_sum_time_varying(v, delays, tracks, False))
        assert_same_bits(tv.apply_adjoint(v), roll_sum_time_varying(v, delays, tracks, True))


@pytest.mark.parametrize("n, delays", [(1, [0]), (16, [0, 5, 14]), (8, [1, 7]),
                                       (1024, None)])
def test_time_varying_gram_from_taps_matches_dense_product(n, delays):
    # delays=None: the default 4-tap Doppler channel.  The others put tap
    # delay differences across the wrap at n.
    if delays is None:
        op = gen_multipath_channel(n, 4, doppler_preset_4ghz_100kmh_15khz(), seed=3)
    else:
        rng = generator(n + len(delays))
        tracks = rng.standard_normal((len(delays), n)) \
            + 1j * rng.standard_normal((len(delays), n))
        op = TimeVaryingChannelOperator(n, np.array(delays), tracks)
    dense = materialize_dense(op)
    want = dense @ dense.conj().T
    got = op.dense_gram()
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    lam_got, lam_want = np.linalg.eigvalsh(got), np.linalg.eigvalsh(want)
    assert np.max(np.abs(lam_got - lam_want)) <= 1e-13 * lam_want.max()


def test_channels_freeze_copies_not_the_callers_arrays():
    delays = np.array([0, 3], dtype=np.int64)
    gains = np.array([1.0, 0.5j])
    tracks = np.ones((2, 8), dtype=np.complex128)
    circ = CirculantOperator(8, delays, gains)
    tv = TimeVaryingChannelOperator(8, delays, tracks)
    for arr in (delays, gains, tracks):
        assert arr.flags.writeable
    delays[1] = 5
    gains[1] = 2.0
    tracks[1] = 3.0
    assert list(circ.delays) == [0, 3] and circ.gains[1] == 0.5j
    assert list(tv.delays) == [0, 3] and np.all(tv.gain_tracks[1] == 1.0)
    for arr in (circ.delays, circ.gains, tv.delays, tv.gain_tracks):
        assert not arr.flags.writeable


def test_multipath_channel_static_draw():
    ch = gen_multipath_channel(64, 4, seed=3)
    assert isinstance(ch, CirculantOperator)
    assert ch.delays[0] == 0
    assert np.unique(ch.delays).size == 4
    assert abs(np.linalg.norm(ch.gains) - 1.0) < 1e-12
    again = gen_multipath_channel(64, 4, seed=3)
    assert np.array_equal(ch.delays, again.delays)
    assert np.array_equal(ch.gains, again.gains)
    assert not np.array_equal(ch.gains, gen_multipath_channel(64, 4, seed=4).gains)


def test_multipath_channel_doppler_drift_is_phase_only_and_bounded():
    spread = 0.2
    op = gen_multipath_channel(64, 3, doppler_spread=spread, seed=9)
    assert isinstance(op, TimeVaryingChannelOperator)
    # The static draw of the same seed has the same delays and tap gains.
    ch = gen_multipath_channel(64, 3, seed=9)
    assert np.array_equal(op.delays, ch.delays)
    mags = np.abs(op.gain_tracks)
    assert np.max(np.abs(mags - np.abs(ch.gains)[:, None])) < 1e-12
    drift = np.angle(op.gain_tracks / ch.gains[:, None])
    assert np.max(np.abs(drift)) <= spread + 1e-12
    # Per-sample total tap power stays at the static value.
    assert np.max(np.abs((mags ** 2).sum(axis=0) - np.sum(np.abs(ch.gains) ** 2))) < 1e-12


def test_multipath_channel_validation():
    with pytest.raises(ConfigurationError):
        gen_multipath_channel(8, 0)
    with pytest.raises(ConfigurationError):
        gen_multipath_channel(8, 9)
    with pytest.raises(ConfigurationError):
        gen_multipath_channel(8, 2, doppler_spread=-0.1)


def test_bernoulli_gaussian_prior_stats():
    prior = BernoulliGaussianPrior(rho=0.1)
    assert prior.sigma_s2 == 10.0
    assert prior.power == 1.0
    s = prior.sample(200000, generator(1))
    frac = np.count_nonzero(s) / s.size
    assert abs(frac - 0.1) < 0.005
    assert abs(np.mean(np.abs(s) ** 2) - 1.0) < 0.02
    nz = s[s != 0]
    assert abs(np.mean(np.abs(nz) ** 2) - 10.0) < 0.2


def test_bernoulli_gaussian_prior_validation():
    with pytest.raises(ConfigurationError):
        BernoulliGaussianPrior(rho=0.0)
    with pytest.raises(ConfigurationError):
        BernoulliGaussianPrior(rho=1.5)
    with pytest.raises(ConfigurationError):
        BernoulliGaussianPrior(rho=0.5, sigma_s2=-1.0)


def test_qpsk_prior_constellation():
    prior = QpskPrior()
    assert prior.power == 1.0
    s = prior.sample(4096, generator(2))
    assert np.max(np.abs(np.abs(s) - 1.0)) < 1e-12
    points = set(np.round(s * np.sqrt(2.0), 6))
    assert points == {complex(a, b) for a in (-1, 1) for b in (-1, 1)}


def test_priors_expose_matching_denoisers():
    r = np.array([0.3 + 0.1j, -1.2j])
    bg = BernoulliGaussianPrior(rho=0.2)
    out = bg.denoise(r, 0.5)
    assert out.posterior_mean.shape == r.shape
    out = QpskPrior().denoise(r, 0.5)
    assert out.posterior_mean.shape == r.shape


def test_simulate_observation_noiseless_and_dims():
    n, m = 16, 8
    F = fft_operator(n)
    diag = gen_sensing_diagonal(n, n, 4.0)
    s = QpskPrior().sample(n, generator(3))
    inst = simulate_observation(diag, F, s, None, seed=5)
    assert inst.noise_var == 0.0
    assert np.array_equal(inst.y, diag.apply(F.apply(s)))
    with pytest.raises(ValueError):
        simulate_observation(gen_sensing_diagonal(m, n, 4.0), F, s, 20.0, 5)
    with pytest.raises(ValueError):
        simulate_observation(diag, F, s[: n - 2], 20.0, 5)


def test_simulate_observation_noise_is_seeded_and_scaled():
    n = 4096
    F = fft_operator(n)
    diag = gen_sensing_diagonal(n, n, 1.0)
    s = QpskPrior().sample(n, generator(4))
    snr_db = 7.0
    a = simulate_observation(diag, F, s, snr_db, seed=6)
    b = simulate_observation(diag, F, s, snr_db, seed=6)
    c = simulate_observation(diag, F, s, snr_db, seed=7)
    assert np.array_equal(a.y, b.y)
    assert not np.array_equal(a.y, c.y)
    assert abs(a.noise_var - 10.0 ** (-snr_db / 10.0)) < 1e-15
    clean = diag.apply(F.apply(s))
    measured = np.mean(np.abs(a.y - clean) ** 2)
    assert abs(measured / a.noise_var - 1.0) < 0.1
    # The draw comes from the dedicated noise stream of the trial seed.
    rng = generator(6, STREAM_NOISE)
    want = (rng.normal(size=n) + 1j * rng.normal(size=n)) * np.sqrt(a.noise_var / 2.0)
    assert np.array_equal(a.y, clean + want)


def test_error_metrics():
    s = np.array([1.0 + 1j, -1.0 + 1j]) / np.sqrt(2.0)
    hit = s.copy()
    assert mse(hit, s) == 0.0
    assert mse_db(0.0) == float("-inf")
    assert abs(mse_db(0.01) + 20.0) < 1e-12
    off = np.array([1.0 + 1j, 1.0 + 1j]) / np.sqrt(2.0)
    assert abs(mse(off, s) - np.mean(np.abs(off - s) ** 2)) < 1e-15
    # One wrong bit out of four.
    assert ber_qpsk(off, s) == 0.25
    with pytest.raises(ValueError):
        mse(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        ber_qpsk(np.zeros(3), np.zeros(4))
