"""The scalar-variance lane against copies of the per-block code it replaced.

A scalar variance is the L = 1 case of the per-block contract.  The lane
computes it on floats; these tests hold it to the bits of the array code,
run by run and function by function.
"""

import math

import numpy as np
import pytest

from ibsmamp import denoisers, estimators, memory
from ibsmamp.denoisers import DenoiserResult, denoise_bernoulli_gaussian, denoise_qpsk
from ibsmamp.estimators import (MampConfig, MampState, _EPS_MIN, _VARIANCE_FLOOR, mle_step,
                                nle_orthogonalize, run_cd_mamp)
from ibsmamp.ibs import IbsSpec, build_ibs_transform
from ibsmamp.operators import DiagonalOperator
from ibsmamp.rng import generator
from ibsmamp.scenarios import (BernoulliGaussianPrior, CirculantOperator, QpskPrior,
                               TimeVaryingChannelOperator, doppler_preset_4ghz_100kmh_15khz,
                               gen_multipath_channel, gen_sensing_diagonal, mse,
                               simulate_observation)
from test_estimators import identity


# Reference copies: every variance through one-element arrays.

def ref_check_inputs(r, v):
    if np.any(np.asarray(v) <= 0.0) or not np.all(np.isfinite(v)):
        raise ValueError(f"noise variance must be positive and finite, got {v}")
    r = np.asarray(r)
    if r.ndim != 1 or r.size == 0:
        raise ValueError("observation must be a non-empty 1-d array")
    r = r.astype(np.complex128, copy=False)
    if np.ndim(v) == 0:
        return r, v
    if np.ndim(v) != 1 or np.size(v) == 0 or r.size % np.size(v):
        raise ValueError("bad variance shape")
    v = np.asarray(v)
    return r.reshape(v.size, -1), v[:, None]


def ref_denoise_qpsk(r, v):
    r, v = ref_check_inputs(r, v)
    b = 1.0 / np.sqrt(2.0)
    t_re = np.tanh(np.sqrt(2.0) * r.real / v)
    t_im = np.tanh(np.sqrt(2.0) * r.imag / v)
    mean = b * (t_re + 1j * t_im)
    var = 1.0 - np.abs(mean) ** 2
    return DenoiserResult(posterior_mean=mean.ravel(), coord_var=var.ravel())


def ref_nle_orthogonalize(den, r, v_in):
    v = np.reshape(v_in, -1)
    pv = np.maximum(den.coord_var.reshape(v.size, -1).mean(axis=1), _VARIANCE_FLOOR)
    stalled = pv >= v
    p = np.where(stalled, 0.0, pv / v)[:, None]
    rows = r.reshape(v.size, -1)
    s_next = np.where(stalled[:, None], rows,
                      (den.posterior_mean.reshape(rows.shape) - p * rows) / (1.0 - p))
    v_phi = np.where(stalled, v, np.maximum(pv * v / np.where(stalled, 1.0, v - pv),
                                            _VARIANCE_FLOOR))
    if np.ndim(v_in) == 0:
        v_phi = float(v_phi[0])
    return s_next.reshape(r.shape), v_phi, bool(stalled.any())


def ref_cross_cov(gram, measure_dim, sigma2, trace_gram):
    k = len(gram)
    V = (gram - measure_dim * sigma2) / trace_gram
    lam, vecs = np.linalg.eigh(V)
    V = (vecs * np.maximum(lam, 0.0)) @ vecs.T
    V[np.diag_indices(k)] = np.maximum(V.diagonal(), _VARIANCE_FLOOR)
    return V


def ref_damping_update(candidates, V):
    """Summing raw twice and recomputing zeta^T V zeta for its caller."""
    k = candidates.shape[0]
    ones = np.ones(k)
    ridge = 1e-8 * max(np.trace(V), 0.0) / k
    try:
        raw = np.linalg.solve(V + ridge * np.eye(k), ones)
    except np.linalg.LinAlgError:
        raw = None
    best = int(np.argmin(V.diagonal()))
    zeta = None
    if raw is not None and abs(raw.sum()) > _EPS_MIN:
        zeta = raw / raw.sum()
        if zeta @ V @ zeta > V[best, best]:
            zeta = None
    if zeta is None:
        zeta = np.zeros(k)
        zeta[best] = 1.0
    return zeta, zeta @ candidates, float(zeta @ V @ zeta)


def ref_tap_sum(v, taps):
    n = v.shape[0]
    out = np.zeros_like(v, dtype=np.complex128)
    for s, g in taps:
        w = g * v
        out[s:] += w[:n - s]
        out[:s] += w[n - s:]
    return out


def ref_channel_apply(op, v, adjoint):
    """``ref_tap_sum`` on the channel's taps: each gain or track times v,
    shifted by d; the adjoint's conjugates shifted by -d.  A drifting
    channel's forward gains are its tracks rolled by -d, so that slot i
    gets track[i] * v[i - d]."""
    n, delays = op.rows, op.delays.tolist()
    gains = op.gains if isinstance(op, CirculantOperator) else op.gain_tracks
    if adjoint:
        return ref_tap_sum(v, [(-d % n, np.conj(g)) for d, g in zip(delays, gains)])
    if isinstance(op, TimeVaryingChannelOperator):
        gains = [np.roll(g, -d) for d, g in zip(delays, gains)]
    return ref_tap_sum(v, [(d % n, g) for d, g in zip(delays, gains)])


def ref_mse(s_hat, s_true):
    return float(np.mean(np.abs(s_hat - s_true) ** 2))


def ref_v_gamma(state, r, forward):
    """mle_step's scalar variance through np.linalg.norm, from its r_t."""
    fit = state.y - forward(r)
    v_gamma = (np.linalg.norm(fit) ** 2 - state.measure_dim * state.noise_var) \
        / state.trace_gram
    return max(float(v_gamma), _VARIANCE_FLOOR)


def system(kind):
    """(instance, Xi, prior, cfg) of a small system whose runs keep one variance."""
    if kind == "cs-full":
        n, m = 256, 128
        A = gen_sensing_diagonal(m, n, 10.0)
        prior = BernoulliGaussianPrior(rho=0.1)
        Xi = build_ibs_transform(IbsSpec(n=n, n_s=n, m=m, variant="BW_IBS",
                                         block_seed_base=11, whole_seed=12))
        s = prior.sample(n, generator(9, 2))
        cfg = MampConfig(max_iters=40, damping_window=5)
        return simulate_observation(A, Xi, s, 30.0, seed=9), Xi, prior, cfg
    n, prior = 128, QpskPrior()
    if kind == "doppler":
        A = gen_multipath_channel(n, 3, doppler_preset_4ghz_100kmh_15khz(), seed=4)
        base, snr_db = "FFT", 8.0
    else:
        A = gen_multipath_channel(n, 4, seed=3)
        base, snr_db = kind.removeprefix("circulant-"), 10.0
    Xi = build_ibs_transform(IbsSpec(n=n, n_s=16, m=n, variant="BW_IBS", base=base,
                                     direction="kernel-adjoint", whole_seed=7))
    s = prior.sample(n, generator(5, 2))
    cfg = MampConfig(max_iters=32, damping_window=3)
    return simulate_observation(A, Xi, s, snr_db, seed=5), Xi, prior, cfg


@pytest.mark.parametrize("kind", ("circulant-FFT", "circulant-FWHT", "doppler", "cs-full"))
def test_scalar_lane_runs_match_the_array_code_to_the_bit(monkeypatch, kind):
    instance, Xi, prior, cfg = system(kind)
    v_gammas = []

    def checked_step(state, theta_t):
        # The inlined norm of mle_step against np.linalg.norm, every step.
        r, v_gamma = mle_step(state, theta_t)
        v_gammas.append((v_gamma, ref_v_gamma(state, r, lambda s: state.A.apply(Xi.apply(s)))))
        return r, v_gamma

    with monkeypatch.context() as patch:
        patch.setattr(estimators, "mle_step", checked_step)
        got = run_cd_mamp(instance, Xi, prior, cfg)
    with monkeypatch.context() as patch:
        patch.setattr(denoisers, "_check_inputs", ref_check_inputs)
        patch.setattr(denoisers, "denoise_qpsk", ref_denoise_qpsk)
        patch.setattr(estimators, "nle_orthogonalize", ref_nle_orthogonalize)
        patch.setattr(estimators, "_cross_cov_from_residuals", ref_cross_cov)
        patch.setattr(estimators, "damping_update", ref_damping_update)
        patch.setattr(estimators, "mse", ref_mse)
        for cls in (CirculantOperator, TimeVaryingChannelOperator):
            patch.setattr(cls, "apply", lambda op, v: ref_channel_apply(op, v, False))
            patch.setattr(cls, "apply_adjoint", lambda op, v: ref_channel_apply(op, v, True))
        # History.push takes its row norms through np.linalg.norm.
        patch.setattr(memory, "norm", np.linalg.norm)
        want = run_cd_mamp(instance, Xi, prior, cfg)
    assert len(got.points) >= 4
    assert all(isinstance(v, float) and v == ref for v, ref in v_gammas)
    assert got.s_hat.tobytes() == want.s_hat.tobytes()
    assert got.points == want.points
    assert got.stop_reason == want.stop_reason
    assert got.meter == want.meter


def test_inlined_norm_and_mean_match_numpy_to_the_bit():
    rng = generator(41)
    for n in (1, 7, 128, 1000):
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert mse(a, b) == ref_mse(a, b)
        assert memory.norm(a) == np.linalg.norm(a)


def test_mle_step_variance_matches_np_linalg_norm_to_the_bit():
    # pow(x, 2) and x * x differ in the last bit for about one x in a
    # thousand, so many draws are needed to tell the two squares apart.
    A = DiagonalOperator(np.array([2.0, 1.0, 0.5]))
    Xi, cfg = identity(3), MampConfig(max_iters=1)
    rng = generator(47)
    for _ in range(10000):
        y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        state = MampState(A, Xi, y, 1e-3, cfg)
        r, v_gamma = mle_step(state, 1.0 / state.lambda_dagger)
        assert v_gamma == ref_v_gamma(state, r, A.apply)


def qpsk_input(stalled):
    """(r, v): a noisy QPSK observation, with a variance below the denoiser's
    posterior variance when ``stalled``."""
    rng = generator(43)
    n = 64
    s = QpskPrior().sample(n, rng)
    r = s + 0.4 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return r, (1e-3 if stalled else 0.35)


@pytest.mark.parametrize("denoise", ("qpsk", "bernoulli-gaussian"))
@pytest.mark.parametrize("v", (1e-3, 0.35, 4.0))
def test_a_scalar_variance_is_the_one_block_case(denoise, v):
    r, _ = qpsk_input(False)
    if denoise == "qpsk":
        f = denoise_qpsk
    else:
        def f(r, v):
            return denoise_bernoulli_gaussian(r, v, 0.1, 10.0)
    got, want = f(r, v), f(r, np.array([v]))
    assert got.posterior_mean.tobytes() == want.posterior_mean.tobytes()
    assert got.coord_var.tobytes() == want.coord_var.tobytes()
    # np.float64 is a float: it takes the scalar lane too.
    again = f(r, np.float64(v))
    assert again.posterior_mean.tobytes() == got.posterior_mean.tobytes()


@pytest.mark.parametrize("stalled", (False, True))
def test_nle_scalar_variance_is_the_one_block_case(stalled):
    r, v = qpsk_input(stalled)
    den = denoise_qpsk(r, 0.35)
    got = nle_orthogonalize(den, r, v)
    block = nle_orthogonalize(den, r, np.array([v]))
    want = ref_nle_orthogonalize(den, r, v)
    assert got[2] is block[2] is want[2] is stalled
    assert got[0].tobytes() == block[0].tobytes() == want[0].tobytes()
    assert isinstance(got[1], float) and got[1] == block[1][0] == want[1]
    assert block[1].shape == (1,)
    got[0][0] = 99.0                # a stalled block returns a copy of r
    assert r[0] != 99.0


@pytest.mark.parametrize("bad", (0.0, -1.0, math.nan, math.inf, -math.inf))
@pytest.mark.parametrize("kind", (float, np.float64))
def test_denoisers_refuse_the_same_variances(bad, kind):
    r = np.array([0.1 + 0j, -0.2j])
    v = kind(bad)
    message = f"noise variance must be positive and finite, got {v}"
    for f in (denoise_qpsk, lambda r, v: denoise_bernoulli_gaussian(r, v, 0.1, 10.0)):
        with pytest.raises(ValueError) as err:
            f(r, v)
        assert str(err.value) == message
        with pytest.raises(ValueError) as ref_err:
            ref_check_inputs(r, v)
        assert str(ref_err.value) == message
