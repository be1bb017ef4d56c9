"""Memory-AMP building blocks against literal reference implementations."""

import dataclasses

import numpy as np
import pytest

from ibsmamp import estimators, spectral
from ibsmamp.denoisers import DenoiserResult
from ibsmamp.errors import NormalizationError
from ibsmamp.estimators import (EstimatorRun, MampConfig, MampState,
                                _cross_cov_from_residuals, damping_update,
                                lmmse_estimate_gaussian, lmmse_mse_gaussian,
                                mle_step, nle_orthogonalize, run_cd_mamp,
                                run_cd_oamp)
from ibsmamp.ibs import IbsSpec, build_ibs_transform
from ibsmamp.kernels import fft_operator
from ibsmamp.operators import DiagonalOperator, materialize_dense
from ibsmamp.rng import generator
from ibsmamp.scenarios import (BernoulliGaussianPrior, CirculantOperator, QpskPrior,
                               doppler_preset_4ghz_100kmh_15khz, gen_multipath_channel,
                               gen_sensing_diagonal, mse, simulate_observation)
from ibsmamp.spectral import spectral_profile


def test_config_validation():
    MampConfig()
    for bad in (dict(max_iters=0), dict(damping_window=0), dict(relax=0.0),
                dict(relax=1.5), dict(variance_floor=0.0),
                dict(stop_tolerance=-1.0), dict(stall_patience=0)):
        with pytest.raises(ValueError):
            MampConfig(**bad)


def make_square_state(alpha, y, max_iters, theta=None, xi=None, relax=1.0,
                      damping_window=3):
    A = DiagonalOperator(np.asarray(alpha, dtype=complex))
    profile = spectral_profile(A, depth=max_iters)
    state = MampState(profile, y, forward=A.apply, back=lambda u: u,
                      dim=A.rows, noise_var=0.0, theta=theta, xi=xi,
                      max_iters=max_iters, relax=relax,
                      damping_window=damping_window)
    return A, state


def test_state_buffers_and_views():
    y = np.array([1.0 + 0j, 2.0])
    _, state = make_square_state([2.0, 1.0], y, max_iters=4, damping_window=2)
    assert len(state.last_candidates(5)) == 1
    assert np.array_equal(state.last_candidates(5)[0], np.zeros(2))
    assert np.array_equal(state.last_residuals(5)[0], y)
    assert state.last_candidates(0) == [] and state.last_residuals(0) == []
    h2 = np.array([0.5 + 0j, -0.5])
    state.push(h2, y - h2)
    assert len(state.last_candidates(5)) == 2
    assert np.array_equal(state.last_candidates(1)[0], h2)
    assert np.array_equal(state.last_candidates(5)[0], np.zeros(2))
    assert np.array_equal(state.last_residuals(1)[0], y - h2)
    # Only the trailing damping_window residuals are kept: h3 overwrites
    # the slot of h1's residual.
    h3 = np.array([1.0 + 0j, 1.0])
    state.push(h3, y - h3)
    assert state._resid.shape == (2, 2)
    assert [c[0] for c in state.last_candidates(5)] == [h2[0], h3[0]]
    got = state.last_residuals(5)
    assert len(got) == 2
    assert np.array_equal(got[0], y - h2) and np.array_equal(got[1], y - h3)


def test_state_validates_depth_and_schedules():
    A = DiagonalOperator(np.array([2.0 + 0j, 1.0]))
    profile = spectral_profile(A, depth=2)
    y = np.ones(2, dtype=complex)
    with pytest.raises(ValueError):
        MampState(profile, y, forward=A.apply, back=lambda u: u, dim=2,
                  noise_var=0.0, max_iters=5)
    with pytest.raises(ValueError):
        MampState(profile, y, forward=A.apply, back=lambda u: u, dim=2,
                  noise_var=0.0, theta=np.ones(1), max_iters=2)


def test_state_renormalizes_moments_to_its_dim():
    # The profile holds moments per row of A; a state lifted to a larger
    # dimension scales them but not the eigen bounds or the Gram trace.
    A = DiagonalOperator(np.array([1.0, 2.0]))
    profile = spectral_profile(A, depth=1)
    assert profile.dim == A.rows
    state = MampState(profile, np.ones(2, dtype=complex), forward=A.apply,
                      back=lambda u: u, dim=4, noise_var=0.0, max_iters=1)
    assert state.lambda_dagger == profile.lambda_dagger
    assert np.allclose(state.w, np.asarray(profile.w_scaled) / 2.0)
    assert abs(state.trace_gram - 5.0) < 1e-12


def test_default_schedule_scales_with_relax():
    y = np.ones(2, dtype=complex)
    _, state = make_square_state([2.0, 1.0], y, max_iters=3, relax=0.85)
    assert np.allclose(state.theta, 0.85 / state.lambda_dagger)
    assert np.allclose(state.xi, 1.0)


def test_first_linear_step_has_unit_signal_gain():
    # Noiseless y = A s: the first output is A^H y / w_0, whose projection
    # onto the signal has gain exactly one.
    alpha = np.array([2.0, 1.0])
    s = np.array([1.0 + 0j, -1.0])
    A = DiagonalOperator(alpha.astype(complex))
    y = A.apply(s)
    _, state = make_square_state(alpha, y, max_iters=4)
    r, v = mle_step(state, A, y)
    want = A.apply_adjoint(y) / 2.5
    assert np.max(np.abs(r - want)) < 1e-14
    gain = np.vdot(s, r).real / np.vdot(s, s).real
    assert abs(gain - 1.0) < 1e-12


def reference_memory_recursion(A_dense, y, thetas, xis, steps):
    """Literal replay of the documented recursion with raw trace moments
    and explicit history, pushing h_{t+1} = r_t / 2 after every step."""
    n = A_dense.shape[0]
    G = A_dense @ A_dense.conj().T
    lam = np.linalg.eigvalsh(G)
    lam_dag = 0.5 * (lam.min() + lam.max())
    B = lam_dag * np.eye(n) - G
    w = [np.trace(G @ np.linalg.matrix_power(B, k)).real / n
         for k in range(steps + 1)]
    hist = [np.zeros(n, dtype=complex)]
    gamma = np.zeros(n, dtype=complex)
    out = []
    for t in range(1, steps + 1):
        resid = y - A_dense @ hist[-1]
        gamma = thetas[t - 1] * (B @ gamma) + xis[t - 1] * resid
        p = np.array([xis[i - 1] * np.prod(thetas[i:t]) * w[t - i]
                      for i in range(1, t + 1)])
        eps = p.sum()
        r = (A_dense.conj().T @ gamma
             + sum(pi * h for pi, h in zip(p, hist))) / eps
        v = float(np.linalg.norm(y - A_dense @ r) ** 2 / np.trace(G).real)
        out.append((r, v))
        hist.append(r / 2.0)
    return out


def test_linear_stage_matches_dense_reference_recursion():
    rng = generator(21)
    alpha = rng.uniform(0.5, 2.0, size=6)
    s = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    A = DiagonalOperator(alpha.astype(complex))
    y = A.apply(s)
    steps = 8
    thetas = (0.5 + 0.3 * np.sin(np.arange(1, steps + 1))) / 2.0
    xis = 1.0 + 0.2 * np.cos(np.arange(1, steps + 1))
    _, state = make_square_state(alpha, y, max_iters=steps,
                                 theta=thetas, xi=xis)
    want = reference_memory_recursion(np.diag(alpha).astype(complex), y,
                                      thetas, xis, steps)
    for r_want, v_want in want:
        r, v = mle_step(state, A, y)
        assert np.max(np.abs(r - r_want)) < 1e-10
        assert abs(v - max(v_want, state.variance_floor)) < 1e-10
        h_next = r / 2.0
        state.push(h_next, y - state.forward(h_next))


def test_memory_sum_weighs_rows_by_coefficient_and_norm():
    # theta lambda_dagger = 6.25e-4 (lambda_dagger = 2.5) makes the
    # coefficient of h_2 about 1e-24 of the newest one at step 9, far below
    # 2^-53.  With a unit norm the
    # row is skipped; with a norm of 1e30 its term dominates and is kept.
    steps = 9
    y = np.array([1.0 + 0j, 2.0])
    summed = {}
    for norm in (1.0, 1e30):
        A, state = make_square_state([2.0, 1.0], y, max_iters=steps,
                                     theta=np.full(steps, 1e-3 / 4.0))
        for t in range(1, steps):
            h = np.array([1.0 + 1j, -1.0]) / np.sqrt(3.0) * (norm if t == 1 else 1.0)
            mle_step(state, A, y)
            state.push(h, y - A.apply(h))
        before = state.meter.vector_points
        r, _ = mle_step(state, A, y)
        summed[norm] = (state.meter.vector_points - before) // state.dim
        p = state.vartheta * state.w[steps - 1::-1]
        assert abs(p[1] / p[-1]) < 1e-18
        full = (state.back(state.adj_gamma) + p @ state._hist[:steps]) / p.sum()
        assert np.allclose(r, full, rtol=1e-14, atol=0.0)
    assert summed[1.0] < steps - 1
    assert summed[1e30] == steps - 1      # only the zero row h_1 is skipped


def test_truncated_memory_sum_stays_within_the_rounding_bound(monkeypatch):
    # A converging wide BW_IBS run: at every step the truncated sum agrees
    # with the full p @ hist[:t] within the error bound of a floating-point
    # sum, and once the weights have decayed fewer than t rows are summed.
    n, m = 512, 256
    A = gen_sensing_diagonal(m, n, 10.0).operator()
    prior = BernoulliGaussianPrior(rho=0.1)
    s = prior.sample(n, generator(3, 2))
    Xi = build_ibs_transform(IbsSpec(n=n, n_s=64, m=m, variant="BW_IBS",
                                     block_seed_base=5, whole_seed=6))
    instance = simulate_observation(A, Xi, s, 30.0, 3)
    memory_sum, step = estimators._memory_sum, estimators.mle_step
    errors, summed = [], []

    def checked_sum(p, hist, norms):
        memory, rows = memory_sum(p, hist, norms)
        bound = 4 * len(p) * 2.0 ** -53 * np.sum(np.abs(p) * norms)
        errors.append(np.linalg.norm(memory - p @ hist) <= bound)
        return memory, rows

    def metered_step(state, *args):
        before = state.meter.vector_points
        out = step(state, *args)
        summed.append((state.iteration, (state.meter.vector_points - before) // n))
        return out

    monkeypatch.setattr(estimators, "_memory_sum", checked_sum)
    monkeypatch.setattr(estimators, "mle_step", metered_step)
    run = run_cd_mamp(instance, Xi, prior, MampConfig(max_iters=160,
                                                      stop_on_stall=False))
    assert len(run.points) == 160 and run.points[-1].mse_db < -30.0
    assert len(errors) == 160 and all(errors)
    assert all(rows <= t for t, rows in summed)
    assert all(rows < t // 2 for t, rows in summed[120:]), summed[120:]


def test_degenerate_gain_normalizer_raises():
    y = np.ones(2, dtype=complex)
    A, state = make_square_state([2.0, 1.0], y, max_iters=3,
                                 xi=np.zeros(3))
    with pytest.raises(NormalizationError):
        mle_step(state, A, y)


def test_nle_orthogonalize_hand_case():
    r = np.array([1.0 + 1j, -2.0])
    den = DenoiserResult(posterior_mean=np.array([0.5 + 0.5j, -1.0]),
                         coord_var=np.full(2, 0.2))
    s_next, v_phi, stalled = nle_orthogonalize(den, r, 1.0)
    assert not stalled
    assert np.max(np.abs(s_next - (den.posterior_mean - 0.2 * r) / 0.8)) < 1e-14
    assert abs(v_phi - 0.25) < 1e-14


def test_nle_orthogonalize_stall_returns_input_copy():
    r = np.array([1.0 + 0j])
    den = DenoiserResult(posterior_mean=np.array([0.9 + 0j]),
                         coord_var=np.array([2.0]))
    s_next, v_phi, stalled = nle_orthogonalize(den, r, 1.0)
    assert stalled
    assert v_phi == 1.0
    s_next[0] = 0.0
    assert r[0] == 1.0


def test_nle_orthogonalize_per_block_applies_the_scalar_rule_per_block():
    # Block 0 reduces variance, block 1 does not and passes r through.
    r = np.array([1.0 + 1j, -2.0, 0.5, 3.0 - 1j])
    mean = np.array([0.5 + 0.5j, -1.0, 0.4, 2.0])
    coord_var = np.array([0.1, 0.3, 2.0, 1.0])
    den = DenoiserResult(posterior_mean=mean, coord_var=coord_var)
    s_next, v_phi, stalled = nle_orthogonalize(den, r, np.array([1.0, 1.2]))
    assert stalled
    want = nle_orthogonalize(DenoiserResult(mean[:2], np.full(2, 0.2)), r[:2], 1.0)
    assert np.max(np.abs(s_next[:2] - want[0])) < 1e-15
    assert abs(v_phi[0] - want[1]) < 1e-15
    assert np.array_equal(s_next[2:], r[2:])
    assert v_phi[1] == 1.2


def test_nle_orthogonalize_matched_gaussian_returns_prior():
    # A Wiener denoiser adds nothing beyond its input, so the extrinsic
    # message collapses to zero with the prior variance.
    sigma_s2, v = 2.0, 0.5
    rng = generator(13)
    r = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    c = sigma_s2 / (sigma_s2 + v)
    den = DenoiserResult(posterior_mean=c * r, coord_var=np.full(64, c * v))
    s_next, v_phi, stalled = nle_orthogonalize(den, r, v)
    assert not stalled
    assert np.max(np.abs(s_next)) < 1e-12
    assert abs(v_phi - sigma_s2) < 1e-12


def test_cross_covariance_matches_direct_formula():
    # Without a noise correction the residual Gram is already PSD, so the
    # estimate equals the direct normalized inner products exactly.
    n = 32
    A = gen_sensing_diagonal(n, n, 4.0).operator()
    rng = generator(17)
    s = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y = A.apply(s)
    cands = [s + 0.1 * rng.standard_normal(n) for _ in range(3)]
    resid = [y - A.apply(c) for c in cands]
    V = _cross_cov_from_residuals(resid, n, 0.0, n * 1.0, 1e-13)
    raw = np.array([[np.vdot(ri, rj).real / n for rj in resid]
                    for ri in resid])
    assert np.max(np.abs(V - raw)) < 1e-12
    assert np.min(np.linalg.eigvalsh(V)) >= -1e-12


def test_cross_covariance_projects_indefinite_estimates():
    # Subtracting the noise power can push the raw matrix indefinite; the
    # estimate must be its eigenvalue-clipped PSD projection.
    n = 32
    A = gen_sensing_diagonal(n, n, 4.0).operator()
    rng = generator(18)
    s = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y = A.apply(s)
    sigma2 = 0.01
    cands = [s + 0.1 * rng.standard_normal(n) for _ in range(3)]
    resid = [y - A.apply(c) for c in cands]
    V = _cross_cov_from_residuals(resid, n, sigma2, n * 1.0, 1e-13)
    raw = np.array([[(np.vdot(ri, rj).real - n * sigma2) / n for rj in resid]
                    for ri in resid])
    assert np.min(np.linalg.eigvalsh(raw)) < 0.0
    lam, vecs = np.linalg.eigh(raw)
    want = (vecs * np.maximum(lam, 0.0)) @ vecs.T
    want[np.diag_indices(3)] = np.maximum(want.diagonal(), 1e-13)
    assert np.max(np.abs(V - want)) < 1e-12
    assert np.min(np.linalg.eigvalsh(V)) >= -1e-12


def test_cross_covariance_floors_exact_candidates():
    n = 16
    A = DiagonalOperator(np.ones(n, dtype=complex))
    s = np.ones(n, dtype=complex)
    y = A.apply(s)
    V = _cross_cov_from_residuals([y - A.apply(s)], n, 0.0, float(n), 1e-13)
    assert V.shape == (1, 1)
    assert V[0, 0] >= 1e-13


def test_damping_beats_grid_and_best_single():
    rng = generator(23)
    grid = np.linspace(0.0, 1.0, 401)
    for trial in range(100):
        k = 2 + trial % 2
        g = rng.standard_normal((k, k))
        V = g @ g.T + 10.0 ** rng.uniform(-6, 0) * np.eye(k)
        cands = [np.full(2, float(i), dtype=complex) for i in range(k)]
        zeta, combined = damping_update(cands, V)
        assert abs(zeta.sum() - 1.0) < 1e-9
        obj = float(zeta @ V @ zeta)
        assert obj <= np.min(np.diag(V)) + 1e-12
        assert np.max(np.abs(combined - sum(z * c for z, c in zip(zeta, cands)))) < 1e-12
        if k == 2:
            vals = (grid ** 2 * V[0, 0] + 2 * grid * (1 - grid) * V[0, 1]
                    + (1 - grid) ** 2 * V[1, 1])
            assert obj <= vals.min() + 1e-3


def test_damping_handles_singular_covariance():
    V = np.ones((2, 2))  # perfectly correlated candidates
    zeta, _ = damping_update([np.zeros(1, complex), np.ones(1, complex)], V)
    assert np.all(np.isfinite(zeta))
    assert abs(zeta.sum() - 1.0) < 1e-9
    with pytest.raises(ValueError):
        damping_update([np.zeros(1, complex)], np.eye(2))


def cs_instance(n, m, kappa, snr_db, rho, seed, n_s=None, sigma_s2=None):
    A = gen_sensing_diagonal(m, n, kappa).operator()
    spec = IbsSpec(n=n, n_s=n_s or n, m=m, variant="BW_IBS", base="FFT",
                   direction="kernel", block_seed_base=seed * 1000 + 1,
                   whole_seed=seed * 1000 + 2)
    Xi = build_ibs_transform(spec)
    prior = BernoulliGaussianPrior(rho=rho, sigma_s2=sigma_s2)
    s = prior.sample(n, generator(seed, 2))
    return simulate_observation(A, Xi, s, snr_db, seed), Xi, prior


def test_noiseless_square_recovery_is_near_exact():
    instance, Xi, prior = cs_instance(n=256, m=256, kappa=2.0, snr_db=None,
                                      rho=0.25, seed=5, n_s=32)
    run = run_cd_mamp(instance, Xi, prior, MampConfig(max_iters=60))
    assert run.final_mse < 1e-8
    assert run.stop_reason in ("tolerance", "stall", "max-iters")
    assert [p.t for p in run.points] == list(range(1, len(run.points) + 1))
    assert run.meter.channel_applies > 0
    assert run.meter.transform_applies > 0


def test_trajectory_and_run_shapes():
    instance, Xi, prior = cs_instance(n=128, m=64, kappa=4.0, snr_db=20.0,
                                      rho=0.2, seed=8, n_s=16)
    run = run_cd_mamp(instance, Xi, prior, MampConfig(max_iters=12,
                                                      stop_on_stall=False))
    assert isinstance(run, EstimatorRun)
    assert len(run.points) == 12
    assert run.stop_reason == "max-iters"
    assert run.final_mse == run.points[-1].mse
    for pt in run.points:
        assert pt.v_gamma > 0 and pt.v_phi > 0
        assert isinstance(pt.flags, str)
    assert run.s_hat.shape == (128,)


def test_relax_changes_the_iteration_path():
    instance, Xi, prior = cs_instance(n=128, m=64, kappa=10.0, snr_db=25.0,
                                      rho=0.2, seed=9, n_s=16)
    a = run_cd_mamp(instance, Xi, prior, MampConfig(max_iters=6, relax=1.0,
                                                    stop_on_stall=False))
    b = run_cd_mamp(instance, Xi, prior, MampConfig(max_iters=6, relax=0.85,
                                                    stop_on_stall=False))
    assert a.points[1].mse != b.points[1].mse


def test_run_is_deterministic():
    for estimator in (run_cd_mamp, run_cd_oamp):
        runs = []
        for _ in range(2):
            instance, Xi, prior = cs_instance(n=128, m=64, kappa=10.0,
                                              snr_db=20.0, rho=0.2, seed=11,
                                              n_s=16)
            if estimator is run_cd_mamp:
                runs.append(estimator(instance, Xi, prior, MampConfig(max_iters=8)))
            else:
                runs.append(estimator(instance, prior, MampConfig(max_iters=8)))
        assert np.array_equal(runs[0].s_hat, runs[1].s_hat)
        assert [p.mse for p in runs[0].points] == [p.mse for p in runs[1].points]


def test_oamp_first_iteration_is_the_closed_form_lmmse_estimate():
    instance, _, prior = cs_instance(n=256, m=128, kappa=10.0, snr_db=30.0,
                                     rho=1.0, seed=3)
    run = run_cd_oamp(instance, prior, MampConfig(max_iters=1))
    want = lmmse_estimate_gaussian(instance, 1.0)
    assert np.max(np.abs(run.s_hat - want)) < 1e-12


def test_oamp_forms_a_dense_channel_gram_a_fixed_number_of_times(monkeypatch):
    # A Doppler channel has no structured solve: its Gram is formed densely
    # once per run (and once for the memoized spectrum), not per iteration.
    calls = []
    dense_gram = spectral.dense_gram

    def counting(op, *args, **kwargs):
        calls.append(op)
        return dense_gram(op, *args, **kwargs)

    monkeypatch.setattr(estimators, "dense_gram", counting)
    monkeypatch.setattr(spectral, "dense_gram", counting)
    n = 32
    A = gen_multipath_channel(n, 3, doppler_preset_4ghz_100kmh_15khz(), seed=4).operator()
    Xi = build_ibs_transform(IbsSpec(n=n, n_s=8, m=n, variant="BW_IBS",
                                     direction="kernel-adjoint", whole_seed=4))
    prior = QpskPrior()
    instance = simulate_observation(A, Xi, prior.sample(n, generator(4, 2)), 6.0, seed=4)
    run = run_cd_oamp(instance, prior, MampConfig(max_iters=8, stop_tolerance=1e-300,
                                                  stop_on_stall=False))
    assert len(run.points) == 8
    assert 0 < len(calls) <= 2
    assert all(op is A for op in calls)


def test_cost_meters_count_channel_and_transform_applies():
    # MAMP: A^H gamma_{t-1} is reused, so iteration 1 applies A three times
    # and every later one four times; Xi is applied three times each.
    # OAMP applies Xi and A forward and adjoint once per iteration.
    n, iters = 64, 7
    A = gen_multipath_channel(n, 4, seed=2).operator()
    assert isinstance(A, CirculantOperator)
    Xi = build_ibs_transform(IbsSpec(n=n, n_s=16, m=n, variant="BW_IBS",
                                     direction="kernel-adjoint", whole_seed=2))
    prior = QpskPrior()
    instance = simulate_observation(A, Xi, prior.sample(n, generator(2, 2)), 6.0, seed=2)
    cfg = MampConfig(max_iters=iters, stop_tolerance=1e-300, stop_on_stall=False)
    transform_points = n * np.log2(16)
    for run, channel, transform in (
            (run_cd_mamp(instance, Xi, prior, cfg), 3 + 4 * (iters - 1), 3 * iters),
            (run_cd_oamp(instance, prior, cfg), 2 * iters, 2 * iters)):
        assert len(run.points) == iters
        assert run.meter.channel_applies == channel
        assert run.meter.channel_points == channel * 4 * n
        assert run.meter.transform_applies == transform
        assert run.meter.transform_points == transform * transform_points


def test_gaussian_estimators_reach_the_lmmse_error():
    # Small-scale rehearsal of the convergence oracle: with a Gaussian
    # source both estimators must land on the closed-form error.
    instance, Xi, prior = cs_instance(n=1024, m=512, kappa=10.0, snr_db=30.0,
                                      rho=1.0, seed=7)
    anchor = mse(lmmse_estimate_gaussian(instance, 1.0), instance.s_true)
    oamp = run_cd_oamp(instance, prior, MampConfig(max_iters=16))
    assert abs(oamp.final_mse - anchor) <= 1e-8 * max(anchor, 1.0)
    mamp = run_cd_mamp(instance, Xi, prior, MampConfig(max_iters=128,
                                                       stop_on_stall=False))
    assert abs(mamp.final_mse - anchor) / anchor < 0.05


def test_analytic_lmmse_mse_matches_dense_posterior_trace():
    n, m, kappa, sigma2 = 64, 32, 8.0, 1e-2
    diag = gen_sensing_diagonal(m, n, kappa)
    A = materialize_dense(diag.operator())
    spec = IbsSpec(n=n, n_s=n, m=m, variant="BW_IBS", whole_seed=4)
    Xi = materialize_dense(build_ibs_transform(spec))
    H = A @ Xi
    cov = np.eye(n) - H.conj().T @ np.linalg.solve(
        H @ H.conj().T + sigma2 * np.eye(m), H)
    want = float(np.trace(cov).real / n)
    got = lmmse_mse_gaussian(diag.singulars, 1.0, sigma2, n)
    assert abs(got - want) < 1e-12


def test_square_single_block_pipeline_is_bit_identical_to_plain_kernel():
    n = 256
    A = gen_sensing_diagonal(n, n, 10.0).operator()
    prior = BernoulliGaussianPrior(rho=0.2)
    s = prior.sample(n, generator(19, 2))
    ibs = build_ibs_transform(IbsSpec(n=n, n_s=n, m=n, variant="BS"))
    full = fft_operator(n)
    cfg = MampConfig(max_iters=10, stop_on_stall=False)
    run_a = run_cd_mamp(simulate_observation(A, ibs, s, 25.0, seed=19), ibs,
                        prior, cfg)
    run_b = run_cd_mamp(simulate_observation(A, full, s, 25.0, seed=19), full,
                        prior, cfg)
    assert np.array_equal(run_a.s_hat, run_b.s_hat)
    assert [p.mse for p in run_a.points] == [p.mse for p in run_b.points]
    assert [p.v_gamma for p in run_a.points] == [p.v_gamma for p in run_b.points]


def test_estimate_does_not_read_the_ground_truth():
    # With the stall stop off, s_true may only feed the reported mse.
    for n_s in (16, None):
        instance, Xi, prior = cs_instance(n=256, m=128, kappa=10.0,
                                          snr_db=30.0, rho=0.1, seed=4,
                                          n_s=n_s)
        other = dataclasses.replace(instance,
                                    s_true=np.roll(instance.s_true, 1))
        cfg = MampConfig(max_iters=24, stop_on_stall=False)
        a = run_cd_mamp(instance, Xi, prior, cfg)
        b = run_cd_mamp(other, Xi, prior, cfg)
        assert np.array_equal(a.s_hat, b.s_hat)
        assert [p.v_gamma for p in a.points] == [p.v_gamma for p in b.points]
        assert [p.mse for p in a.points] != [p.mse for p in b.points]


def test_full_transform_holds_its_best_error_at_relax_one():
    # A noiseless linear-stage gain (theta = 1 / lambda_dagger) lets the
    # full transform drift 4.8-8.4 dB above its best by t = 128 here;
    # MAMP's theta_t = 1 / (lambda_dagger + sigma^2 / v_t) keeps it there.
    for seed in (1, 2, 3):
        instance, Xi, prior = cs_instance(n=1024, m=512, kappa=10.0,
                                          snr_db=30.0, rho=0.1, seed=seed)
        run = run_cd_mamp(instance, Xi, prior,
                          MampConfig(max_iters=128, relax=1.0,
                                     stop_on_stall=False))
        best = min(p.mse_db for p in run.points)
        assert run.points[-1].mse_db - best < 0.5, (seed, run.points[-1].mse_db, best)


def test_block_variances_let_every_block_converge():
    # A diagonal A after a block transform gives every block its own share
    # of the spectrum; with one pooled variance the seed-2 block estimate
    # ends about 21 dB above the full transform.
    n, m, n_s = 2048, 1024, 256
    A = gen_sensing_diagonal(m, n, 10.0).operator()
    prior = BernoulliGaussianPrior(rho=0.1)
    cfg = MampConfig(max_iters=64, stop_on_stall=False)
    for seed in (1, 2, 3):
        s = prior.sample(n, generator(seed, 2))
        final = {}
        for size in (n, n_s):
            Xi = build_ibs_transform(IbsSpec(
                n=n, n_s=size, m=m, variant="BW_IBS",
                block_seed_base=11 + seed, whole_seed=12 + seed))
            run = run_cd_mamp(simulate_observation(A, Xi, s, 30.0, seed), Xi,
                              prior, cfg)
            final[size] = run.points[-1].mse_db
        assert final[n] < -35.0, (seed, final)
        assert final[n_s] - final[n] < 1.0, (seed, final)
