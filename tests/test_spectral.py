"""Eigen bounds and trace moments of the measurement Gram operator."""

import numpy as np
import pytest

from ibsmamp.errors import MaterializationLimitError
from ibsmamp.operators import DiagonalOperator, LinearOperator, materialize_dense
from ibsmamp.scenarios import (CirculantOperator, doppler_preset_4ghz_100kmh_15khz,
                               gen_multipath_channel, gen_sensing_diagonal)
from ibsmamp.spectral import (dense_gram, eigen_bounds, gram_eigenvalues,
                              spectral_profile, trace_moments)


def opaque_diagonal(weights: np.ndarray) -> LinearOperator:
    """Hide a diagonal inside a generic operator so no exact-spectrum
    shortcut applies and the probe/power-iteration paths are exercised."""
    w = np.asarray(weights, dtype=np.complex128)
    return LinearOperator(w.size, w.size, lambda v: w * v,
                          lambda v: np.conj(w) * v)


def test_hand_worked_moments_two_modes():
    # Gram eigenvalues {1, 4}: midpoint 2.5, and the first three moments
    # of G against powers of (2.5 I - G) / 2.5 work out by hand.
    profile = spectral_profile(DiagonalOperator(np.array([1.0, 2.0])), depth=2)
    assert profile.lambda_min == 1.0
    assert profile.lambda_max == 4.0
    assert profile.lambda_dagger == 2.5
    assert np.allclose(profile.w_scaled, [2.5, -0.9, 0.9], atol=1e-12)
    assert profile.depth == 2
    assert abs(profile.trace_gram - 5.0) < 1e-12
    assert not profile.stochastic


def test_moments_match_eigenvalue_sums():
    diag = gen_sensing_diagonal(32, 64, 10.0)
    A = diag.operator()
    lam = np.abs(A.weights) ** 2
    lam_dag = 0.5 * (lam.min() + lam.max())
    w, stochastic = trace_moments(A, lam_dag, depth=5)
    assert not stochastic
    for k in range(6):
        shifted = (lam_dag - lam) ** k
        assert abs(w[k] - np.sum(lam * shifted) / 32) < 1e-9 * max(1, abs(w[k]))


def test_circulant_spectrum_is_exact():
    op = CirculantOperator(16, np.array([0, 3]), np.array([1.0, 0.5j]))
    lam = gram_eigenvalues(op)
    assert np.allclose(np.sort(lam), np.sort(np.abs(op.freq_response) ** 2))
    lo, hi = eigen_bounds(op)
    assert abs(lo - lam.min()) < 1e-12
    assert abs(hi - lam.max()) < 1e-12


def test_probe_paths_are_exact_for_hidden_diagonal():
    # Rademacher probes hit |z_i| = 1, so a diagonal Gram is summed
    # exactly even through the stochastic path; power iteration gets the
    # bounds to working precision on a well-separated spectrum.
    w = np.array([3.0, 2.5, 2.0, 1.5, 1.0, 0.8, 0.6, 0.5])
    op = opaque_diagonal(w)
    lam = w ** 2
    lo, hi = eigen_bounds(op, dense_cap=1)
    assert abs(hi - lam.max()) < 1e-6
    assert abs(lo - lam.min()) < 1e-3
    lam_dag = 0.5 * (lam.min() + lam.max())
    wm, stochastic = trace_moments(op, lam_dag, depth=3, dense_cap=1, probes=8)
    assert stochastic
    for k in range(4):
        shifted = (lam_dag - lam) ** k
        assert abs(wm[k] - np.sum(lam * shifted) / 8) < 1e-9


def test_probe_estimates_close_for_general_operator():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    M /= np.linalg.norm(M, ord=2)
    op = LinearOperator(6, 6, lambda v: M @ v, lambda v: M.conj().T @ v)
    lam = np.linalg.eigvalsh(M @ M.conj().T)
    lam_dag = 0.5 * (lam.min() + lam.max())
    exact_w, _ = trace_moments(op, lam_dag, depth=2, dense_cap=8)
    est_w, stochastic = trace_moments(op, lam_dag, depth=2, dense_cap=1,
                                      probes=20000, seed=3)
    assert stochastic
    scale = max(abs(exact_w[0]), 1e-3)
    assert np.max(np.abs(est_w - exact_w)) < 0.05 * scale


def test_scaled_moments_stay_bounded_at_long_depth():
    # Raw moments overflow float64 past depth ~1000 on a kappa=10 profile;
    # the scaled moments are bounded by the zeroth one forever.
    A = gen_sensing_diagonal(64, 128, 10.0).operator()
    profile = spectral_profile(A, depth=2000)
    assert np.all(np.isfinite(profile.w_scaled))
    assert np.max(np.abs(profile.w_scaled)) <= profile.w_scaled[0] + 1e-12


def test_scaled_and_raw_moments_agree_where_raw_is_finite():
    A = gen_sensing_diagonal(16, 32, 4.0).operator()
    profile = spectral_profile(A, depth=20)
    raw, _ = trace_moments(A, profile.lambda_dagger, depth=20)
    unscale = profile.lambda_dagger ** np.arange(21)
    assert np.allclose(raw, profile.w_scaled * unscale, rtol=1e-10)


def test_trace_moments_validation():
    A = DiagonalOperator(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        trace_moments(A, 2.5, depth=-1)


def test_gram_eigenvalues_refuses_probe_only_operators():
    op = opaque_diagonal(np.ones(8))
    with pytest.raises(ValueError):
        gram_eigenvalues(op, dense_cap=1)


def test_dense_gram_paths_and_limit():
    # A generic operator goes through materialize_dense, a Doppler channel
    # through its taps; both refuse sizes above the limit.
    w = np.arange(1.0, 9.0) * (1 - 0.5j)
    assert np.allclose(dense_gram(opaque_diagonal(w)), np.diag(np.abs(w) ** 2))
    A = gen_multipath_channel(16, 3, doppler_preset_4ghz_100kmh_15khz(), seed=2).operator()
    dense = materialize_dense(A)
    assert np.array_equal(dense_gram(A), A.dense_gram())
    assert np.allclose(dense_gram(A), dense @ dense.conj().T, rtol=0, atol=1e-14)
    for op in (opaque_diagonal(w), A):
        with pytest.raises(MaterializationLimitError):
            dense_gram(op, limit=op.rows - 1)


def doppler_channel(n=32, seed=5):
    """A small time-varying channel: its spectrum takes the dense path."""
    return gen_multipath_channel(n, 3, doppler_preset_4ghz_100kmh_15khz(),
                                 seed=seed).operator()


def test_profile_is_memoized_per_operator_and_arguments():
    A = doppler_channel()
    profile = spectral_profile(A, depth=4)
    assert spectral_profile(A, depth=4) is profile
    deeper = spectral_profile(A, depth=7)
    assert deeper is not profile
    assert deeper.depth == 7
    assert np.array_equal(deeper.w_scaled[:5], profile.w_scaled)
    assert gram_eigenvalues(A) is gram_eigenvalues(A)


def test_memoized_arrays_are_read_only():
    A = doppler_channel()
    profile = spectral_profile(A, depth=3)
    for arr in (profile.w_scaled, gram_eigenvalues(A)):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_memoized_profile_equals_a_fresh_computation():
    A = doppler_channel()
    spectral_profile(A, depth=6)
    memoized = spectral_profile(A, depth=6)
    fresh = spectral_profile(doppler_channel(), depth=6)
    assert fresh is not memoized
    for name in ("lambda_min", "lambda_max", "lambda_dagger", "dim", "stochastic"):
        assert getattr(memoized, name) == getattr(fresh, name)
    assert np.array_equal(memoized.w_scaled, fresh.w_scaled)
