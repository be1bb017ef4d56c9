"""Eigen bounds and trace moments of the measurement Gram operator."""

import numpy as np
import pytest

from ibsmamp import spectral
from ibsmamp.errors import MaterializationLimitError
from ibsmamp.harness import CsMseConfig
from ibsmamp.operators import DiagonalOperator, LinearOperator, materialize_dense
from ibsmamp.rng import generator
from ibsmamp.scenarios import (CirculantOperator, doppler_preset_4ghz_100kmh_15khz,
                               gen_multipath_channel, gen_sensing_diagonal)
from ibsmamp.selftest import check_fast_paths
from ibsmamp.spectral import (dense_gram, eigen_bounds, gauss_rule, gram_eigenvalues,
                              spectral_profile, trace_moments)


def opaque_diagonal(weights: np.ndarray) -> LinearOperator:
    """Hide a diagonal inside a generic operator so no diagonal shortcut
    applies; below the dense cap it is materialized, above it probed."""
    w = np.asarray(weights, dtype=np.complex128)
    return LinearOperator(w.size, w.size, lambda v: w * v,
                          lambda v: np.conj(w) * v)


def test_hand_worked_moments_two_modes():
    # Gram eigenvalues {1, 4}: midpoint 2.5, and the first three moments
    # of G against powers of (2.5 I - G) / 2.5 work out by hand.
    A = DiagonalOperator(np.array([1.0, 2.0]))
    profile = spectral_profile(A, depth=2)
    assert eigen_bounds(A) == (1.0, 4.0)
    assert profile.lambda_dagger == 2.5
    assert np.allclose(profile.w_scaled, [2.5, -0.9, 0.9], atol=1e-12)
    assert profile.w_scaled.size == 3
    assert abs(profile.trace_gram - 5.0) < 1e-12


def test_moments_match_eigenvalue_sums():
    A = gen_sensing_diagonal(32, 64, 10.0)
    lam = np.abs(A.weights) ** 2
    lam_dag = 0.5 * (lam.min() + lam.max())
    w = trace_moments(A, lam_dag, depth=5)
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


def test_probe_paths_are_exact_for_hidden_diagonal(monkeypatch):
    # Rademacher probes hit |z_i| = 1, and each probe's Lanczos run breaks
    # down once it has spanned the 8 eigenvectors, so a diagonal Gram is
    # summed exactly and its extreme Ritz values are its bounds.
    monkeypatch.setattr(spectral, "DENSE_LIMIT", 1)
    w = np.array([3.0, 2.5, 2.0, 1.5, 1.0, 0.8, 0.6, 0.5])
    op = opaque_diagonal(w)
    lam = w ** 2
    lo, hi = eigen_bounds(op)
    assert abs(hi - lam.max()) < 1e-6
    assert abs(lo - lam.min()) < 1e-3
    lam_dag = 0.5 * (lam.min() + lam.max())
    wm = trace_moments(op, lam_dag, depth=3)
    with pytest.raises(ValueError):
        gram_eigenvalues(op)            # the moments came from the probes
    for k in range(4):
        shifted = (lam_dag - lam) ** k
        assert abs(wm[k] - np.sum(lam * shifted) / 8) < 1e-9


def hutchinson_moments(A, lambda_dagger, depth, scale):
    """Reference: the plain probe average of z^H G (scale*B)^k z / m over
    the 64 Rademacher probes that the Lanczos quadrature draws."""
    rng = generator(0, stream=1)
    w_acc = np.zeros(depth + 1)
    for _ in range(64):
        z = (2.0 * rng.integers(0, 2, size=A.rows) - 1.0).astype(np.complex128)
        zk = z
        for k in range(depth + 1):
            g = A.apply(A.apply_adjoint(zk))
            w_acc[k] += np.real(np.vdot(z, g))
            zk = scale * (lambda_dagger * zk - g)
    return w_acc / (64 * A.rows)


def test_probe_estimates_close_for_general_operator(monkeypatch):
    # Above the cap a Doppler channel gets Lanczos bounds and moments.
    # Against eigvalsh of its Gram: the largest Ritz value is lambda_max to
    # 2e-5 relative, the smallest lies above lambda_min by at most
    # 3e-4 lambda_max, and the moments to depth 32 carry the probes'
    # sampling error, below 5e-2 of w_0.  On seeds 1 and 3-11 at both
    # sizes the worst cases were 5.9e-6, 9.1e-5 and 2.05e-2.  The 64-node
    # Gauss rule per probe is exact to degree 127, so the moments equal
    # Hutchinson's sums over the same probes to rounding.
    for n in (256, 1024):
        lam = np.linalg.eigvalsh(doppler_channel(n, seed=2).dense_gram())
        monkeypatch.setattr(spectral, "DENSE_LIMIT", n - 1)
        A = doppler_channel(n, seed=2)
        lo, hi = eigen_bounds(A)
        assert abs(hi - lam.max()) < 2e-5 * lam.max()
        assert lam.min() - 1e-12 <= lo <= lam.min() + 3e-4 * lam.max()
        lam_dag = 0.5 * (lo + hi)
        w = trace_moments(A, lam_dag, depth=32, scale=1.0 / lam_dag)
        shifted = (lam_dag - lam) / lam_dag
        exact = shifted[None, :] ** np.arange(33)[:, None] @ lam / n
        assert np.max(np.abs(w - exact)) < 5e-2 * exact[0]
        reference = hutchinson_moments(A, lam_dag, 32, 1.0 / lam_dag)
        assert np.max(np.abs(w - reference)) < 1e-12 * exact[0]
        monkeypatch.undo()


def test_scaled_moments_stay_bounded_at_long_depth():
    # Raw moments overflow float64 past depth ~1000 on a kappa=10 profile;
    # the scaled moments are bounded by the zeroth one forever.
    A = gen_sensing_diagonal(64, 128, 10.0)
    profile = spectral_profile(A, depth=2000)
    assert np.all(np.isfinite(profile.w_scaled))
    assert np.max(np.abs(profile.w_scaled)) <= profile.w_scaled[0] + 1e-12


@pytest.mark.parametrize("rows", (1000, 4096))
def test_moments_in_chunks_equal_all_orders_at_once(rows):
    # trace_moments evaluates a few orders at a time; each order takes the
    # same powers and the same sum as the whole (depth + 1) x rows array.
    A = gen_sensing_diagonal(rows, 2 * rows, 10.0)
    lam = np.abs(A.weights) ** 2
    lam_dag = 0.5 * (lam.min() + lam.max())
    shifted = (lam_dag - lam) * (1.0 / lam_dag)
    whole = (shifted[None, :] ** np.arange(601)[:, None] * lam[None, :]).sum(axis=1) / rows
    got = trace_moments(A, lam_dag, depth=600, scale=1.0 / lam_dag)
    assert got.tobytes() == whole.tobytes()


def test_scaled_and_raw_moments_agree_where_raw_is_finite():
    A = gen_sensing_diagonal(16, 32, 4.0)
    profile = spectral_profile(A, depth=20)
    raw = trace_moments(A, profile.lambda_dagger, depth=20)
    unscale = profile.lambda_dagger ** np.arange(21)
    assert np.allclose(raw, profile.w_scaled * unscale, rtol=1e-10)


def test_trace_moments_validation():
    A = DiagonalOperator(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        trace_moments(A, 2.5, depth=-1)


def test_gram_eigenvalues_refuses_probe_only_operators(monkeypatch):
    monkeypatch.setattr(spectral, "DENSE_LIMIT", 1)
    op = opaque_diagonal(np.ones(8))
    with pytest.raises(ValueError):
        gram_eigenvalues(op)


def test_dense_gram_paths_and_limit(monkeypatch):
    # A generic operator goes through materialize_dense, a Doppler channel
    # through its taps; both refuse sizes above the limit.
    w = np.arange(1.0, 9.0) * (1 - 0.5j)
    assert np.allclose(dense_gram(opaque_diagonal(w)), np.diag(np.abs(w) ** 2))
    A = gen_multipath_channel(16, 3, doppler_preset_4ghz_100kmh_15khz(), seed=2)
    dense = materialize_dense(A)
    assert np.array_equal(dense_gram(A), A.dense_gram())
    assert np.allclose(dense_gram(A), dense @ dense.conj().T, rtol=0, atol=1e-14)
    for op in (opaque_diagonal(w), A):
        monkeypatch.setattr(spectral, "DENSE_LIMIT", op.rows - 1)
        with pytest.raises(MaterializationLimitError):
            dense_gram(op)


def doppler_channel(n=32, seed=5):
    """A small time-varying channel: below the cap its spectrum is dense."""
    return gen_multipath_channel(n, 3, doppler_preset_4ghz_100kmh_15khz(), seed=seed)


def test_profile_is_memoized_per_operator_and_arguments():
    A = doppler_channel()
    profile = spectral_profile(A, depth=4)
    assert spectral_profile(A, depth=4) is profile
    deeper = spectral_profile(A, depth=7)
    assert deeper is not profile
    assert deeper.w_scaled.size == 8
    assert np.array_equal(deeper.w_scaled[:5], profile.w_scaled)
    assert gram_eigenvalues(A) is gram_eigenvalues(A)


def test_memoized_arrays_are_read_only():
    A = doppler_channel()
    profile = spectral_profile(A, depth=3)
    for arr in (profile.w_scaled, gram_eigenvalues(A)):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_memoized_profile_equals_a_fresh_computation(monkeypatch):
    # Once from the dense spectrum, once from Lanczos above a lowered cap.
    for cap in (spectral.DENSE_LIMIT, 16):
        monkeypatch.setattr(spectral, "DENSE_LIMIT", cap)
        A = doppler_channel()
        spectral_profile(A, depth=6)
        memoized = spectral_profile(A, depth=6)
        fresh = spectral_profile(doppler_channel(), depth=6)
        assert fresh is not memoized
        assert eigen_bounds(A) == eigen_bounds(doppler_channel())
        for name in ("lambda_dagger", "dim"):
            assert getattr(memoized, name) == getattr(fresh, name)
        assert np.array_equal(memoized.w_scaled, fresh.w_scaled)


def test_dense_spectrum_matches_eigvalsh():
    # Doppler Grams above the self-test's sizes, up to the benchmark's 1024.
    ok, detail = check_fast_paths(doppler_sizes=(128, 1024), gram_seed=5)
    assert ok, detail


def rule_moments(rule, depth):
    """sum(mu * x^k) for k = 0..depth of a Gauss rule (x, mu)."""
    x, mu = rule
    return (x ** np.arange(depth + 1)[:, None]) @ mu


@pytest.mark.parametrize("seed", (3, 4))
def test_gauss_rule_is_exact_to_degree_2q_minus_1(monkeypatch, seed):
    # A random measure of 300 points: the q-node rule reproduces every
    # moment of degree below 2q, drawing from no generator.
    rng = generator(seed)
    A = DiagonalOperator(rng.standard_normal(300) + 1j * rng.standard_normal(300))
    monkeypatch.setattr(spectral, "generator", None)
    for q in (8, 64):
        x, mu = gauss_rule(A, q)
        assert x.size == q and (mu > 0).all() and (np.abs(x) < 1).all()
        w = spectral_profile(A, 2 * q - 1).w_scaled
        assert np.abs(rule_moments((x, mu), 2 * q - 1) - w).max() <= 1e-14 * w[0]


def test_gauss_rule_of_64_nodes_gives_cs_long_moments_to_depth_600():
    # The spectrum of the default cs-mse sensing diagonal, 4096 distinct
    # eigenvalues: 64 nodes give every moment to depth 600 within 1.3e-13
    # of w_0, where 48 nodes are near 1e-10 off.
    cfg = CsMseConfig()
    A = gen_sensing_diagonal(cfg.rows, cfg.n, cfg.kappa)
    w = spectral_profile(A, 600).w_scaled
    assert np.abs(rule_moments(gauss_rule(A, 64), 600) - w).max() <= 1e-12 * w[0]
    assert np.abs(rule_moments(gauss_rule(A, 48), 600) - w).max() > 1e-11 * w[0]


def test_gauss_rule_is_memoized_read_only_and_stops_on_few_points():
    # Gram eigenvalues {1, 4, 4}: a measure on two points has a two-node
    # rule, exact at every degree.
    A = DiagonalOperator(np.array([1.0, 2.0, 2.0]))
    x, mu = rule = gauss_rule(A, 64)
    assert gauss_rule(A, 64) is rule and gauss_rule(A, 8) is not rule
    assert not x.flags.writeable and not mu.flags.writeable
    assert np.allclose(x, [-0.6, 0.6], rtol=0, atol=1e-15)
    w = spectral_profile(A, 40).w_scaled
    assert np.allclose(rule_moments(rule, 40), w, rtol=0, atol=1e-15 * w[0])
    with pytest.raises(ValueError):
        gauss_rule(A, 0)
