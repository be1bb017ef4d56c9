"""Built-in invariant checks, runnable without pytest.

Each check prints one "ok"/"FAIL" line.  ``run_selftest`` returns True
only if every check passes.  The checks are deliberately small: they are
a smoke layer for installed environments, not the full test suite.
"""

from __future__ import annotations

import itertools

import numpy as np

from .denoisers import denoise_bernoulli_gaussian, denoise_qpsk
from .estimators import (MampConfig, MampState, damping_update, mle_step,
                         nle_orthogonalize, run_cd_mamp)
from .ibs import IbsSpec, build_ibs_transform, relative_complexity
from .kernels import fft_forward, fwht_forward
from .operators import DiagonalOperator, LinearOperator, materialize_dense
from .rng import Permutation, generator, make_permutation
from .scenarios import (BernoulliGaussianPrior, gen_sensing_diagonal,
                        simulate_observation)

_CHECKS = []


def _check(fn):
    _CHECKS.append(fn)
    return fn


@_check
def check_complexity_table() -> tuple[bool, str]:
    """Relative cost percentages for the n=4096 reference block sizes."""
    expected = {128: (58.33, 69.69), 32: (41.67, 57.57),
                8: (25.00, 45.45), 4: (16.67, 39.39)}
    worst = 0.0
    for n_s, (t_pct, o_pct) in expected.items():
        t, o = relative_complexity(4096, n_s, p=8)
        worst = max(worst, abs(100 * t - t_pct), abs(100 * o - o_pct))
    return worst <= 0.01, f"max deviation {worst:.4f} pp"


@_check
def check_unitarity() -> tuple[bool, str]:
    """Row-orthonormality of every variant/base pair at one small shape."""
    worst = 0.0
    for variant, base in itertools.product(("BS", "W_IBS", "B_IBS", "BW_IBS"),
                                           ("FFT", "FWHT")):
        spec = IbsSpec(n=64, n_s=8, m=32, variant=variant, base=base,
                       direction="kernel", block_seed_base=7, whole_seed=19)
        dense = materialize_dense(build_ibs_transform(spec))
        worst = max(worst, float(np.max(np.abs(dense @ dense.conj().T - np.eye(32)))))
    return worst < 1e-10, f"max |XiXi^H - I| = {worst:.2e}"


@_check
def check_kernels_against_naive() -> tuple[bool, str]:
    """Fast transforms against direct matrix products at n=16."""
    n = 16
    rng = generator(5)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    k = np.arange(n)
    dft = np.exp(-2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)
    had = np.array([[1.0]])
    while had.shape[0] < n:
        had = np.block([[had, had], [had, -had]])
    had = had / np.sqrt(n)
    err_fft = float(np.max(np.abs(fft_forward(v) - dft @ v)))
    err_fwht = float(np.max(np.abs(fwht_forward(v) - had @ v)))
    worst = max(err_fft, err_fwht)
    return worst < 1e-12, f"max kernel error {worst:.2e}"


@_check
def check_permutations() -> tuple[bool, str]:
    """Bijectivity and determinism of permutations."""
    p = make_permutation(257, 1234)
    q = make_permutation(257, 1234)
    if not np.array_equal(p.indices, q.indices):
        return False, "same seed produced different permutations"
    ok = np.array_equal(np.sort(p.indices), np.arange(257))
    ident = Permutation.identity(4)
    ok = ok and np.array_equal(ident.apply(np.arange(4.0)), np.arange(4.0))
    return ok, "bijection, identity"


@_check
def check_denoisers() -> tuple[bool, str]:
    """Posterior moments against brute-force oracles on small grids."""
    r = np.array([0.3 - 0.1j, 1.2 + 0.8j, -2.0 + 0.4j])
    v = 0.5
    out = denoise_qpsk(r, v)
    symbols = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2)
    lik = np.exp(-np.abs(r[:, None] - symbols[None, :]) ** 2 / v)
    lik /= lik.sum(axis=1, keepdims=True)
    mean = lik @ symbols
    var = (lik * np.abs(symbols[None, :] - mean[:, None]) ** 2).sum(axis=1)
    err = max(float(np.max(np.abs(out.posterior_mean - mean))),
              abs(float(np.mean(out.coord_var) - np.mean(var))))
    bg = denoise_bernoulli_gaussian(np.array([0.0 + 0j]), 1.0, rho=1.0, sigma_s2=1.0)
    err = max(err, abs(float(np.mean(bg.coord_var)) - 0.5))
    return err < 1e-10, f"max denoiser error {err:.2e}"


@_check
def check_nle_orthogonality(denoise_fn=None) -> tuple[bool, str]:
    """Orthogonalized denoiser output decorrelates from its input error.

    ``denoise_fn`` is injectable so a deliberately broken denoiser can be
    shown to trip this check.
    """
    if denoise_fn is None:
        denoise_fn = denoise_bernoulli_gaussian
    rng = generator(77)
    dim = 16384
    rho, sigma_s2, v = 0.1, 10.0, 0.8
    mask = rng.random(dim) < rho
    s = mask * (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) \
        * np.sqrt(sigma_s2 / 2)
    noise = (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) * np.sqrt(v / 2)
    r = s + noise
    den = denoise_fn(r, v, rho=rho, sigma_s2=sigma_s2)
    s_next, v_phi, stalled = nle_orthogonalize(den, r, v)
    if stalled:
        return False, "nle stalled on a well-posed input"
    err_in = r - s
    err_out = s_next - s
    corr = abs(np.vdot(err_in, err_out)) / dim
    return corr < 0.05, f"|<in err, out err>|/D = {corr:.4f}"


@_check
def check_mle_normalization() -> tuple[bool, str]:
    """First memory-estimator output has unit gain on the true signal."""
    alpha = np.array([2.0, 1.0])
    A = DiagonalOperator(alpha.astype(complex))
    s = np.array([1.0 + 0j, -1.0 + 0j])
    y = A.apply(s)
    # The transform is the identity here, so the lift back from the
    # measurement domain is a no-op (mle_step applies A^H itself).
    identity = LinearOperator(2, 2, lambda v: v, lambda v: v)
    state = MampState(A, identity, y, 0.0, MampConfig(max_iters=4))
    w = state.w
    if abs(w[0] - 2.5) > 1e-12 or abs(w[1] - (-0.9)) > 1e-12:
        return False, f"trace moments off: {w[:2]}"
    r, v = mle_step(state)
    expected = A.apply_adjoint(y) / w[0]
    err = float(np.max(np.abs(r - expected)))
    return err < 1e-12, f"first-step error {err:.2e}"


@_check
def check_damping() -> tuple[bool, str]:
    """Analytic damping weights beat a dense grid on random PSD matrices."""
    rng = generator(31)
    worst_gap = 0.0
    grid = np.linspace(0.0, 1.0, 201)
    for _ in range(50):
        g = rng.standard_normal((2, 2))
        V = g @ g.T + 1e-3 * np.eye(2)
        zeta, _, _ = damping_update(np.zeros((2, 1)), V)
        obj = float(zeta @ V @ zeta)
        vals = (grid ** 2 * V[0, 0] + 2 * grid * (1 - grid) * V[0, 1]
                + (1 - grid) ** 2 * V[1, 1])
        worst_gap = max(worst_gap, obj - float(vals.min()))
        if obj > min(V[0, 0], V[1, 1]) + 1e-12:
            return False, "combined variance above best single candidate"
    return worst_gap < 1e-3, f"max gap to grid optimum {worst_gap:.2e}"


@_check
def check_trivial_recovery() -> tuple[bool, str]:
    """Noiseless well-conditioned square system recovers the source."""
    n = 256
    prior = BernoulliGaussianPrior(rho=0.25)
    diag = gen_sensing_diagonal(n, n, kappa=2.0)
    spec = IbsSpec(n=n, n_s=32, m=n, variant="BW_IBS", base="FFT",
                   direction="kernel", block_seed_base=3, whole_seed=9)
    Xi = build_ibs_transform(spec)
    s = prior.sample(n, generator(12, 2))
    instance = simulate_observation(diag.operator(), Xi, s, snr_db=None, seed=12)
    run = run_cd_mamp(instance, Xi, prior,
                      MampConfig(max_iters=60, stop_tolerance=1e-12))
    return run.final_mse < 1e-8, f"final mse {run.final_mse:.2e}"


@_check
def check_degenerate_single_block() -> tuple[bool, str]:
    """One whole-signal block with identity permutations equals the kernel."""
    n = 64
    spec = IbsSpec(n=n, n_s=n, m=n, variant="BS", base="FFT",
                   direction="kernel", block_seed_base=0, whole_seed=0)
    op = build_ibs_transform(spec)
    v = generator(3).standard_normal(n) + 1j * generator(4).standard_normal(n)
    err = float(np.max(np.abs(op.apply(v) - fft_forward(v))))
    return err == 0.0, f"max |IBS - kernel| = {err:.2e}"


@_check
def check_observation_determinism() -> tuple[bool, str]:
    """Identical seeds give identical observations; different seeds differ."""
    n = 128
    diag = gen_sensing_diagonal(n // 2, n, kappa=4.0)
    spec = IbsSpec(n=n, n_s=16, m=n // 2, variant="BW_IBS", base="FFT",
                   direction="kernel", block_seed_base=5, whole_seed=6)
    Xi = build_ibs_transform(spec)
    prior = BernoulliGaussianPrior(rho=0.2)
    s = prior.sample(n, generator(9, 2))
    a = simulate_observation(diag.operator(), Xi, s, 20.0, seed=40)
    b = simulate_observation(diag.operator(), Xi, s, 20.0, seed=40)
    c = simulate_observation(diag.operator(), Xi, s, 20.0, seed=41)
    same = np.array_equal(a.y, b.y) and not np.array_equal(a.y, c.y)
    return same, "byte-identical for equal seeds"


def run_selftest(verbose: bool = True) -> bool:
    """Run every registered check; print one line per check."""
    all_ok = True
    for fn in _CHECKS:
        name = fn.__name__.removeprefix("check_")
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok = all_ok and ok
        if verbose:
            print(f"[{'ok' if ok else 'FAIL'}] {name}: {detail}")
    return all_ok
