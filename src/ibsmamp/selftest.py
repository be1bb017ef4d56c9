"""Built-in invariant checks, runnable without pytest.

Each check is the one definition of an invariant the paper's claims rest
on.  It takes its sizes, seeds and trial counts as keyword arguments,
whose defaults are a small smoke size, and returns ``(ok, detail)``.
``run_selftest`` runs every registered check at its defaults and prints
one "ok"/"FAIL" line each; the acceptance criteria and the unit tests
call the same checks at their own sizes.  The dense oracles the checks
compare against (``dft_matrix``, ``hadamard_matrix``, ``qpsk_posterior``)
are defined here once as well.
"""

from __future__ import annotations

import itertools

import numpy as np

from .denoisers import denoise_bernoulli_gaussian, denoise_qpsk
from .estimators import (STOP_REASONS, MampConfig, MampState, damping_update, mle_step,
                         nle_orthogonalize, run_cd_mamp)
from .harness import ComplexityConfig, run_complexity_table
from .ibs import BASES, VARIANTS, IbsSpec, build_ibs_transform
from .kernels import fft_adjoint, fft_forward, fft_operator, fwht_forward
from .operators import DiagonalOperator, LinearOperator, materialize_dense
from .rng import generator, make_permutation
from .scenarios import (STREAM_SOURCE, BernoulliGaussianPrior, gen_sensing_diagonal,
                        simulate_observation)

_CHECKS = []


def _check(fn):
    _CHECKS.append(fn)
    return fn


def dft_matrix(n: int) -> np.ndarray:
    """The n-point unitary DFT matrix exp(-2 pi i jk / n) / sqrt(n)."""
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)


def hadamard_matrix(n: int) -> np.ndarray:
    """The n-point orthonormal Sylvester-Hadamard matrix in natural order."""
    h = np.array([[1.0]])
    h2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    while h.shape[0] < n:
        h = np.kron(h2, h)
    return h


def qpsk_posterior(r: np.ndarray, v: float) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance of unit-power QPSK seen through CN(0, v)
    noise, summed over the four symbols."""
    symbols = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0)
    lik = np.exp(-np.abs(r[:, None] - symbols[None, :]) ** 2 / v)
    lik /= lik.sum(axis=1, keepdims=True)
    mean = lik @ symbols
    return mean, (lik * np.abs(symbols[None, :] - mean[:, None]) ** 2).sum(axis=1)


def abs_corr(a: np.ndarray, b: np.ndarray) -> float:
    """Normalized |<a, b>| / (|a| |b|)."""
    return float(abs(np.vdot(a, b)) / max(np.linalg.norm(a) * np.linalg.norm(b), 1e-300))


# Kernel name -> (fast transform, dense oracle of its size).
_KERNELS = {"fft": (fft_forward, dft_matrix),
            "fft-adjoint": (fft_adjoint, lambda n: dft_matrix(n).conj().T),
            "fwht": (fwht_forward, hadamard_matrix)}


@_check
def check_complexity_table() -> tuple[bool, str]:
    """Relative cost percentages of the n=4096, p=8 reference block sizes,
    as the complexity experiment writes them."""
    expected = {128: (58.33, 69.69), 32: (41.67, 57.57),
                8: (25.00, 45.45), 4: (16.67, 39.39)}
    rows = run_complexity_table(ComplexityConfig(n=4096, n_s_list=tuple(expected), taps=8))
    worst = max(max(abs(t_pct - expected[n_s][0]), abs(o_pct - expected[n_s][1]))
                for _, n_s, t_pct, o_pct in rows)
    return worst <= 0.01, f"max deviation {worst:.4f} pp"


@_check
def check_unitarity(shapes=((64, 8, 32),), seed_pairs=((7, 19),), variants=VARIANTS,
                    bases=BASES) -> tuple[bool, str]:
    """Row-orthonormality of every variant and base at each (n, n_s, m)
    shape and (block_seed_base, whole_seed) pair."""
    worst, count = 0.0, 0
    for (n, n_s, m), variant, base, (block_seed, whole_seed) in itertools.product(
            shapes, variants, bases, seed_pairs):
        spec = IbsSpec(n=n, n_s=n_s, m=m, variant=variant, base=base,
                       block_seed_base=block_seed, whole_seed=whole_seed)
        dense = materialize_dense(build_ibs_transform(spec))
        worst = max(worst, float(np.max(np.abs(dense @ dense.conj().T - np.eye(m)))))
        count += 1
    return worst < 1e-10, f"max |XiXi^H - I| = {worst:.2e} over {count} transforms"


@_check
def check_kernels_against_naive(sizes=(16,), vectors=1, seed=1,
                                kernels=("fft", "fwht")) -> tuple[bool, str]:
    """Fast transforms against their dense matrices; at size 2**k the
    vectors come from generator(seed + k)."""
    worst = 0.0
    for n in sizes:
        rng = generator(seed + n.bit_length() - 1)
        pairs = [(fast, oracle(n)) for fast, oracle in (_KERNELS[k] for k in kernels)]
        for _ in range(vectors):
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            for fast, dense in pairs:
                worst = max(worst, float(np.max(np.abs(fast(v) - dense @ v))))
    return worst < 1e-12, f"max kernel error {worst:.2e}"


@_check
def check_permutations(sizes=(257,), seeds=(1234,)) -> tuple[bool, str]:
    """Permutations are bijections, drawn alike from equal seeds."""
    for size, seed in itertools.product(sizes, seeds):
        p = make_permutation(size, seed)
        if p != make_permutation(size, seed) or not np.array_equal(np.sort(p.indices),
                                                                    np.arange(size)):
            return False, f"size {size}, seed {seed}: no reproducible bijection"
    return True, "reproducible bijections"


@_check
def check_denoisers(r=(0.3 - 0.1j, 1.2 + 0.8j, -2.0 + 0.4j), v=0.5) -> tuple[bool, str]:
    """QPSK posterior moments at the points r against the four-point sum,
    and the dense Bernoulli-Gaussian variance against its closed form."""
    r = np.asarray(r, dtype=complex)
    out = denoise_qpsk(r, v)
    mean, var = qpsk_posterior(r, v)
    bg = denoise_bernoulli_gaussian(np.array([0.0 + 0j]), 1.0, rho=1.0, sigma_s2=1.0)
    err = max(float(np.max(np.abs(out.posterior_mean - mean))),
              abs(float(np.mean(out.coord_var) - np.mean(var))),
              abs(float(np.mean(bg.coord_var)) - 0.5))
    return err < 1e-12, f"max denoiser error {err:.2e}"


@_check
def check_nle_orthogonality(dim=16384, v=0.8, seeds=(77,),
                            denoise_fn=denoise_bernoulli_gaussian) -> tuple[bool, str]:
    """Orthogonalized denoiser output error is uncorrelated with its input
    error: the largest normalized |corr| over the seeds stays below 0.02.

    ``denoise_fn`` is injectable so a deliberately broken denoiser can be
    shown to trip this check.
    """
    prior = BernoulliGaussianPrior(rho=0.1, sigma_s2=10.0)
    worst = 0.0
    for seed in seeds:
        rng = generator(seed, 5)
        s = prior.sample(dim, rng)
        r = s + np.sqrt(v / 2.0) * (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        den = denoise_fn(r, v, rho=prior.rho, sigma_s2=prior.sigma_s2)
        s_next, _, stalled = nle_orthogonalize(den, r, v)
        if stalled:
            return False, f"nle stalled on a well-posed input (seed {seed})"
        worst = max(worst, abs_corr(s_next - s, r - s))
    return worst < 0.02, f"denoiser stage {worst:.4f} (bound 0.02), D = {dim}"


@_check
def check_mle_normalization(alpha=(2.0, 1.0)) -> tuple[bool, str]:
    """First memory-estimator output of the noiseless y = A s, A = diag(alpha),
    s = (1, -1, 1, ...), is A^H y / w_0: unit gain on the true signal."""
    alpha = np.asarray(alpha, dtype=complex)
    lam = np.abs(alpha) ** 2
    lam_dag = 0.5 * (lam.min() + lam.max())
    A = DiagonalOperator(alpha)
    s = (-1.0) ** np.arange(A.cols) + 0j
    y = A.apply(s)
    # The transform is the identity here, so the lift back from the
    # measurement domain is a no-op (mle_step applies A^H itself).
    identity = LinearOperator(A.cols, A.cols, lambda u: u, lambda u: u)
    state = MampState(A, identity, y, 0.0, MampConfig(max_iters=4))
    w_want = np.array([lam.mean(), np.mean(lam * (lam_dag - lam)) / lam_dag])
    if np.max(np.abs(state.w[:2] - w_want)) > 1e-12:
        return False, f"trace moments off: {state.w[:2]}"
    r, _ = mle_step(state)
    err = float(np.max(np.abs(r - A.apply_adjoint(y) / w_want[0])))
    gain = float(np.vdot(s, r).real / np.vdot(s, s).real)
    return (err < 1e-14 and abs(gain - 1.0) < 1e-12,
            f"first-step error {err:.2e}, signal gain - 1 = {gain - 1.0:.1e}")


@_check
def check_damping(trials=50, seed=31) -> tuple[bool, str]:
    """Analytic damping weights of random PSD covariances of k = 2 and 3
    candidates reach the minimum of zeta^T V zeta over a grid of weights in
    [-1, 2] that sum to one, and never exceed the best single candidate.
    The weights sum to one, and the returned variance and combination are
    zeta^T V zeta and zeta @ candidates."""
    line2 = np.linspace(-1.0, 2.0, 601)
    line3 = np.linspace(-1.0, 2.0, 151)
    a, b = np.meshgrid(line3, line3)
    grids = {2: np.stack([line2, 1.0 - line2], axis=1),
             3: np.stack([a.ravel(), b.ravel(), 1.0 - a.ravel() - b.ravel()], axis=1)}
    rng = generator(seed)
    worst_gap, diag_ok, consistent = -np.inf, True, True
    for trial in range(trials):
        k = 2 + trial % 2
        g = rng.standard_normal((k, k))
        V = g @ g.T
        cands = np.arange(2 * k, dtype=complex).reshape(k, 2)
        zeta, combined, var = damping_update(cands, V)
        obj = float(zeta @ V @ zeta)
        grid = grids[k]
        worst_gap = max(worst_gap, obj - float(np.einsum("pi,ij,pj->p", grid, V, grid).min()))
        diag_ok = diag_ok and obj <= float(np.min(np.diag(V))) + 1e-12
        consistent = (consistent and abs(zeta.sum() - 1.0) < 1e-9 and var == obj
                      and float(np.max(np.abs(combined - zeta @ cands))) < 1e-12)
    return (worst_gap <= 1e-3 and diag_ok and consistent,
            f"max objective gap to grid {worst_gap:.2e}, never above best single "
            f"candidate: {diag_ok}" + ("" if consistent else ", inconsistent zeta or outputs"))


@_check
def check_trivial_recovery(n=256, n_s=32, seed=12, spec_seeds=(3, 9)) -> tuple[bool, str]:
    """A noiseless well-conditioned square system behind a BW_IBS transform
    is recovered within 60 iterations, with a well-formed run record."""
    A = gen_sensing_diagonal(n, n, kappa=2.0)
    Xi = build_ibs_transform(IbsSpec(n=n, n_s=n_s, m=n, variant="BW_IBS",
                                     block_seed_base=spec_seeds[0],
                                     whole_seed=spec_seeds[1]))
    prior = BernoulliGaussianPrior(rho=0.25)
    s = prior.sample(n, generator(seed, STREAM_SOURCE))
    run = run_cd_mamp(simulate_observation(A, Xi, s, None, seed), Xi, prior,
                      MampConfig(max_iters=60))
    well_formed = ([p.t for p in run.points] == list(range(1, len(run.points) + 1))
                   and run.stop_reason in STOP_REASONS
                   and run.meter.channel_applies > 0 and run.meter.transform_applies > 0)
    return (run.final_mse < 1e-8 and well_formed,
            f"final mse {run.final_mse:.2e}, stop {run.stop_reason}")


@_check
def check_degenerate_single_block(n=64, seed=3, iters=10, rho=0.1,
                                  snr_db=30.0) -> tuple[bool, str]:
    """One whole-signal block with identity permutations is the plain FFT
    to the bit: its apply and adjoint, and a run_cd_mamp pipeline through
    it (trajectory and estimate)."""
    ibs = build_ibs_transform(IbsSpec(n=n, n_s=n, m=n, variant="BS"))
    full = fft_operator(n)
    rng = generator(seed)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if not (np.array_equal(ibs.apply(v), full.apply(v))
            and np.array_equal(ibs.apply_adjoint(v), full.apply_adjoint(v))):
        return False, "apply or adjoint differs from the plain kernel"
    A = gen_sensing_diagonal(n, n, 10.0)
    prior = BernoulliGaussianPrior(rho=rho)
    s = prior.sample(n, generator(seed, STREAM_SOURCE))
    cfg = MampConfig(max_iters=iters)
    runs = [run_cd_mamp(simulate_observation(A, Xi, s, snr_db, seed), Xi, prior, cfg)
            for Xi in (ibs, full)]
    traj_a, traj_b = ([(p.t, p.mse, p.v_gamma, p.v_phi) for p in run.points] for run in runs)
    same = traj_a == traj_b and np.array_equal(runs[0].s_hat, runs[1].s_hat)
    return same, f"{len(traj_a)} trajectory points bit-identical: {same}"


@_check
def check_observation_determinism(n=128, seed=40) -> tuple[bool, str]:
    """Identical seeds give identical observations; different seeds differ."""
    A = gen_sensing_diagonal(n // 2, n, kappa=4.0)
    Xi = build_ibs_transform(IbsSpec(n=n, n_s=16, m=n // 2, variant="BW_IBS",
                                     block_seed_base=5, whole_seed=6))
    s = BernoulliGaussianPrior(rho=0.2).sample(n, generator(9, STREAM_SOURCE))
    a, b, c = (simulate_observation(A, Xi, s, 20.0, seed=k)
               for k in (seed, seed, seed + 1))
    same = np.array_equal(a.y, b.y) and not np.array_equal(a.y, c.y)
    return same, "byte-identical for equal seeds"


def run_selftest(verbose: bool = True) -> bool:
    """Run every registered check at its defaults; print one line per check."""
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
