"""End-to-end acceptance gate.

Nine numbered performance and equivalence targets, one test per target,
each printing a single PASS/FAIL line with the measured values (visible
with ``pytest -s`` or in the captured output of a failing test).
"""

import time

import numpy as np
import pytest

from ibsmamp.estimators import (MampConfig, MampState, damping_update,
                                lmmse_estimate_gaussian, mle_step,
                                nle_orthogonalize, run_cd_mamp, run_cd_oamp)
from ibsmamp.harness import (ComplexityConfig, CsMseConfig, IfdmBerConfig,
                             run_complexity_table, run_cs_mse, run_ifdm_ber)
from ibsmamp.ibs import BASES, VARIANTS, IbsSpec, build_ibs_transform
from ibsmamp.kernels import fft_forward, fft_operator, fwht_forward
from ibsmamp.operators import materialize_dense
from ibsmamp.rng import generator
from ibsmamp.scenarios import (STREAM_SOURCE, BernoulliGaussianPrior,
                               gen_sensing_diagonal, mse, simulate_observation)


def report(num: int, ok: bool, detail: str, elapsed: float) -> str:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} {detail} ({elapsed:.1f}s)"
    print(line)
    return line


def test_criterion_1_complexity_table_exact_values():
    t0 = time.perf_counter()
    expected = {128: (58.33, 69.69), 32: (41.67, 57.57),
                8: (25.00, 45.45), 4: (16.67, 39.39)}
    rows = run_complexity_table(ComplexityConfig(n=4096,
                                                 n_s_list=tuple(expected),
                                                 taps=8))
    worst = 0.0
    for _, n_s, t_pct, o_pct in rows:
        want_t, want_o = expected[n_s]
        worst = max(worst, abs(t_pct - want_t), abs(o_pct - want_o))
    elapsed = time.perf_counter() - t0
    line = report(1, worst <= 0.01 and elapsed < 1.0,
                  f"max deviation {worst:.4f} pp", elapsed)
    assert worst <= 0.01, line
    assert elapsed < 1.0, line


def test_criterion_2_unitarity_all_variants_bases_seeds():
    t0 = time.perf_counter()
    worst = 0.0
    for n, n_s, m in ((64, 8, 32), (256, 32, 128), (256, 16, 256)):
        eye = np.eye(m)
        for variant in VARIANTS:
            for base in BASES:
                for seed in range(50):
                    spec = IbsSpec(n=n, n_s=n_s, m=m, variant=variant,
                                   base=base, block_seed_base=1000 * seed,
                                   whole_seed=1000 * seed + 17)
                    dense = materialize_dense(build_ibs_transform(spec))
                    gap = float(np.max(np.abs(dense @ dense.conj().T - eye)))
                    worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    line = report(2, worst < 1e-10 and elapsed < 30.0,
                  f"max |XiXi^H - I| = {worst:.2e} over 1200 transforms", elapsed)
    assert worst < 1e-10, line
    assert elapsed < 30.0, line


def test_criterion_3_fast_transforms_match_naive_oracles():
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(1, 11):
        n = 2 ** k
        idx = np.arange(n)
        dft = np.exp(-2j * np.pi * np.outer(idx, idx) / n) / np.sqrt(n)
        had = np.array([[1.0]])
        h2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        while had.shape[0] < n:
            had = np.kron(h2, had)
        rng = generator(k)
        for _ in range(10):
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            worst = max(worst, float(np.max(np.abs(fft_forward(v) - dft @ v))),
                        float(np.max(np.abs(fwht_forward(v) - had @ v))))
    elapsed = time.perf_counter() - t0
    line = report(3, worst < 1e-12 and elapsed < 30.0,
                  f"max kernel error {worst:.2e}", elapsed)
    assert worst < 1e-12, line
    assert elapsed < 30.0, line


def test_criterion_4_gaussian_estimators_hit_closed_form_lmmse():
    t0 = time.perf_counter()
    n, m, kappa, snr_db, seed = 8192, 4096, 10.0, 30.0, 1
    A = gen_sensing_diagonal(m, n, kappa).operator()
    spec = IbsSpec(n=n, n_s=n, m=m, variant="BW_IBS", base="FFT",
                   block_seed_base=101, whole_seed=202)
    Xi = build_ibs_transform(spec)
    prior = BernoulliGaussianPrior(rho=1.0)
    s = prior.sample(n, generator(seed, STREAM_SOURCE))
    instance = simulate_observation(A, Xi, s, snr_db, seed)

    anchor = mse(lmmse_estimate_gaussian(instance, 1.0), instance.s_true)
    oamp = run_cd_oamp(instance, prior, MampConfig(max_iters=16))
    oamp_gap = abs(oamp.final_mse - anchor)
    mamp = run_cd_mamp(instance, Xi, prior,
                       MampConfig(max_iters=200, stop_on_stall=False))
    mamp_rel = abs(mamp.final_mse - anchor) / anchor
    elapsed = time.perf_counter() - t0
    ok = mamp_rel < 0.05 and oamp_gap <= 1e-8 and elapsed < 120.0
    line = report(4, ok, f"anchor mse {anchor:.6f}, linear-oracle gap "
                  f"{oamp_gap:.2e}, memory estimator off {100 * mamp_rel:.2f}%",
                  elapsed)
    assert mamp_rel < 0.05, line
    assert oamp_gap <= 1e-8, line
    assert elapsed < 120.0, line


def test_criterion_5_variant_mse_ordering_and_full_transform_gap():
    t0 = time.perf_counter()
    cfg = CsMseConfig(seed=1, trials=20, threads=4, max_iters=128, relax=1.0)
    _, summary = run_cs_mse(cfg)
    means = {row[0]: row[3] for row in summary}
    order_ok = (means["BS"] >= means["W_IBS"] >= means["B_IBS"]
                >= means["BW_IBS"])
    gap_db = abs(10.0 * np.log10(means["BW_IBS"] / means["full"]))
    gap_ok = gap_db <= 1.0
    elapsed = time.perf_counter() - t0
    detail = ("mean final mse BS {BS:.5f} >= W_IBS {W_IBS:.5f} >= "
              "B_IBS {B_IBS:.5f} >= BW_IBS {BW_IBS:.5f} [{o}]; "
              "|BW_IBS - full| = {g:.2f} dB [{gk}]").format(
                  o="ok" if order_ok else "violated",
                  g=gap_db, gk="ok" if gap_ok else "exceeds 1 dB", **means)
    line = report(5, order_ok and gap_ok and elapsed < 600.0, detail, elapsed)
    assert order_ok, line
    assert gap_ok, line
    assert elapsed < 600.0, line


def test_criterion_6_single_block_pipeline_is_bit_identical_to_full_fft():
    t0 = time.perf_counter()
    n, seed = 2048, 3
    A = gen_sensing_diagonal(n, n, 10.0).operator()
    prior = BernoulliGaussianPrior(rho=0.1)
    s = prior.sample(n, generator(seed, STREAM_SOURCE))
    ibs = build_ibs_transform(IbsSpec(n=n, n_s=n, m=n, variant="BS"))
    full = fft_operator(n)
    cfg = MampConfig(max_iters=40, stop_on_stall=False)
    run_a = run_cd_mamp(simulate_observation(A, ibs, s, 30.0, seed), ibs,
                        prior, cfg)
    run_b = run_cd_mamp(simulate_observation(A, full, s, 30.0, seed), full,
                        prior, cfg)
    traj_a = [(p.t, p.mse, p.v_gamma, p.v_phi) for p in run_a.points]
    traj_b = [(p.t, p.mse, p.v_gamma, p.v_phi) for p in run_b.points]
    same = traj_a == traj_b and np.array_equal(run_a.s_hat, run_b.s_hat)
    elapsed = time.perf_counter() - t0
    line = report(6, same and elapsed < 60.0,
                  f"{len(traj_a)} trajectory points bit-identical: {same}",
                  elapsed)
    assert same, line
    assert elapsed < 60.0, line


def test_criterion_7_error_orthogonality_monte_carlo():
    t0 = time.perf_counter()
    dim = 16384
    rho, sigma_s2, v = 0.1, 10.0, 0.25
    prior = BernoulliGaussianPrior(rho=rho, sigma_s2=sigma_s2)

    def corr(a, b):
        return float(abs(np.vdot(a, b))
                     / max(np.linalg.norm(a) * np.linalg.norm(b), 1e-300))

    nle_worst = 0.0
    for seed in range(10):
        rng = generator(seed, 5)
        s = prior.sample(dim, rng)
        r = s + np.sqrt(v / 2.0) * (rng.standard_normal(dim)
                                    + 1j * rng.standard_normal(dim))
        den = prior.denoise(r, v)
        s_next, _, stalled = nle_orthogonalize(den, r, v)
        assert not stalled
        nle_worst = max(nle_worst, corr(s_next - s, r - s))

    n, n_s, m, iters = 16384, 1024, 8192, 8
    A = gen_sensing_diagonal(m, n, 10.0).operator()
    mle_worst = 0.0
    for seed in range(10):
        spec = IbsSpec(n=n, n_s=n_s, m=m, variant="BW_IBS",
                       block_seed_base=7000 + 100 * seed, whole_seed=9000 + seed)
        Xi = build_ibs_transform(spec)
        s = prior.sample(n, generator(seed, STREAM_SOURCE))
        instance = simulate_observation(A, Xi, s, 30.0, seed)
        state = MampState(A, Xi, instance.y, instance.noise_var, MampConfig(max_iters=iters))
        for _ in range(iters):
            # The window ends in the free row; the row before it is h_prev.
            h_prev = state.window()[0][-2].copy()
            r, v_gamma = mle_step(state)
            mle_worst = max(mle_worst, corr(r - s, h_prev - s))
            den = prior.denoise(r, v_gamma)
            s_ext, _, _ = nle_orthogonalize(den, r, v_gamma)
            state.push(s_ext, instance.y - state.forward(s_ext))
    elapsed = time.perf_counter() - t0
    ok = mle_worst < 0.05 and nle_worst < 0.02 and elapsed < 300.0
    line = report(7, ok, f"max |corr|: linear stage {mle_worst:.4f} "
                  f"(bound 0.05), denoiser stage {nle_worst:.4f} (bound 0.02), "
                  f"D = {dim}", elapsed)
    assert mle_worst < 0.05, line
    assert nle_worst < 0.02, line
    assert elapsed < 300.0, line


# One-sided normal quantile at 0.05 / 12: a 5% family-wise error rate over
# the 12 (n_s, snr) points of the default sweep.
PAIRED_Z = 2.64


def test_criterion_8_qpsk_ber_base_ordering_and_full_transform_closeness():
    t0 = time.perf_counter()
    cfg = IfdmBerConfig(seed=1, trials=256, threads=4)
    rows, summary = run_ifdm_ber(cfg)
    assert cfg.n * cfg.trials >= 100 * 1000  # >= 100 / target_ber symbols
    mean = {(row[0], row[3]): row[5] for row in summary}
    ber = {(row[0], row[3], row[4]): row[6] for row in rows}

    # Both bases see the same channel, symbols and noise in every trial, so
    # the ordering is judged on the paired per-trial differences: FFT is
    # worse than FWHT at a point only if its mean excess is beyond
    # PAIRED_Z standard errors (any excess at all when the SE is zero).
    points, violations = [], []
    for n_s in cfg.n_s_list:
        for snr in cfg.snr_db_list:
            diff = np.array([ber[(f"ibs-fft-{n_s}", snr, k)]
                             - ber[(f"ibs-fwht-{n_s}", snr, k)]
                             for k in range(cfg.trials)])
            excess = float(diff.mean())
            se = float(diff.std(ddof=1) / np.sqrt(cfg.trials))
            point = f"n_s={n_s} snr={snr:g}: fft-fwht {excess:+.2e} (se {se:.1e})"
            points.append(point)
            if excess > PAIRED_Z * se:
                violations.append(point)
    order_ok = not violations

    # Operating point: the swept SNR where the full transform is closest
    # to BER 1e-3 (log scale); the coarse block scheme must be within 2x.
    full = {snr: mean[("full", snr)] for snr in cfg.snr_db_list
            if mean[("full", snr)] > 0.0}
    op_snr = min(full, key=lambda snr: abs(np.log10(full[snr]) + 3.0))
    ratio = mean[(f"ibs-fft-128", op_snr)] / full[op_snr]
    close_ok = ratio <= 2.0
    elapsed = time.perf_counter() - t0
    detail = (f"base ordering: {len(violations)} of {len(points)} points have "
              f"fft-fwht above {PAIRED_Z} se [{'; '.join(points)}]; "
              f"op point snr={op_snr:g} dB full ber {full[op_snr]:.2e}, "
              f"block/full ratio {ratio:.2f} [{'ok' if close_ok else '>2x'}]")
    line = report(8, order_ok and close_ok and elapsed < 1200.0, detail, elapsed)
    assert order_ok, line
    assert close_ok, line
    assert elapsed < 1200.0, line


def test_criterion_9_damping_weights_reach_grid_optimum():
    t0 = time.perf_counter()
    rng = generator(99)
    line2 = np.linspace(-1.0, 2.0, 601)
    grid2 = np.stack([line2, 1.0 - line2], axis=1)
    line3 = np.linspace(-1.0, 2.0, 151)
    a, b = np.meshgrid(line3, line3)
    grid3 = np.stack([a.ravel(), b.ravel(), 1.0 - a.ravel() - b.ravel()], axis=1)
    worst_gap, diag_ok = -np.inf, True
    for trial in range(1000):
        k = 2 + trial % 2
        g = rng.standard_normal((k, k))
        V = g @ g.T
        cands = np.zeros((k, 1), dtype=complex)
        zeta, _, _ = damping_update(cands, V)
        obj = float(zeta @ V @ zeta)
        grid = grid2 if k == 2 else grid3
        grid_min = float(np.einsum("pi,ij,pj->p", grid, V, grid).min())
        worst_gap = max(worst_gap, obj - grid_min)
        diag_ok = diag_ok and obj <= float(np.min(np.diag(V))) + 1e-12
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 1e-3 and diag_ok and elapsed < 10.0
    line = report(9, ok, f"max objective gap to grid {worst_gap:.2e}, "
                  f"never above best single candidate: {diag_ok}", elapsed)
    assert worst_gap <= 1e-3, line
    assert diag_ok, line
    assert elapsed < 10.0, line
