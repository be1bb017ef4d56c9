"""End-to-end acceptance gate.

Nine numbered performance and equivalence targets, one test per target,
each printing a single PASS/FAIL line with the measured values (visible
with ``pytest -s`` or in the captured output of a failing test).
"""

import time

import numpy as np

from ibsmamp.estimators import (MampConfig, MampState, lmmse_estimate_gaussian,
                                mle_step, nle_orthogonalize, run_cd_mamp, run_cd_oamp)
from ibsmamp.harness import CsMseConfig, IfdmBerConfig, run_cs_mse, run_ifdm_ber
from ibsmamp.ibs import IbsSpec, build_ibs_transform
from ibsmamp.rng import generator
from ibsmamp.scenarios import (STREAM_SOURCE, BernoulliGaussianPrior,
                               gen_sensing_diagonal, mse, simulate_observation)
from ibsmamp.selftest import (abs_corr, check_complexity_table, check_damping,
                              check_degenerate_single_block, check_kernels_against_naive,
                              check_nle_orthogonality, check_unitarity)


def report(num: int, ok: bool, detail: str, elapsed: float) -> str:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} {detail} ({elapsed:.1f}s)"
    print(line)
    return line


def gate(num: int, limit: float, check, **sizes) -> None:
    """Run one shared selftest check at the criterion's sizes under its time limit."""
    t0 = time.perf_counter()
    ok, detail = check(**sizes)
    elapsed = time.perf_counter() - t0
    line = report(num, ok and elapsed < limit, detail, elapsed)
    assert ok, line
    assert elapsed < limit, line


def test_criterion_1_complexity_table_exact_values():
    gate(1, 1.0, check_complexity_table)


def test_criterion_2_unitarity_all_variants_bases_seeds():
    gate(2, 30.0, check_unitarity, shapes=((64, 8, 32), (256, 32, 128), (256, 16, 256)),
         seed_pairs=[(1000 * seed, 1000 * seed + 17) for seed in range(50)])


def test_criterion_3_fast_transforms_match_naive_oracles():
    gate(3, 30.0, check_kernels_against_naive, sizes=[2 ** k for k in range(1, 11)],
         vectors=10, seed=0)


def test_criterion_4_gaussian_estimators_hit_closed_form_lmmse():
    t0 = time.perf_counter()
    n, m, kappa, snr_db, seed = 8192, 4096, 10.0, 30.0, 1
    A = gen_sensing_diagonal(m, n, kappa)
    spec = IbsSpec(n=n, n_s=n, m=m, variant="BW_IBS", base="FFT",
                   block_seed_base=101, whole_seed=202)
    Xi = build_ibs_transform(spec)
    prior = BernoulliGaussianPrior(rho=1.0)
    s = prior.sample(n, generator(seed, STREAM_SOURCE))
    instance = simulate_observation(A, Xi, s, snr_db, seed)

    anchor = mse(lmmse_estimate_gaussian(instance, 1.0), instance.s_true)
    oamp = run_cd_oamp(instance, prior, MampConfig(max_iters=16))
    oamp_gap = abs(oamp.final_mse - anchor)
    mamp = run_cd_mamp(instance, Xi, prior, MampConfig(max_iters=200))
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
    cfg = CsMseConfig(seed=1, trials=20, threads=4, max_iters=128)
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
    gate(6, 60.0, check_degenerate_single_block, n=2048, seed=3, iters=40)


def test_criterion_7_error_orthogonality_monte_carlo():
    t0 = time.perf_counter()
    prior = BernoulliGaussianPrior(rho=0.1, sigma_s2=10.0)
    nle_ok, nle_detail = check_nle_orthogonality(v=0.25, seeds=range(10))

    n, n_s, m, iters = 16384, 1024, 8192, 8
    A = gen_sensing_diagonal(m, n, 10.0)
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
            h_prev = state.history.window()[0][-2].copy()
            r, v_gamma = mle_step(state, 1.0 / state.lambda_dagger)
            mle_worst = max(mle_worst, abs_corr(r - s, h_prev - s))
            den = prior.denoise(r, v_gamma)
            s_ext, _, _ = nle_orthogonalize(den, r, v_gamma)
            state.history.push(s_ext, instance.y - state.forward(s_ext))
    elapsed = time.perf_counter() - t0
    ok = mle_worst < 0.05 and nle_ok and elapsed < 300.0
    line = report(7, ok, f"max |corr|: linear stage {mle_worst:.4f} (bound 0.05), "
                  f"{nle_detail}", elapsed)
    assert mle_worst < 0.05, line
    assert nle_ok, line
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
    gate(9, 10.0, check_damping, trials=1000, seed=99)
