"""Memory-AMP building blocks against literal reference implementations."""

import dataclasses

import numpy as np
import pytest

from ibsmamp import estimators, memory, spectral
from ibsmamp.denoisers import DenoiserResult
from ibsmamp.errors import NormalizationError
from ibsmamp.estimators import (EstimatorRun, MampConfig, MampState,
                                _cross_cov_from_residuals, damping_update,
                                lmmse_estimate_gaussian, lmmse_mse_gaussian,
                                mle_step, nle_orthogonalize, run_cd_mamp,
                                run_cd_oamp)
from ibsmamp.harness import IfdmBerConfig
from ibsmamp.ibs import IbsSpec, build_ibs_transform
from ibsmamp.memory import History
from ibsmamp.operators import DiagonalOperator, LinearOperator, materialize_dense
from ibsmamp.rng import generator
from ibsmamp.scenarios import (BernoulliGaussianPrior, CirculantOperator, QpskPrior,
                               doppler_preset_4ghz_100kmh_15khz, gen_multipath_channel,
                               gen_sensing_diagonal, mse, simulate_observation)
from ibsmamp.selftest import (check_damping, check_degenerate_single_block,
                              check_mle_normalization, check_trivial_recovery)
from ibsmamp.spectral import spectral_profile


def fix_length(patch):
    """Switch the ``tolerance`` and ``converged`` stops off, so that a run
    lasts max_iters iterations."""
    patch.setattr(estimators, "_TOLERANCE", 0.0)
    patch.setattr(estimators, "_CONVERGED", 0.0)


@pytest.fixture
def fixed_length(monkeypatch):
    fix_length(monkeypatch)


def test_config_validation():
    MampConfig()
    assert [f.name for f in dataclasses.fields(MampConfig)] == ["max_iters", "damping_window"]
    for bad in (dict(max_iters=0), dict(damping_window=0)):
        with pytest.raises(ValueError):
            MampConfig(**bad)


def identity(n):
    """The n x n identity as a transform: a state behind it keeps its
    history in the measurement domain, and back(u) is u."""
    return LinearOperator(n, n, lambda v: v, lambda v: v)


def make_square_state(alpha, y, max_iters, damping_window=3):
    A = DiagonalOperator(np.asarray(alpha, dtype=complex))
    state = MampState(A, identity(A.rows), y, 0.0,
                      MampConfig(max_iters=max_iters, damping_window=damping_window))
    return A, state


def record_pushes(patch):
    """Let every History built under ``patch`` keep in ``history.pushed`` a
    copy of each pushed row at its own index, and in ``history.norms`` its
    np.linalg.norm: the whole history, whose rows the History itself
    releases once no later step can read them."""
    push = History.push

    def recording_push(self, estimate, residual):
        if not hasattr(self, "pushed"):
            self.pushed = np.zeros((len(self.vartheta) + 1, estimate.size), dtype=complex)
            self.norms = []
        self.pushed[len(self.norms)] = estimate
        self.norms.append(np.linalg.norm(estimate))
        push(self, estimate, residual)

    patch.setattr(History, "push", recording_push)


def buffer_row(view):
    """The row of its buffer at which ``view``, a window view of a history,
    starts."""
    return (view.ctypes.data - view.base.ctypes.data) // view.strides[0]


def released_rows(history, pushes):
    """How many of the oldest of ``pushes`` pushed rows the history has
    released: its window starts that many rows lower in the buffer than the
    window's own row numbers."""
    cands, _ = history.window()
    return pushes + 1 - len(cands) - buffer_row(cands)


def test_state_buffers_and_views():
    y = np.array([1.0 + 0j, 2.0])
    _, state = make_square_state([2.0, 1.0], y, max_iters=40, damping_window=2)
    history = state.history
    cands, resids = history.window()
    gram = history.gram(resids)
    # The residual buffer and the Gram scale with the window, not with
    # max_iters: 2 * damping_window rows of the measurement length.
    assert resids.base.shape == (4, 2) and gram.base.shape == (2, 2)
    # h_1 = 0 with residual y, then the free row for the next candidate.
    assert cands.shape == resids.shape == (2, 2)
    assert np.array_equal(cands[0], np.zeros(2)) and np.array_equal(resids[0], y)
    assert np.array_equal(history.residual, y)
    assert gram[0, 0] == np.vdot(y, y).real
    # A candidate staged in the free rows is what push overwrites.
    rows = cands.base
    cands[1] = 9.0
    resids[1] = -9.0
    h2 = np.array([0.5 + 0j, -0.5])
    history.push(h2, y - h2)
    assert np.array_equal(rows[1], h2)
    cands, resids = history.window()
    assert cands.base is rows and buffer_row(cands) == 1
    assert np.array_equal(cands[0], h2) and np.array_equal(resids[0], y - h2)
    assert history.gram(resids)[0, 0] == np.vdot(y - h2, y - h2).real
    # Only the trailing damping_window - 1 pushed rows enter a window; each
    # residual is written at i % w and i % w + w, so the window is one slice
    # whichever slot the next row takes.
    h3 = np.array([1.0 + 0j, 1.0])
    history.push(h3, y - h3)
    assert np.array_equal(resids.base[0], y - h3) and np.array_equal(resids.base[2], y - h3)
    cands, resids = history.window()
    assert cands.shape == (2, 2)
    assert np.array_equal(cands[0], h3) and np.array_equal(resids[0], y - h3)
    assert np.array_equal(history.residual, y - h3)


def test_state_carries_the_residual_gram_of_each_window():
    # Before every push the Gram of the window, with a candidate's residual
    # staged in its free row, equals the direct inner products of the
    # pushed residuals the window reads and of the candidate's, oldest
    # first: all but the candidate's were carried from earlier pushes.
    rng = generator(5)
    y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    for window in (1, 2, 3, 5):
        _, state = make_square_state([2.0, 1.0, 0.5], y, max_iters=12,
                                     damping_window=window)
        history = state.history
        pushed = [y]
        for _ in range(12):
            cands, resids = history.window()
            held = len(resids) - 1
            kept = pushed[len(pushed) - held:]
            c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            resids[-1] = y - c
            rows = kept + [y - c]
            want = [[np.vdot(a, b).real for b in rows] for a in rows]
            assert np.array_equal(history.gram(resids), np.reshape(want, (held + 1, held + 1)))
            assert np.array_equal(resids[:held], np.reshape(kept, (held, 3)))
            h = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            pushed.append(y - h)
            history.push(h, y - h)


def test_state_renormalizes_moments_to_its_dim():
    # The profile holds moments per row of A; a state lifted to a larger
    # dimension scales them but not the eigen bounds or the Gram trace.
    A = DiagonalOperator(np.array([1.0, 2.0]))
    profile = spectral_profile(A, depth=1)
    assert profile.dim == A.rows
    Xi = build_ibs_transform(IbsSpec(n=4, n_s=4, m=2, variant="BS"))
    state = MampState(A, Xi, np.ones(2, dtype=complex), 0.0, MampConfig(max_iters=1))
    assert state.dim == 4
    assert state.lambda_dagger == profile.lambda_dagger
    assert np.allclose(state.w, np.asarray(profile.w_scaled) / 2.0)
    assert abs(state.trace_gram - 5.0) < 1e-12


def test_state_refuses_a_channel_without_a_positive_gram_eigenvalue():
    A = DiagonalOperator(np.zeros(4, dtype=complex))
    with pytest.raises(ValueError, match="lambda_dagger must be positive"):
        MampState(A, identity(4), np.zeros(4, dtype=complex), 0.0, MampConfig(max_iters=2))


def test_state_keeps_one_variance_per_block_only_for_a_diagonal_channel_behind_blocks():
    # A diagonal A behind L = 4 blocks gets one variance per block, each from
    # its block's residual rows and share of the Gram trace.  A one-block
    # transform, a circulant channel behind blocks and an identity Xi each
    # keep one float.
    n, m = 64, 32
    diagonal = gen_sensing_diagonal(m, n, 4.0)
    circulant = gen_multipath_channel(n, 4, seed=2)

    def blocks(n_s, rows):
        return build_ibs_transform(IbsSpec(n=n, n_s=n_s, m=rows, variant="BW_IBS",
                                           block_seed_base=3, whole_seed=4))

    cases = ((diagonal, blocks(16, m), 4), (diagonal, blocks(n, m), None),
             (circulant, blocks(16, n), None), (diagonal, identity(m), None))
    rng = generator(29)
    for A, Xi, L in cases:
        s = rng.standard_normal(Xi.cols) + 1j * rng.standard_normal(Xi.cols)
        y = A.apply(Xi.apply(s))
        state = MampState(A, Xi, y, 1e-3, MampConfig(max_iters=2))
        r, v = mle_step(state, 1.0 / state.lambda_dagger)
        if L is None:
            assert state.row_blocks is None
            assert isinstance(v, float)
            continue
        assert isinstance(v, np.ndarray) and v.shape == (L,)
        fit = y - A.apply(Xi.apply(r))
        for b in range(L):
            rows = Xi.row_blocks == b
            want = ((np.sum(np.abs(fit[rows]) ** 2) - rows.sum() * 1e-3)
                    / np.sum(np.abs(A.weights[rows]) ** 2))
            assert abs(v[b] - max(want, estimators._VARIANCE_FLOOR)) <= 1e-12 * abs(want)


def test_first_linear_step_has_unit_signal_gain():
    ok, detail = check_mle_normalization(alpha=(3.0, 1.0, 0.5, 2.0))
    assert ok, detail


def reference_memory_recursion(A_dense, y, thetas, steps):
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
        gamma = thetas[t - 1] * (B @ gamma) + resid
        p = np.array([np.prod(thetas[i:t]) * w[t - i] for i in range(1, t + 1)])
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
    _, state = make_square_state(alpha, y, max_iters=steps)
    want = reference_memory_recursion(np.diag(alpha).astype(complex), y, thetas, steps)
    for theta, (r_want, v_want) in zip(thetas, want):
        r, v = mle_step(state, theta)
        assert np.max(np.abs(r - r_want)) < 1e-10
        assert abs(v - max(v_want, estimators._VARIANCE_FLOOR)) < 1e-10
        h_next = r / 2.0
        state.history.push(h_next, y - state.forward(h_next))


def test_memory_sum_weighs_rows_by_coefficient_and_norm(monkeypatch):
    # theta lambda_dagger = 6.25e-4 (lambda_dagger = 2.5) makes the
    # coefficient of h_2 about 1e-24 of the newest one at step 9, far below
    # 2^-53.  With a unit norm the
    # row is skipped; with a norm of 1e30 its term dominates and is kept.
    steps = 9
    y = np.array([1.0 + 0j, 2.0])
    summed = {}
    record_pushes(monkeypatch)
    for norm in (1.0, 1e30):
        A, state = make_square_state([2.0, 1.0], y, max_iters=steps)
        for t in range(1, steps):
            h = np.array([1.0 + 1j, -1.0]) / np.sqrt(3.0) * (norm if t == 1 else 1.0)
            mle_step(state, 1e-3 / 4.0)
            state.history.push(h, y - A.apply(h))
        before = state.meter.vector_points
        r, _ = mle_step(state, 1e-3 / 4.0)
        summed[norm] = (state.meter.vector_points - before) // state.dim
        p = state.history.vartheta * state.w[steps - 1::-1]
        assert abs(p[1] / p[-1]) < 1e-18
        full = (state.back(state.adj_gamma) + p @ state.history.pushed[:steps]) / p.sum()
        assert np.allclose(r, full, rtol=1e-14, atol=0.0)
    assert summed[1.0] < steps - 1
    assert summed[1e30] == steps - 1      # only the zero row h_1 is skipped


def per_step_memory(history, p, scale):
    """The memory sum as it was before blocking: every step sums its kept
    rows k..t-1 with one product, k the rounding cut of its own weights.
    It reads the rows and norms recorded by ``record_pushes``."""
    t = len(p)
    weight = np.cumsum(np.abs(p) * np.array(history.norms[:t]))
    k = int(np.count_nonzero(weight < 2.0 ** -53 * weight[-1]))
    return p[k:] @ history.pushed[k:t], t - k


def wide_instance(variant):
    n, m = 512, 256
    A = gen_sensing_diagonal(m, n, 10.0)
    prior = BernoulliGaussianPrior(rho=0.1)
    s = prior.sample(n, generator(3, 2))
    Xi = build_ibs_transform(IbsSpec(n=n, n_s=64, m=m, variant=variant,
                                     block_seed_base=5, whole_seed=6))
    return simulate_observation(A, Xi, s, 30.0, 3), Xi, prior


@pytest.mark.parametrize("variant, window", (("BW_IBS", 3), ("W_IBS", 5), ("BS", 5)))
def test_truncated_memory_sum_stays_within_the_rounding_bound(monkeypatch, fixed_length,
                                                              variant, window):
    # Long wide runs, converging (BW_IBS) or not (W_IBS, BS): at every step
    # the memory term, per step or through a block, agrees with the full
    # p @ hist[:t] within the error bound of a floating-point sum.  On most
    # steps a block serves it and fewer rows are read than the step keeps.
    instance, Xi, prior = wide_instance(variant)
    memory_sum = History.memory_sum
    errors, steps = [], []
    record_pushes(monkeypatch)

    def checked_sum(history, p, scale):
        t = len(p)
        total, read = memory_sum(history, p, scale)
        norms = np.array(history.norms[:t])
        bound = 4 * t * 2.0 ** -53 * np.sum(np.abs(p) * norms)
        errors.append(np.linalg.norm(total - p @ history.pushed[:t]) <= bound)
        steps.append((t, read, per_step_memory(history, p, scale)[1]))
        return total, read

    monkeypatch.setattr(History, "memory_sum", checked_sum)
    run = run_cd_mamp(instance, Xi, prior, MampConfig(max_iters=160, damping_window=window))
    assert len(run.points) == 160 and len(errors) == 160 and all(errors)
    assert all(read <= t for t, read, _ in steps)
    blocked = [t for t, read, kept in steps if read < kept]
    assert len(blocked) > 120, len(blocked)
    if variant == "BW_IBS":
        assert run.points[-1].mse_db < -30.0
        # Once the weights have decayed a step keeps fewer than t rows.
        assert all(kept < t // 2 for t, _, kept in steps[120:]), steps[120:]
    else:
        assert run.points[-1].mse_db > -15.0


def recorded_run(monkeypatch, instance, Xi, prior, cfg, memory_sum=None):
    """run_cd_mamp with the bytes of r_t of every step, optionally with
    another memory sum, recording every pushed row."""
    step, outputs = estimators.mle_step, []

    def recording_step(state, theta_t):
        r, v_gamma = step(state, theta_t)
        outputs.append(r.tobytes())
        return r, v_gamma

    with monkeypatch.context() as patch:
        patch.setattr(estimators, "mle_step", recording_step)
        record_pushes(patch)
        if memory_sum is not None:
            patch.setattr(History, "memory_sum", memory_sum)
        return run_cd_mamp(instance, Xi, prior, cfg), outputs


@pytest.mark.parametrize("kind", ("circulant-FFT", "circulant-FWHT", "doppler"))
def test_short_memories_are_summed_per_step_to_the_bit(monkeypatch, kind):
    # Under the ifdm-ber stop rules no kept memory exceeds the block size,
    # so the run matches the per-step sum to the bit.
    instance, Xi, prior = damping_system(kind)
    cfg = MampConfig(max_iters=32, damping_window=3)
    got, _ = recorded_run(monkeypatch, instance, Xi, prior, cfg)
    want, _ = recorded_run(monkeypatch, instance, Xi, prior, cfg, per_step_memory)
    assert got.s_hat.tobytes() == want.s_hat.tobytes()
    assert got.points == want.points
    assert got.stop_reason == want.stop_reason
    assert got.meter == want.meter


def test_blocked_run_matches_per_step_bits_until_the_first_long_memory(monkeypatch):
    instance, Xi, prior = wide_instance("BW_IBS")
    kept = []

    def reference(history, p, scale):
        total, rows = per_step_memory(history, p, scale)
        kept.append(rows)
        return total, rows

    cfg = MampConfig(max_iters=48)
    _, got = recorded_run(monkeypatch, instance, Xi, prior, cfg)
    _, want = recorded_run(monkeypatch, instance, Xi, prior, cfg, reference)
    first = next(i for i, rows in enumerate(kept) if rows > memory._BLOCK)
    assert first >= 10
    assert got[:first] == want[:first]


def full_history_memory():
    """The blocked memory sum over a history that keeps every row, as it was
    before rows were released: it keeps its own block per history, and
    reads the rows and norms recorded by ``record_pushes``."""
    blocks = {}

    def memory_sum(history, p, scale):
        t, block = len(p), memory._BLOCK
        hist, norms = history.pushed, np.array(history.norms[:t])
        # (t0, k0, J), F_j of the current step and the B_j, as in History.
        own = blocks.setdefault(history, {"block": (0, 0, 0), "gain": 1.0, "sums": None})
        weight = np.cumsum(np.abs(p) * norms)
        k = int(np.count_nonzero(weight < 2.0 ** -53 * weight[-1]))
        own["gain"] *= scale
        if t - k <= block:
            return p[k:] @ hist[k:t], t - k
        t0, k0, rows = own["block"]
        if t < t0 + rows and k >= k0:
            j = t - t0
            return own["gain"] * own["sums"][j] + p[t0:] @ hist[t0:t], j
        rows = min(block, len(history.vartheta) - t + 1)
        coef = history.vartheta[:t] * history.w[np.add.outer(np.arange(rows),
                                                             np.arange(t - 1, -1, -1))]
        weight = np.cumsum(np.abs(coef) * norms, axis=1)
        k0 = int(np.count_nonzero(weight < 2.0 ** -53 * weight[:, -1:], axis=1).min())
        if own["sums"] is None:
            own["sums"] = np.empty((block, hist.shape[1]), dtype=np.complex128)
        sums = own["sums"][:rows]
        np.matmul(coef[:, k0:], hist[k0:t].view(np.float64), out=sums.view(np.float64))
        own["block"] = (t, k0, rows)
        own["gain"] = 1.0
        return sums[0].copy(), t - k0

    return memory_sum


@pytest.mark.parametrize("variant", ("BW_IBS", "BS"))
def test_released_rows_leave_every_step_bit_identical(monkeypatch, fixed_length, variant):
    # Over 200 steps BW_IBS releases old rows and moves the kept ones to the
    # front of the buffer, and BS keeps a long memory; both match a memory
    # sum over a history that keeps every row, to the bit.
    instance, Xi, prior = wide_instance(variant)
    cfg = MampConfig(max_iters=200, damping_window=5)
    got, got_r = recorded_run(monkeypatch, instance, Xi, prior, cfg)
    want, want_r = recorded_run(monkeypatch, instance, Xi, prior, cfg, full_history_memory())
    assert len(got_r) == 200 and got_r == want_r
    assert got.s_hat.tobytes() == want.s_hat.tobytes()
    assert got.points == want.points
    assert got.meter == want.meter


def test_a_converging_run_writes_only_the_rows_it_keeps(monkeypatch, fixed_length):
    # The highest buffer row a 200-step BW_IBS run writes, staged candidates
    # included, stays well below the max_iters + 1 rows of the buffer: it
    # is 111 here, where the run releases rows from t = 112 on.  The run
    # pushes h_1 and the damped estimates of its first 199 steps: the last
    # step is not damped.
    instance, Xi, prior = wide_instance("BW_IBS")
    written, push = [], History.push

    def tracking(self, estimate, residual):
        # The window ends in the buffer row that this push writes.
        cands, _ = self.window()
        written.append(buffer_row(cands) + len(cands) - 1)
        push(self, estimate, residual)

    monkeypatch.setattr(History, "push", tracking)
    run_cd_mamp(instance, Xi, prior, MampConfig(max_iters=200, damping_window=5))
    assert len(written) == 200
    assert max(written) < 201 * 2 // 3, max(written)


class PoisonedNumpy:
    """numpy, except that ``empty`` fills every byte of its buffer with
    0xFF, a NaN in every float64 lane."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(*args, **kwargs):
        out = np.empty(*args, **kwargs)
        out.view(np.uint8).fill(0xFF)
        return out


@pytest.mark.parametrize("kind", ("circulant-FWHT", "released"))
def test_history_reads_no_buffer_row_before_writing_it(monkeypatch, kind):
    # The history's buffers start from np.empty, with only h_1 zeroed.  A
    # run whose fresh buffers are NaN has the same bits as a normal run:
    # a short damped QPSK run, and 200 steps of BW_IBS, which release rows
    # and sum blocks.
    if kind == "released":
        fix_length(monkeypatch)
        (instance, Xi, prior), cfg = wide_instance("BW_IBS"), MampConfig(max_iters=200,
                                                                         damping_window=5)
    else:
        (instance, Xi, prior), cfg = damping_system(kind), MampConfig(max_iters=32,
                                                                      damping_window=3)
    want = run_cd_mamp(instance, Xi, prior, cfg)
    monkeypatch.setattr(memory, "np", PoisonedNumpy())
    got = run_cd_mamp(instance, Xi, prior, cfg)
    assert got.s_hat.tobytes() == want.s_hat.tobytes()
    assert got.points == want.points
    assert got.stop_reason == want.stop_reason
    assert got.meter == want.meter


def test_a_non_finite_weight_releases_no_row():
    # theta lambda_dagger = 6.25e-4: every row but the last few has a weight
    # below rounding at every later step, and at t = 80 more than _COMPACT
    # blocks of them are released.  A non-finite row makes the weights
    # non-finite: nothing is released.  Row 20 has a NaN norm, which keeps
    # every cut at 0.  Row 70 has an infinite norm: the cut of step 80 would
    # release the 70 rows below it, and only the live bound's non-finite
    # guard keeps them.
    steps = 96
    y = np.array([1.0 + 0j, 2.0])
    with np.errstate(all="ignore"):
        bad_rows = {None: None, 20: np.array([1.0 + 1j, -1.0]) * np.inf,
                    70: np.array([np.inf, -1.0 + 0j])}
    released = {}
    for bad, bad_row in bad_rows.items():
        A, state = make_square_state([2.0, 1.0], y, max_iters=steps)
        with np.errstate(all="ignore"):
            for t in range(1, steps):
                h = bad_row if t == bad else np.array([1.0 + 1j, -1.0])
                mle_step(state, 1e-3 / 4.0)
                state.history.push(h, y - A.apply(h))
        released[bad] = released_rows(state.history, steps)
    assert released[None] > 64 and released[20] == released[70] == 0
    # A weight that turns NaN after rows were released sums from the oldest
    # kept row, to a NaN r_t.
    A, state = make_square_state([2.0, 1.0], y, max_iters=steps)
    for t in range(1, steps):
        mle_step(state, 1e-3 / 4.0)
        state.history.push(np.array([1.0 + 1j, -1.0]), y - A.apply(np.array([1.0 + 1j, -1.0])))
    with np.errstate(all="ignore"):
        r, _ = mle_step(state, np.nan)
    assert released_rows(state.history, steps) > 64 and np.isnan(r).all()


def test_released_rows_spare_the_damping_window():
    # theta lambda_dagger = 6.25e-4: the memory sum keeps the last few rows,
    # fewer than a window of 8 reads, and the rows released at t = 80 stop
    # short of it.
    steps, w = 96, 8
    y = np.array([1.0 + 0j, 2.0])
    A, state = make_square_state([2.0, 1.0], y, max_iters=steps, damping_window=w)
    rng = generator(9)
    pushed = [np.zeros(2)]
    for _ in range(1, steps):
        mle_step(state, 1e-3 / 4.0)
        h = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        state.history.push(h, y - A.apply(h))
        pushed.append(h)
        cands, _ = state.history.window()
        assert np.array_equal(cands[:-1], pushed[len(pushed) - len(cands) + 1:])
    assert released_rows(state.history, steps) == 80 - w + 1


def test_meter_counts_the_history_rows_each_step_reads(monkeypatch):
    # From step 2 on the zero row h_1 is cut, and no other weight decays
    # below rounding in 40 steps, so step t keeps t - 1 rows.  Steps 1..17
    # read them (1, then 1..16 rows); step 18 starts a block of 16 steps,
    # reading its 17 rows once, and step 18 + j reads only the j rows pushed
    # since; step 34 starts the last block, of 7 steps, with 33 rows.
    steps = 40
    y = np.array([1.0 + 0j, 2.0])
    record_pushes(monkeypatch)
    A, state = make_square_state([2.0, 1.0], y, max_iters=steps)
    rng = generator(8)
    read = []
    for t in range(1, steps + 1):
        before = state.meter.vector_points
        r, _ = mle_step(state, 1.0 / state.lambda_dagger)
        read.append((state.meter.vector_points - before) // state.dim)
        p = state.history.vartheta[:t] * state.w[t - 1::-1]
        full = (state.back(state.adj_gamma) + p @ state.history.pushed[:t]) / p.sum()
        assert np.allclose(r, full, rtol=1e-13, atol=0.0)
        h = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        state.history.push(h, y - A.apply(h))
    assert read == [1] + list(range(1, 17)) + [17] + list(range(1, 16)) + [33] + list(range(1, 7))
    assert sum(read) == 328 < 1 + sum(range(steps))


def test_degenerate_gain_normalizer_raises():
    # Gram eigenvalues {4, 1}: lambda_dagger = 2.5, w_0 = 2.5 and w_1 = -0.9
    # (scaled), so eps_2 = theta_2 lambda_dagger w_1 + w_0 vanishes at
    # theta_2 = 1 / 0.9.
    y = np.ones(2, dtype=complex)
    _, state = make_square_state([2.0, 1.0], y, max_iters=3)
    assert np.allclose(state.w[:2], [2.5, -0.9], rtol=0.0, atol=1e-15)
    mle_step(state, 1.0 / state.lambda_dagger)
    with pytest.raises(NormalizationError):
        mle_step(state, -state.w[0] / (state.lambda_dagger * state.w[1]))


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


def broadcast_nle_orthogonalize(den, r, v_in):
    """The per-block rule as one broadcast complex division and np.where."""
    v = v_in.reshape(-1)
    pv = np.maximum(den.coord_var.reshape(v.size, -1).mean(axis=1),
                    estimators._VARIANCE_FLOOR)
    stalled = pv >= v
    p = np.where(stalled, 0.0, pv / v)[:, None]
    rows = r.reshape(v.size, -1)
    s_next = np.where(stalled[:, None], rows,
                      (den.posterior_mean.reshape(rows.shape) - p * rows) / (1.0 - p))
    v_phi = np.where(stalled, v, np.maximum(pv * v / np.where(stalled, 1.0, v - pv),
                                            estimators._VARIANCE_FLOOR))
    return s_next.reshape(r.shape), v_phi, bool(stalled.any())


def test_nle_orthogonalize_per_block_matches_broadcast_division_bitwise():
    # 300 random cases of 1 to 32 blocks: a denoiser variance of at most
    # 0.2 stalls no block, one up to 2 stalls some block in most cases.
    rng = generator(23)
    stalls = 0
    for _ in range(300):
        blocks = int(rng.integers(1, 33))
        n = blocks * int(rng.integers(1, 33))
        r = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        mean = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        coord_var = rng.uniform(0.0, rng.choice([0.2, 2.0]), n)
        den = DenoiserResult(posterior_mean=mean, coord_var=coord_var)
        v = rng.uniform(0.3, 2.0, blocks)
        got = nle_orthogonalize(den, r, v)
        want = broadcast_nle_orthogonalize(den, r, v)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes() and got[2] == want[2]
        stalls += got[2]
    assert 50 < stalls < 250, stalls


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


def residual_gram(resid):
    return np.array([[np.vdot(ri, rj).real for rj in resid] for ri in resid])


def test_cross_covariance_matches_direct_formula():
    # Without a noise correction the residual Gram is already PSD, so the
    # estimate equals the direct normalized inner products exactly.
    n = 32
    A = gen_sensing_diagonal(n, n, 4.0)
    rng = generator(17)
    s = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y = A.apply(s)
    cands = [s + 0.1 * rng.standard_normal(n) for _ in range(3)]
    resid = [y - A.apply(c) for c in cands]
    V = _cross_cov_from_residuals(residual_gram(resid), n, 0.0, n * 1.0)
    raw = np.array([[np.vdot(ri, rj).real / n for rj in resid]
                    for ri in resid])
    assert np.max(np.abs(V - raw)) < 1e-12
    assert np.min(np.linalg.eigvalsh(V)) >= -1e-12


def test_cross_covariance_projects_indefinite_estimates():
    # Subtracting the noise power can push the raw matrix indefinite; the
    # estimate must be its eigenvalue-clipped PSD projection.
    n = 32
    A = gen_sensing_diagonal(n, n, 4.0)
    rng = generator(18)
    s = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y = A.apply(s)
    sigma2 = 0.01
    cands = [s + 0.1 * rng.standard_normal(n) for _ in range(3)]
    resid = [y - A.apply(c) for c in cands]
    V = _cross_cov_from_residuals(residual_gram(resid), n, sigma2, n * 1.0)
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
    V = _cross_cov_from_residuals(residual_gram([y - A.apply(s)]), n, 0.0, float(n))
    assert V.shape == (1, 1)
    assert V[0, 0] >= 1e-13


def test_damping_beats_grid_and_best_single():
    ok, detail = check_damping(trials=100, seed=23)
    assert ok, detail


def test_damping_handles_singular_covariance():
    V = np.ones((2, 2))  # perfectly correlated candidates
    zeta, _, var = damping_update(np.array([[0.0], [1.0]], dtype=complex), V)
    assert var == float(zeta @ V @ zeta)
    assert np.all(np.isfinite(zeta))
    assert abs(zeta.sum() - 1.0) < 1e-9
    with pytest.raises(ValueError):
        damping_update(np.zeros((1, 1), complex), np.eye(2))


def test_damping_falls_back_to_the_best_single_candidate_when_the_solve_fails():
    # V = 0 has a zero trace, so a zero ridge: the solve raises LinAlgError,
    # and the first of the equally good candidates is returned alone.
    cands = np.arange(6, dtype=complex).reshape(3, 2)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(np.zeros((3, 3)), np.ones(3))
    zeta, combined, var = damping_update(cands, np.zeros((3, 3)))
    assert zeta.tolist() == [1.0, 0.0, 0.0]
    assert np.array_equal(combined, cands[0]) and var == 0.0



def symmetric_window(kind, k, rng):
    """A k x k symmetric window of the given kind: PSD, indefinite, of rank
    k - 1, all zero, or PSD with a NaN or an infinity in entry (0, k - 1)
    and its mirror."""
    g = rng.standard_normal((k, k - 1 if kind == "rank-deficient" else k))
    V = g @ g.T
    if kind == "indefinite":
        V -= 0.5 * np.trace(V) / k * np.eye(k)
    elif kind == "zero":
        V = np.zeros((k, k))
    elif kind in ("nan", "inf"):
        V[0, k - 1] = V[k - 1, 0] = np.nan if kind == "nan" else np.inf
    return V


def numpy_cross_cov(gram, measure_dim, sigma2, trace_gram):
    """_cross_cov_from_residuals through np.linalg.eigh."""
    k = len(gram)
    V = (gram - measure_dim * sigma2) / trace_gram
    lam, vecs = np.linalg.eigh(V)
    V = (vecs * np.maximum(lam, 0.0)) @ vecs.T
    V.flat[::k + 1] = np.maximum(V.diagonal(), estimators._VARIANCE_FLOOR)
    return V


def numpy_damping_update(candidates, V):
    """damping_update through np.linalg.solve, np.eye, np.ones and V.trace()."""
    k = candidates.shape[0]
    ridge = 1e-8 * max(V.trace(), 0.0) / k
    try:
        raw = np.linalg.solve(V + ridge * np.eye(k), np.ones(k))
    except np.linalg.LinAlgError:
        raw = None
    best = int(V.diagonal().argmin())
    zeta = None
    if raw is not None and abs(raw.sum()) > 1e-12:
        zeta = raw / raw.sum()
        quad = zeta @ V @ zeta
        if quad > V[best, best]:
            zeta = None
    if zeta is None:
        zeta = np.zeros(k)
        zeta[best] = 1.0
        quad = zeta @ V @ zeta
    return zeta, zeta @ candidates, float(quad)


def outcome(fn, *args):
    """The bytes of each array fn returns, or the type of what it raised."""
    try:
        result = fn(*args)
    except np.linalg.LinAlgError as exc:
        return type(exc)
    result = result if isinstance(result, tuple) else (result,)
    return [np.asarray(x).tobytes() for x in result]


WINDOW_KINDS = ("psd", "indefinite", "rank-deficient", "zero", "nan", "inf")


@pytest.mark.parametrize("kind", WINDOW_KINDS)
def test_damping_kernels_match_numpy_linalg_to_the_bit(kind):
    # The damping calls the LAPACK gufuncs of np.linalg.eigh and
    # np.linalg.solve directly.  Its results, and where LinAlgError is
    # raised, must stay those of np.linalg on every kind of window: a numpy
    # that changes its private gufuncs fails here.
    rng = generator(41)
    raised = 0
    with np.errstate(invalid="ignore", over="ignore"):
        for k in range(1, 9):
            for _ in range(4):
                window = symmetric_window(kind, k, rng)
                for args in ((window, 1, 0.0, 1.0), (window, 64, 0.05, 32.0)):
                    assert (outcome(_cross_cov_from_residuals, *args)
                            == outcome(numpy_cross_cov, *args))
                cands = rng.standard_normal((k, 5)) + 1j * rng.standard_normal((k, 5))
                assert outcome(damping_update, cands, window) == outcome(
                    numpy_damping_update, cands, window)
                for fn, want in ((estimators._eigh, np.linalg.eigh),
                                 (estimators._solve, np.linalg.solve)):
                    args = (window,) if fn is estimators._eigh else (window, np.ones(k))
                    expected = outcome(want, *args)
                    assert outcome(fn, *args) == expected
                    raised += expected is np.linalg.LinAlgError
    # np.linalg.solve raises on every all-zero window, and np.linalg.eigh on
    # most windows that hold a NaN or an infinity: both raising paths run.
    assert raised > 0 or kind not in ("zero", "nan", "inf")


def reference_damping_step():
    """The damping step as it was before its window moved into the state's
    buffers: Python lists of the trailing estimates and residuals, the window
    rebuilt with np.vstack, both combines through np.tensordot and every
    residual inner product recomputed in a double np.vdot loop.  It keeps
    its own lists, so it reads nothing of the state's window or Gram."""
    kept = {}

    def step(state, s_ext):
        ests, res = kept.setdefault(state, ([np.zeros(state.dim, complex)], [state.y]))
        first = max(len(ests) - (state.history.damping_window - 1), 0)
        cands = ests[first:] + [s_ext]
        resids = res[first:] + [state.y - state.forward(s_ext)]
        k = len(cands)
        V = np.empty((k, k))
        for i in range(k):
            for j in range(i, k):
                val = (np.vdot(resids[i], resids[j]).real
                       - state.measure_dim * state.noise_var) / state.trace_gram
                V[i, j] = V[j, i] = val
        lam, vecs = np.linalg.eigh(V)
        V = (vecs * np.maximum(lam, 0.0)) @ vecs.T
        V[np.diag_indices(k)] = np.maximum(V.diagonal(), estimators._VARIANCE_FLOOR)
        ridge = 1e-8 * max(np.trace(V), 0.0) / k
        try:
            raw = np.linalg.solve(V + ridge * np.eye(k), np.ones(k))
        except np.linalg.LinAlgError:
            raw = None
        best = int(np.argmin(V.diagonal()))
        zeta = None
        if raw is not None and abs(raw.sum()) > 1e-12:
            zeta = raw / raw.sum()
            if zeta @ V @ zeta > V[best, best]:
                zeta = None
        if zeta is None:
            zeta = np.zeros(k)
            zeta[best] = 1.0
        s_next = np.tensordot(zeta, np.vstack(cands), axes=1)
        r_next = np.tensordot(zeta, np.vstack(resids), axes=1)
        state.history.push(s_next, r_next)
        ests.append(s_next)
        res.append(r_next)
        state.meter.vector_points += k * state.dim
        return max(float(zeta @ V @ zeta), estimators._VARIANCE_FLOOR)

    return step


def damping_system(kind):
    """(instance, Xi, prior) of a small system of the given kind."""
    if kind == "diagonal-wide":
        return cs_instance(n=256, m=128, kappa=10.0, snr_db=25.0, rho=0.2, seed=6, n_s=16)
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
    return simulate_observation(A, Xi, s, snr_db, seed=5), Xi, prior


@pytest.mark.parametrize("window", (1, 2, 3, 5))
@pytest.mark.parametrize("kind", ("diagonal-wide", "circulant-FFT", "circulant-FWHT",
                                  "doppler"))
def test_damping_window_is_bit_identical_to_the_list_reference(monkeypatch, kind, window):
    # Once under the default stops, once for all 16 steps.
    instance, Xi, prior = damping_system(kind)
    cfg = MampConfig(max_iters=16, damping_window=window)
    for fixed in (False, True):
        with monkeypatch.context() as patch:
            if fixed:
                fix_length(patch)
            got = run_cd_mamp(instance, Xi, prior, cfg)
            patch.setattr(estimators, "_damping_step", reference_damping_step())
            want = run_cd_mamp(instance, Xi, prior, cfg)
        assert got.s_hat.tobytes() == want.s_hat.tobytes()
        assert got.points == want.points
        assert got.stop_reason == want.stop_reason
        assert got.meter == want.meter
        if fixed:
            assert len(got.points) == 16


def cs_instance(n, m, kappa, snr_db, rho, seed, n_s=None, sigma_s2=None):
    A = gen_sensing_diagonal(m, n, kappa)
    spec = IbsSpec(n=n, n_s=n_s or n, m=m, variant="BW_IBS", base="FFT",
                   direction="kernel", block_seed_base=seed * 1000 + 1,
                   whole_seed=seed * 1000 + 2)
    Xi = build_ibs_transform(spec)
    prior = BernoulliGaussianPrior(rho=rho, sigma_s2=sigma_s2)
    s = prior.sample(n, generator(seed, 2))
    return simulate_observation(A, Xi, s, snr_db, seed), Xi, prior


def test_noiseless_square_recovery_is_near_exact():
    ok, detail = check_trivial_recovery(seed=5, spec_seeds=(5001, 5002))
    assert ok, detail


def test_trivial_recovery_accepts_every_stop_reason(monkeypatch):
    # Without the tolerance stop the noiseless run settles at the variance
    # floor and stops converged; the check reads that run as well formed.
    monkeypatch.setattr(estimators, "_TOLERANCE", 0.0)
    ok, detail = check_trivial_recovery()
    assert ok and detail.endswith("stop converged"), detail


def test_trajectory_and_run_shapes():
    instance, Xi, prior = cs_instance(n=128, m=64, kappa=4.0, snr_db=20.0,
                                      rho=0.2, seed=8, n_s=16)
    run = run_cd_mamp(instance, Xi, prior, MampConfig(max_iters=12))
    assert isinstance(run, EstimatorRun)
    assert len(run.points) == 12
    assert run.stop_reason == "max-iters"
    assert run.final_mse == run.points[-1].mse
    for pt in run.points:
        assert pt.v_gamma > 0 and pt.v_phi > 0
        assert isinstance(pt.flags, str)
    assert run.s_hat.shape == (128,)


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


def test_oamp_forms_a_dense_channel_gram_a_fixed_number_of_times(monkeypatch, fixed_length):
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
    A = gen_multipath_channel(n, 3, doppler_preset_4ghz_100kmh_15khz(), seed=4)
    Xi = build_ibs_transform(IbsSpec(n=n, n_s=8, m=n, variant="BW_IBS",
                                     direction="kernel-adjoint", whole_seed=4))
    prior = QpskPrior()
    instance = simulate_observation(A, Xi, prior.sample(n, generator(4, 2)), 6.0, seed=4)
    run = run_cd_oamp(instance, prior, MampConfig(max_iters=8))
    assert len(run.points) == 8
    assert 0 < len(calls) <= 2
    assert all(op is A for op in calls)


def test_cost_meters_count_channel_and_transform_applies(fixed_length):
    # MAMP: A^H gamma_{t-1} is reused, so iteration 1 applies A twice and
    # every later one four times, with the damping of the step before; Xi
    # is applied twice, then three times.  The last step is not damped.
    # OAMP applies Xi and A forward and adjoint once per iteration.
    n, iters = 64, 7
    A = gen_multipath_channel(n, 4, seed=2)
    assert isinstance(A, CirculantOperator)
    Xi = build_ibs_transform(IbsSpec(n=n, n_s=16, m=n, variant="BW_IBS",
                                     direction="kernel-adjoint", whole_seed=2))
    prior = QpskPrior()
    instance = simulate_observation(A, Xi, prior.sample(n, generator(2, 2)), 6.0, seed=2)
    cfg = MampConfig(max_iters=iters)
    for run, channel, transform in (
            (run_cd_mamp(instance, Xi, prior, cfg), 4 * iters - 2, 3 * iters - 1),
            (run_cd_oamp(instance, prior, cfg), 2 * iters, 2 * iters)):
        assert len(run.points) == iters
        assert run.meter.channel_applies == channel
        assert run.meter.transform_applies == transform



def eager_run(instance, Xi, prior, cfg):
    """run_cd_mamp with each step damping its own candidate at its end, so
    that the last step is damped as well, although nothing reads it."""
    state = MampState(instance.A, Xi, instance.y, instance.noise_var, cfg)
    v_x = prior.power

    def step():
        nonlocal v_x
        r, v_gamma = mle_step(state, 1.0 / (state.lambda_dagger + instance.noise_var / v_x))
        den = prior.denoise(r, v_gamma)
        state.meter.vector_points += state.dim
        s_ext, v_phi, stalled = nle_orthogonalize(den, r, v_gamma)
        v_x = estimators._damping_step(state, s_ext)
        flags = ["nle-stall"] if stalled else []
        if np.min(v_gamma) <= estimators._VARIANCE_FLOOR:
            flags.append("v-floor")
        return den.posterior_mean, v_gamma, v_phi, "|".join(flags)

    return estimators._iterate(step, instance.s_true, cfg, state.meter)


# (lane, stop reason) -> (system, max_iters) of a run that ends on that stop.
DEFERRAL_CASES = {
    ("scalar", "tolerance"): (lambda: damping_system("circulant-FWHT"), 40),
    ("scalar", "converged"): (lambda: cs_instance(n=256, m=128, kappa=10.0, snr_db=25.0,
                                                  rho=0.2, seed=6), 200),
    ("scalar", "max-iters"): (lambda: damping_system("doppler"), 3),
    ("per-block", "tolerance"): (lambda: cs_instance(n=256, m=256, kappa=2.0,
                                                     snr_db=np.inf, rho=0.25, seed=5,
                                                     n_s=32), 60),
    ("per-block", "converged"): (lambda: wide_instance("BW_IBS"), 200),
    ("per-block", "max-iters"): (lambda: damping_system("diagonal-wide"), 16),
}


@pytest.mark.parametrize("lane, stop", DEFERRAL_CASES)
def test_each_damping_runs_at_the_start_of_the_next_step(monkeypatch, lane, stop):
    # A run damps len(points) - 1 times, whichever stop ends it, and equals
    # to the bit the run that damps every step at its end, last step
    # included: nothing reads the last damping.  That damping was one
    # transform and one channel apply and one window of vector passes.
    system, max_iters = DEFERRAL_CASES[lane, stop]
    instance, Xi, prior = system()
    state = MampState(instance.A, Xi, instance.y, instance.noise_var, MampConfig())
    assert (state.row_blocks is not None) == (lane == "per-block")
    damped, damping_step = [], estimators._damping_step

    def counting(state, s_ext):
        damped.append(len(state.history.window()[0]))
        return damping_step(state, s_ext)

    monkeypatch.setattr(estimators, "_damping_step", counting)
    runs = []
    for cfg in (MampConfig(max_iters=max_iters), MampConfig(max_iters=1)):
        damped.clear()
        got = run_cd_mamp(instance, Xi, prior, cfg)
        assert len(damped) == len(got.points) - 1
        want = eager_run(instance, Xi, prior, cfg)
        assert len(damped) == 2 * len(got.points) - 1
        assert got.s_hat.tobytes() == want.s_hat.tobytes()
        assert got.points == want.points
        assert got.stop_reason == want.stop_reason
        assert got.meter.transform_applies == want.meter.transform_applies - 1
        assert got.meter.channel_applies == want.meter.channel_applies - 1
        assert got.meter.vector_points == (want.meter.vector_points
                                           - damped[-1] * state.dim)
        runs.append((got.stop_reason, len(got.points)))
    assert runs[0][0] == stop and runs[0][1] > 1
    assert runs[1][1] == 1


def test_gaussian_estimators_reach_the_lmmse_error():
    # Small-scale rehearsal of the convergence oracle: with a Gaussian
    # source both estimators must land on the closed-form error.
    instance, Xi, prior = cs_instance(n=1024, m=512, kappa=10.0, snr_db=30.0,
                                      rho=1.0, seed=7)
    anchor = mse(lmmse_estimate_gaussian(instance, 1.0), instance.s_true)
    oamp = run_cd_oamp(instance, prior, MampConfig(max_iters=16))
    assert abs(oamp.final_mse - anchor) <= 1e-8 * max(anchor, 1.0)
    mamp = run_cd_mamp(instance, Xi, prior, MampConfig(max_iters=128))
    assert abs(mamp.final_mse - anchor) / anchor < 0.05


def test_analytic_lmmse_mse_matches_dense_posterior_trace():
    n, m, kappa, sigma2 = 64, 32, 8.0, 1e-2
    diag = gen_sensing_diagonal(m, n, kappa)
    A = materialize_dense(diag)
    spec = IbsSpec(n=n, n_s=n, m=m, variant="BW_IBS", whole_seed=4)
    Xi = materialize_dense(build_ibs_transform(spec))
    H = A @ Xi
    cov = np.eye(n) - H.conj().T @ np.linalg.solve(
        H @ H.conj().T + sigma2 * np.eye(m), H)
    want = float(np.trace(cov).real / n)
    got = lmmse_mse_gaussian(diag.weights, 1.0, sigma2, n)
    assert abs(got - want) < 1e-12


def test_square_single_block_pipeline_is_bit_identical_to_plain_kernel():
    ok, detail = check_degenerate_single_block(n=256, seed=19, iters=10, rho=0.2, snr_db=25.0)
    assert ok, detail


def test_estimate_does_not_read_the_ground_truth():
    # s_true feeds only the reported mse: replacing it changes no estimate,
    # variance, flag, stop or count, on cs systems (blocks and full) and on
    # ifdm-ber QPSK systems under that experiment's estimator settings.
    cases = [(cs_instance(n=256, m=128, kappa=10.0, snr_db=30.0, rho=0.1, seed=4, n_s=n_s),
              MampConfig(max_iters=24)) for n_s in (16, None)]
    cases += [(damping_system(kind), IfdmBerConfig().mamp)
              for kind in ("circulant-FFT", "circulant-FWHT")]
    for (instance, Xi, prior), cfg in cases:
        other = dataclasses.replace(instance, s_true=np.roll(instance.s_true, 1))
        a, b = (run_cd_mamp(case, Xi, prior, cfg) for case in (instance, other))
        assert a.s_hat.tobytes() == b.s_hat.tobytes()
        assert (a.stop_reason, len(a.points)) == (b.stop_reason, len(b.points))
        assert ([(p.v_gamma, p.v_phi, p.flags) for p in a.points]
                == [(p.v_gamma, p.v_phi, p.flags) for p in b.points])
        assert a.meter == b.meter
        assert [p.mse for p in a.points] != [p.mse for p in b.points]


def test_a_converged_run_is_a_prefix_of_the_fixed_length_run(monkeypatch):
    # BW_IBS settles by t = 79 of 200: the run stops there, and its points and
    # estimate are those of the first 79 steps of the run without the stop,
    # whose last point is within 1e-4 dB of the stopped one (3e-7 dB here).
    instance, Xi, prior = wide_instance("BW_IBS")
    cfg = MampConfig(max_iters=200, damping_window=5)
    estimates, measure = [], estimators.mse

    def recording(s_hat, s_true):
        estimates.append(s_hat.tobytes())
        return measure(s_hat, s_true)

    stopped = run_cd_mamp(instance, Xi, prior, cfg)
    monkeypatch.setattr(estimators, "mse", recording)
    monkeypatch.setattr(estimators, "_CONVERGED", 0.0)
    full = run_cd_mamp(instance, Xi, prior, cfg)
    t = len(stopped.points)
    assert (stopped.stop_reason, full.stop_reason) == ("converged", "max-iters")
    assert t < 100 and len(full.points) == 200
    assert stopped.points == full.points[:t]
    assert stopped.s_hat.tobytes() == estimates[t - 1]
    assert abs(stopped.points[-1].mse_db - full.points[-1].mse_db) < 1e-4


def scripted_run(variances, max_iters=12):
    """_iterate over a step() that returns (v_gamma, v_phi) = variances(t)."""
    t = 0

    def step():
        nonlocal t
        t += 1
        v_gamma, v_phi = variances(t)
        return np.zeros(2), v_gamma, v_phi, ""

    return estimators._iterate(step, np.ones(2), MampConfig(max_iters=max_iters),
                               estimators.CostMeter())


def test_converged_needs_both_variances_to_settle():
    # With a Gaussian prior v_phi is the prior variance at every step while
    # v_gamma still moves: the run goes on.  The mirror case goes on too, and
    # once both hold still the run stops at the first step that can compare.
    for variances in (lambda t: (1.0 / t, 0.5), lambda t: (0.5, 1.0 / t)):
        run = scripted_run(variances)
        assert (run.stop_reason, len(run.points)) == ("max-iters", 12)
    run = scripted_run(lambda t: (0.5, 0.25))
    assert (run.stop_reason, len(run.points)) == ("converged", 2)
    # A change of 2e-6 of the value goes on; one of 5e-7 stops.
    run = scripted_run(lambda t: (0.5, 0.25 * (1.0 + 2e-6 * (t % 2))))
    assert run.stop_reason == "max-iters"
    run = scripted_run(lambda t: (0.5, 0.25 * (1.0 + 5e-7 * (t % 2))))
    assert (run.stop_reason, len(run.points)) == ("converged", 2)


def test_tolerance_wins_a_tie_with_converged(monkeypatch):
    # At t = 2 v_phi falls below the tolerance and has settled as well.
    monkeypatch.setattr(estimators, "_TOLERANCE", 1.0)
    run = scripted_run(lambda t: (2.0, 1.0 - 1e-9 * (t - 1)))
    assert (run.stop_reason, len(run.points)) == ("tolerance", 2)


def test_non_finite_variances_never_converge():
    nan, inf = float("nan"), float("inf")
    for v_gamma, v_phi in ((nan, 0.5), (0.5, nan), (inf, 0.5), (0.5, inf), (nan, nan),
                           (np.array([0.5, nan]), np.array([0.5, 0.5])),
                           (np.array([0.5, 0.5]), np.array([inf, 0.5]))):
        with np.errstate(invalid="ignore"):     # inf - inf
            run = scripted_run(lambda t: (v_gamma, v_phi))
        assert (run.stop_reason, len(run.points)) == ("max-iters", 12), (v_gamma, v_phi)


def test_per_block_variances_converge_only_when_every_block_settles():
    # One block's v_phi (or v_gamma) keeps moving: no stop.
    still = np.array([0.5, 0.25, 0.125])
    for moving in (lambda t: (still, still * [1.0, 1.0, 1.0 + 1.0 / t]),
                   lambda t: (still * [1.0 + 1.0 / t, 1.0, 1.0], still)):
        run = scripted_run(moving)
        assert (run.stop_reason, len(run.points)) == ("max-iters", 12)
    run = scripted_run(lambda t: (still, still * (1.0 + 1e-8 * t)))
    assert (run.stop_reason, len(run.points)) == ("converged", 2)
    assert run.points[-1].v_phi == float(np.mean(still * (1.0 + 2e-8)))


def test_full_transform_holds_its_best_error():
    # A noiseless linear-stage gain (theta = 1 / lambda_dagger) lets the
    # full transform drift 4.8-8.4 dB above its best by t = 128 here;
    # MAMP's theta_t = 1 / (lambda_dagger + sigma^2 / v_t) keeps it there.
    for seed in (1, 2, 3):
        instance, Xi, prior = cs_instance(n=1024, m=512, kappa=10.0,
                                          snr_db=30.0, rho=0.1, seed=seed)
        run = run_cd_mamp(instance, Xi, prior,
                          MampConfig(max_iters=128))
        best = min(p.mse_db for p in run.points)
        assert run.points[-1].mse_db - best < 0.5, (seed, run.points[-1].mse_db, best)


def test_block_variances_let_every_block_converge():
    # A diagonal A after a block transform gives every block its own share
    # of the spectrum; with one pooled variance the seed-2 block estimate
    # ends about 21 dB above the full transform.
    n, m, n_s = 2048, 1024, 256
    A = gen_sensing_diagonal(m, n, 10.0)
    prior = BernoulliGaussianPrior(rho=0.1)
    cfg = MampConfig(max_iters=64)
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
