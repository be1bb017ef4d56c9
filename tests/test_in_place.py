"""The in-place per-iteration arithmetic against the plain expressions it
replaced, to the byte, and its contract with operators whose applies
return their input.  ``.tobytes()`` tells -0 from +0, which
``np.array_equal`` does not."""

import numpy as np
import pytest

from ibsmamp import denoisers, estimators
from ibsmamp.denoisers import DenoiserResult, denoise_bernoulli_gaussian
from ibsmamp.estimators import (MampConfig, MampState, _damping_step, _iterate, mle_step,
                                nle_orthogonalize, run_cd_mamp)
from ibsmamp.ibs import IbsSpec, build_ibs_transform
from ibsmamp.memory import norm
from ibsmamp.operators import DiagonalOperator, LinearOperator
from ibsmamp.rng import generator
from ibsmamp.scenarios import BernoulliGaussianPrior, SystemInstance, mse, simulate_observation
from test_estimators import damping_system, fix_length, identity, wide_instance

# Signed zeros, and pairs of a zero with a nonzero partner, as complex entries.
ZERO_ENTRIES = np.array([complex(a, b) for a in (-0.0, 0.0, -1.5, 2.0)
                         for b in (-0.0, 0.0, -0.25, 3.0)])


def random_with_zeros(rng, n):
    """n complex entries over eight decades, every ZERO_ENTRIES entry among them."""
    scale = 10.0 ** rng.uniform(-7.0, 1.0, n)
    x = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * scale
    x[rng.choice(n, ZERO_ENTRIES.size, replace=False)] = ZERO_ENTRIES
    return x


def view_divide(x, q):
    """x / q as the estimators divide: the float64 view scaled by 1 / q."""
    out = x.copy()
    planes = out.view(np.float64)
    np.multiply(planes, 1.0 / q, out=planes)
    return out


def numpy_zeros_that_flip(x):
    """Where x / q (q > 0) has +0 and ``view_divide`` -0, by the rule of the
    estimators module docstring: a real part -0 with an imaginary part
    without sign bit, and an imaginary part -0 with a real part with one."""
    re = (x.real == 0.0) & np.signbit(x.real) & ~np.signbit(x.imag)
    im = (x.imag == 0.0) & np.signbit(x.imag) & np.signbit(x.real)
    return re, im


def divide_as_documented(x, q):
    """numpy's x / q with the zeros of ``numpy_zeros_that_flip`` made -0."""
    want = x / q
    re, im = numpy_zeros_that_flip(x)
    want.real[re] = -0.0
    want.imag[im] = -0.0
    return want


@pytest.mark.parametrize("q", (3.0, 0.7, 1e-300))
def test_view_scaling_differs_from_complex_division_only_in_the_pinned_zeros(q):
    parts = (-0.0, 0.0, -1.0, 1.0)
    pairs = [(a, b) for a in parts for b in parts]
    x = np.array([complex(a, b) for a, b in pairs])
    numpy, view = x / q, view_divide(x, q)

    def flips(got, want):
        return sorted(str(pairs[i]) for i in np.flatnonzero(np.signbit(got) != np.signbit(want)))

    # Equal values; four zeros are +0 in numpy's quotient and -0 in the view.
    assert np.array_equal(numpy, view)
    assert flips(numpy.real, view.real) == ["(-0.0, 0.0)", "(-0.0, 1.0)"]
    assert flips(numpy.imag, view.imag) == ["(-0.0, -0.0)", "(-1.0, -0.0)"]
    assert not np.signbit(numpy.real[[1, 3]]).any()
    assert view.tobytes() == divide_as_documented(x, q).tobytes()
    # A non-finite component turns numpy's partner NaN; the entry is
    # non-finite either way.
    bad = np.array([complex(np.inf, 1.0), complex(1.0, -np.inf), complex(np.nan, 0.0)])
    with np.errstate(invalid="ignore"):
        numpy = bad / q
    view = view_divide(bad, q)
    assert not np.isfinite(numpy).any() and not np.isfinite(view).any()
    assert np.isnan(numpy[0].imag) and view[0].imag == 1.0 / q


def plain_bernoulli_gaussian(r, v, rho, sigma_s2):
    """denoise_bernoulli_gaussian with one expression per term."""
    r, v = denoisers._check_inputs(r, v)
    c = sigma_s2 / (sigma_s2 + v)
    beta = c / v
    abs2 = np.abs(r) ** 2
    if rho < 1.0:
        log_odds = np.log((1.0 - rho) / rho) + np.log((sigma_s2 + v) / v) - beta * abs2
        pi = 1.0 / (1.0 + np.exp(np.minimum(log_odds, denoisers._EXP_CLIP)))
    else:
        pi = np.ones_like(abs2)
    mean = pi * c * r
    var = pi * c * v + pi * (1.0 - pi) * c * c * abs2
    return mean.ravel(), var.ravel()


@pytest.mark.parametrize("rho, sigma_s2", ((0.1, 10.0), (1.0, 2.0), (1e-6, 3.0)))
@pytest.mark.parametrize("blocks", (1, 8))
def test_bernoulli_gaussian_matches_its_plain_expression_bytewise(rho, sigma_s2, blocks):
    # rho = 1e-6 with v = 1e-300 clips the log-odds at _EXP_CLIP.
    rng = generator(31)
    r = random_with_zeros(rng, 256)
    values = np.concatenate([np.geomspace(1e-13, 10.0, 7), [1e-300]])
    cases = list(values) if blocks == 1 else [rng.permutation(values) for _ in range(4)]
    for v in cases:
        v = float(v) if blocks == 1 else v
        got = denoise_bernoulli_gaussian(r, v, rho, sigma_s2)
        mean, var = plain_bernoulli_gaussian(r, v, rho, sigma_s2)
        assert got.posterior_mean.tobytes() == mean.tobytes()
        assert got.coord_var.tobytes() == var.tobytes()


def plain_nle(den, r, v_in):
    """nle_orthogonalize's message with one expression per term: numpy's
    complex division for a scalar variance, the view scaling per block."""
    if not isinstance(v_in, np.ndarray):
        pv = max(float(np.mean(den.coord_var)), estimators._VARIANCE_FLOOR)
        if pv >= v_in:
            return r.copy()
        p = pv / v_in
        return divide_as_documented(den.posterior_mean - p * r, 1.0 - p)
    pv = np.maximum(den.coord_var.reshape(v_in.size, -1).mean(axis=1),
                    estimators._VARIANCE_FLOOR)
    stalled = pv >= v_in
    p = np.where(stalled, 0.0, pv / v_in)[:, None]
    rows = r.reshape(v_in.size, -1)
    s_next = den.posterior_mean.reshape(rows.shape) - p * rows
    planes = s_next.view(np.float64)
    np.multiply(planes, 1.0 / (1.0 - p), out=planes)
    s_next[stalled] = rows[stalled]
    return s_next.reshape(r.shape)


@pytest.mark.parametrize("blocks", (1, 8))
def test_nle_orthogonalize_matches_its_plain_expression_bytewise(blocks):
    # The means are zero where r is, with their own signs, so every
    # ZERO_ENTRIES pair reaches the division; a scalar v is the case L = 1.
    rng = generator(32)
    n = 128
    stalls = flips = 0
    for _ in range(100):
        r = random_with_zeros(rng, n)
        mean = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for part, zero in ((mean.real, r.real == 0.0), (mean.imag, r.imag == 0.0)):
            part[zero] = np.where(rng.random(np.count_nonzero(zero)) < 0.5, -0.0, 0.0)
        den = DenoiserResult(posterior_mean=mean,
                             coord_var=rng.uniform(0.0, rng.choice([0.2, 2.0]), n))
        v = rng.uniform(0.3, 2.0, blocks)
        v = float(v[0]) if blocks == 1 else v
        s_next, v_phi, stalled = nle_orthogonalize(den, r, v)
        want = plain_nle(den, r, v)
        assert s_next.tobytes() == want.tobytes()
        stalls += stalled
        if blocks == 1 and not stalled:
            p = max(float(np.mean(den.coord_var)), estimators._VARIANCE_FLOOR) / v
            flips += s_next.tobytes() != ((mean - p * r) / (1.0 - p)).tobytes()
    assert 0 < stalls < 100
    if blocks == 1:
        assert flips > 10       # numpy's division differs there, as documented


def plain_mle_step(state, theta_t):
    """mle_step with one expression per term and numpy's complex division."""
    t = state.iteration + 1
    A, meter, history = state.A, state.meter, state.history
    if t == 1:
        gamma = history.residual.copy()
    else:
        gram = A.apply(state.adj_gamma)
        meter.channel_applies += 1
        gamma = theta_t * (state.lambda_dagger * state.gamma - gram) + history.residual
    state.gamma = gamma
    scale = theta_t * state.lambda_dagger
    p = history.weights(t, scale)
    eps = float(np.add.reduce(p, axis=None))
    state.adj_gamma = A.apply_adjoint(gamma)
    meter.channel_applies += 1
    lifted = state.back(state.adj_gamma)
    memory, read = history.memory_sum(p, scale)
    meter.vector_points += read * state.dim
    r = (lifted + memory) / eps
    fit = state.y - state.forward(r)
    if state.row_blocks is None:
        v_gamma = (norm(fit) ** 2 - state.measure_dim * state.noise_var) / state.trace_gram
        v_gamma = max(float(v_gamma), estimators._VARIANCE_FLOOR)
    else:
        energy = np.bincount(state.row_blocks, weights=np.abs(fit) ** 2)
        v_gamma = np.maximum((energy - state.block_rows * state.noise_var)
                             / state.block_trace, estimators._VARIANCE_FLOOR)
    state.iteration = t
    return r, v_gamma


def recorded(monkeypatch, step, instance, Xi, prior, cfg):
    """run_cd_mamp through ``step`` as its mle_step, with the bytes of every
    r_t and v_gamma."""
    outputs = []

    def recording(state, theta_t):
        r, v_gamma = step(state, theta_t)
        outputs.append((r.tobytes(), np.asarray(v_gamma).tobytes()))
        return r, v_gamma

    with monkeypatch.context() as patch:
        patch.setattr(estimators, "mle_step", recording)
        return run_cd_mamp(instance, Xi, prior, cfg), outputs


@pytest.mark.parametrize("kind", ("wide-per-block", "circulant-FFT", "doppler"))
def test_mle_step_matches_its_plain_expression_bytewise(monkeypatch, kind):
    # The memory's in-block sum is pinned against its plain expression by
    # test_estimators' test_released_rows_leave_every_step_bit_identical.
    if kind == "wide-per-block":
        instance, Xi, prior = wide_instance("BW_IBS")
    else:
        instance, Xi, prior = damping_system(kind)
    fix_length(monkeypatch)
    cfg = MampConfig(max_iters=40)
    got, got_steps = recorded(monkeypatch, mle_step, instance, Xi, prior, cfg)
    want, want_steps = recorded(monkeypatch, plain_mle_step, instance, Xi, prior, cfg)
    assert len(got_steps) == 40 and got_steps == want_steps
    assert got.s_hat.tobytes() == want.s_hat.tobytes()
    assert got.points == want.points and got.meter == want.meter
    assert (len(got_steps[-1][1]) > 8) == (kind == "wide-per-block")     # per-block lane


def test_mse_matches_the_mean_of_squared_moduli_bytewise():
    rng = generator(33)
    for n in (1, 7, 256):
        a, b = random_with_zeros(rng, n + 16), random_with_zeros(rng, n + 16)
        for s_hat in (a, b, a.copy()):
            assert mse(s_hat, b).hex() == float(np.mean(np.abs(s_hat - b) ** 2)).hex()


def test_block_means_and_max_are_np_mean_and_np_max():
    # The second step's mean v_phi is below the tolerance, its max is not,
    # so the run goes on; the third stops on its tolerance.
    rng = generator(34)
    v_phis = [rng.uniform(0.1, 1.0, 8), np.array([1e-14] * 7 + [3e-12]), np.full(8, 1e-13)]
    v_gammas = [rng.uniform(1e-3, 1.0, 8) for _ in v_phis]
    steps = iter(zip(v_gammas, v_phis))

    def step():
        v_gamma, v_phi = next(steps)
        return np.zeros(4, dtype=complex), v_gamma, v_phi, ""

    run = _iterate(step, np.ones(4, dtype=complex), MampConfig(max_iters=5),
                   estimators.CostMeter())
    assert run.stop_reason == "tolerance" and len(run.points) == 3
    for point, v_gamma, v_phi in zip(run.points, v_gammas, v_phis):
        assert point.v_gamma.hex() == float(np.mean(v_gamma)).hex()
        assert point.v_phi.hex() == float(np.mean(v_phi)).hex()


@pytest.mark.parametrize("base", ("FFT", "FWHT"))
@pytest.mark.parametrize("direction", ("kernel", "kernel-adjoint"))
def test_ibs_applies_match_the_spec_reshape_form_bytewise(base, direction):
    spec = IbsSpec(n=256, n_s=32, m=128, variant="BW_IBS", base=base, direction=direction,
                   block_seed_base=3, whole_seed=4)
    op = build_ibs_transform(spec)
    rng = generator(35)
    s = random_with_zeros(rng, spec.n)
    want = op._kfwd(s.reshape(spec.blocks, spec.n_s)).reshape(spec.n)[op._flat]
    assert op.apply(s).tobytes() == want.tobytes()
    for u in (random_with_zeros(rng, spec.m), rng.standard_normal(spec.m)):
        z = np.zeros(spec.n, dtype=np.result_type(u.dtype, np.complex128))
        z[op._flat] = u
        want = op._kadj(z.reshape(spec.blocks, spec.n_s)).reshape(spec.n)
        got = op.apply_adjoint(u)
        assert got.dtype == np.complex128 and got.tobytes() == want.tobytes()


def copying(n):
    """The n x n identity as a transform whose applies return a new vector."""
    return LinearOperator(n, n, lambda v: v.copy(), lambda v: v.copy())


def echo_system(channel):
    """(instance with echoing operators, the same with copying ones, prior):
    Xi is the identity, A a diagonal or the identity, and every identity
    returns its input, or in the copying system a copy of it."""
    n = 64
    prior = BernoulliGaussianPrior(rho=0.2)
    s = prior.sample(n, generator(36, 2))
    if channel == "diagonal":
        A = DiagonalOperator(generator(36, 3).uniform(0.5, 2.0, n) * np.exp(0.3j))
        As = A, A
    else:
        As = identity(n), copying(n)
    base = simulate_observation(As[0], identity(n), s, 20.0, seed=36)
    return [SystemInstance(A=a, Xi=xi, s_true=base.s_true, y=base.y, noise_var=base.noise_var)
            for a, xi in zip(As, (identity(n), copying(n)))], prior


@pytest.mark.parametrize("channel", ("diagonal", "identity"))
def test_steps_only_read_the_vectors_an_echoing_operator_returns(channel):
    # gamma_t and A^H gamma_t are checked against the plain recursion before
    # the step: with Xi = I, back(A^H gamma_t) is A^H gamma_t itself, and
    # with A = I also gamma_t, so a sum written into the lifted vector would
    # change them.
    (instance, _), prior = echo_system(channel)
    A, y = instance.A, instance.y.copy()
    state = MampState(A, instance.Xi, instance.y, instance.noise_var, MampConfig(max_iters=8))
    v_x = prior.power
    for t in range(1, 7):
        theta = 1.0 / (state.lambda_dagger + instance.noise_var / v_x)
        if t == 1:
            gamma = state.history.residual.copy()
        else:
            gamma = (theta * (state.lambda_dagger * state.gamma - A.apply(state.adj_gamma))
                     + state.history.residual)
        adj_gamma = A.apply_adjoint(gamma).copy()
        r, v_gamma = mle_step(state, theta)
        assert state.gamma.tobytes() == gamma.tobytes()
        assert state.adj_gamma.tobytes() == adj_gamma.tobytes()
        assert instance.y.tobytes() == y.tobytes()
        den, r_kept = prior.denoise(r, v_gamma), r.copy()
        for v in (np.full(4, v_gamma), v_gamma):
            s_ext, _, _ = nle_orthogonalize(den, r, v)
            assert r.tobytes() == r_kept.tobytes()
        s_kept = s_ext.copy()
        v_x = _damping_step(state, s_ext)
        assert s_ext.tobytes() == s_kept.tobytes()
        assert instance.y.tobytes() == y.tobytes()
        assert state.adj_gamma.tobytes() == adj_gamma.tobytes()


def test_runs_with_echoing_operators_equal_runs_with_copying_ones():
    # A = I is left out: there r_1 = y fits exactly and the run stops at once.
    (echo, copy), prior = echo_system("diagonal")
    y = echo.y.copy()
    cfg = MampConfig(max_iters=24)
    got = run_cd_mamp(echo, echo.Xi, prior, cfg)
    want = run_cd_mamp(copy, copy.Xi, prior, cfg)
    assert echo.y.tobytes() == y.tobytes()
    assert got.s_hat.tobytes() == want.s_hat.tobytes()
    assert got.points == want.points and got.stop_reason == want.stop_reason
    assert len(got.points) > 2 and got.points[-1].mse < got.points[0].mse
