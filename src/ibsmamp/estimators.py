"""Cross-domain iterative estimators: memory AMP and its OAMP oracle.

Both estimators alternate a linear stage that exploits the spectrum of
A A^H with a separable denoiser stage in the source domain, keeping the
two stages orthogonalized so that errors stay uncorrelated across them.

The memory linear stage (``mle_step``) runs the recursion

    gamma_t = theta_t B gamma_{t-1} + (y - A x_t),
    B = lambda_dagger I - A A^H,

and recombines the lifted output with the iterate history so the signal
gain is exactly one:

    r_t = (back(gamma_t) + sum_i p_{t,i} h_i) / eps_t,
    p_{t,i} = (prod_{j>i} theta_j) w_{t-i},   eps_t = sum_i p_{t,i}.

This is Memory AMP's recursion with its residual weight xi_t = 1 at every
step, as IBS-CD-MAMP runs it; there is no xi_t schedule.

The history is kept in the source domain for every shape of the
transform: dim = n = Xi.cols, with the moments renormalized per source
coordinate.  ``mle_step`` applies A^H itself, and back(u) = Xi^H u lifts
the result to the source domain.  For a wide transform (m < n) this is
what keeps the unmeasured subspace recoverable by the prior.

``run_cd_mamp`` follows Memory AMP (Liu, Huang & Ping, IEEE TIT 2022) in
its gain schedule, theta_t = 1 / (lambda_dagger + sigma^2 / v_t), where
v_t is the estimator's own error variance of the damped iterate x_t: the
prior power at t = 1, then zeta^T V zeta from the damping step.  Called
with theta_t = 1 / lambda_dagger, the noiseless member, ``mle_step``
expands the zero-forcing inverse (A A^H)^{-1} instead of the LMMSE
(A A^H + sigma^2 / v_t)^{-1} and amplifies noise once v_t is small.

The denoiser stage subtracts its input component (``nle_orthogonalize``),
and consecutive candidates are combined by inverse-covariance damping.
One global normalizer eps_t serves the whole vector.  When A is diagonal
and Xi is a block transform, each source block reaches only its own rows
of y and sees only their share of the Gram spectrum, so the error
variance of r_t differs from block to block; the linear stage then
estimates one variance per block from that block's residual rows, and the
denoiser and its orthogonalization both take those L variances as they
are.  ``MampState`` keeps one variance per block exactly when A is a
``DiagonalOperator`` and Xi an ``IbsOperator`` with more than one block.
Every other run, the OAMP oracle's included, keeps the case L = 1 as a
float: the linear stage's residual variance, the denoiser's input check and
the orthogonalization's block mean and combine take the same IEEE
operations in the same order as their array form, so the bits are the same.

Both estimators hand one iteration at a time to a shared driver, which
records the trajectory and stops the run on the first of three rules, all
read from the estimator's own variances or the step count:

- ``tolerance``: every v_phi is below _TOLERANCE;
- ``converged``: from t = 2 on, v_gamma and v_phi both moved by less than
  _CONVERGED of their value since step t - 1, in every block;
- ``max-iters``: max_iters iterations have run.

``tolerance`` wins when it holds on the same step as ``converged``.  A stop
only ends the loop: every iterate computed keeps its bits, so a run is an
exact prefix of the same run with a later stop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .denoisers import DenoiserResult
from .errors import ConfigurationError, NormalizationError
from .ibs import IbsOperator
from .memory import History, norm
from .operators import DiagonalOperator, LinearOperator
from .scenarios import CirculantOperator, SystemInstance, mse, mse_db
from .spectral import dense_gram, gram_eigenvalues, spectral_profile

_EPS_MIN = 1e-12
# Every error variance the estimators report or divide by is at least this.
_VARIANCE_FLOOR = 1e-13
# The thresholds of the ``tolerance`` and ``converged`` stops (see the
# module docstring); 0 switches a stop off.
_TOLERANCE = 1e-12
_CONVERGED = 1e-6
# Why a run stopped: EstimatorRun.stop_reason is one of these.
STOP_REASONS = ("tolerance", "converged", "max-iters")


@dataclass(frozen=True)
class MampConfig:
    """Iteration controls shared by the estimators."""

    max_iters: int = 32
    damping_window: int = 3

    def __post_init__(self):
        if self.max_iters < 1:
            raise ConfigurationError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.damping_window < 1:
            raise ConfigurationError(f"damping_window must be >= 1, got {self.damping_window}")


@dataclass
class CostMeter:
    """Counts operator applies and vector passes, so tests and benchmarks
    can audit the cost of an iteration."""

    channel_applies: int = 0
    transform_applies: int = 0
    vector_points: int = 0      # elementwise passes (history rows read, denoising)


class MampState:
    """Mutable state of the memory linear estimator of channel A behind
    transform Xi (see the module docstring): the metered maps
    forward(s) = A Xi s and back(u) = Xi^H u, whose applies ``meter``
    counts with the history rows read, and the run's ``history``, a
    ``memory.History`` in the source domain of size ``dim = Xi.cols``.
    """

    def __init__(self, A: LinearOperator, Xi: LinearOperator, y: np.ndarray,
                 noise_var: float, cfg: MampConfig):
        profile = spectral_profile(A, depth=cfg.max_iters)
        if profile.lambda_dagger <= 0:
            raise ValueError("lambda_dagger must be positive")
        self.A = A
        self.Xi = Xi
        self.y = y
        self.dim = dim = Xi.cols
        self.measure_dim = int(y.shape[0])
        self.noise_var = float(noise_var)
        # Moments are renormalized to the source dimension so the mean
        # signal gain of r_t is exactly one in that domain.  The scaled
        # form (moments of B / lambda_dagger) keeps every entry bounded;
        # the matching lambda_dagger factor is restored in the scale that
        # mle_step hands to the history's weights, leaving the products p
        # unchanged.
        self.w = profile.w_scaled * (profile.dim / dim)
        self.trace_gram = profile.trace_gram
        self.lambda_dagger = profile.lambda_dagger
        self.iteration = 0
        self.gamma = np.zeros(self.measure_dim, dtype=np.complex128)
        self.adj_gamma = None       # A^H gamma, reused by the next step
        self.history = History(self.w, y, dim, cfg.max_iters, cfg.damping_window)
        self.meter = CostMeter()
        self.row_blocks = None
        if (isinstance(A, DiagonalOperator) and isinstance(Xi, IbsOperator)
                and Xi.spec.blocks > 1):
            self.row_blocks = Xi.row_blocks
            self.block_rows = Xi.spec.block_rows
            self.block_trace = np.bincount(self.row_blocks, weights=gram_eigenvalues(A))

    def forward(self, s: np.ndarray) -> np.ndarray:
        """A Xi s: one transform and one channel apply."""
        meter = self.meter
        meter.transform_applies += 1
        meter.channel_applies += 1
        return self.A.apply(self.Xi.apply(s))

    def back(self, u: np.ndarray) -> np.ndarray:
        """Xi^H u: one transform apply."""
        self.meter.transform_applies += 1
        return self.Xi.apply_adjoint(u)


def mle_step(state: MampState, theta_t: float) -> tuple[np.ndarray, float | np.ndarray]:
    """Advance the memory recursion one step with gain theta_t and return
    (r_t, v_gamma).

    r_t has unit mean gain on the true signal in the source domain;
    v_gamma is the residual-based estimate of its per-coordinate error
    variance, floored at _VARIANCE_FLOOR: a float, or one
    value per block when the state keeps one per block.  Raises
    NormalizationError if the gain normalizer degenerates.
    """
    t = state.iteration + 1
    A, meter, history = state.A, state.meter, state.history
    resid = history.residual
    if t == 1:
        gamma = resid.copy()        # a row of the residual buffer, which push overwrites
    else:
        gram = A.apply(state.adj_gamma)
        meter.channel_applies += 1
        gamma = theta_t * (state.lambda_dagger * state.gamma - gram) + resid
    state.gamma = gamma

    scale = theta_t * state.lambda_dagger
    p = history.weights(t, scale)
    eps = float(np.add.reduce(p, axis=None))      # p.sum() without its dispatch
    if abs(eps) < _EPS_MIN:
        raise NormalizationError(
            f"gain normalizer eps_gamma = {eps:.3e} degenerated at iteration {t}")

    state.adj_gamma = A.apply_adjoint(gamma)
    meter.channel_applies += 1
    lifted = state.back(state.adj_gamma)
    memory, read = history.memory_sum(p, scale)
    meter.vector_points += read * state.dim
    r = (lifted + memory) / eps

    fit = state.y - state.forward(r)
    if state.row_blocks is None:
        # The rounded root is squared, not skipped, so the bits stay those of
        # np.linalg.norm(fit) ** 2.
        v_gamma = (norm(fit) ** 2 - state.measure_dim * state.noise_var) / state.trace_gram
        v_gamma = max(float(v_gamma), _VARIANCE_FLOOR)
    else:
        energy = np.bincount(state.row_blocks, weights=np.abs(fit) ** 2)
        v_gamma = np.maximum((energy - state.block_rows * state.noise_var)
                             / state.block_trace, _VARIANCE_FLOOR)
    state.iteration = t
    return r, v_gamma


def nle_orthogonalize(den: DenoiserResult, r: np.ndarray, v_in: float | np.ndarray
                      ) -> tuple[np.ndarray, float | np.ndarray, bool]:
    """Subtract the input component of a denoiser output.

    Returns (s_next, v_phi, stalled).  ``v_in`` is one scalar or one
    variance per block of L equal contiguous blocks of r, and the rule
    applies block by block with pv, the block mean of ``den.coord_var``.
    With p = pv / v_in the orthogonalized message is (mean - p r) / (1 - p)
    with variance 1 / (1 / pv - 1 / v_in).  A block whose denoiser did not
    reduce variance (pv >= v_in) passes r through unchanged and stalls.
    v_phi has the shape of ``v_in``, and ``stalled`` reports whether any
    block stalled.  A scalar ``v_in`` is the case L = 1, computed on floats.
    """
    if not isinstance(v_in, np.ndarray) or v_in.ndim == 0:
        v = float(v_in)
        coord_var = den.coord_var
        # np.mean's sum and division, without its dispatch.
        pv = max(float(np.add.reduce(coord_var, axis=None)) / coord_var.size, _VARIANCE_FLOOR)
        if pv >= v:
            return r.copy(), v, True
        p = pv / v
        return ((den.posterior_mean - p * r) / (1.0 - p),
                max(pv * v / (v - pv), _VARIANCE_FLOOR), False)
    v = v_in.reshape(-1)
    pv = np.maximum(den.coord_var.reshape(v.size, -1).mean(axis=1), _VARIANCE_FLOOR)
    stalled = pv >= v
    p = np.where(stalled, 0.0, pv / v)[:, None]
    rows = r.reshape(v.size, -1)
    s_next = den.posterior_mean.reshape(rows.shape) - p * rows
    # numpy divides a complex entry a + bj by q + 0j as (a + b*0) * (1/q):
    # scaling the float64 view by 1/q per block gives the same bits.
    planes = s_next.view(np.float64)
    np.multiply(planes, 1.0 / (1.0 - p), out=planes)
    any_stalled = bool(stalled.any())
    if any_stalled:
        s_next[stalled] = rows[stalled]
    v_phi = np.where(stalled, v, np.maximum(pv * v / np.where(stalled, 1.0, v - pv),
                                            _VARIANCE_FLOOR))
    return s_next.reshape(r.shape), v_phi, any_stalled


def _cross_cov_from_residuals(gram: np.ndarray, measure_dim: int,
                              sigma2: float, trace_gram: float) -> np.ndarray:
    """Error cross-covariance of candidates from the raw Gram
    gram_ij = Re<r_i, r_j> of their residuals r_i = y - A c_i:
    V_ij = (gram_ij - M sigma2) / tr(A A^H), projected onto the PSD cone
    with its diagonal floored."""
    k = len(gram)
    V = (gram - measure_dim * sigma2) / trace_gram
    lam, vecs = np.linalg.eigh(V)
    V = (vecs * np.maximum(lam, 0.0)) @ vecs.T
    V.flat[::k + 1] = np.maximum(V.diagonal(), _VARIANCE_FLOOR)
    return V


def damping_update(candidates: np.ndarray,
                   V: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Inverse-covariance combination of candidate estimates.

    ``candidates`` is a (k, n) array with one candidate per row, such as a
    view of the damping window; it is combined as ``zeta @ candidates``.
    Solves for zeta = V^{-1} 1 / (1^T V^{-1} 1) on a trace-scaled
    ridge-regularized copy of V, then falls back to the best single
    candidate if the analytic weights do not beat it under the original
    V, so zeta^T V zeta never exceeds min(diag(V)).  Returns zeta, the
    combination and its variance zeta^T V zeta.
    """
    k = candidates.shape[0]
    if V.shape != (k, k):
        raise ValueError(f"V must be {k}x{k}, got {V.shape}")
    ridge = 1e-8 * max(V.trace(), 0.0) / k
    try:
        raw = np.linalg.solve(V + ridge * np.eye(k), np.ones(k))
    except np.linalg.LinAlgError:
        raw = None
    best = int(V.diagonal().argmin())
    zeta = None
    if raw is not None:
        total = raw.sum()
        if abs(total) > _EPS_MIN:
            zeta = raw / total
            quad = zeta @ V @ zeta
            if quad > V[best, best]:
                zeta = None
    if zeta is None:
        zeta = np.zeros(k)
        zeta[best] = 1.0
        quad = zeta @ V @ zeta
    return zeta, zeta @ candidates, float(quad)


def _damping_step(state: MampState, s_ext: np.ndarray) -> float:
    """Damp the extrinsic estimate s_ext over the trailing window of the
    state, push the damped estimate and its residual, and return the
    variance zeta^T V zeta of the damped estimate, floored."""
    history = state.history
    cands, resids = history.window()
    cands[-1] = s_ext
    resids[-1] = state.y - state.forward(s_ext)
    V = _cross_cov_from_residuals(history.gram(resids), state.measure_dim, state.noise_var,
                                  state.trace_gram)
    zeta, s_next, var = damping_update(cands, V)
    history.push(s_next, zeta @ resids)
    state.meter.vector_points += len(cands) * state.dim
    return max(var, _VARIANCE_FLOOR)


@dataclass(frozen=True)
class TrajectoryPoint:
    t: int
    mse: float
    mse_db: float
    v_gamma: float
    v_phi: float
    flags: str = ""


@dataclass(frozen=True)
class EstimatorRun:
    points: tuple[TrajectoryPoint, ...]
    s_hat: np.ndarray = field(repr=False)
    stop_reason: str
    meter: CostMeter = field(repr=False)

    @property
    def final_mse(self) -> float:
        return self.points[-1].mse


def _settled(v, prev) -> bool:
    """Whether the variance v, a float or one per block, moved by less than
    _CONVERGED of its value since prev, in every block.  The comparison is
    strict, so a NaN or infinite variance never settles."""
    if isinstance(v, float):
        return abs(v - prev) < _CONVERGED * v
    return bool(np.all(np.abs(v - prev) < _CONVERGED * v))


def _iterate(step: Callable[[], tuple], s_true: np.ndarray, cfg: MampConfig,
             meter: CostMeter) -> EstimatorRun:
    """Call step() once per iteration and record the trajectory until one of
    the stops of the module docstring ends it.

    step() returns (s_hat, v_gamma, v_phi, flags) for its iteration.  The
    stops read only what step() returns, and never change it, so a run is
    the prefix of the run that has one of them switched off.  s_true feeds
    only the reported mse.
    """
    points: list[TrajectoryPoint] = []
    stop_reason = "max-iters"
    prev = None
    for t in range(1, cfg.max_iters + 1):
        s_hat, v_gamma, v_phi, flags = step()
        cur_mse = mse(s_hat, s_true)
        if isinstance(v_phi, float):
            gamma_mean, phi_mean = float(v_gamma), float(v_phi)
            phi_max = phi_mean
        else:
            gamma_mean, phi_mean = float(np.mean(v_gamma)), float(np.mean(v_phi))
            phi_max = float(np.max(v_phi))
        points.append(TrajectoryPoint(t=t, mse=cur_mse, mse_db=mse_db(cur_mse),
                                      v_gamma=gamma_mean, v_phi=phi_mean, flags=flags))
        if phi_max < _TOLERANCE:
            stop_reason = "tolerance"
            break
        if prev is not None and _settled(v_gamma, prev[0]) and _settled(v_phi, prev[1]):
            stop_reason = "converged"
            break
        prev = v_gamma, v_phi
    return EstimatorRun(points=tuple(points), s_hat=s_hat,
                        stop_reason=stop_reason, meter=meter)


def run_cd_mamp(instance: SystemInstance, ibs: LinearOperator, prior,
                cfg: MampConfig = MampConfig()) -> EstimatorRun:
    """Full cross-domain memory AMP pipeline on one instance.

    Per iteration: memory linear step, lift to the source domain, denoise,
    orthogonalize, transform back, damp over the trailing window.  ``ibs``
    must act identically to instance.Xi (it is a parameter so equivalent
    constructions of the same transform can be compared bit-for-bit).
    instance.s_true feeds only the reported mse.
    Trajectory points report the block mean of per-block variances.
    """
    state = MampState(instance.A, ibs, instance.y, instance.noise_var, cfg)
    meter = state.meter
    n = state.dim
    v_x = prior.power

    def step():
        nonlocal v_x
        r, v_gamma = mle_step(state, 1.0 / (state.lambda_dagger + instance.noise_var / v_x))
        den = prior.denoise(r, v_gamma)
        meter.vector_points += n
        s_ext, v_phi, stalled = nle_orthogonalize(den, r, v_gamma)

        v_x = _damping_step(state, s_ext)

        flags = ["nle-stall"] if stalled else []
        if (v_gamma if isinstance(v_gamma, float) else v_gamma.min()) <= _VARIANCE_FLOOR:
            flags.append("v-floor")
        return den.posterior_mean, v_gamma, v_phi, "|".join(flags)

    return _iterate(step, instance.s_true, cfg, meter)


def _shifted_solver(A: LinearOperator):
    """solve(v_scale, sigma2, z) = (v_scale A A^H + sigma2 I)^{-1} z using the
    operator's structure: the memoized Gram eigenvalues of a diagonal or, in
    the DFT eigenbasis, a circulant A; else a dense Gram, formed once, here,
    not per solve."""
    if isinstance(A, DiagonalOperator):
        lam = gram_eigenvalues(A)
        return lambda v_scale, sigma2, z: z / (v_scale * lam + sigma2)
    if isinstance(A, CirculantOperator):
        lam = gram_eigenvalues(A)
        return lambda v_scale, sigma2, z: np.fft.ifft(np.fft.fft(z) / (v_scale * lam + sigma2))
    gram = dense_gram(A)
    eye = np.eye(A.rows)
    return lambda v_scale, sigma2, z: np.linalg.solve(v_scale * gram + sigma2 * eye, z)


def run_cd_oamp(instance: SystemInstance, prior,
                cfg: MampConfig = MampConfig()) -> EstimatorRun:
    """Cross-domain OAMP with an exact per-iteration LMMSE linear stage.

    Serves as the convergence oracle: one iteration with a Gaussian prior
    is the closed-form LMMSE solution.  Damping is not needed because the
    linear stage is non-recursive.
    """
    A, Xi, y = instance.A, instance.Xi, instance.y
    n = Xi.cols
    lam = gram_eigenvalues(A)
    solve = _shifted_solver(A)
    sigma2 = instance.noise_var
    s_msg = np.zeros(n, dtype=np.complex128)
    v_t = prior.power
    meter = CostMeter()

    def step():
        nonlocal s_msg, v_t
        resid = y - A.apply(Xi.apply(s_msg))
        z = solve(v_t, sigma2, resid)
        lifted = Xi.apply_adjoint(A.apply_adjoint(z))
        meter.transform_applies += 2        # Xi and A, once forward and once adjoint
        meter.channel_applies += 2
        eta = (v_t / n) * float(np.sum(lam / (v_t * lam + sigma2)))
        r = s_msg + (v_t / eta) * lifted
        v_gamma = max(v_t * (1.0 - eta) / eta, _VARIANCE_FLOOR)
        den = prior.denoise(r, v_gamma)
        s_msg, v_t, stalled = nle_orthogonalize(den, r, v_gamma)
        return den.posterior_mean, v_gamma, v_t, "nle-stall" if stalled else ""

    return _iterate(step, instance.s_true, cfg, meter)


def lmmse_estimate_gaussian(instance: SystemInstance, sigma_s2: float) -> np.ndarray:
    """Closed-form LMMSE posterior mean for a pure Gaussian CN(0, sigma_s2) source."""
    z = _shifted_solver(instance.A)(sigma_s2, instance.noise_var, instance.y)
    return sigma_s2 * instance.Xi.apply_adjoint(instance.A.apply_adjoint(z))


def lmmse_mse_gaussian(singulars: np.ndarray, sigma_s2: float, sigma2: float,
                       n: int) -> float:
    """Analytic LMMSE mse for a Gaussian source observed through a diagonal A
    after a row-orthonormal m x n transform: the m measured modes shrink,
    the n - m unmeasured ones keep the prior variance."""
    lam = np.asarray(singulars) ** 2
    measured = np.sum(sigma_s2 * sigma2 / (sigma_s2 * lam + sigma2))
    return float((measured + (n - lam.size) * sigma_s2) / n)
