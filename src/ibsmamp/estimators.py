"""Cross-domain iterative estimators: memory AMP and its OAMP oracle.

Both estimators alternate a linear stage that exploits the spectrum of
A A^H with a separable denoiser stage in the source domain, keeping the
two stages orthogonalized so that errors stay uncorrelated across them.

The memory linear stage (``mle_step``) runs the recursion

    gamma_t = theta_t B gamma_{t-1} + xi_t (y - A x_t),
    B = lambda_dagger I - A A^H,

and recombines the lifted output with the iterate history so the signal
gain is exactly one:

    r_t = (back(gamma_t) + sum_i p_{t,i} h_i) / eps_t,
    p_{t,i} = xi_i (prod_{j>i} theta_j) w_{t-i},   eps_t = sum_i p_{t,i}.

``back`` lifts the measurement domain to the domain the history lives in.
For a square transform this is the literal transform-domain recursion;
for a wide transform (m < n) the history is kept in the source domain and
``back = Xi^H A^H`` with the moments renormalized per source coordinate,
which is what keeps the unmeasured subspace recoverable by the prior.

``run_cd_mamp`` follows Memory AMP (Liu, Huang & Ping, IEEE TIT 2022) in
its gain schedule, theta_t = relax / (lambda_dagger + sigma^2 / v_t), where
v_t is the estimator's own error variance of the damped iterate x_t: the
prior power at t = 1, then zeta^T V zeta from the damping step.  The
noiseless member theta_t = relax / lambda_dagger (the ``MampState``
default) expands the zero-forcing inverse (A A^H)^{-1} instead of the
LMMSE (A A^H + sigma^2 / v_t)^{-1}; it amplifies noise once v_t is small,
and the error drifts back up after its minimum.

The denoiser stage subtracts its input component (``nle_orthogonalize``),
and consecutive candidates are combined by inverse-covariance damping.
One global normalizer eps_t serves the whole vector.  When A is diagonal
and Xi is a block transform, each source block reaches only its own rows
of y and sees only their share of the Gram spectrum, so the error
variance of r_t differs from block to block; the linear stage then
estimates one variance per block from that block's residual rows, and the
denoiser and its orthogonalization run with the block's variance.

The memory sum skips the oldest rows that cannot change r_t beyond
rounding.  With the row norms ||h_i|| stored once per row, step t keeps
rows k..t-1 for the largest k whose dropped weight
sum_{i<k} |p_{t,i}| ||h_i|| is below u sum_i |p_{t,i}| ||h_i||, u = 2^-53.
The dropped part is then smaller than the error bound
gamma_t sum_i |p_{t,i}| ||h_i|| (gamma_t ~ t u) that the full floating-point
sum already carries, whatever the decay of p; eps_t and p are unchanged.

Both estimators hand one iteration at a time to a shared driver, which
records the trajectory and applies the tolerance, stall and iteration
stops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .denoisers import DenoiserResult
from .errors import NormalizationError
from .ibs import IbsOperator
from .operators import DiagonalOperator, LinearOperator
from .scenarios import CirculantOperator, SystemInstance, mse, mse_db
from .spectral import SpectralProfile, dense_gram, gram_eigenvalues, spectral_profile

_EPS_MIN = 1e-12
# An iteration that lowers the best mse by less than this share counts as a stall.
_STALL_IMPROVEMENT = 0.01
# Unit roundoff of float64: memory rows whose combined weight is below this
# share of the total cannot change r_t beyond rounding.
_ROUNDING = 2.0 ** -53


@dataclass(frozen=True)
class MampConfig:
    """Iteration controls shared by the estimators."""

    max_iters: int = 32
    damping_window: int = 3
    relax: float = 1.0            # scales run_cd_mamp's gain schedule theta_t
    variance_floor: float = 1e-13
    stop_tolerance: float = 1e-12
    stall_patience: int = 3
    stop_on_stall: bool = True

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.damping_window < 1:
            raise ValueError(f"damping_window must be >= 1, got {self.damping_window}")
        if not 0.0 < self.relax <= 1.0:
            raise ValueError(f"relax must be in (0, 1], got {self.relax}")
        if self.variance_floor <= 0 or self.stop_tolerance <= 0:
            raise ValueError("variance_floor and stop_tolerance must be positive")
        if self.stall_patience < 1:
            raise ValueError(f"stall_patience must be >= 1, got {self.stall_patience}")


@dataclass
class CostMeter:
    """Counts operator applications so tests can audit per-iteration cost."""

    channel_applies: int = 0
    channel_points: int = 0     # sum of taps-per-row * rows over channel applies
    transform_applies: int = 0
    transform_points: int = 0   # sum of n * log2(n_s) over transform applies
    vector_points: int = 0      # elementwise passes (memory sums, denoising)

    def channel(self, A: LinearOperator) -> None:
        """Count one apply of the channel A."""
        self.channel_applies += 1
        self.channel_points += getattr(A, "taps_per_row", 1) * A.rows

    def transform(self, Xi: LinearOperator) -> None:
        """Count one apply of the transform Xi."""
        spec = getattr(Xi, "spec", None)
        n_s = spec.n_s if spec is not None else Xi.cols
        self.transform_applies += 1
        self.transform_points += Xi.cols * max(np.log2(n_s), 1.0)


class MampState:
    """Mutable state of the memory linear estimator.

    The state keeps the per-iteration estimates h_1, h_2, ... in the
    lifted domain (transform domain for square systems, source domain for
    wide ones), starting from the all-zero h_1, each with its norm and its
    cached residual y - forward(h_i).  Only the trailing
    ``damping_window`` residuals are kept; ``last_candidates`` and
    ``last_residuals`` return up to that many trailing entries.  ``meter``
    counts the channel applies and memory sums of ``mle_step``.

    Without an explicit ``theta`` the schedule is the constant
    relax / lambda_dagger; ``run_cd_mamp`` overwrites ``theta[t - 1]``
    before step t with MAMP's variance-dependent value.  ``row_blocks``
    (the source block of each measurement row) with ``gram_diag`` (the
    diagonal of A A^H) makes ``mle_step`` return one error variance per
    block instead of one scalar.
    """

    def __init__(self, profile: SpectralProfile, y: np.ndarray,
                 forward: Callable[[np.ndarray], np.ndarray],
                 back: Callable[[np.ndarray], np.ndarray],
                 dim: int, noise_var: float,
                 theta: Sequence[float] | None = None,
                 xi: Sequence[float] | None = None,
                 max_iters: int = 32,
                 variance_floor: float = 1e-13,
                 relax: float = 1.0,
                 damping_window: int = 3,
                 row_blocks: np.ndarray | None = None,
                 gram_diag: np.ndarray | None = None):
        if profile.depth < max_iters:
            raise ValueError(
                f"spectral profile depth {profile.depth} < max_iters {max_iters}")
        self.profile = profile
        self.y = y
        self.forward = forward
        self.back = back
        self.dim = int(dim)
        self.measure_dim = int(y.shape[0])
        self.noise_var = float(noise_var)
        # Moments are renormalized to the lifted dimension so the mean
        # signal gain of r_t is exactly one in that domain.  The scaled
        # form (moments of B / lambda_dagger) keeps every entry bounded;
        # the matching lambda_dagger factor is restored in the vartheta
        # update of mle_step, leaving the products p unchanged.
        self.w = profile.w_scaled * (profile.dim / dim)
        self.trace_gram = profile.trace_gram
        self.lambda_dagger = profile.lambda_dagger
        if theta is None:
            if profile.lambda_dagger <= 0:
                raise ValueError("lambda_dagger must be positive for the default schedule")
            theta = np.full(max_iters, relax / profile.lambda_dagger)
        if xi is None:
            xi = np.ones(max_iters)
        self.theta = np.asarray(theta, dtype=np.float64)
        self.xi = np.asarray(xi, dtype=np.float64)
        if self.theta.size < max_iters or self.xi.size < max_iters:
            raise ValueError("theta/xi schedules shorter than max_iters")
        self.variance_floor = float(variance_floor)
        self.iteration = 0
        self.gamma = np.zeros(self.measure_dim, dtype=np.complex128)
        self.adj_gamma = None       # A^H gamma, reused by the next step
        # Row i of the history holds h_{i+1}, and _hist_norm[i] its norm.
        # The history keeps every row: how many the memory sum needs is not
        # known in advance.  Residuals live in a ring: row i sits at
        # i % damping_window.
        self._hist = np.zeros((max_iters + 1, dim), dtype=np.complex128)
        self._hist_norm = np.zeros(max_iters + 1)
        self._resid = np.zeros((damping_window, self.measure_dim), dtype=np.complex128)
        self._resid[0] = y
        self._count = 1
        self.vartheta = np.zeros(0)
        self.meter = CostMeter()
        self.row_blocks = row_blocks
        if row_blocks is not None:
            self.block_rows = np.bincount(row_blocks)
            self.block_trace = np.bincount(row_blocks, weights=gram_diag)

    def push(self, estimate: np.ndarray, residual: np.ndarray) -> None:
        """Record the post-damping estimate and its cached residual."""
        self._hist[self._count] = estimate
        self._hist_norm[self._count] = np.linalg.norm(estimate)
        self._resid[self._count % len(self._resid)] = residual
        self._count += 1

    def _trailing(self, k: int) -> range:
        return range(max(self._count - min(k, len(self._resid)), 0), self._count)

    def last_candidates(self, k: int) -> list[np.ndarray]:
        return [self._hist[i] for i in self._trailing(k)]

    def last_residuals(self, k: int) -> list[np.ndarray]:
        return [self._resid[i % len(self._resid)] for i in self._trailing(k)]


def _memory_sum(p: np.ndarray, hist: np.ndarray,
                norms: np.ndarray) -> tuple[np.ndarray, int]:
    """Return (sum_i p_i hist_i, rows summed), skipping the longest prefix
    of rows whose weight sum |p_i| norms_i is below _ROUNDING of the total.
    The comparison is strict so that an infinite or NaN total keeps every
    row from its first non-finite weight on."""
    weight = np.cumsum(np.abs(p) * norms)
    k = int(np.count_nonzero(weight < _ROUNDING * weight[-1]))
    return p[k:] @ hist[k:], len(p) - k


def mle_step(state: MampState, A: LinearOperator, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Advance the memory recursion one step and return (r_t, v_gamma).

    r_t has unit mean gain on the true signal in the lifted domain;
    v_gamma is the residual-based estimate of its per-coordinate error
    variance, floored at the configured variance floor: a float, or one
    value per block when the state has ``row_blocks``.  Raises
    NormalizationError if the gain normalizer degenerates.
    """
    t = state.iteration + 1
    meter = state.meter
    theta_t = float(state.theta[t - 1])
    xi_t = float(state.xi[t - 1])
    resid = state.last_residuals(1)[0]
    if t == 1:
        gamma = xi_t * resid
    else:
        gram = A.apply(state.adj_gamma)
        meter.channel(A)
        gamma = theta_t * (state.lambda_dagger * state.gamma - gram) + xi_t * resid
    state.gamma = gamma

    state.vartheta = np.concatenate(
        [state.vartheta * (theta_t * state.lambda_dagger), [xi_t]])
    p = state.vartheta * state.w[t - 1::-1]
    eps = float(p.sum())
    if abs(eps) < _EPS_MIN:
        raise NormalizationError(
            f"gain normalizer eps_gamma = {eps:.3e} degenerated at iteration {t}")

    state.adj_gamma = A.apply_adjoint(gamma)
    meter.channel(A)
    lifted = state.back(state.adj_gamma)
    memory, kept = _memory_sum(p, state._hist[:t], state._hist_norm[:t])
    meter.vector_points += kept * state.dim
    r = (lifted + memory) / eps

    # state.forward is responsible for metering its own operator calls.
    fit = y - state.forward(r)
    if state.row_blocks is None:
        v_gamma = (np.linalg.norm(fit) ** 2 - state.measure_dim * state.noise_var) \
            / state.trace_gram
        v_gamma = max(float(v_gamma), state.variance_floor)
    else:
        energy = np.bincount(state.row_blocks, weights=np.abs(fit) ** 2)
        v_gamma = np.maximum((energy - state.block_rows * state.noise_var)
                             / state.block_trace, state.variance_floor)
    state.iteration = t
    return r, v_gamma


def nle_orthogonalize(den: DenoiserResult, r: np.ndarray, v_in: float | np.ndarray,
                      variance_floor: float = 1e-13
                      ) -> tuple[np.ndarray, float | np.ndarray, bool]:
    """Subtract the input component of a denoiser output.

    Returns (s_next, v_phi, stalled).  With p = posterior_var / v_in the
    orthogonalized message is (mean - p r) / (1 - p) with variance
    1 / (1 / posterior_var - 1 / v_in).  A denoiser that did not reduce
    variance (posterior_var >= v_in) passes r through unchanged and
    reports a stall.

    ``v_in`` may instead hold one variance per block of L equal contiguous
    blocks of r.  The rule then applies block by block, with the block
    means of ``den.coord_var`` as posterior_var; v_phi comes back per
    block, and ``stalled`` reports whether any block stalled.
    """
    v = np.reshape(v_in, -1)
    if np.ndim(v_in) == 0:
        pv = np.array([den.posterior_var])
    else:
        pv = den.coord_var.reshape(v.size, -1).mean(axis=1)
    pv = np.maximum(pv, variance_floor)
    stalled = pv >= v
    p = np.where(stalled, 0.0, pv / v)[:, None]
    rows = r.reshape(v.size, -1)
    s_next = np.where(stalled[:, None], rows,
                      (den.posterior_mean.reshape(rows.shape) - p * rows) / (1.0 - p))
    v_phi = np.where(stalled, v, np.maximum(pv * v / np.where(stalled, 1.0, v - pv),
                                            variance_floor))
    if np.ndim(v_in) == 0:
        v_phi = float(v_phi[0])
    return s_next.reshape(r.shape), v_phi, bool(stalled.any())


def _cross_cov_from_residuals(residuals: Sequence[np.ndarray], measure_dim: int,
                              sigma2: float, trace_gram: float,
                              variance_floor: float) -> np.ndarray:
    """Error cross-covariance of candidates from their residuals r_i = y - A c_i:
    V_ij = (Re<r_i, r_j> - M sigma2) / tr(A A^H), projected onto the PSD cone
    with its diagonal floored."""
    k = len(residuals)
    V = np.empty((k, k))
    for i in range(k):
        for j in range(i, k):
            val = (np.vdot(residuals[i], residuals[j]).real
                   - measure_dim * sigma2) / trace_gram
            V[i, j] = V[j, i] = val
    lam, vecs = np.linalg.eigh(V)
    V = (vecs * np.maximum(lam, 0.0)) @ vecs.T
    V[np.diag_indices(k)] = np.maximum(V.diagonal(), variance_floor)
    return V


def damping_update(candidates: Sequence[np.ndarray],
                   V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse-covariance combination of candidate estimates.

    Solves for zeta = V^{-1} 1 / (1^T V^{-1} 1) on a trace-scaled
    ridge-regularized copy of V, then falls back to the best single
    candidate if the analytic weights do not beat it under the original
    V, so zeta^T V zeta never exceeds min(diag(V)).
    """
    k = len(candidates)
    if V.shape != (k, k):
        raise ValueError(f"V must be {k}x{k}, got {V.shape}")
    ones = np.ones(k)
    ridge = 1e-8 * max(np.trace(V), 0.0) / k
    try:
        raw = np.linalg.solve(V + ridge * np.eye(k), ones)
    except np.linalg.LinAlgError:
        raw = None
    best = int(np.argmin(V.diagonal()))
    zeta = None
    if raw is not None and abs(raw.sum()) > _EPS_MIN:
        zeta = raw / raw.sum()
        if zeta @ V @ zeta > V[best, best]:
            zeta = None
    if zeta is None:
        zeta = np.zeros(k)
        zeta[best] = 1.0
    combined = np.tensordot(zeta, np.vstack(candidates), axes=1)
    return zeta, combined


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


def _iterate(step: Callable[[], tuple], s_true: np.ndarray, cfg: MampConfig,
             meter: CostMeter) -> EstimatorRun:
    """Call step() once per iteration and record the trajectory.

    step() returns (s_hat, v_gamma, v_phi, stalled, flags) for its
    iteration.  The run stops after max_iters iterations, once every v_phi
    is below the stop tolerance, or, with stop_on_stall, after
    stall_patience iterations in a row that stalled or did not improve the
    best mse.  s_true feeds only the reported mse and the stall stop.
    """
    points: list[TrajectoryPoint] = []
    best_mse = np.inf
    stall_run = 0
    stop_reason = "max-iters"
    for t in range(1, cfg.max_iters + 1):
        s_hat, v_gamma, v_phi, stalled, flags = step()
        cur_mse = mse(s_hat, s_true)
        points.append(TrajectoryPoint(t=t, mse=cur_mse, mse_db=mse_db(cur_mse),
                                      v_gamma=float(np.mean(v_gamma)),
                                      v_phi=float(np.mean(v_phi)), flags=flags))
        if np.max(v_phi) < cfg.stop_tolerance:
            stop_reason = "tolerance"
            break
        if stalled or cur_mse > best_mse * (1.0 - _STALL_IMPROVEMENT):
            stall_run += 1
        else:
            stall_run = 0
        best_mse = min(best_mse, cur_mse)
        if cfg.stop_on_stall and stall_run >= cfg.stall_patience:
            stop_reason = "stall"
            break
    return EstimatorRun(points=tuple(points), s_hat=s_hat,
                        stop_reason=stop_reason, meter=meter)


def run_cd_mamp(instance: SystemInstance, ibs: LinearOperator, prior,
                cfg: MampConfig = MampConfig()) -> EstimatorRun:
    """Full cross-domain memory AMP pipeline on one instance.

    Per iteration: memory linear step, lift to the source domain, denoise,
    orthogonalize, transform back, damp over the trailing window.  ``ibs``
    must act identically to instance.Xi (it is a parameter so equivalent
    constructions of the same transform can be compared bit-for-bit).
    instance.s_true feeds only the reported mse and the stall stop.
    Trajectory points report the block mean of per-block variances.
    """
    A, y = instance.A, instance.y
    n = ibs.cols
    profile = spectral_profile(A, depth=cfg.max_iters, dim=A.rows)

    def forward(s):
        meter.transform(ibs)
        meter.channel(A)
        return A.apply(ibs.apply(s))

    def back(u):
        meter.transform(ibs)
        return ibs.apply_adjoint(u)

    row_blocks = gram_diag = None
    if (isinstance(A, DiagonalOperator) and isinstance(ibs, IbsOperator)
            and ibs.spec.blocks > 1):
        # Each source block reaches only its own rows of y and their share
        # of the Gram spectrum: one error variance per block.
        row_blocks, gram_diag = ibs.row_blocks, np.abs(A.weights) ** 2
    state = MampState(profile, y, forward, back, dim=n, noise_var=instance.noise_var,
                      max_iters=cfg.max_iters, variance_floor=cfg.variance_floor,
                      relax=cfg.relax, damping_window=cfg.damping_window,
                      row_blocks=row_blocks, gram_diag=gram_diag)
    meter = state.meter
    v_x = prior.power

    def step():
        nonlocal v_x
        state.theta[state.iteration] = cfg.relax / (state.lambda_dagger
                                                    + instance.noise_var / v_x)
        r, v_gamma = mle_step(state, A, y)
        den = prior.denoise(r, np.repeat(v_gamma, n // np.size(v_gamma)))
        meter.vector_points += n
        s_ext, v_phi, stalled = nle_orthogonalize(den, r, v_gamma, cfg.variance_floor)

        cands = state.last_candidates(cfg.damping_window - 1) + [s_ext]
        resids = state.last_residuals(cfg.damping_window - 1) + [y - forward(s_ext)]
        V = _cross_cov_from_residuals(resids, state.measure_dim, instance.noise_var,
                                      state.trace_gram, cfg.variance_floor)
        zeta, s_next = damping_update(cands, V)
        v_x = max(float(zeta @ V @ zeta), cfg.variance_floor)
        state.push(s_next, np.tensordot(zeta, np.vstack(resids), axes=1))
        meter.vector_points += len(cands) * n

        flags = ["nle-stall"] if stalled else []
        if np.min(v_gamma) <= cfg.variance_floor:
            flags.append("v-floor")
        return den.posterior_mean, v_gamma, v_phi, stalled, "|".join(flags)

    return _iterate(step, instance.s_true, cfg, meter)


def _shifted_solver(A: LinearOperator):
    """solve(v_scale, sigma2, z) = (v_scale A A^H + sigma2 I)^{-1} z using the
    operator's structure; a dense Gram is formed once, here, not per solve."""
    if isinstance(A, DiagonalOperator):
        lam = np.abs(A.weights) ** 2
        return lambda v_scale, sigma2, z: z / (v_scale * lam + sigma2)
    if isinstance(A, CirculantOperator):
        return A.solve_shifted
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
    solve_shifted = _shifted_solver(A)
    sigma2 = instance.noise_var
    s_msg = np.zeros(n, dtype=np.complex128)
    v_t = prior.power
    meter = CostMeter()

    def step():
        nonlocal s_msg, v_t
        resid = y - A.apply(Xi.apply(s_msg))
        z = solve_shifted(v_t, sigma2, resid)
        lifted = Xi.apply_adjoint(A.apply_adjoint(z))
        for _ in range(2):      # Xi and A, once forward and once adjoint
            meter.transform(Xi)
            meter.channel(A)
        eta = (v_t / n) * float(np.sum(lam / (v_t * lam + sigma2)))
        r = s_msg + (v_t / eta) * lifted
        v_gamma = max(v_t * (1.0 - eta) / eta, cfg.variance_floor)
        den = prior.denoise(r, v_gamma)
        s_msg, v_t, stalled = nle_orthogonalize(den, r, v_gamma, cfg.variance_floor)
        return den.posterior_mean, v_gamma, v_t, stalled, "nle-stall" if stalled else ""

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
