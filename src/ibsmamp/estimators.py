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

``MampState(A, Xi, y, noise_var, cfg)`` wires this stage up from the
channel A and the transform Xi.  It owns the metered maps
forward(s) = A Xi s and back(u) = Xi^H u, and keeps the history in the
source domain for every shape of the transform: dim = n = Xi.cols, with
the moments renormalized per source coordinate.  ``mle_step`` applies A^H
itself, and ``back`` lifts the result to the source domain.  For a wide
transform (m < n) this is what keeps the unmeasured subspace recoverable
by the prior.

``run_cd_mamp`` follows Memory AMP (Liu, Huang & Ping, IEEE TIT 2022) in
its gain schedule, theta_t = 1 / (lambda_dagger + sigma^2 / v_t), where
v_t is the estimator's own error variance of the damped iterate x_t: the
prior power at t = 1, then zeta^T V zeta from the damping step.  A bare
``MampState`` keeps the noiseless member theta_t = 1 / lambda_dagger, which
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
are.  ``MampState`` makes this choice itself: one variance per block
exactly when A is a ``DiagonalOperator`` and Xi an ``IbsOperator`` with
more than one block.

A scalar variance is the case L = 1 of that contract, computed on floats
rather than on one-element arrays: the linear stage's residual variance,
the denoiser's input check, and the orthogonalization's block mean and
combine.  Every full transform, every non-diagonal channel and the OAMP
oracle take this path.  Each float step performs the same IEEE operations
in the same order as its array form, so the bits are the same.

The memory sum skips the oldest rows that cannot change r_t beyond
rounding.  With the row norms ||h_i|| stored once per row, step t keeps
rows k..t-1 for the largest k whose dropped weight
sum_{i<k} |p_{t,i}| ||h_i|| is below u sum_i |p_{t,i}| ||h_i||, u = 2^-53.
The dropped part is then smaller than the error bound
gamma_t sum_i |p_{t,i}| ||h_i|| (gamma_t ~ t u) that the full floating-point
sum already carries, whatever the decay of p; eps_t and p are unchanged.

A long kept memory is summed in blocks of steps, so that each old row is
read once per block instead of once per step.  Every step scales all
existing weights vartheta_i by the same theta_t lambda_dagger, so for a
row i < t0 the weight at step t0 + j factors as

    p_{t0+j,i} = F_j vartheta_{t0,i} w_{t0+j-1-i},
    F_j = prod_{s=t0+1}^{t0+j} theta_s lambda_dagger,   F_0 = 1.

A step whose kept memory has more than _BLOCK rows, and that no block
covers, starts one at t0 = t: a single real matrix product over the float64
view of rows k0..t0-1 gives the partial sums
B_j = sum_{k0<=i<t0} vartheta_{t0,i} w_{t0+j-1-i} h_i for the J steps
j < min(_BLOCK, max_iters - t0 + 1), and step t0 + j then sums
F_j B_j + sum_{t0<=i<t0+j} p_{t0+j,i} h_i.  The cut k0 is the smallest over
j of the rounding cut above, applied to the weights of B_j against their
own total.  That total leaves out the rows i >= t0 and the positive factor
|F_j| scales both sides, so it is a lower bound on the total at step
t0 + j, and k0 keeps every row that step's own cut keeps; a step whose own
cut falls below k0 starts a new block.  A kept memory of at most _BLOCK
rows is summed per step as above, to the bit.

The history holds only the rows that a step can still read.  The same
factorization bounds every cut from step t on from below: at t' >= t the
rows i < t weigh vartheta_{t,i} |w_{t'-1-i}| ||h_i|| times a factor
common to all of them, and the rows pushed after t only raise the total.
So the rounding cut of those weights against their own total is at most
the cut of step t', and at most the k0 of any block that starts at t'.
Every _BLOCK steps from t = 2 _BLOCK on, before its sum, step t takes the
minimum of that cut over t <= t' <= max_iters, with the share u / 4 as a
margin for the rounding of the weights, of their running sums and of the
scaling steps between t and t'; a non-finite weight makes it zero.  The
rows below it, below the cut of step t and below the oldest row of the
next damping window are released once they number at least _COMPACT
blocks and 1/_COMPACT of the rows kept: the kept rows move to the front
of the same buffer.  A block serves a step t' from its start t0 on only
when t' keeps more than _BLOCK rows, so the cut of t', and with it the
bound, lies below t0.  Only the row storage moves: the norms, the weights
and every cut keep logical row numbers, so every sum reads the same rows
with the same weights, and r_t keeps its bits.  The pages of the buffer
past the highest row written are never touched, so memory grows with the
rows kept, not with max_iters.  A weight that turns non-finite only after
rows were released sums from the oldest kept row.

The damping step reads its window in place.  ``MampState`` stages the new
candidate in the next free history row, so the trailing estimates and the
candidate are one slice of the history, and ``push`` overwrites that row
with the damped estimate.  Each residual is written twice, at rows
i % w and i % w + w of a buffer of 2w rows (w = damping_window), so the
trailing w - 1 pushed residuals and the candidate's residual are one slice
of w rows as well.  Both combines are then ``zeta @ view``: the same
contiguous rows in the same order as ``np.tensordot(zeta, np.vstack(...))``,
hence the same zgemv call and the same bits.  The raw Gram Re<r_i, r_j> of
the pushed residuals is carried across steps: ``push`` adds the products of
the new residual with the pushed ones the next window keeps, and the step
adds those of the candidate's residual.  Every entry is still one
``np.vdot`` of the same two rows with the older one first, computed once
instead of once per window it appears in, so the covariance is unchanged
to the bit.

Both estimators hand one iteration at a time to a shared driver, which
records the trajectory and applies the tolerance and iteration stops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .denoisers import DenoiserResult
from .errors import NormalizationError
from .ibs import IbsOperator
from .operators import DiagonalOperator, LinearOperator
from .scenarios import CirculantOperator, SystemInstance, mse, mse_db
from .spectral import dense_gram, gram_eigenvalues, spectral_profile

_EPS_MIN = 1e-12
# Unit roundoff of float64: memory rows whose combined weight is below this
# share of the total cannot change r_t beyond rounding.
_ROUNDING = 2.0 ** -53
# A kept memory longer than this many rows is summed in blocks of this
# many steps (see the module docstring).
_BLOCK = 16
# History rows that no step reads any more are released once they number
# at least _COMPACT blocks and 1/_COMPACT of the rows kept (see the module
# docstring).
_COMPACT = 4
# Every error variance the estimators report or divide by is at least this.
_VARIANCE_FLOOR = 1e-13


@dataclass(frozen=True)
class MampConfig:
    """Iteration controls shared by the estimators."""

    max_iters: int = 32
    damping_window: int = 3
    stop_tolerance: float = 1e-12

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.damping_window < 1:
            raise ValueError(f"damping_window must be >= 1, got {self.damping_window}")
        if self.stop_tolerance <= 0:
            raise ValueError(f"stop_tolerance must be positive, got {self.stop_tolerance}")


@dataclass
class CostMeter:
    """Counts operator applies and vector passes, so tests and benchmarks
    can audit the cost of an iteration."""

    channel_applies: int = 0
    transform_applies: int = 0
    vector_points: int = 0      # elementwise passes (history rows read, denoising)


class MampState:
    """Mutable state of the memory linear estimator of channel A behind
    transform Xi (see the module docstring).

    The state keeps the per-iteration estimates h_1, h_2, ... that a later
    step can still read, in the source domain of size ``dim = Xi.cols``,
    starting from the all-zero h_1, each with its norm and its cached
    residual y - forward(h_i).
    Only the residuals of the trailing ``cfg.damping_window`` rows are
    kept, with the raw Gram Re<r_i, r_j> of those the next damping window
    reads; ``window`` returns that window.  The state also holds the
    current block of the memory sum, and ``meter`` counts every apply of
    A and Xi and the history rows read by ``mle_step``.

    ``theta`` (1 / lambda_dagger) and ``xi`` (ones) are the gain
    schedules, one entry per iteration.  Callers write them in place, as
    ``run_cd_mamp`` does with ``theta[t - 1]`` before step t.
    """

    def __init__(self, A: LinearOperator, Xi: LinearOperator, y: np.ndarray,
                 noise_var: float, cfg: MampConfig):
        profile = spectral_profile(A, depth=cfg.max_iters)
        if profile.lambda_dagger <= 0:
            raise ValueError("lambda_dagger must be positive")
        max_iters, w = cfg.max_iters, cfg.damping_window
        self.A = A
        self.Xi = Xi
        self.y = y
        self.dim = dim = Xi.cols
        self.measure_dim = int(y.shape[0])
        self.noise_var = float(noise_var)
        # Moments are renormalized to the source dimension so the mean
        # signal gain of r_t is exactly one in that domain.  The scaled
        # form (moments of B / lambda_dagger) keeps every entry bounded;
        # the matching lambda_dagger factor is restored in the vartheta
        # update of mle_step, leaving the products p unchanged.
        self.w = profile.w_scaled * (profile.dim / dim)
        self.trace_gram = profile.trace_gram
        self.lambda_dagger = profile.lambda_dagger
        self.theta = np.full(max_iters, 1.0 / profile.lambda_dagger)
        self.xi = np.ones(max_iters)
        self.damping_window = w
        self.iteration = 0
        self.gamma = np.zeros(self.measure_dim, dtype=np.complex128)
        self.adj_gamma = None       # A^H gamma, reused by the next step
        # Row i of the history holds h_{i+1}, and _hist_norm[i] its norm.
        # Rows below _first are released, and row i >= _first sits at row
        # i - _first of _hist; np.zeros leaves the pages past the highest
        # row written untouched.  The residual of row i sits at rows i % w
        # and i % w + w of _resid.  _gram[:q, :q] holds Re<r_i, r_j> of the
        # q pushed residuals the next window reads, oldest first.
        self._hist = np.zeros((max_iters + 1, dim), dtype=np.complex128)
        self._hist_norm = np.zeros(max_iters + 1)
        self._first = 0
        self._resid = np.zeros((2 * w, self.measure_dim), dtype=np.complex128)
        self._gram = np.zeros((w, w))
        self._count = 0
        self.push(self._hist[0], y)
        self.vartheta = np.zeros(max_iters)
        # The block of the memory sum: (t0, k0, J), F_j of the current step,
        # and B_j in row j of _block_sums, allocated at the first block.
        self._block = (0, 0, 0)
        self._block_gain = 1.0
        self._block_sums = None
        self.meter = CostMeter()
        self.row_blocks = None
        if (isinstance(A, DiagonalOperator) and isinstance(Xi, IbsOperator)
                and Xi.spec.blocks > 1):
            # Each source block reaches only its own rows of y and their share
            # of the Gram spectrum: one error variance per block.
            self.row_blocks = Xi.row_blocks
            self.block_rows = np.bincount(self.row_blocks)
            self.block_trace = np.bincount(self.row_blocks, weights=np.abs(A.weights) ** 2)

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

    def window(self) -> tuple[np.ndarray, np.ndarray]:
        """Views of the damping window: the trailing min(w - 1, pushed)
        estimates and their residuals, oldest first, then the next free row
        of each, where the caller stages a new candidate and its residual."""
        count, w = self._count, self.damping_window
        k = min(w, count + 1)
        end = (count + 1) % w + w       # one past the slot of row `count`
        row = count + 1 - self._first   # one past its buffer row
        return self._hist[row - k:row], self._resid[end - k:end]

    def push(self, estimate: np.ndarray, residual: np.ndarray) -> None:
        """Record the post-damping estimate and its cached residual, and the
        residual's inner products with the pushed residuals the next window
        reads."""
        count, w = self._count, self.damping_window
        slot = count % w
        row = self._hist[count - self._first]
        row[:] = estimate
        # np.linalg.norm's own sum for a complex vector, without its dispatch.
        self._hist_norm[count] = math.sqrt(row.real.dot(row.real) + row.imag.dot(row.imag))
        self._resid[slot] = self._resid[slot + w] = residual
        kept = min(w - 1, count + 1)    # pushed rows of the next window
        if kept:
            if count >= w - 1:          # the window is full: drop its oldest row
                self._gram[:kept - 1, :kept - 1] = self._gram[1:kept, 1:kept]
            rows = self._resid[slot + w - kept + 1:slot + w + 1]
            self._gram[kept - 1, :kept] = self._gram[:kept, kept - 1] = \
                [np.vdot(r, rows[-1]).real for r in rows]
        self._count = count + 1


def _live_bound(state: MampState, t: int) -> int:
    """A row below which no memory sum from step t on reads (see the module
    docstring)."""
    lags = sliding_window_view(np.abs(state.w), t)[:len(state.vartheta) - t + 1, ::-1]
    # weight[j, i] sums |vartheta_{t,l} w_{t+j-1-l}| ||h_l|| over l <= i.
    weight = lags * np.abs(state.vartheta[:t] * state._hist_norm[:t])
    np.cumsum(weight, axis=1, out=weight)
    if not np.isfinite(weight[:, -1]).all():
        return 0
    return int(np.count_nonzero(weight < _ROUNDING / 4 * weight[:, -1:], axis=1).min())


def _release(state: MampState, t: int, k: int) -> None:
    """Before the memory sum of step t, whose own cut is k, release the rows
    that no later read needs once they number at least _COMPACT blocks and
    1/_COMPACT of the rows kept: the kept rows move to the front of the
    buffer, in copies no longer than the gap so that none overlaps itself.
    The release stops at k and at the oldest row of the next damping
    window, so the bound is computed only when those leave enough rows."""
    def enough(live):
        gap = live - state._first
        return gap >= _COMPACT * _BLOCK and gap * _COMPACT >= t - live

    live = min(k, t - state.damping_window + 1)
    if not enough(live):
        return
    live = min(live, _live_bound(state, t))
    if not enough(live):
        return
    hist, gap, kept = state._hist, live - state._first, t - live
    for start in range(0, kept, gap):
        stop = min(start + gap, kept)
        hist[start:stop] = hist[start + gap:stop + gap]
    state._first = live


def _memory_term(state: MampState, p: np.ndarray,
                 scale: float) -> tuple[np.ndarray, int]:
    """Return (sum_i p_i h_i over the kept rows, history rows read) for step
    t = len(p), whose update scaled every older weight by ``scale``.

    The rounding cut k drops the longest prefix of rows whose weight sum
    |p_i| ||h_i|| is below _ROUNDING of the total; the comparison is strict
    so that an infinite or NaN total keeps every row from its first
    non-finite weight on.  A kept memory longer than _BLOCK rows is summed
    through the current block, or a new one (see the module docstring).
    """
    t = len(p)
    weight = np.cumsum(np.abs(p) * state._hist_norm[:t])
    k = int(np.count_nonzero(weight < _ROUNDING * weight[-1]))
    if t % _BLOCK == 0 and t > _BLOCK:
        _release(state, t, k)
    hist, first = state._hist, state._first
    state._block_gain *= scale
    if t - k <= _BLOCK:
        return p[k:] @ hist[k - first:t - first], t - k
    t0, k0, rows = state._block
    if t < t0 + rows and k >= k0:
        j = t - t0
        return state._block_gain * state._block_sums[j] + p[t0:] @ hist[t0 - first:t - first], j
    rows = min(_BLOCK, len(state.vartheta) - t + 1)
    # coef[j, i] = vartheta_{t,i} w_{t+j-1-i}: the weights of B_j.
    coef = state.vartheta[:t] * state.w[np.add.outer(np.arange(rows),
                                                     np.arange(t - 1, -1, -1))]
    weight = np.cumsum(np.abs(coef) * state._hist_norm[:t], axis=1)
    k0 = max(int(np.count_nonzero(weight < _ROUNDING * weight[:, -1:], axis=1).min()), first)
    if state._block_sums is None:
        state._block_sums = np.empty((_BLOCK, state.dim), dtype=np.complex128)
    sums = state._block_sums[:rows]
    np.matmul(coef[:, k0:], hist[k0 - first:t - first].view(np.float64),
              out=sums.view(np.float64))
    state._block = (t, k0, rows)
    state._block_gain = 1.0
    return sums[0].copy(), t - k0


def mle_step(state: MampState) -> tuple[np.ndarray, float | np.ndarray]:
    """Advance the memory recursion one step and return (r_t, v_gamma).

    r_t has unit mean gain on the true signal in the source domain;
    v_gamma is the residual-based estimate of its per-coordinate error
    variance, floored at _VARIANCE_FLOOR: a float, or one
    value per block when the state keeps one per block.  Raises
    NormalizationError if the gain normalizer degenerates.
    """
    t = state.iteration + 1
    A, meter = state.A, state.meter
    theta_t = float(state.theta[t - 1])
    xi_t = float(state.xi[t - 1])
    resid = state._resid[(state._count - 1) % state.damping_window]
    if t == 1:
        gamma = xi_t * resid
    else:
        gram = A.apply(state.adj_gamma)
        meter.channel_applies += 1
        gamma = theta_t * (state.lambda_dagger * state.gamma - gram) + xi_t * resid
    state.gamma = gamma

    vartheta = state.vartheta[:t]
    scale = theta_t * state.lambda_dagger
    vartheta[:-1] *= scale
    vartheta[-1] = xi_t
    p = vartheta * state.w[t - 1::-1]
    eps = float(p.sum())
    if abs(eps) < _EPS_MIN:
        raise NormalizationError(
            f"gain normalizer eps_gamma = {eps:.3e} degenerated at iteration {t}")

    state.adj_gamma = A.apply_adjoint(gamma)
    meter.channel_applies += 1
    lifted = state.back(state.adj_gamma)
    memory, read = _memory_term(state, p, scale)
    meter.vector_points += read * state.dim
    r = (lifted + memory) / eps

    fit = state.y - state.forward(r)
    if state.row_blocks is None:
        # np.linalg.norm(fit) ** 2 without its dispatch.  The rounded root is
        # squared, not skipped, so the bits stay those of the norm.
        norm = math.sqrt(fit.real.dot(fit.real) + fit.imag.dot(fit.imag))
        v_gamma = (norm ** 2 - state.measure_dim * state.noise_var) / state.trace_gram
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
    s_next = np.where(stalled[:, None], rows,
                      (den.posterior_mean.reshape(rows.shape) - p * rows) / (1.0 - p))
    v_phi = np.where(stalled, v, np.maximum(pv * v / np.where(stalled, 1.0, v - pv),
                                            _VARIANCE_FLOOR))
    return s_next.reshape(r.shape), v_phi, bool(stalled.any())


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
    cands, resids = state.window()
    cands[-1] = s_ext
    resids[-1] = state.y - state.forward(s_ext)
    k = len(cands)
    gram = state._gram[:k, :k]
    gram[-1] = gram[:, -1] = [np.vdot(r, resids[-1]).real for r in resids]
    V = _cross_cov_from_residuals(gram, state.measure_dim, state.noise_var, state.trace_gram)
    zeta, s_next, var = damping_update(cands, V)
    state.push(s_next, zeta @ resids)
    state.meter.vector_points += k * state.dim
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


def _iterate(step: Callable[[], tuple], s_true: np.ndarray, cfg: MampConfig,
             meter: CostMeter) -> EstimatorRun:
    """Call step() once per iteration and record the trajectory.

    step() returns (s_hat, v_gamma, v_phi, flags) for its iteration.  The
    run stops once every v_phi is below the stop tolerance, or after
    max_iters iterations.  s_true feeds only the reported mse.
    """
    points: list[TrajectoryPoint] = []
    stop_reason = "max-iters"
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
        if phi_max < cfg.stop_tolerance:
            stop_reason = "tolerance"
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
    instance.s_true feeds only the reported mse.
    Trajectory points report the block mean of per-block variances.
    """
    state = MampState(instance.A, ibs, instance.y, instance.noise_var, cfg)
    meter = state.meter
    n = state.dim
    v_x = prior.power

    def step():
        nonlocal v_x
        state.theta[state.iteration] = 1.0 / (state.lambda_dagger + instance.noise_var / v_x)
        r, v_gamma = mle_step(state)
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
