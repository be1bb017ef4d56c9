"""Spectral analysis of the measurement operator: eigen bounds and the
trace moments that drive the memory estimator.

All quantities refer to the Gram operator G = A A^H and the midpoint shift
B = lambda_dagger I - G with lambda_dagger = (lambda_min + lambda_max) / 2,
through the signal-gain moments

    w_k = tr(G B^k) / dim.

Which operator gets which spectrum path:

* diagonal and circulant operators: exactly, from their weights or
  frequency response, at any size;
* anything else up to ``dense_cap``: ``eigvalsh`` of the dense Gram from
  ``dense_gram``.  A time-varying channel writes that Gram straight from
  its taps; a generic operator is materialized through n applies and
  multiplied by its adjoint;
* anything else beyond the cap: seeded power iteration for the bounds and
  Rademacher trace probes for the moments.

The spectrum and each profile are computed once per operator: they are
kept in the operator's private memo, keyed by the arguments they depend
on, and their arrays are read-only because every later caller shares them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MaterializationLimitError
from .operators import DiagonalOperator, LinearOperator, _memoized, materialize_dense
from .rng import generator
from .scenarios import CirculantOperator, TimeVaryingChannelOperator

DENSE_EIGEN_CAP = 4096
_PROBES = 64
_POWER_ITERS = 300


@dataclass(frozen=True)
class SpectralProfile:
    """Eigen bounds and trace moments of one measurement operator.

    ``w_scaled`` holds w_k / lambda_dagger^k, the moments of B / lambda_dagger,
    whose spectral radius is strictly below one.  The raw moments w_k grow
    like ((lambda_max - lambda_min) / 2)^k and overflow float64 at depths
    past roughly a thousand; the products theta^k * w_k are identical
    either way.
    """

    lambda_min: float
    lambda_max: float
    lambda_dagger: float
    w_scaled: np.ndarray = field(repr=False)
    dim: int
    stochastic: bool = False

    @property
    def depth(self) -> int:
        return self.w_scaled.size - 1

    @property
    def trace_gram(self) -> float:
        """tr(A A^H) recovered from the zeroth moment."""
        return float(self.w_scaled[0] * self.dim)


def _exact_eigenvalues(A: LinearOperator, dense_cap: int) -> np.ndarray | None:
    """Eigenvalues of A A^H when they are cheap to get exactly, else None.

    Computed once per (operator, dense_cap) and returned read-only.
    """
    return _memoized(A, ("eigenvalues", dense_cap), lambda: _eigenvalues(A, dense_cap))


def _eigenvalues(A: LinearOperator, dense_cap: int) -> np.ndarray | None:
    if isinstance(A, DiagonalOperator):
        lam = np.abs(A.weights) ** 2
    elif isinstance(A, CirculantOperator):
        lam = np.abs(A.freq_response) ** 2
    elif max(A.rows, A.cols) <= dense_cap:
        lam = np.linalg.eigvalsh(dense_gram(A, limit=dense_cap))
    else:
        return None
    lam.setflags(write=False)
    return lam


def dense_gram(A: LinearOperator, limit: int = DENSE_EIGEN_CAP) -> np.ndarray:
    """Dense A A^H: from the taps for a time-varying channel, else from the
    materialized operator times its adjoint.

    Refuses operators with any dimension above ``limit``.
    """
    if max(A.rows, A.cols) > limit:
        raise MaterializationLimitError(
            f"operator of shape {A.shape} exceeds dense limit {limit}")
    if isinstance(A, TimeVaryingChannelOperator):
        return A.dense_gram()
    dense = materialize_dense(A, limit=limit)
    return dense @ dense.conj().T


def gram_eigenvalues(A: LinearOperator, dense_cap: int = DENSE_EIGEN_CAP) -> np.ndarray:
    """Exact eigenvalues of A A^H, or raise if only probes are possible."""
    lam = _exact_eigenvalues(A, dense_cap)
    if lam is None:
        raise ValueError(
            f"no exact spectrum for operator of shape {A.shape} above cap {dense_cap}")
    return lam


def _gram_apply(A: LinearOperator, z: np.ndarray) -> np.ndarray:
    return A.apply(A.apply_adjoint(z))


def eigen_bounds(A: LinearOperator, dense_cap: int = DENSE_EIGEN_CAP,
                 seed: int = 0) -> tuple[float, float]:
    """(lambda_min, lambda_max) of A A^H.

    Exact for diagonal/circulant operators and for anything small enough
    to eigendecompose densely; beyond the cap falls back to seeded power
    iteration on G and on its reflection around lambda_max.
    """
    lam = _exact_eigenvalues(A, dense_cap)
    if lam is not None:
        return float(lam.min()), float(lam.max())
    rng = generator(seed, stream=0)
    z = rng.normal(size=A.rows) + 1j * rng.normal(size=A.rows)
    z /= np.linalg.norm(z)
    for _ in range(_POWER_ITERS):
        z = _gram_apply(A, z)
        z /= np.linalg.norm(z)
    lam_max = float(np.real(np.vdot(z, _gram_apply(A, z))))
    z = rng.normal(size=A.rows) + 1j * rng.normal(size=A.rows)
    z /= np.linalg.norm(z)
    for _ in range(_POWER_ITERS):
        z = lam_max * z - _gram_apply(A, z)
        norm = np.linalg.norm(z)
        if norm == 0.0:
            return lam_max, lam_max
        z /= norm
    lam_min = lam_max - float(np.real(np.vdot(z, lam_max * z - _gram_apply(A, z))))
    return max(lam_min, 0.0), lam_max


def trace_moments(A: LinearOperator, lambda_dagger: float, depth: int,
                  dim: int | None = None, dense_cap: int = DENSE_EIGEN_CAP,
                  probes: int = _PROBES, seed: int = 0,
                  scale: float = 1.0) -> tuple[np.ndarray, bool]:
    """Moments w_k of scale*B for k = 0..depth, plus a probe flag.

    Exact from the spectrum whenever available; otherwise Hutchinson
    estimation with ``probes`` Rademacher vectors (exact for diagonal
    Grams by construction, ~1% relative error at 64 probes for the sizes
    this package runs).  ``scale`` != 1 returns w_k * scale^k computed
    without forming the overflow-prone raw powers.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if dim is None:
        dim = A.rows
    lam = _exact_eigenvalues(A, dense_cap)
    if lam is not None:
        shifted = (lambda_dagger - lam) * scale
        powers = shifted[None, :] ** np.arange(depth + 1)[:, None]
        return (powers * lam[None, :]).sum(axis=1) / dim, False
    rng = generator(seed, stream=1)
    w_acc = np.zeros(depth + 1)
    for _ in range(probes):
        z = (2.0 * rng.integers(0, 2, size=A.rows) - 1.0).astype(np.complex128)
        zk = z
        for k in range(depth + 1):
            g = _gram_apply(A, zk)
            w_acc[k] += np.real(np.vdot(z, g))
            zk = scale * (lambda_dagger * zk - g)
    return w_acc / (probes * dim), True


def spectral_profile(A: LinearOperator, depth: int, dim: int | None = None,
                     dense_cap: int = DENSE_EIGEN_CAP, probes: int = _PROBES,
                     seed: int = 0) -> SpectralProfile:
    """Bundle eigen bounds and trace moments for the estimator.

    Computed once per operator and argument tuple: a repeated call returns
    the same profile, whose arrays are read-only.
    """
    if dim is None:
        dim = A.rows
    return _memoized(A, ("profile", depth, dim, dense_cap, probes, seed),
                     lambda: _profile(A, depth, dim, dense_cap, probes, seed))


def _profile(A: LinearOperator, depth: int, dim: int, dense_cap: int, probes: int,
             seed: int) -> SpectralProfile:
    lam_min, lam_max = eigen_bounds(A, dense_cap=dense_cap, seed=seed)
    lam_dag = 0.5 * (lam_min + lam_max)
    scale = 1.0 / lam_dag if lam_dag > 0 else 1.0
    w_scaled, stochastic = trace_moments(
        A, lam_dag, depth, dim=dim, dense_cap=dense_cap, probes=probes,
        seed=seed, scale=scale)
    w_scaled.setflags(write=False)
    return SpectralProfile(lambda_min=lam_min, lambda_max=lam_max, lambda_dagger=lam_dag,
                           w_scaled=w_scaled, dim=dim, stochastic=stochastic)
