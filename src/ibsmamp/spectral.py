"""Spectral analysis of the measurement operator: eigen bounds, the trace
moments that drive the memory estimator and their Gauss rule.

All quantities refer to the Gram operator G = A A^H and the midpoint shift
B = lambda_dagger I - G with lambda_dagger = (lambda_min + lambda_max) / 2,
through the signal-gain moments

    w_k = tr(G B^k) / m,

over the m = A.rows rows of A; ``MampState`` renormalizes them to the
dimension of its history.

All three come from one spectral measure of G, nodes with masses that
stand for tr f(G) = sum(mass * f(node)): the bounds are its extreme nodes,
the moments its weighted powers, and ``gauss_rule`` its q-node Gauss
quadrature (Golub & Meurant, *Matrices, Moments and Quadrature*), which
``memory.History`` folds long memories into.  The measure is

* exact, the eigenvalues with unit masses, for diagonal and circulant
  operators at any size (closed forms) and for anything else up to
  ``DENSE_LIMIT``, from ``dense_gram`` (written from the taps for a
  time-varying channel, else materialized through n applies);
* otherwise stochastic Lanczos quadrature (Ubaru, Chen & Saad, SIMAX 2017)
  over 64 seeded Rademacher probes.

A dense Gram is built in Fortran order, the layout in which
``fastpath.eigvalsh_in_place`` hands it to LAPACK without a copy.

The spectrum, the measure, each profile and each Gauss rule are computed
once per operator, when first asked for, and kept read-only in the
operator's private memo.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MaterializationLimitError
from .fastpath import eigvalsh_in_place as _eigvalsh_in_place
from .operators import (DENSE_LIMIT, DiagonalOperator, LinearOperator, _memoized,
                        materialize_dense)
from .rng import generator
from .scenarios import CirculantOperator, TimeVaryingChannelOperator

_PROBES = 64
_LANCZOS_STEPS = 64
_BREAKDOWN = 1e-8   # residual, relative to the largest Rayleigh quotient
_CHUNK_BYTES = 1 << 20  # trace_moments holds the powers of about this many bytes


@dataclass(frozen=True)
class SpectralProfile:
    """The midpoint shift and trace moments of one measurement operator.

    ``w_scaled`` holds w_k / lambda_dagger^k, the moments of B / lambda_dagger,
    whose spectral radius is strictly below one.  The raw moments w_k grow
    like ((lambda_max - lambda_min) / 2)^k and overflow float64 at depths
    past roughly a thousand; the products theta^k * w_k are identical
    either way.
    """

    lambda_dagger: float
    w_scaled: np.ndarray = field(repr=False)
    dim: int

    @property
    def trace_gram(self) -> float:
        """tr(A A^H) recovered from the zeroth moment."""
        return float(self.w_scaled[0] * self.dim)


def _exact_eigenvalues(A: LinearOperator) -> np.ndarray | None:
    """Eigenvalues of A A^H, once per operator, if cheap to get exactly."""
    return _memoized(A, ("eigenvalues",), lambda: _eigenvalues(A))


def _eigenvalues(A: LinearOperator) -> np.ndarray | None:
    if isinstance(A, DiagonalOperator):
        lam = np.abs(A.weights) ** 2
    elif isinstance(A, CirculantOperator):
        lam = np.abs(A.freq_response) ** 2
    elif max(A.rows, A.cols) <= DENSE_LIMIT:
        lam = _eigvalsh_in_place(dense_gram(A))
    else:
        return None
    lam.setflags(write=False)
    return lam


def dense_gram(A: LinearOperator) -> np.ndarray:
    """Dense A A^H in Fortran order, the layout LAPACK takes: from the taps
    for a time-varying channel, else from the materialized operator times
    its adjoint.

    Refuses operators with any dimension above ``DENSE_LIMIT``.
    """
    if max(A.rows, A.cols) > DENSE_LIMIT:
        raise MaterializationLimitError(
            f"operator of shape {A.shape} exceeds dense limit {DENSE_LIMIT}")
    if isinstance(A, TimeVaryingChannelOperator):
        return A.dense_gram()
    dense = materialize_dense(A)
    # conj(D) D^T is the transpose of D D^H, so its C order is the Gram's
    # Fortran order.
    return (dense.conj() @ dense.T).T


def gram_eigenvalues(A: LinearOperator) -> np.ndarray:
    """Exact eigenvalues of A A^H, or raise if only probes are possible."""
    lam = _exact_eigenvalues(A)
    if lam is None:
        raise ValueError(
            f"no exact spectrum for operator of shape {A.shape} above cap {DENSE_LIMIT}")
    return lam


def _measure(A: LinearOperator) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, mass) of the spectral measure of A A^H: the eigenvalues with
    unit masses where they are exact, else the Lanczos quadrature."""
    lam = _exact_eigenvalues(A)
    if lam is not None:
        return lam, np.ones(lam.size)
    return _memoized(A, ("lanczos",), lambda: _lanczos_measure(A))


def _lanczos_measure(A: LinearOperator) -> tuple[np.ndarray, np.ndarray]:
    """Per probe z, |z|^2 = rows, the Gauss rule z^H f(G) z = rows *
    sum(tau_j^2 f(theta_j)) over the Ritz values theta_j and first
    eigenvector components tau_j of its Lanczos matrix, exact to degree
    2 * _LANCZOS_STEPS - 1; a probe stops early once its Krylov space is
    invariant.  Without reorthogonalization Ritz values only repeat."""
    rng = generator(0, stream=1)
    nodes, mass = [], []
    for _ in range(_PROBES):
        z = (2.0 * rng.integers(0, 2, size=A.rows) - 1.0).astype(np.complex128)
        alpha, beta = [], []
        q_prev, q, b = 0.0, z / np.sqrt(A.rows), 0.0
        for _ in range(_LANCZOS_STEPS):
            g = A.apply(A.apply_adjoint(q))
            alpha.append(float(np.real(np.vdot(q, g))))
            r = g - alpha[-1] * q - b * q_prev
            b = float(np.linalg.norm(r))
            if len(alpha) == _LANCZOS_STEPS or b <= _BREAKDOWN * max(alpha):
                break
            beta.append(b)
            q_prev, q = q, r / b
        theta, vecs = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
        nodes.append(theta)
        mass.append(vecs[0] ** 2 * (A.rows / _PROBES))
    nodes, mass = np.concatenate(nodes), np.concatenate(mass)
    nodes.setflags(write=False)
    mass.setflags(write=False)
    return nodes, mass


def eigen_bounds(A: LinearOperator) -> tuple[float, float]:
    """(lambda_min, lambda_max) of A A^H: the extreme nodes of its measure,
    Ritz values inside the spectrum above the cap."""
    nodes, _ = _measure(A)
    return float(nodes.min()), float(nodes.max())


def trace_moments(A: LinearOperator, lambda_dagger: float, depth: int,
                  scale: float = 1.0) -> np.ndarray:
    """Moments of scale*B, sum(mass * node * (scale*(lambda_dagger - node))^k) / m
    for k = 0..depth: w_k * scale^k without the overflow-prone raw powers.

    Exact where the spectrum is.  Above the cap they equal the probes'
    Hutchinson average to depth 126 up to rounding, with its sampling
    error: 7e-4 to 2e-2 of w_0 at depth 32 on Doppler channels at n=256
    and 1024.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    nodes, mass = _measure(A)
    shifted = (lambda_dagger - nodes) * scale
    weights = mass * nodes
    orders = np.arange(depth + 1)[:, None]
    # A few orders at a time: each row is the same powers and the same sum
    # as over all orders at once, without (depth + 1) x nodes temporaries.
    step = max(1, _CHUNK_BYTES // (8 * nodes.size))
    sums = [(shifted ** orders[k:k + step] * weights).sum(axis=1)
            for k in range(0, depth + 1, step)]
    return np.concatenate(sums) / A.rows


def spectral_profile(A: LinearOperator, depth: int) -> SpectralProfile:
    """The midpoint lambda_dagger of the eigen bounds and the trace moments
    to ``depth`` for the estimator.

    Computed once per operator and depth: a repeated call returns the same
    profile, whose arrays are read-only.
    """
    return _memoized(A, ("profile", depth), lambda: _profile(A, depth))


def _midpoint(A: LinearOperator) -> tuple[float, float]:
    """lambda_dagger, the midpoint of the eigen bounds, and the scale
    1 / lambda_dagger of the profile's moments (1 unless it is positive)."""
    lam_min, lam_max = eigen_bounds(A)
    lam_dag = 0.5 * (lam_min + lam_max)
    return lam_dag, 1.0 / lam_dag if lam_dag > 0 else 1.0


def _profile(A: LinearOperator, depth: int) -> SpectralProfile:
    lam_dag, scale = _midpoint(A)
    w_scaled = trace_moments(A, lam_dag, depth, scale=scale)
    w_scaled.setflags(write=False)
    return SpectralProfile(lambda_dagger=lam_dag, w_scaled=w_scaled, dim=A.rows)


def gauss_rule(A: LinearOperator, q: int) -> tuple[np.ndarray, np.ndarray]:
    """(x, mu), the Gauss rule of at most q nodes for the moments of every
    profile of A: sum(mu * x^k) equals ``w_scaled[k]`` for k < 2 len(x),
    up to rounding, and approximates it beyond.

    Lanczos with full reorthogonalization on the measure's nodes
    (lambda_dagger - node) / lambda_dagger with masses mass * node / m
    (Golub & Meurant): the nodes are the eigenvalues of the q x q Jacobi
    matrix, the weights its first eigenvector components squared times the
    total mass.  A measure on fewer than q points stops early with a rule
    exact at every degree.  Computed once per operator and q; the arrays
    are read-only.
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    return _memoized(A, ("gauss", q), lambda: _gauss_rule(A, q))


def _gauss_rule(A: LinearOperator, q: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, mass = _measure(A)
    lam_dag, scale = _midpoint(A)
    points = (lam_dag - nodes) * scale
    # A dense spectrum's rounding can put a node a hair below zero.
    weight = np.maximum(mass * nodes, 0.0) / A.rows
    total = float(weight.sum())
    basis = np.empty((q, points.size))
    v = np.sqrt(weight / total)
    alpha, beta = [], []
    for k in range(q):
        basis[k] = v
        u = points * v
        alpha.append(float(v @ u))
        u -= (basis[:k + 1] @ u) @ basis[:k + 1]
        b = float(np.sqrt(u @ u))
        if k + 1 == q or b <= _BREAKDOWN * np.abs(points).max():
            break
        beta.append(b)
        v = u / b
    x, vecs = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
    mu = total * vecs[0] ** 2
    x.setflags(write=False)
    mu.setflags(write=False)
    return x, mu
