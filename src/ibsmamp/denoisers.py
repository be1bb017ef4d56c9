"""Separable MMSE denoisers for the supported source priors.

Each denoiser sees r = s + CN(0, v) componentwise and returns the
posterior mean and the per-coordinate posterior variance.  v is one
scalar, or one variance per block of L equal contiguous blocks of r: the
denoiser views r as an (L, n / L) array and computes the terms that
depend on v once per block, broadcast over the block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_EXP_CLIP = 700.0
_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class DenoiserResult:
    posterior_mean: np.ndarray = field(repr=False)
    coord_var: np.ndarray = field(repr=False)


def _check_inputs(r: np.ndarray, v) -> tuple[np.ndarray, float | np.ndarray]:
    """r as complex, and v as given for a scalar; for L block variances,
    r as (L, n / L) rows and v as an (L, 1) column.  A float v is checked
    with one comparison, which refuses NaN as the array check does."""
    scalar = isinstance(v, float)
    if scalar:
        bad = not 0.0 < v < math.inf
    else:
        bad = np.any(np.asarray(v) <= 0.0) or not np.all(np.isfinite(v))
    if bad:
        raise ValueError(f"noise variance must be positive and finite, got {v}")
    r = np.asarray(r)
    if r.ndim != 1 or r.size == 0:
        raise ValueError("observation must be a non-empty 1-d array")
    r = r.astype(np.complex128, copy=False)
    if scalar or np.ndim(v) == 0:
        return r, v
    if np.ndim(v) != 1 or np.size(v) == 0 or r.size % np.size(v):
        raise ValueError(f"noise variance must be a scalar or one per block of equal "
                         f"blocks of {r.size} coordinates, got shape {np.shape(v)}")
    v = np.asarray(v)
    return r.reshape(v.size, -1), v[:, None]


def denoise_bernoulli_gaussian(r: np.ndarray, v: float | np.ndarray, rho: float,
                               sigma_s2: float) -> DenoiserResult:
    """Posterior mean/variance for s ~ rho CN(0, sigma_s2) + (1 - rho) delta_0.

    The support posterior is pi(r) = 1 / (1 + ((1 - rho) / rho)
    * ((sigma_s2 + v) / v) * exp(-|r|^2 sigma_s2 / (v (sigma_s2 + v)))),
    the mean pi(r) * sigma_s2 / (sigma_s2 + v) * r.
    """
    r, v = _check_inputs(r, v)
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"rho must lie in (0, 1], got {rho}")
    if sigma_s2 <= 0.0:
        raise ValueError(f"sigma_s2 must be positive, got {sigma_s2}")
    c = sigma_s2 / (sigma_s2 + v)
    beta = c / v
    abs2 = np.abs(r) ** 2
    if rho < 1.0:
        log_odds = np.log((1.0 - rho) / rho) + np.log((sigma_s2 + v) / v) - beta * abs2
        pi = 1.0 / (1.0 + np.exp(np.minimum(log_odds, _EXP_CLIP)))
    else:
        pi = np.ones_like(abs2)
    mean = pi * c * r
    var = pi * c * v + pi * (1.0 - pi) * c * c * abs2
    return DenoiserResult(posterior_mean=mean.ravel(), coord_var=var.ravel())


def denoise_qpsk(r: np.ndarray, v: float | np.ndarray) -> DenoiserResult:
    """Posterior mean/variance for Gray-mapped QPSK, s in (+-1 +-1j)/sqrt(2).

    Real and imaginary components decouple into binary detections over
    +-1/sqrt(2) in noise of variance v/2, giving the tanh rule
    E[s_re | r] = tanh(sqrt(2) Re(r) / v) / sqrt(2) and likewise for the
    imaginary part.
    """
    r, v = _check_inputs(r, v)
    t_re = np.tanh(_SQRT2 * r.real / v)
    t_im = np.tanh(_SQRT2 * r.imag / v)
    mean = (1.0 / _SQRT2) * (t_re + 1j * t_im)
    var = 1.0 - np.abs(mean) ** 2
    return DenoiserResult(posterior_mean=mean.ravel(), coord_var=var.ravel())
