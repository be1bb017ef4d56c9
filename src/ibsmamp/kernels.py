"""Unitary fast transform kernels: FFT and fast Walsh-Hadamard.

Both kernels use the unitary 1/sqrt(n) normalization so forward and
adjoint are exact inverses of each other.  Sizes must be powers of two.

The FFT is delegated to numpy's pocketfft backend (norm="ortho"); the
Walsh-Hadamard transform is an in-place butterfly over log2(n) stages in
natural (Sylvester) ordering: H_1 = [1], H_2n = [[H_n, H_n], [H_n, -H_n]]
times 1/sqrt(2) per doubling.  The Hadamard matrix is real symmetric, so
the FWHT is its own adjoint.
"""

from __future__ import annotations

import numpy as np

from .operators import LinearOperator


def is_power_of_two(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


def _check_size(n: int) -> None:
    if not is_power_of_two(n):
        raise ValueError(f"transform size must be a power of two, got {n}")


def fft_forward(v: np.ndarray, axis: int = -1) -> np.ndarray:
    """Unitary DFT along the given axis: entries exp(-2j pi k n / N) / sqrt(N)."""
    _check_size(v.shape[axis])
    return np.fft.fft(v, axis=axis, norm="ortho")


def fft_adjoint(v: np.ndarray, axis: int = -1) -> np.ndarray:
    """Adjoint (= inverse) of the unitary DFT."""
    _check_size(v.shape[axis])
    return np.fft.ifft(v, axis=axis, norm="ortho")


def fwht_forward(v: np.ndarray) -> np.ndarray:
    """Unitary Walsh-Hadamard transform along the last axis.

    Accepts any (..., n) array with n a power of two.
    """
    n = v.shape[-1]
    _check_size(n)
    a = np.array(v, dtype=np.result_type(v.dtype, np.float64), copy=True)
    lead = a.shape[:-1]
    a = a.reshape(-1, n)
    h = 1
    while h < n:
        a = a.reshape(a.shape[0], -1, 2, h)
        top = a[:, :, 0, :] + a[:, :, 1, :]
        bot = a[:, :, 0, :] - a[:, :, 1, :]
        a = np.concatenate([top[:, :, None, :], bot[:, :, None, :]], axis=2)
        a = a.reshape(a.shape[0], n)
        h *= 2
    return (a / np.sqrt(n)).reshape(*lead, n)


def fft_operator(n: int, adjoint: bool = False) -> LinearOperator:
    """The n-point unitary DFT (or its adjoint) as a LinearOperator."""
    _check_size(n)
    if adjoint:
        return LinearOperator(n, n, fft_adjoint, fft_forward)
    return LinearOperator(n, n, fft_forward, fft_adjoint)


def fwht_operator(n: int, adjoint: bool = False) -> LinearOperator:
    """The n-point unitary Walsh-Hadamard transform (self-adjoint)."""
    _check_size(n)
    return LinearOperator(n, n, fwht_forward, fwht_forward)
