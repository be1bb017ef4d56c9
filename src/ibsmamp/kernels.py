"""Unitary fast transform kernels: FFT and fast Walsh-Hadamard.

Both kernels use the unitary 1/sqrt(n) normalization so forward and
adjoint are exact inverses of each other.  Sizes must be powers of two.

The FFT is delegated to numpy's pocketfft backend (norm="ortho").  The
Walsh-Hadamard transform is in natural (Sylvester) ordering: H_1 = [1],
H_2n = [[H_n, H_n], [H_n, -H_n]] times 1/sqrt(2) per doubling.  The
Hadamard matrix is real symmetric, so the FWHT is its own adjoint.

The FWHT is a constant-geometry (Pease) butterfly.  Each of its log2(n)
stages adds and subtracts the neighbours a[2i] and a[2i+1] into slots i
and i + n/2 of a second buffer, rotating the index bits right by one, so
stage s pairs the entries that differ in bit s of the original index:
bit 0 first, always (bit clear) +/- (bit set), and natural order again
after the last stage.  That is the stage and operand order of the
in-place butterfly with strides 1, 2, 4, ..., so every intermediate value
is the same floating-point operation on the same operands and the two
forms agree bit for bit; only the memory layout between stages differs.
The 1/sqrt(n) scale is one final division.
"""

from __future__ import annotations

import numpy as np

from .operators import LinearOperator


def is_power_of_two(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


def _check_size(n: int) -> None:
    if not is_power_of_two(n):
        raise ValueError(f"transform size must be a power of two, got {n}")


def fft_forward(v: np.ndarray) -> np.ndarray:
    """Unitary DFT along the last axis: entries exp(-2j pi k n / N) / sqrt(N)."""
    _check_size(v.shape[-1])
    return np.fft.fft(v, norm="ortho")


def fft_adjoint(v: np.ndarray) -> np.ndarray:
    """Adjoint (= inverse) of the unitary DFT along the last axis."""
    _check_size(v.shape[-1])
    return np.fft.ifft(v, norm="ortho")


def fwht_forward(v: np.ndarray) -> np.ndarray:
    """Unitary Walsh-Hadamard transform along the last axis.

    Accepts any (..., n) array with n a power of two; see the module
    docstring for the stage order.
    """
    n = v.shape[-1]
    _check_size(n)
    a = np.asarray(v, dtype=np.result_type(v.dtype, np.float64))
    lead = a.shape[:-1]
    a = a.reshape(-1, n)
    half = n // 2
    buffers = (np.empty_like(a), np.empty_like(a))
    for stage in range(n.bit_length() - 1):
        out = buffers[stage % 2]
        even, odd = a[:, 0::2], a[:, 1::2]
        np.add(even, odd, out=out[:, :half])
        np.subtract(even, odd, out=out[:, half:])
        a = out
    return (a / np.sqrt(n)).reshape(*lead, n)


def fft_operator(n: int) -> LinearOperator:
    """The n-point unitary DFT as a LinearOperator."""
    _check_size(n)
    return LinearOperator(n, n, fft_forward, fft_adjoint)
