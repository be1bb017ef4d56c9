"""Unitary fast transform kernels: FFT and fast Walsh-Hadamard.

Both kernels use the unitary 1/sqrt(n) normalization so forward and
adjoint are exact inverses of each other.  Sizes must be powers of two.

The FFT is numpy's pocketfft (norm="ortho"), called past its Python
front end: the kernels call the gufuncs behind ``np.fft.fft`` and
``np.fft.ifft`` (``numpy.fft._pocketfft_umath``, numpy >= 2.0) directly.
A plan per (n, input dtype), cached on first use, holds what the front end
derives on every call: the ortho factor ``reciprocal(sqrt(n, dtype=real))``
in the input's real precision (float64 for float64 and complex128 input,
float32 for complex64) and the output dtype ``result_type(dtype, 1j)``.
The gufuncs run on the same operands with the same factor, so the output
has the dtype and bytes of ``np.fft.fft(v, norm="ortho")`` (the self-test
check ``fft_fast_path`` compares them); a complex128 (32, 32) call
took 5.5 us instead of 9.4 on a 2-core Xeon (README, tuning notes).  The
first plan imports ``numpy.fft``; importing this
package does not.  The FWHT keeps a plan per size too (its factors, below,
and sqrt(n)), and a complex128 input skips the dtype promotion.  Both
plans check the size, and ``functools.cache`` keeps no exception, so every
call with a bad size raises.

The Walsh-Hadamard transform is in natural (Sylvester) ordering: H_1 = [1],
H_2n = [[H_n, H_n], [H_n, -H_n]] times 1/sqrt(2) per doubling.  The
Hadamard matrix is real symmetric, so the FWHT is its own adjoint.

The FWHT is a product of small dense Sylvester-Hadamard factors.  With
n = f_1 f_2 ... f_k, H_n is the Kronecker product of the H_{f_i}, so
viewing an n-vector as an f_1 x ... x f_k array, the transform multiplies
each axis by its own factor.  log2(n) is split into as few parts as keep
every factor at most 2**_FACTOR_BITS = 16 points, as evenly as possible:
1024 points run as 16 x 8 x 8, 8192 as 16 x 8 x 8 x 8.  The factors are
float64 +-1 matrices, built on the first call for each size and cached
read-only.
A complex input is read as its float64 view, real and imaginary parts
interleaved, so one real matmul applies a factor to both planes: the last
axis as one product with kron(H_f, I_2), every other axis as a batched
left product with H_f over the axes after it.  The 1/sqrt(n) scale is one
final division.

A factor of f points costs f multiply-adds per real entry (2f for the last
factor of a complex input, whose kron(H_f, I_2) is half zeros), so the
flops grow with the factor sizes, not with log2(n) as in a butterfly; BLAS
still runs them faster than a butterfly's log2(n) ufunc stages.  Complex
input, one BLAS thread, timeit min of 7: 1024 points as (L, n_s) blocks,
n_s = 2..256, take 8-17 us against 11-41 us for a constant-geometry
butterfly, and 14 us against 41 us as one block; 8192 points take 24-40 us
against 38-123 us, and 51 us against 128 us as one block.  A cap of 32
points ran 8192 points as (256, 32) blocks 1.5x slower, and a cap of 64
as (128, 64) blocks 2.3x slower, than the cap of 16.  The sums run in
another order than a butterfly's, so the result differs from one by
rounding only.
"""

from __future__ import annotations

import functools

import numpy as np

from .operators import LinearOperator

# Factors of the FWHT have at most 2**_FACTOR_BITS points (see the module
# docstring).
_FACTOR_BITS = 4


def is_power_of_two(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


def _check_size(n: int) -> None:
    if not is_power_of_two(n):
        raise ValueError(f"transform size must be a power of two, got {n}")


def fft_forward(v: np.ndarray) -> np.ndarray:
    """Unitary DFT along the last axis: entries exp(-2j pi k n / N) / sqrt(N)."""
    fft, _, fct, dtype = _fft_plan(v.shape[-1], v.dtype)
    return fft(v, fct, out=np.empty(v.shape, dtype))


def fft_adjoint(v: np.ndarray) -> np.ndarray:
    """Adjoint (= inverse) of the unitary DFT along the last axis."""
    _, ifft, fct, dtype = _fft_plan(v.shape[-1], v.dtype)
    return ifft(v, fct, out=np.empty(v.shape, dtype))


@functools.cache
def _fft_plan(n: int, dtype: np.dtype) -> tuple:
    """(forward gufunc, inverse gufunc, ortho factor, output dtype) of an
    n-point FFT of a dtype input, as ``np.fft.fft(norm="ortho")`` derives
    them (see the module docstring)."""
    _check_size(n)
    from numpy.fft import _pocketfft_umath as pfu
    real = np.result_type(np.empty(0, dtype).real.dtype, 1.0)
    return pfu.fft, pfu.ifft, np.reciprocal(np.sqrt(n, dtype=real)), np.result_type(dtype, 1j)


def fwht_forward(v: np.ndarray) -> np.ndarray:
    """Unitary Walsh-Hadamard transform along the last axis.

    Accepts any (..., n) array with n a power of two; see the module
    docstring for the factors.
    """
    outer, last, last_pair, root_n = _hadamard_factors(v.shape[-1])
    dtype = v.dtype
    if dtype != np.complex128:      # the common dtype skips the promotion
        dtype = np.result_type(dtype, np.float64)
    if dtype.kind == "c":
        x = np.ascontiguousarray(v, dtype=dtype)
        x, last = x.view(x.real.dtype), last_pair
    else:
        x = v
    # Each row of a holds the q entries of the axes transformed so far.
    q = last.shape[0]
    a = x.reshape(-1, q) @ last
    for h in outer:
        f = h.shape[0]
        a = np.matmul(h, a.reshape(-1, f, q))
        q *= f
    np.divide(a, root_n, out=a)
    return a.view(dtype).reshape(v.shape)


@functools.cache
def _hadamard_factors(n: int) -> tuple:
    """The plan of an n-point FWHT: its outer factors in the order they are
    applied, its last factor, kron(last factor, I_2) and sqrt(n); the
    matrices read-only (see the module docstring)."""
    _check_size(n)
    bits = n.bit_length() - 1
    parts = max(1, -(-bits // _FACTOR_BITS))
    base, extra = divmod(bits, parts)
    hs = [_sylvester(1 << (base + (i < extra))) for i in range(parts)]
    pair = np.kron(hs[-1], np.eye(2))
    pair.setflags(write=False)
    return tuple(reversed(hs[:-1])), hs[-1], pair, np.sqrt(n)


def _sylvester(f: int) -> np.ndarray:
    """The unnormalized f-point Sylvester-Hadamard matrix, read-only."""
    h = np.ones((1, 1))
    while h.shape[0] < f:
        h = np.block([[h, h], [h, -h]])
    h.setflags(write=False)
    return h


def fft_operator(n: int) -> LinearOperator:
    """The n-point unitary DFT as a LinearOperator."""
    _check_size(n)
    return LinearOperator(n, n, fft_forward, fft_adjoint)
