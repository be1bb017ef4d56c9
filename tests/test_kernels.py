"""Fast transform kernels against naive quadratic oracles."""

import numpy as np
import pytest

from ibsmamp.kernels import (fft_adjoint, fft_forward, fft_operator, fwht_forward,
                             is_power_of_two)
from ibsmamp.operators import materialize_dense
from ibsmamp.rng import generator

SIZES = [2 ** k for k in range(1, 11)]


def dft_matrix(n: int) -> np.ndarray:
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)


def hadamard_matrix(n: int) -> np.ndarray:
    h = np.array([[1.0]])
    h2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    while h.shape[0] < n:
        h = np.kron(h2, h)
    return h


def random_vectors(n: int, count: int, seed: int = 0) -> np.ndarray:
    rng = generator(seed)
    return rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))


def test_is_power_of_two():
    assert [x for x in range(1, 20) if is_power_of_two(x)] == [1, 2, 4, 8, 16]
    assert not is_power_of_two(0)
    assert not is_power_of_two(-4)


@pytest.mark.parametrize("n", SIZES)
def test_fft_matches_naive_dft(n):
    W = dft_matrix(n)
    for v in random_vectors(n, 3, seed=n):
        assert np.max(np.abs(fft_forward(v) - W @ v)) < 1e-12
        assert np.max(np.abs(fft_adjoint(v) - W.conj().T @ v)) < 1e-12


@pytest.mark.parametrize("n", SIZES)
def test_fwht_matches_naive_hadamard(n):
    H = hadamard_matrix(n)
    for v in random_vectors(n, 3, seed=n + 1):
        assert np.max(np.abs(fwht_forward(v) - H @ v)) < 1e-12


def reshape_concatenate_fwht(v):
    """Reference butterfly: stage h = 1, 2, 4, ... pairs slots x and x + h."""
    n = v.shape[-1]
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


@pytest.mark.parametrize("n", [1] + SIZES)
def test_fwht_is_bit_identical_to_reshape_concatenate_butterfly(n):
    rng = generator(n + 2)
    for lead in ((), (3,), (2, 3)):
        real = rng.standard_normal(lead + (n,))
        cplx = real + 1j * rng.standard_normal(lead + (n,))
        for v in (real, cplx):
            got, want = fwht_forward(v), reshape_concatenate_fwht(v)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_fwht_natural_ordering_small_case():
    # 4-point butterfly output in natural (untouched-index) order.
    v = np.array([1.0, 2.0, 3.0, 4.0])
    want = np.array([10.0, -2.0, -4.0, 0.0]) / 2.0
    assert np.allclose(fwht_forward(v), want, atol=1e-14)


@pytest.mark.parametrize("n", [2, 16, 256])
def test_transforms_are_unitary(n):
    for v in random_vectors(n, 2, seed=5):
        assert abs(np.linalg.norm(fft_forward(v)) - np.linalg.norm(v)) < 1e-12
        assert abs(np.linalg.norm(fwht_forward(v)) - np.linalg.norm(v)) < 1e-12
        assert np.max(np.abs(fft_adjoint(fft_forward(v)) - v)) < 1e-12
        assert np.max(np.abs(fwht_forward(fwht_forward(v)) - v)) < 1e-12


def test_fft_axis_argument():
    rng = generator(11)
    block = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
    col_wise = fft_forward(block, axis=0)
    for j in range(8):
        assert np.max(np.abs(col_wise[:, j] - fft_forward(block[:, j]))) < 1e-13


def test_kernels_reject_non_power_of_two():
    with pytest.raises(ValueError):
        fft_forward(np.ones(3))
    with pytest.raises(ValueError):
        fwht_forward(np.ones(12))
    with pytest.raises(ValueError):
        fft_operator(5)


@pytest.mark.parametrize("n", [4, 32])
def test_operator_wrappers_match_kernels(n):
    F = materialize_dense(fft_operator(n))
    assert np.max(np.abs(F - dft_matrix(n))) < 1e-12
    Fh = materialize_dense(fft_operator(n, adjoint=True))
    assert np.max(np.abs(Fh - dft_matrix(n).conj().T)) < 1e-12
