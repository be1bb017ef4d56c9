"""Fast transform kernels against naive quadratic oracles."""

import numpy as np
import pytest

from ibsmamp.kernels import (fft_adjoint, fft_forward, fft_operator, fwht_forward,
                             fwht_operator, is_power_of_two)
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
    H = materialize_dense(fwht_operator(n))
    assert np.max(np.abs(F - dft_matrix(n))) < 1e-12
    assert np.max(np.abs(H - hadamard_matrix(n))) < 1e-12
    Fh = materialize_dense(fft_operator(n, adjoint=True))
    assert np.max(np.abs(Fh - dft_matrix(n).conj().T)) < 1e-12
    # The rescaled Hadamard is symmetric, so its adjoint is itself.
    Hh = materialize_dense(fwht_operator(n, adjoint=True))
    assert np.max(np.abs(Hh - H)) < 1e-12
