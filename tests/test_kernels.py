"""Fast transform kernels against naive quadratic oracles."""

import numpy as np
import pytest

from ibsmamp.kernels import (fft_adjoint, fft_forward, fft_operator, fwht_forward,
                             is_power_of_two)
from ibsmamp.operators import materialize_dense
from ibsmamp.rng import generator
from ibsmamp.selftest import check_kernels_against_naive, dft_matrix

SIZES = [2 ** k for k in range(1, 11)]


def random_vectors(n: int, count: int, seed: int = 0) -> np.ndarray:
    rng = generator(seed)
    return rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))


def test_is_power_of_two():
    assert [x for x in range(1, 20) if is_power_of_two(x)] == [1, 2, 4, 8, 16]
    assert not is_power_of_two(0)
    assert not is_power_of_two(-4)


@pytest.mark.parametrize("n", SIZES)
def test_fft_matches_naive_dft(n):
    ok, detail = check_kernels_against_naive(sizes=(n,), vectors=3, seed=n,
                                             kernels=("fft", "fft-adjoint"))
    assert ok, detail


@pytest.mark.parametrize("n", SIZES)
def test_fwht_matches_naive_hadamard(n):
    ok, detail = check_kernels_against_naive(sizes=(n,), vectors=3, seed=n + 1,
                                             kernels=("fwht",))
    assert ok, detail


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
def test_fwht_matches_reshape_concatenate_butterfly_within_rounding(n):
    # Both forms add the same n signed entries per output, in different
    # orders.  Any order of such a sum is within n eps of the sum of the
    # magnitudes, per real plane; twice that covers both orders, the final
    # division and a complex entry's two planes.
    rng = generator(n + 2)
    for lead in ((), (3,), (2, 3)):
        real = rng.standard_normal(lead + (n,))
        cplx = real + 1j * rng.standard_normal(lead + (n,))
        for v in (real, cplx):
            got, want = fwht_forward(v), reshape_concatenate_fwht(v)
            assert got.dtype == want.dtype and got.shape == want.shape
            eps = np.finfo(got.dtype).eps
            bound = 2 * n * eps * np.sum(np.abs(v), axis=-1, keepdims=True) / np.sqrt(n)
            assert np.all(np.abs(got - want) <= bound)


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
