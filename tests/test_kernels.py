"""Fast transform kernels against naive quadratic oracles, and their fast
paths against the calls they replace, byte for byte."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ibsmamp import kernels
from ibsmamp.kernels import (fft_adjoint, fft_forward, fft_operator, fwht_forward,
                             is_power_of_two)
from ibsmamp.operators import materialize_dense
from ibsmamp.rng import generator
from ibsmamp.selftest import check_fft_fast_path, check_kernels_against_naive, dft_matrix

SRC = Path(__file__).resolve().parents[1] / "src"

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
    # The size checks live in the cached per-size plans, which keep no
    # exception: a repeated call raises again.
    for _ in range(2):
        for kernel, v in ((fft_forward, np.ones(3)), (fft_adjoint, np.ones(6)),
                          (fwht_forward, np.ones(12))):
            with pytest.raises(ValueError):
                kernel(v)
    with pytest.raises(ValueError):
        fft_operator(5)


@pytest.mark.parametrize("n", [4, 32])
def test_operator_wrappers_match_kernels(n):
    F = materialize_dense(fft_operator(n))
    assert np.max(np.abs(F - dft_matrix(n))) < 1e-12


def signed_zero_inputs(shape, dtype, seed):
    """Seeded entries of dtype, every third one +-0 (both parts of a complex
    entry, each with its own sign)."""
    rng = generator(seed)
    re, im = rng.standard_normal((2,) + shape)
    re[..., ::3] *= 0.0
    im[..., 1::3] *= 0.0
    im[..., ::3] *= 0.0
    dtype = np.dtype(dtype)
    return (re + 1j * im if dtype.kind == "c" else re).astype(dtype)


FFT_DTYPES = ("float64", "complex64", "complex128")


@pytest.mark.parametrize("dtype", FFT_DTYPES)
def test_fft_kernels_give_the_bytes_of_np_fft(dtype):
    for n in (1, 2, 8, 64, 1024):
        for shape in ((n,), (4, n), (2, 3, n)):
            v = signed_zero_inputs(shape, dtype, seed=n)
            if v.size >= 8:
                assert np.signbit(v.real[v.real == 0]).any()
            for fast, slow in ((fft_forward, np.fft.fft), (fft_adjoint, np.fft.ifft)):
                got, want = fast(v), slow(v, norm="ortho")
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
                strided = v[..., ::2]
                assert fast(strided).tobytes() == slow(strided, norm="ortho").tobytes()


def test_fft_fast_path_check_passes_and_trips_on_a_wrong_factor(monkeypatch):
    ok, detail = check_fft_fast_path()
    assert ok, detail
    plan = kernels._fft_plan

    def one_ulp_off(n, dtype):
        fft, ifft, fct, out = plan(n, dtype)
        return fft, ifft, np.nextafter(fct, 1), out

    monkeypatch.setattr(kernels, "_fft_plan", one_ulp_off)
    ok, detail = check_fft_fast_path(sizes=(8,))
    assert not ok and "False" in detail


def seed_fwht(v):
    """The FWHT before its per-size plans: dtype resolution, size check,
    factors and sqrt(n) on every call."""
    n = v.shape[-1]
    bits = n.bit_length() - 1
    parts = max(1, -(-bits // 4))
    base, extra = divmod(bits, parts)
    hs = []
    for i in range(parts):
        h = np.ones((1, 1))
        while h.shape[0] < 1 << (base + (i < extra)):
            h = np.block([[h, h], [h, -h]])
        hs.append(h)
    outer, last = hs[:-1], hs[-1]
    dtype = np.result_type(v.dtype, np.float64)
    if dtype.kind == "c":
        x = np.ascontiguousarray(v, dtype=dtype).view(np.finfo(dtype).dtype)
        last = np.kron(last, np.eye(2))
    else:
        x = v
    q = last.shape[0]
    a = x.reshape(-1, q) @ last
    for h in reversed(outer):
        f = h.shape[0]
        a = np.matmul(h, a.reshape(-1, f, q))
        q *= f
    np.divide(a, np.sqrt(n), out=a)
    return a.view(dtype).reshape(v.shape)


@pytest.mark.parametrize("dtype", ["float32", "float64", "complex64", "complex128"])
def test_fwht_gives_the_bytes_of_its_unplanned_form(dtype):
    for n in (1, 2, 16, 32, 1024, 8192):
        for lead in ((), (3,), (2, 3)):
            v = signed_zero_inputs(lead + (n,), dtype, seed=n + len(lead))
            for x in (v, v[..., ::-1]):
                got, want = fwht_forward(x), seed_fwht(x)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()


def test_package_import_leaves_numpy_fft_unloaded():
    # The FFT kernels import numpy.fft on their first call, so importing
    # the package and all of its modules does not pay for it.
    code = ("import importlib, pkgutil, sys, ibsmamp\n"
            "for m in pkgutil.iter_modules(ibsmamp.__path__):\n"
            "    importlib.import_module('ibsmamp.' + m.name)\n"
            "print('numpy.fft' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.split() == ["False"]
