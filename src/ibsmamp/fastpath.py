"""numpy's private entry points, in one module.

``TABLE`` names the five calls numpy does not export and how each
resolves; the self-test check ``fast_paths`` compares each with its public
reference and names the routine it resolved to.

The gufuncs behind ``np.linalg.eigh``, ``np.linalg.solve``, ``np.fft.fft``
and ``np.fft.ifft`` run on the operands and under the floating-point state
those set, so they give their bits and raise their ``LinAlgError``.  Every
numpy >= 2.0 has them; one without them fails on their first call.
LAPACKE's ``zheevd_2stage`` (the two-stage reduction of Haidar, Ltaief &
Dongarra, SC 2011) and the thread setter come from the OpenBLAS that numpy
loaded, looked up among the process's mapped files on first use.  Where no
OpenBLAS has them (MKL or Accelerate builds), the spectrum is
``np.linalg.eigvalsh``'s and the thread count is left alone.  Importing the
package loads no ``numpy.fft``.
"""

from __future__ import annotations

import ctypes
import functools

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg


def _raise_nonconvergence(err, flag):
    raise LinAlgError("Eigenvalues did not converge")


def _raise_singular(err, flag):
    raise LinAlgError("Singular matrix")


def eigh(V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh(V) of a real symmetric V, without its wrapper."""
    with np.errstate(call=_raise_nonconvergence, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        return _umath_linalg.eigh_lo(V, signature="d->dd")


def solve(M: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve(M, b) of a real M and vector b, without its wrapper."""
    with np.errstate(call=_raise_singular, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        return _umath_linalg.solve1(M, b, signature="dd->d")


def pocketfft() -> tuple:
    """The gufuncs behind np.fft.fft and np.fft.ifft: ``fft(v, factor,
    out=None)`` is ``np.fft.fft(v, norm="ortho")`` given its ortho factor."""
    from numpy.fft import _pocketfft_umath as pfu
    return pfu.fft, pfu.ifft


def _openblas_symbol(*names: str):
    """The first of ``names`` exported by a mapped OpenBLAS, by path order; or None."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    return next((getattr(handle, name) for handle in map(ctypes.CDLL, paths)
                 for name in names if hasattr(handle, name)), None)


@functools.cache
def zheevd_2stage():
    """LAPACKE's zheevd_2stage, its argument types declared; or None."""
    solver = _openblas_symbol("scipy_LAPACKE_zheevd_2stage64_", "LAPACKE_zheevd_2stage64_",
                              "LAPACKE_zheevd_2stage")
    if solver is not None:
        lapack_int = ctypes.c_int64 if solver.__name__.endswith("64_") else ctypes.c_int
        # (layout, jobz, uplo, n, a, lda, w) -> info
        solver.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char, lapack_int,
                           ctypes.c_void_p, lapack_int, ctypes.c_void_p]
        solver.restype = lapack_int
    return solver


@functools.cache
def set_num_threads():
    """OpenBLAS's thread setter, its argument types declared; or None."""
    setter = _openblas_symbol("scipy_openblas_set_num_threads64_",
                              "openblas_set_num_threads64_", "openblas_set_num_threads")
    if setter is not None:
        setter.argtypes, setter.restype = [ctypes.c_int], None
    return setter


TABLE = {"eigh": lambda: _umath_linalg.eigh_lo, "solve": lambda: _umath_linalg.solve1,
         "fft": pocketfft, "zheevd_2stage": zheevd_2stage, "set_num_threads": set_num_threads}


def eigvalsh_in_place(gram: np.ndarray) -> np.ndarray:
    """np.linalg.eigvalsh(gram): by zheevd_2stage in place on the lower triangle
    of a writable Fortran-ordered square complex128 ``gram``, as eigvalsh on
    its Fortran copy; any other array goes to eigvalsh."""
    solver = zheevd_2stage()
    n = gram.shape[0]
    if (solver is None or gram.dtype != np.complex128 or gram.shape != (n, n)
            or not gram.flags.f_contiguous or not gram.flags.writeable):
        return np.linalg.eigvalsh(gram)
    lam = np.empty(n)
    # 102 is LAPACK_COL_MAJOR.
    info = solver(102, b"N", b"L", n, gram.ctypes.data, n, lam.ctypes.data)
    if info != 0:
        raise LinAlgError(f"{solver.__name__} returned info {info}")
    return lam


def one_blas_thread() -> None:
    """Set the loaded OpenBLAS, if one is found, to one thread."""
    if set_num_threads() is not None:
        set_num_threads()(1)
