"""The OpenBLAS that numpy loaded, for the few entry points numpy does not
wrap: its thread setter and LAPACKE's two-stage Hermitian eigensolver.

The library is found among the mapped files of the process, as built by
numpy's wheels or by a distribution, on the first lookup and not at
import; the libraries found then are kept for the life of the process.
Without one (an MKL or Accelerate build) every lookup finds nothing.
"""

from __future__ import annotations

import ctypes
import functools


@functools.cache
def _libraries() -> tuple[ctypes.CDLL, ...]:
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return ()
    return tuple(ctypes.CDLL(path) for path in sorted(paths))


def openblas_function(*names: str):
    """The first of ``names`` exported by a loaded OpenBLAS, as a ctypes
    function whose ``__name__`` is that symbol; None if none is.

    The libraries are tried in path order, each for every name in turn.
    The function object is shared by every lookup of its symbol, so a
    caller that declares ``argtypes`` declares them once for all.
    """
    for handle in _libraries():
        for name in names:
            if hasattr(handle, name):
                return getattr(handle, name)
    return None
