"""numpy's private entry points against their public references, and the
fall back of the OpenBLAS entries where no OpenBLAS is found."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from ibsmamp import fastpath, kernels, spectral
from ibsmamp.rng import generator
from ibsmamp.selftest import check_fast_paths
from ibsmamp.spectral import dense_gram
from test_estimators import WINDOW_KINDS, outcome, symmetric_window
from test_harness import TOY_DIGESTS
from test_spectral import doppler_channel, opaque_diagonal

SRC = Path(__file__).resolve().parents[1] / "src"


def test_fast_paths_check_passes_and_names_each_entry():
    ok, detail = check_fast_paths()
    assert ok, detail
    for name in fastpath.TABLE:
        assert f"{name} by " in detail or f"{name} fell back to " in detail


def one_ulp_off_fft(monkeypatch):
    plan = kernels._fft_plan

    def one_ulp_off(n, dtype):
        fft, ifft, fct, out = plan(n, dtype)
        return fft, ifft, np.nextafter(fct, 1), out

    monkeypatch.setattr(kernels, "_fft_plan", one_ulp_off)


# Each compared entry broken the way a changed numpy or binding could break
# it: eigh_lo and solve1 outside their errstate return NaN where
# np.linalg raises, the FFT's factor one ulp off, and a solver off by 1e-11.
BREAKS = {
    "eigh": lambda mp: mp.setattr(
        fastpath, "eigh", lambda V: _umath_linalg.eigh_lo(V, signature="d->dd")),
    "solve": lambda mp: mp.setattr(
        fastpath, "solve", lambda M, b: _umath_linalg.solve1(M, b, signature="dd->d")),
    "fft": one_ulp_off_fft,
    "zheevd_2stage": lambda mp: mp.setattr(
        spectral, "_eigvalsh_in_place", lambda gram: np.linalg.eigvalsh(gram) * (1 + 1e-11)),
}


@pytest.mark.parametrize("name", sorted(BREAKS))
def test_fast_paths_check_fails_on_a_broken_entry(monkeypatch, name):
    BREAKS[name](monkeypatch)
    with np.errstate(all="ignore"):
        ok, detail = check_fast_paths()
    assert not ok
    parts = {part.split()[0]: part for part in detail.split("; ")}
    broken = parts.pop(name)
    if name == "zheevd_2stage":
        assert float(broken.split("max gap ")[1].split()[0]) > 64
    else:
        assert " 0 differ" not in broken
    assert all(" 0 differ" in part or "differ" not in part for part in parts.values())


@pytest.mark.parametrize("name", ("eigh", "solve"))
def test_fast_paths_check_fails_where_no_reference_raised(monkeypatch, name):
    # Equal outcomes prove nothing of the raising path unless the reference
    # raised on some window.
    never_raises = {"eigh": lambda V: (np.zeros(len(V)), np.zeros_like(V)),
                    "solve": lambda M, b: np.zeros_like(b)}[name]
    monkeypatch.setattr(fastpath, name, never_raises)
    monkeypatch.setattr(np.linalg, name, never_raises)
    ok, detail = check_fast_paths()
    assert not ok and f"{name} by " in detail and " 0 raised" in detail


@pytest.mark.parametrize("kind", WINDOW_KINDS)
def test_eigh_and_solve_match_numpy_linalg_to_the_bit(kind):
    # Their results, and where LinAlgError is raised, must stay those of
    # np.linalg on every kind of window.
    rng = generator(41)
    raised = 0
    with np.errstate(invalid="ignore", over="ignore"):
        for k in range(1, 9):
            for _ in range(4):
                window = symmetric_window(kind, k, rng)
                # The damping test's candidates, drawn to keep its windows.
                rng.standard_normal((k, 5)), rng.standard_normal((k, 5))
                for fn, want, args in ((fastpath.eigh, np.linalg.eigh, (window,)),
                                       (fastpath.solve, np.linalg.solve, (window, np.ones(k)))):
                    expected = outcome(want, *args)
                    assert outcome(fn, *args) == expected
                    raised += expected is np.linalg.LinAlgError
    # np.linalg.solve raises on every all-zero window, and np.linalg.eigh on
    # most windows that hold a NaN or an infinity: both raising paths run.
    assert raised > 0 or kind not in ("zero", "nan", "inf")


def resolve_to(monkeypatch, solver):
    """Make ``zheevd_2stage`` resolve to ``solver`` (None: none found) for
    the rest of the test."""
    monkeypatch.setattr(fastpath, "zheevd_2stage", lambda: solver)


def test_dense_spectrum_without_the_routine_is_eigvalsh_to_the_bit(monkeypatch):
    assert fastpath._openblas_symbol("no_such_symbol") is None
    resolve_to(monkeypatch, None)
    A = doppler_channel(64)
    want = np.linalg.eigvalsh(A.dense_gram())
    assert spectral._eigenvalues(A).tobytes() == want.tobytes()


@pytest.mark.parametrize("path", ("zheevd_2stage", "eigvalsh"))
def test_a_nan_in_the_read_triangle_raises_on_both_paths(monkeypatch, path):
    # Both paths read the lower triangle: a NaN there raises, a NaN above
    # the diagonal is never read.
    if path == "eigvalsh":
        resolve_to(monkeypatch, None)
    gram = doppler_channel(64).dense_gram()
    want = np.linalg.eigvalsh(gram)
    upper = gram.copy(order="F")
    upper[2, 5] = np.nan
    assert np.allclose(fastpath.eigvalsh_in_place(upper), want, rtol=0,
                       atol=64 * 64 * np.finfo(float).eps * want.max())
    gram[5, 2] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.eigvalsh(gram)
    with pytest.raises(np.linalg.LinAlgError):
        fastpath.eigvalsh_in_place(gram)


def test_only_writable_fortran_complex128_squares_reach_the_pointer_call(monkeypatch):
    calls = []

    def solver(*args):
        calls.append(args)
        return 0

    resolve_to(monkeypatch, solver)
    gram = doppler_channel(16).dense_gram()
    assert gram.flags.f_contiguous and dense_gram(doppler_channel(16)).flags.f_contiguous
    assert dense_gram(opaque_diagonal(np.arange(1.0, 9.0))).flags.f_contiguous
    read_only = gram.copy(order="F")
    read_only.setflags(write=False)
    for arr in (np.ascontiguousarray(gram), gram[::2, ::2], gram.astype(np.complex64),
                gram.real.copy(order="F"), read_only):
        want = np.linalg.eigvalsh(arr)
        assert spectral._eigvalsh_in_place(arr).tobytes() == want.tobytes()
    assert calls == []
    spectral._eigvalsh_in_place(gram)
    assert len(calls) == 1 and calls[0][3] == 16 and calls[0][4] == gram.ctypes.data


# Runs every toy experiment of TOY_DIGESTS, cs-mse also on two workers, and
# the self-test, with no OpenBLAS found, and prints what they gave as JSON.
_NO_OPENBLAS = """
import contextlib, hashlib, io, json, sys, tempfile
import ibsmamp.fastpath
ibsmamp.fastpath._openblas_symbol = lambda *names: None
from ibsmamp import harness
from ibsmamp.cli import main
digests = {}
with tempfile.TemporaryDirectory() as tmp:
    for name, (experiment, fields, _) in sorted(json.loads(sys.argv[1]).items()):
        for threads in (1, 2) if name == "cs-mse" else (1,):
            cfg = harness.CONFIG_TYPES[experiment](**dict(fields, threads=threads))
            paths = harness.run_experiment(experiment, cfg, f"{tmp}/{name}-{threads}")
            digests[f"{name}-{threads}"] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                                            for p in paths if p.suffix == ".csv"}
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(["selftest"])
print(json.dumps({"digests": digests, "selftest_exit": code, "selftest": out.getvalue()}))
"""


def test_without_an_openblas_the_spectrum_and_thread_setter_fall_back():
    # An MKL or Accelerate numpy: the OpenBLAS lookup finds nothing, the
    # experiments write their pinned files and the self-test passes, naming
    # the two entries that fell back.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", _NO_OPENBLAS, json.dumps(TOY_DIGESTS)],
                          env=env, capture_output=True, text=True, timeout=300, check=True)
    got = json.loads(done.stdout.splitlines()[-1])
    want = {f"{toy}-{threads}": digests for toy, (_, _, digests) in TOY_DIGESTS.items()
            for threads in ((1, 2) if toy == "cs-mse" else (1,))}
    assert got["digests"] == want
    assert got["selftest_exit"] == 0, got["selftest"]
    line = next(x for x in got["selftest"].splitlines() if x.startswith("[ok] fast_paths:"))
    fell_back = {p.split()[0] for p in line.removeprefix("[ok] fast_paths: ").split("; ")
                 if " fell back to " in p}
    assert fell_back == {"zheevd_2stage", "set_num_threads"}
