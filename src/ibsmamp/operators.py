"""Matrix-free linear operators and their dense materialization.

An operator is a (rows, cols, forward, adjoint) quadruple acting on 1-d
complex vectors.  Operators are immutable after construction, so a single
instance can be shared freely across threads and trials.  Each instance may
also carry a private memo of values derived from it (its Gram spectrum, say);
an entry is a pure function of the operator and its key, so sharing it is as
safe as sharing the operator.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from .errors import MaterializationLimitError

# Largest dimension of an operator that is materialized or eigendecomposed densely.
DENSE_LIMIT = 4096


def _freeze(obj, **fields):
    for name, value in fields.items():
        object.__setattr__(obj, name, value)


def _memoized(op: LinearOperator, key: tuple, compute: Callable[[], object]):
    """op's memo entry for key, from compute() on the first request.

    Two threads may both compute a missing entry; setdefault keeps the
    first, so every caller gets the same object.
    """
    try:
        return op._memo[key]
    except KeyError:
        return op._memo.setdefault(key, compute())


class LinearOperator:
    """Immutable matrix-free linear map C^cols -> C^rows."""

    __slots__ = ("rows", "cols", "_fwd", "_adj", "_memo")

    def __init__(self, rows: int, cols: int,
                 forward: Callable[[np.ndarray], np.ndarray],
                 adjoint: Callable[[np.ndarray], np.ndarray]):
        if rows < 1 or cols < 1:
            raise ValueError(f"operator shape ({rows}, {cols}) must be positive")
        _freeze(self, rows=int(rows), cols=int(cols), _fwd=forward, _adj=adjoint,
                _memo={})

    def __setattr__(self, name, value):
        raise AttributeError("LinearOperator is immutable")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Forward map: returns the length-rows image of a length-cols vector."""
        if v.ndim != 1 or v.shape[0] != self.cols:
            raise ValueError(f"expected vector of length {self.cols}, got shape {v.shape}")
        return self._fwd(v)

    def apply_adjoint(self, v: np.ndarray) -> np.ndarray:
        """Adjoint (conjugate-transpose) map: length-rows -> length-cols."""
        if v.ndim != 1 or v.shape[0] != self.rows:
            raise ValueError(f"expected vector of length {self.rows}, got shape {v.shape}")
        return self._adj(v)


class DiagonalOperator(LinearOperator):
    """Square diagonal operator with the given (possibly complex) weights."""

    __slots__ = ("weights",)

    def __init__(self, weights: np.ndarray):
        w = np.asarray(weights)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("diagonal weights must be a non-empty 1-d array")
        w = w.copy()
        w.setflags(write=False)
        super().__init__(w.size, w.size, partial(np.multiply, w),
                         partial(np.multiply, np.conj(w)))
        _freeze(self, weights=w)


def materialize_dense(op: LinearOperator) -> np.ndarray:
    """Dense complex matrix of op, by applying it to the standard basis.

    Refuses operators with any dimension above ``DENSE_LIMIT`` so accidental
    materialization of production-size transforms fails fast.
    """
    if max(op.rows, op.cols) > DENSE_LIMIT:
        raise MaterializationLimitError(
            f"operator of shape {op.shape} exceeds dense limit {DENSE_LIMIT}")
    dense = np.empty((op.rows, op.cols), dtype=np.complex128)
    basis = np.zeros(op.cols, dtype=np.complex128)
    for j in range(op.cols):
        basis[j] = 1.0
        dense[:, j] = op.apply(basis)
        basis[j] = 0.0
    return dense
