"""Matrix-free operators against dense oracles."""

import numpy as np
import pytest

from ibsmamp import operators
from ibsmamp.errors import MaterializationLimitError
from ibsmamp.operators import DiagonalOperator, LinearOperator, materialize_dense
from ibsmamp.rng import generator


def random_dense_op(rows: int, cols: int, seed: int) -> tuple[LinearOperator, np.ndarray]:
    rng = generator(seed)
    M = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    op = LinearOperator(rows, cols, lambda v: M @ v, lambda v: M.conj().T @ v)
    return op, M


def test_apply_and_shape():
    op, M = random_dense_op(3, 5, seed=1)
    assert op.shape == (3, 5)
    v = np.arange(5.0)
    u = np.arange(3.0)
    assert np.allclose(op.apply(v), M @ v)
    assert np.allclose(op.apply_adjoint(u), M.conj().T @ u)


def test_apply_validates_vector_length_and_rank():
    op, _ = random_dense_op(3, 5, seed=2)
    with pytest.raises(ValueError):
        op.apply(np.zeros(4))
    with pytest.raises(ValueError):
        op.apply_adjoint(np.zeros(5))
    with pytest.raises(ValueError):
        op.apply(np.zeros((5, 1)))


def test_operator_is_immutable():
    op, _ = random_dense_op(2, 2, seed=3)
    with pytest.raises(AttributeError):
        op.rows = 7


def test_diagonal_operator():
    w = np.array([1.0 + 2j, -3.0, 0.5j])
    op = DiagonalOperator(w)
    dense = materialize_dense(op)
    assert np.allclose(dense, np.diag(w))
    v = np.array([1.0, 1j, 2.0])
    assert np.allclose(op.apply_adjoint(v), np.conj(w) * v)
    with pytest.raises(ValueError):
        op.weights[0] = 0.0


def test_materialize_dense_respects_limit(monkeypatch):
    op, M = random_dense_op(8, 8, seed=15)
    monkeypatch.setattr(operators, "DENSE_LIMIT", 4)
    with pytest.raises(MaterializationLimitError):
        materialize_dense(op)
    monkeypatch.setattr(operators, "DENSE_LIMIT", 8)
    assert np.allclose(materialize_dense(op), M)
