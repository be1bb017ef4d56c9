"""Interleaved block-sparse transforms against first-principles dense oracles."""

import numpy as np
import pytest
from scipy.linalg import block_diag

from ibsmamp.errors import ConfigurationError
from ibsmamp.ibs import BASES, VARIANTS, IbsSpec, build_ibs_transform, relative_complexity
from ibsmamp.kernels import fft_adjoint, fft_forward, fwht_forward
from ibsmamp.operators import materialize_dense
from ibsmamp.rng import generator, make_permutation
from ibsmamp.selftest import (check_degenerate_single_block, check_unitarity, dft_matrix,
                              hadamard_matrix)


def spec_permutations(spec: IbsSpec):
    """(block permutations or None, whole permutation or None), drawn
    afresh from the spec's seeds as the paper defines them."""
    blocks = whole = None
    if spec.variant in ("B_IBS", "BW_IBS"):
        blocks = [make_permutation(spec.n_s, spec.block_seed_base + l)
                  for l in range(spec.blocks)]
    if spec.variant in ("W_IBS", "BW_IBS"):
        whole = make_permutation(spec.m, spec.whole_seed)
    return blocks, whole


def dense_oracle(spec: IbsSpec) -> np.ndarray:
    """Assemble the transform matrix directly from its definition: a unitary
    kernel per block, per-block row selection (through the block permutation
    when the variant has one), then the whole-output permutation."""
    kernel = dft_matrix(spec.n_s) if spec.base == "FFT" else hadamard_matrix(spec.n_s)
    if spec.direction == "kernel-adjoint":
        kernel = kernel.conj().T
    blocks, whole = spec_permutations(spec)
    if blocks is None:
        pieces = [kernel[:spec.block_rows]] * spec.blocks
    else:
        pieces = [kernel[p[:spec.block_rows]] for p in blocks]
    dense = block_diag(*pieces)
    return dense if whole is None else dense[whole]


def test_spec_validation():
    good = dict(n=16, n_s=4, m=8, variant="BS")
    IbsSpec(**good)
    for bad in (dict(good, n=12), dict(good, n_s=3), dict(good, n_s=32),
                dict(good, m=0), dict(good, m=17), dict(good, m=6),
                dict(good, variant="XX"), dict(good, base="DCT"),
                dict(good, direction="sideways")):
        with pytest.raises(ConfigurationError):
            IbsSpec(**bad)


def test_spec_rejects_non_integer_fields():
    good = dict(n=16, n_s=4, m=8, variant="BS")
    for bad in (dict(good, n=16.0), dict(good, n_s=4.0), dict(good, m=8.0),
                dict(good, n=True), dict(good, m=np.float64(8)),
                dict(good, block_seed_base=1.5), dict(good, whole_seed=False)):
        with pytest.raises(ConfigurationError, match="must be an integer"):
            IbsSpec(**bad)
    assert IbsSpec(**dict(good, n=np.int64(16))).n == 16


def test_spec_block_accounting():
    spec = IbsSpec(n=64, n_s=8, m=32, variant="BS")
    assert spec.blocks == 8
    assert spec.block_rows == 4


def test_plain_block_selection_hand_example():
    # Two 4-point DFT blocks, first two rows each, no interleaving.
    spec = IbsSpec(n=8, n_s=4, m=4, variant="BS")
    dense = materialize_dense(build_ibs_transform(spec))
    F4 = dft_matrix(4)
    assert np.max(np.abs(dense - block_diag(F4[:2], F4[:2]))) < 1e-12


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("direction", ["kernel", "kernel-adjoint"])
def test_matrix_free_matches_dense_oracle(variant, base, direction):
    # The one-block square shape with the kernel adjoint is the full
    # transform of the QPSK experiment.
    for n, n_s, m in ((32, 8, 16), (16, 16, 16)):
        spec = IbsSpec(n=n, n_s=n_s, m=m, variant=variant, base=base,
                       direction=direction, block_seed_base=21, whole_seed=43)
        op = build_ibs_transform(spec)
        dense = materialize_dense(op)
        assert np.max(np.abs(dense - dense_oracle(spec))) < 1e-12
        # Adjoint agrees with the dense conjugate transpose.
        rng = generator(3)
        u = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        assert np.max(np.abs(op.apply_adjoint(u) - dense.conj().T @ u)) < 1e-12


def select_and_interleave(op, v, adjoint):
    """Reference formulation of the IBS applies: the batched kernel, a 2-D
    (block, row) selection, and a separate whole-interleave gather/scatter."""
    spec = op.spec
    blocks, n_s, m_s = spec.blocks, spec.n_s, spec.block_rows
    kfwd, kadj = (fft_forward, fft_adjoint) if spec.base == "FFT" else (fwht_forward,) * 2
    if spec.direction == "kernel-adjoint":
        kfwd, kadj = kadj, kfwd
    rows = np.arange(blocks)[:, None]
    block_perms, whole = spec_permutations(spec)
    if block_perms is None:
        sel = np.broadcast_to(np.arange(m_s), (blocks, m_s))
    else:
        sel = np.stack([p[:m_s] for p in block_perms])
    if not adjoint:
        out = kfwd(v.reshape(blocks, n_s))[rows, sel].reshape(spec.m)
        return out if whole is None else out[whole]
    if whole is not None:
        unshuffled = np.empty_like(v)
        unshuffled[whole] = v
        v = unshuffled
    z = np.zeros((blocks, n_s), dtype=np.complex128)
    z[rows, sel] = v.reshape(blocks, m_s)
    return kadj(z).reshape(spec.n)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("direction", ["kernel", "kernel-adjoint"])
def test_flat_index_applies_are_bit_identical_to_select_and_interleave(variant, base,
                                                                       direction):
    rng = generator(17)
    for n, n_s, m in ((64, 8, 32), (64, 16, 64), (32, 32, 16), (32, 32, 32)):
        spec = IbsSpec(n=n, n_s=n_s, m=m, variant=variant, base=base,
                       direction=direction, block_seed_base=5, whole_seed=9)
        op = build_ibs_transform(spec)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        u = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        for got, want in ((op.apply(v), select_and_interleave(op, v, False)),
                          (op.apply_adjoint(u), select_and_interleave(op, u, True))):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        whole = spec_permutations(spec)[1]
        stacked = np.arange(m) if whole is None else whole
        assert np.array_equal(op.row_blocks, stacked // spec.block_rows)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("base", BASES)
def test_row_orthonormality_small_grid(variant, base):
    ok, detail = check_unitarity(shapes=((64, 8, 32), (64, 16, 64), (128, 128, 64)),
                                 seed_pairs=[(1000 * seed, seed) for seed in range(3)],
                                 variants=(variant,), bases=(base,))
    assert ok, detail


def test_square_transform_is_unitary_both_ways():
    spec = IbsSpec(n=64, n_s=16, m=64, variant="BW_IBS", block_seed_base=7,
                   whole_seed=11)
    dense = materialize_dense(build_ibs_transform(spec))
    assert np.max(np.abs(dense @ dense.conj().T - np.eye(64))) < 1e-12
    assert np.max(np.abs(dense.conj().T @ dense - np.eye(64))) < 1e-12


def test_adjoint_is_pseudo_inverse_for_wide_shapes():
    spec = IbsSpec(n=64, n_s=8, m=16, variant="BW_IBS", block_seed_base=2,
                   whole_seed=3)
    op = build_ibs_transform(spec)
    rng = generator(8)
    u = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    assert np.max(np.abs(op.apply(op.apply_adjoint(u)) - u)) < 1e-12


def test_single_block_square_case_is_bit_identical_to_plain_kernel():
    ok, detail = check_degenerate_single_block(n=256, seed=12)
    assert ok, detail


def test_block_seeds_differ_across_blocks():
    # Every row kept, so each block's rows are its kernel rows in the order
    # of its own permutation: block l draws from block_seed_base + l.
    spec = IbsSpec(n=32, n_s=16, m=32, variant="B_IBS", block_seed_base=6)
    dense = materialize_dense(build_ibs_transform(spec))
    perms = [make_permutation(16, 6), make_permutation(16, 7)]
    assert not np.array_equal(perms[0], perms[1])
    for l, p in enumerate(perms):
        block = dense[16 * l:16 * (l + 1), 16 * l:16 * (l + 1)]
        assert np.max(np.abs(block - dft_matrix(16)[p])) < 1e-12


def test_relative_complexity_properties():
    assert relative_complexity(4096, 4096) == (1.0, 1.0)
    theta, overall = relative_complexity(65536, 256)
    assert abs(theta - 0.5) < 1e-15
    assert 0.0 < overall < 1.0
    # More taps dilute the transform share of the budget.
    _, lean = relative_complexity(4096, 128, p=0)
    _, heavy = relative_complexity(4096, 128, p=64)
    assert heavy > lean
    for bad in ((4095, 128), (4096, 129), (4096, 8192), (4096, 1)):
        with pytest.raises(ConfigurationError):
            relative_complexity(*bad)
    with pytest.raises(ConfigurationError):
        relative_complexity(4096, 128, p=-1)
