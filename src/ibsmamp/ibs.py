"""Interleaved block-sparse (IBS) unitary transforms.

An IBS transform splits a length-n vector into L = n / n_s contiguous
blocks, runs an n_s-point unitary kernel on each block, keeps m_s = m / L
rows per block, and optionally randomizes two stages:

* block interleave: a seeded permutation per block decides *which* kernel
  rows survive the row selection (variants B_IBS, BW_IBS);
* whole interleave: a seeded permutation reorders the m stacked outputs
  across blocks (variants W_IBS, BW_IBS).

Variant BS has neither randomization.  Every variant is row-orthonormal
(Xi Xi^H = I_m) because the kernels are unitary, row selection keeps
distinct rows, and permutations are unitary.

The ``direction`` field chooses the kernel ("kernel", used when the
transform compresses a source for sensing) or its adjoint
("kernel-adjoint", used when the transform modulates symbols onto a
channel, so that n_s = n with the FFT base reduces to a permuted inverse
DFT).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, require_integer
from .kernels import fft_adjoint, fft_forward, fwht_forward, is_power_of_two
from .operators import LinearOperator, _freeze
from .rng import make_permutation

VARIANTS = ("BS", "W_IBS", "B_IBS", "BW_IBS")
BASES = ("FFT", "FWHT")
DIRECTIONS = ("kernel", "kernel-adjoint")


@dataclass(frozen=True)
class IbsSpec:
    """Complete description of one IBS transform."""

    n: int
    n_s: int
    m: int
    variant: str
    base: str = "FFT"
    direction: str = "kernel"
    block_seed_base: int = 0
    whole_seed: int = 0

    def __post_init__(self):
        for name in ("n", "n_s", "m", "block_seed_base", "whole_seed"):
            require_integer(name, getattr(self, name))
        if not is_power_of_two(self.n):
            raise ConfigurationError(f"n must be a power of two, got {self.n}")
        if not is_power_of_two(self.n_s):
            raise ConfigurationError(f"n_s must be a power of two, got {self.n_s}")
        if self.n_s > self.n:
            raise ConfigurationError(f"n_s={self.n_s} exceeds n={self.n}")
        if not 1 <= self.m <= self.n:
            raise ConfigurationError(f"m={self.m} must lie in [1, n={self.n}]")
        blocks = self.n // self.n_s
        if self.m % blocks != 0:
            raise ConfigurationError(
                f"m={self.m} is not divisible by the block count L={blocks}; "
                "unequal per-block row counts are not supported")
        if self.variant not in VARIANTS:
            raise ConfigurationError(f"unknown variant {self.variant!r}; choose from {VARIANTS}")
        if self.base not in BASES:
            raise ConfigurationError(f"unknown base {self.base!r}; choose from {BASES}")
        if self.direction not in DIRECTIONS:
            raise ConfigurationError(
                f"unknown direction {self.direction!r}; choose from {DIRECTIONS}")

    @property
    def blocks(self) -> int:
        return self.n // self.n_s

    @property
    def block_rows(self) -> int:
        return self.m // self.blocks


class IbsOperator(LinearOperator):
    """Row-orthonormal IBS transform; ``build_ibs_transform`` makes one.

    The row selection and the whole interleave together pick, for every
    output row, one entry of the flattened (L, n_s) kernel output; ``_flat``
    holds that index.  Forward runs the kernel on all L blocks in one
    batched call and gathers ``_flat``.  The adjoint scatters into zeros at
    ``_flat``, leaving the rows the selection dropped at zero, and runs the
    adjoint kernel, so ``apply_adjoint`` is the pseudo-inverse of ``apply``.
    """

    __slots__ = ("spec", "_flat", "_kfwd", "_kadj", "_grid")

    def __init__(self, spec: IbsSpec, flat: np.ndarray):
        if spec.base == "FFT":
            kfwd, kadj = fft_forward, fft_adjoint
        else:
            kfwd, kadj = fwht_forward, fwht_forward
        if spec.direction == "kernel-adjoint":
            kfwd, kadj = kadj, kfwd
        flat.setflags(write=False)
        super().__init__(spec.m, spec.n, self._forward, self._adjoint)
        _freeze(self, spec=spec, _flat=flat, _kfwd=kfwd, _kadj=kadj,
                _grid=(spec.blocks, spec.n_s))

    @property
    def row_blocks(self) -> np.ndarray:
        """Index of the source block that feeds each output row."""
        return self._flat // self.spec.n_s

    def _forward(self, v: np.ndarray) -> np.ndarray:
        return self._kfwd(v.reshape(self._grid)).reshape(self.cols)[self._flat]

    def _adjoint(self, v: np.ndarray) -> np.ndarray:
        z = np.zeros(self.cols, dtype=np.complex128)
        z[self._flat] = v
        return self._kadj(z.reshape(self._grid)).reshape(self.cols)


def build_ibs_transform(spec: IbsSpec,
                        perms: dict[tuple[int, int], np.ndarray] | None = None) -> IbsOperator:
    """Build the IBS transform for spec, deriving permutations from its seeds.

    Block l (0-based) keeps the kernel rows its permutation, drawn from seed
    block_seed_base + l, lists first; the whole interleave reorders the
    stacked rows by the permutation drawn from whole_seed.  Variants ignore
    the seeds of the stages they do not randomize.  ``perms``, when given,
    keeps the drawn permutations keyed by (size, seed), so transforms built
    with the same dict draw each permutation once and share it.
    """
    if perms is None:
        perms = {}

    def draw(size: int, seed: int) -> np.ndarray:
        if (size, seed) not in perms:
            perms[size, seed] = make_permutation(size, seed)
        return perms[size, seed]

    blocks, n_s, m_s = spec.blocks, spec.n_s, spec.block_rows
    if spec.variant in ("B_IBS", "BW_IBS"):
        sel = np.stack([draw(n_s, spec.block_seed_base + l)[:m_s] for l in range(blocks)])
    else:
        sel = np.arange(m_s, dtype=np.int64)
    # Stacked output row k reads kernel entry (k // m_s, sel[k // m_s, k % m_s]);
    # the whole interleave then reorders the stacked rows.
    flat = (np.arange(blocks, dtype=np.int64)[:, None] * n_s + sel).reshape(spec.m)
    if spec.variant in ("W_IBS", "BW_IBS"):
        flat = flat[draw(spec.m, spec.whole_seed)]
    return IbsOperator(spec, flat)


def relative_complexity(n: int, n_s: int, p: int = 8) -> tuple[float, float]:
    """Per-iteration cost of an IBS pipeline relative to the full transform.

    Returns (transform_ratio, overall_ratio) as fractions in (0, 1]:

    * transform_ratio: log(n_s) / log(n), the block-transform exponent;
    * overall_ratio: (p + 1 + 2 log2 n_s) / (p + 1 + 2 log2 n), the whole
      per-iteration budget with p channel taps, one vector pass, and a
      forward plus inverse transform.  p defaults to 8, which reproduces
      the reference cost table.
    """
    if not is_power_of_two(n) or not is_power_of_two(n_s):
        raise ConfigurationError(f"n={n} and n_s={n_s} must be powers of two")
    if not 2 <= n_s <= n:
        raise ConfigurationError(f"need 2 <= n_s <= n, got n_s={n_s}, n={n}")
    if p < 0:
        raise ConfigurationError(f"tap count p must be non-negative, got {p}")
    transform_ratio = math.log(n_s) / math.log(n)
    overall_ratio = (p + 1 + 2 * math.log2(n_s)) / (p + 1 + 2 * math.log2(n))
    return transform_ratio, overall_ratio
