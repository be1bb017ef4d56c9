"""Deterministic random number generation and seeded permutations.

Every random draw in this package goes through the Philox 4x64-10
counter-based bit generator, keyed explicitly by a 64-bit seed plus an
optional stream index.  Philox is a published, platform-independent
algorithm, so a (seed, stream) pair identifies the same byte stream on
every machine; nothing here touches numpy's global state or the
platform-default generator.

Permutations are drawn by a Fisher-Yates shuffle whose swap indices come
straight from the raw Philox word stream (``j = u64 mod (i + 1)``), which
makes a ``(size, seed)`` pair reconstructible bit-exactly anywhere.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def _philox_key(seed: int, stream: int = 0) -> int:
    """Pack (seed, stream) into the 128-bit Philox key."""
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    if stream < 0:
        raise ValueError(f"stream must be a non-negative integer, got {stream}")
    return (seed & _MASK64) | ((stream & _MASK64) << 64)


def generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox-backed Generator for the given (seed, stream) pair.

    Distinct streams under one seed yield statistically independent
    sequences; use them to split a master seed across trials.
    """
    return np.random.Generator(np.random.Philox(key=_philox_key(seed, stream)))


def raw_words(seed: int, count: int, stream: int = 0) -> np.ndarray:
    """First ``count`` raw 64-bit words of the Philox stream."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    return np.random.Philox(key=_philox_key(seed, stream)).random_raw(count)


class Permutation:
    """A fixed permutation of {0, ..., size-1}.

    ``indices`` holds the forward mapping: applying the permutation to a
    vector ``v`` yields ``v[indices]``, i.e. output slot ``i`` reads input
    slot ``indices[i]``.  Instances are immutable; the index array is
    write-locked at construction.
    """

    __slots__ = ("indices", "size", "seed")

    def __init__(self, indices: np.ndarray, seed: int | None = None):
        idx = np.asarray(indices, dtype=np.int64).copy()
        if idx.ndim != 1 or idx.size == 0:
            raise ValueError("permutation indices must be a non-empty 1-d array")
        present = np.zeros(idx.size, dtype=bool)
        if idx.min() < 0 or idx.max() >= idx.size:
            raise ValueError("permutation indices out of range")
        present[idx] = True
        if not present.all():
            raise ValueError("permutation indices must be a bijection")
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "size", int(idx.size))
        object.__setattr__(self, "seed", seed)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @classmethod
    def identity(cls, size: int) -> "Permutation":
        return cls(np.arange(size))

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Return the permuted vector v[indices]."""
        if v.shape[0] != self.size:
            raise ValueError(f"vector length {v.shape[0]} != permutation size {self.size}")
        return v[self.indices]

    def __eq__(self, other):
        return isinstance(other, Permutation) and np.array_equal(self.indices, other.indices)

    def __repr__(self):
        return f"Permutation(size={self.size}, seed={self.seed})"


def make_permutation(size: int, seed: int) -> Permutation:
    """Uniform random permutation of {0, ..., size-1} from a 64-bit seed.

    Fisher-Yates, iterating i = size-1 down to 1 and swapping slot i with
    slot ``j = w mod (i + 1)`` where ``w`` is the next raw word of the
    Philox 4x64-10 stream keyed by ``seed``.  The words are taken as Python
    ints, whose ``%`` on a non-negative word equals the uint64 modulo, so
    the swaps need no numpy scalars.  The modulo bias is below
    size / 2**64 and irrelevant at any size this package builds.
    """
    if size < 1:
        raise ValueError(f"permutation size must be >= 1, got {size}")
    perm = list(range(size))
    for i, w in zip(range(size - 1, 0, -1), raw_words(seed, size - 1).tolist()):
        j = w % (i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return Permutation(perm, seed=seed)
