"""Seeded randomness: keyed Philox streams and permutation objects."""

import numpy as np
import pytest

from ibsmamp.rng import Permutation, generator, make_permutation, raw_words


def test_generator_is_deterministic_per_key():
    a = generator(42, 5).normal(size=8)
    b = generator(42, 5).normal(size=8)
    assert np.array_equal(a, b)


def test_generator_separates_seeds_and_streams():
    base = generator(42, 0).normal(size=16)
    assert not np.allclose(base, generator(43, 0).normal(size=16))
    assert not np.allclose(base, generator(42, 1).normal(size=16))


def test_generator_frozen_sample():
    # Regression pin: every seeded draw in the package flows through this
    # keying, so a silent change would reshuffle all experiments.
    got = generator(42, 5).normal(size=3)
    want = np.array([-0.661823597647, 0.542115100887, -0.883322511567])
    assert np.allclose(got, want, atol=1e-12)


def test_generator_rejects_negative_keys():
    with pytest.raises(ValueError):
        generator(-1)
    with pytest.raises(ValueError):
        generator(0, -2)


def test_raw_words_frozen_values():
    assert raw_words(3, 4).tolist() == [
        17234461323001060555, 1460271564492649549,
        7061929949163127335, 14738297672056995226]
    assert raw_words(3, 4, stream=1).tolist() == [
        13652367922584412156, 15649216603714737163,
        15004226688420960171, 2618719934470416154]


def test_raw_words_rejects_negative_count():
    with pytest.raises(ValueError):
        raw_words(0, -1)


def test_raw_words_prefix_consistency():
    assert raw_words(9, 16)[:5].tolist() == raw_words(9, 5).tolist()


def test_permutation_apply_gathers_forward_indices():
    p = Permutation(np.array([2, 0, 1]))
    v = np.array([10.0, 11.0, 12.0])
    assert p.apply(v).tolist() == [12.0, 10.0, 11.0]


def test_permutation_identity():
    p = Permutation.identity(5)
    v = np.arange(5.0)
    assert np.array_equal(p.apply(v), v)


def test_permutation_validates_indices():
    with pytest.raises(ValueError):
        Permutation(np.array([0, 0, 1]))  # not a bijection
    with pytest.raises(ValueError):
        Permutation(np.array([0, 3]))  # out of range
    with pytest.raises(ValueError):
        Permutation(np.array([], dtype=np.int64))
    with pytest.raises(ValueError):
        Permutation(np.arange(4).reshape(2, 2))


def test_permutation_rejects_wrong_length_vector():
    p = Permutation.identity(4)
    with pytest.raises(ValueError):
        p.apply(np.zeros(5))


def test_permutation_is_immutable():
    p = Permutation.identity(4)
    with pytest.raises(AttributeError):
        p.size = 5
    with pytest.raises(ValueError):
        p.indices[0] = 3


def test_make_permutation_frozen_values():
    assert make_permutation(8, 12345).indices.tolist() == [4, 5, 2, 7, 3, 6, 1, 0]
    assert make_permutation(8, 0).indices.tolist() == [6, 4, 0, 5, 1, 7, 2, 3]
    assert make_permutation(4, 7).indices.tolist() == [1, 3, 2, 0]


def test_make_permutation_is_deterministic_and_seed_sensitive():
    assert make_permutation(64, 3) == make_permutation(64, 3)
    assert make_permutation(64, 3) != make_permutation(64, 4)


def test_make_permutation_is_bijective_over_sizes():
    for size in (1, 2, 3, 8, 100, 257):
        for seed in (0, 1, 99):
            p = make_permutation(size, seed)
            assert np.array_equal(np.sort(p.indices), np.arange(size))


def test_make_permutation_matches_swap_by_swap_replay():
    # Independent replay of the documented shuffle on numpy uint64 words:
    # walk i from the top, swap slot i with slot (word mod (i+1)).
    for size, seed in ((1, 5), (2, 3), (23, 77), (257, 2 ** 63 + 1), (1024, 9)):
        words = raw_words(seed, size - 1)
        want = np.arange(size)
        for i in range(size - 1, 0, -1):
            j = int(words[size - 1 - i] % np.uint64(i + 1))
            want[i], want[j] = want[j], want[i]
        assert make_permutation(size, seed).indices.tolist() == want.tolist()


def test_make_permutation_rejects_empty():
    with pytest.raises(ValueError):
        make_permutation(0, 1)
