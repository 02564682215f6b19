"""stokesbc.pcg64 against numpy.random, the reference stream it reproduces."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stokesbc.pcg64 import uniforms


def reference(key, count):
    return np.random.default_rng(key).random(count)


#: keys of the two sweep keyings, (seed, chunk) for verify-symbols and
#: (seed, relation, alpha + 1, chunk) for verify-traces, with seeds of up to
#: ten 32-bit words: past four, SeedSequence mixes the rest into its pool
#: in a second loop
_SEEDS = st.integers(0, 2**300)
_WORDS = st.integers(0, 2**64)
_KEYS = st.one_of(st.tuples(_SEEDS, _WORDS), st.tuples(_SEEDS, _WORDS, _WORDS, _WORDS))


@given(st.lists(_KEYS.map(list), min_size=1, max_size=5), st.integers(1, 4000))
def test_uniforms_are_numpy_default_rng_random_bit_for_bit(keys, count):
    got = uniforms(keys, count)
    assert got.shape == (len(keys), count)
    assert got.dtype == np.float64
    for row, key in zip(got, keys):
        assert row.tobytes() == reference(key, count).tobytes()


@pytest.mark.parametrize(
    "seed", [0, 2024, 2**32, 2**40, 2**70, 2**100, 2**200, 2**300, 12345678901234567890]
)
@pytest.mark.parametrize("count", [1, 95, 315, 3125])
def test_one_key_per_sweep_keying(seed, count):
    for key in ([seed, 15], [seed, 2, 1, 15]):
        assert uniforms([key], count)[0].tobytes() == reference(key, count).tobytes()


def test_no_draws_and_no_keys():
    assert uniforms([[2024, 0], [2024, 1]], 0).shape == (2, 0)
    assert uniforms([], 5).shape == (0, 5)


def test_a_negative_key_entry_is_rejected_as_numpy_rejects_it():
    with pytest.raises(ValueError):
        reference([2024, -1], 1)
    with pytest.raises(ValueError, match="ints >= 0"):
        uniforms([[2024, -1]], 1)
