"""The batch seeding of _seeding against numpy's own PCG64 and default_rng."""
import numpy as np
import pytest

from vandiejen import _seeding

# one, two, three, four and six 32-bit words; 10**23 * 1009 is the first
# attempt's entropy of the largest seed the samplers' equality tests use
WIDE = [0, 2**32 - 1, 2**32, 2**64, 10**23 * 1009, 2**160 + 7]


def _numpy_state(e):
    state = np.random.PCG64(e).state["state"]
    return state["state"], state["inc"]


def test_states_equal_numpy_at_every_entropy_width():
    assert _seeding.pcg64_states(WIDE) == [_numpy_state(e) for e in WIDE]


def test_states_equal_numpy_on_random_entropies():
    entropies = np.random.default_rng(2024).integers(0, 2**40, 10_000).tolist()
    assert _seeding.pcg64_states(entropies) == [_numpy_state(e) for e in entropies]


def test_a_batch_of_one_equals_the_batch():
    # the words past an entropy's end are masked, not mixed in as zeros
    assert [_seeding.pcg64_states([e])[0] for e in WIDE] == _seeding.pcg64_states(WIDE)


def test_negative_entropy_is_numpys_error():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        _seeding.pcg64_states([3, -1])


def test_reused_generator_draws_the_stream_of_default_rng():
    slots = np.linspace(0.0, 0.5, 7)
    for e, rng in zip(WIDE + [5, 5], _seeding.streams(WIDE + [5, 5])):
        fresh = np.random.default_rng(e)
        assert np.array_equal(rng.permutation(slots), fresh.permutation(slots))
        assert np.array_equal(rng.random(135).view(np.uint64), fresh.random(135).view(np.uint64))
