"""Stream derivation: the vectorized per-user generators equal the one-stream oracle."""

import itertools

import pytest

from fedgraphrec.seeding import derive_rng, derive_rngs

SEEDS = [0, 1, 7, 2**32 - 1, 2**32, 2**40 + 5, 12345678901234567890]
ROUNDS = [0, 1, 3, 100]
SALTS = [202, 303, 404, 505]
USERS = range(55)


def assert_same_streams(generators, keys):
    generators = list(generators)
    assert len(generators) == len(keys)
    for rng, key in zip(generators, keys):
        oracle = derive_rng(*key)
        assert rng.bit_generator.state == oracle.bit_generator.state, key
        assert rng.integers(2**63) == oracle.integers(2**63), key


@pytest.mark.parametrize("seed", SEEDS)
def test_derive_rngs_matches_derive_rng(seed):
    # Four coordinates, as the round loop's streams; seeds of 2**32 and up
    # give SeedSequence more words than its pool holds.
    for round_index, salt in itertools.product(ROUNDS, SALTS):
        assert_same_streams(
            derive_rngs(seed, USERS, round_index, salt),
            [(seed, u, round_index, salt) for u in USERS],
        )
    # Three coordinates, as the evaluation negatives' streams.
    assert_same_streams(derive_rngs(seed, USERS, 505), [(seed, u, 505) for u in USERS])


def test_derive_rngs_is_lazy_and_rejects_what_derive_rng_rejects():
    streams = derive_rngs(3, [4, 9], 1, 303)
    assert next(streams).bit_generator.state == derive_rng(3, 4, 1, 303).bit_generator.state
    assert next(streams).bit_generator.state == derive_rng(3, 9, 1, 303).bit_generator.state
    assert next(streams, None) is None
    assert list(derive_rngs(3, [], 303)) == []
    with pytest.raises(ValueError):
        derive_rng(-1, 0, 303)
    with pytest.raises(OverflowError):
        next(derive_rngs(-1, [0], 303))
