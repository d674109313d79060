"""Deterministic RNG streams derived from (experiment seed, entity, purpose) coordinates."""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# Purpose tags keep independent sampling streams from colliding when they
# share the same (seed, user, round) coordinates.
TIER_SALT = 101
INIT_SALT = 202
TRAIN_SALT = 303
LDP_SALT = 404
EVAL_NEG_SALT = 505
SYNTH_SALT = 606
# The server's one draw of the private users' round-1 item-table sum.
PRIVATE_SUM_SALT = 707

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): its constants.
INIT_A, MULT_A, INIT_B, MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
POOL_SIZE = 4


def derive_rng(*parts: int) -> np.random.Generator:
    """Independent generator for the given integer coordinates."""
    return np.random.default_rng([int(p) for p in parts])


def _words(part: int, size: int) -> np.ndarray:
    """SeedSequence's coercion of a non-negative integer: its little-endian
    32-bit words, each as a row of `size`."""
    part = int(part)
    words = part.to_bytes(4 * max(1, -(-part.bit_length() // 32)), "little")
    return np.repeat(np.frombuffer(words, "<u4")[:, None], size, axis=1)


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix over uint32 rows; its constant steps on each call."""
    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & 0xFFFFFFFF
        value *= np.uint32(const)
        return value ^ value >> 16
    return hashmix


class _StateWords(ISeedSequence):
    """Hands PCG64 its four uint64 state words, already made."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint64):
        return self.words


def derive_rngs(seed: int, users: Iterable[int], *rest: int) -> Iterator[np.random.Generator]:
    """`derive_rng(seed, u, *rest)` for each u in `users` (each below 2**32),
    in order and bit for bit. SeedSequence's hash runs once, over all users;
    the generators are made one at a time, as they are taken."""
    users = np.asarray(users, dtype=np.uint32)
    rows = [*_words(seed, users.size), users, *(w for p in rest for w in _words(p, users.size))]
    hashmix = _hasher(INIT_A, MULT_A)
    # The pool's words, then the words past its size: each source is mixed
    # into every pool word but itself, as SeedSequence.mix_entropy does.
    words = [hashmix(rows[i] if i < len(rows) else 0 * users) for i in range(POOL_SIZE)]
    words += rows[POOL_SIZE:]
    for src in range(len(words)):
        for dst in range(POOL_SIZE):
            if src != dst:
                mixed = words[dst] * MIX_MULT_L - hashmix(words[src]) * MIX_MULT_R
                words[dst] = mixed ^ mixed >> 16
    # generate_state(4, np.uint64): eight words, cycling through the pool,
    # read as little-endian pairs.
    hashmix = _hasher(INIT_B, MULT_B)
    state = np.stack([hashmix(words[i % POOL_SIZE]) for i in range(8)], axis=1)
    for row in state.astype("<u4", copy=False).view("<u8").astype(np.uint64):
        yield np.random.Generator(np.random.PCG64(_StateWords(row)))
