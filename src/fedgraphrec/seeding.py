"""Deterministic RNG streams derived from (experiment seed, entity, purpose) coordinates."""

from __future__ import annotations

import numpy as np

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


def derive_rng(*parts: int) -> np.random.Generator:
    """Independent generator for the given integer coordinates."""
    return np.random.default_rng([int(p) for p in parts])
