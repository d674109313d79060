"""Interaction files, leave-one-out splits, privacy tiers, negative sampling."""

from __future__ import annotations

import csv
import logging
import math
from array import array
from dataclasses import dataclass, field
from enum import Enum
from itertools import count, dropwhile, repeat
from operator import attrgetter, methodcaller
from pathlib import Path

import numpy as np

from fedgraphrec.seeding import TIER_SALT, derive_rng

log = logging.getLogger(__name__)


class DataFormatError(ValueError):
    """Raised for unparseable interaction files."""


# interaction-file layouts: tab-separated, '::'-separated, CSV with a header row
LAYOUTS = ("tsv", "double-colon", "csv")


def check_layout(name: str) -> None:
    if name not in LAYOUTS:
        raise ValueError(f"unknown file format {name!r} (choices: {', '.join(LAYOUTS)})")


class Tier(Enum):
    """Whether a user shares interaction data with the server."""

    PUBLIC = "public"
    PRIVATE = "private"


@dataclass(frozen=True, eq=False)
class Interactions:
    """A deduplicated interaction log as arrays, one entry per record in file order.

    ``users`` and ``items`` are int64 codes into ``user_tokens`` and
    ``item_tokens``, which list the tokens in order of first appearance in
    the file. ``timestamps`` is int64 and holds 0 where the record has none.
    """

    user_tokens: list[str]
    item_tokens: list[str]
    users: np.ndarray
    items: np.ndarray
    timestamps: np.ndarray

    def __len__(self) -> int:
        return int(self.users.size)


def load_interactions(path, file_format: str = "tsv") -> Interactions:
    """Parse an interaction file and collapse duplicate (user, item) pairs.

    Lines hold user, item, rating, and an optional integer timestamp. The
    CSV layout carries a header row; the others do not. A leading UTF-8 BOM
    is ignored. For duplicate (user, item) pairs the most recent record
    wins: larger timestamp first (a missing one counts as 0), later file
    position as the tie-break. Output preserves the file order of the
    surviving records. Whitespace-only lines are skipped; any other
    malformed line raises DataFormatError naming its 1-based line number.
    The rating must parse as a number and is then dropped: every record
    counts as a positive.

    One loop reads the file as a stream and checks each line inline. Each
    line goes straight into flat arrays, with its tokens coded by first
    appearance, so no per-line object outlives the loop.
    """
    check_layout(file_format)
    path = Path(path)
    user_code: dict[str, int] = {}
    item_code: dict[str, int] = {}
    users, items, stamps = array("q"), array("q"), array("q")
    csv_layout = file_format == "csv"
    # A line is blank when `joint.join(fields)` is whitespace: the whole line
    # for the split layouts, every field for CSV.
    joint = "" if csv_layout else "\t" if file_format == "tsv" else "::"
    with open(path, "r", encoding="utf-8-sig", newline="" if csv_layout else None) as fh:
        # (fields, 1-based line number) pairs from C iterators, no generator:
        # a CSV record's number is the reader's line count once it is read.
        if csv_layout:
            reader = csv.reader(fh)
            numbered = zip(reader, map(attrgetter("line_num"), repeat(reader)))
            # line 1 is the header row
            numbered = dropwhile(lambda record: record[1] == 1, numbered)
        else:
            # the last field keeps the newline; every field is stripped
            numbered = zip(map(methodcaller("split", joint), fh), count(1))
        for fields, line_no in numbered:
            if len(fields) == 4:
                user, item, rating, stamp = fields
            elif len(fields) == 3:
                user, item, rating = fields
                stamp = ""
            elif joint.join(fields).strip():
                raise DataFormatError(
                    f"{path}:{line_no}: expected 3 or 4 fields, got {len(fields)}"
                )
            else:
                continue
            user = user.strip()
            item = item.strip()
            if not user or not item:
                if joint.join(fields).strip():
                    raise DataFormatError(f"{path}:{line_no}: empty user or item token")
                continue
            rating = rating.strip()
            try:
                float(rating)
            except ValueError:
                raise DataFormatError(f"{path}:{line_no}: bad rating {rating!r}") from None
            stamp = stamp.strip()
            timestamp = 0
            if stamp:
                try:
                    timestamp = int(stamp)
                except ValueError:
                    raise DataFormatError(f"{path}:{line_no}: bad timestamp {stamp!r}") from None
                if not -(2**63) <= timestamp < 2**63:
                    raise DataFormatError(
                        f"{path}:{line_no}: timestamp {timestamp} does not fit in 64 bits"
                    )
            users.append(user_code.setdefault(user, len(user_code)))
            items.append(item_code.setdefault(item, len(item_code)))
            stamps.append(timestamp)
    if not users:
        raise DataFormatError(f"{path}: no interaction records")
    users, items, stamps = (np.frombuffer(a, dtype=np.int64) for a in (users, items, stamps))
    # the latest record of each (user, item): the last of its key group once
    # sorted by (key, timestamp), the sort being stable in file position
    key = users * len(item_code) + items
    order = np.lexsort((stamps, key))
    key = key[order]
    keep = np.zeros(key.size, dtype=bool)
    keep[order[np.append(key[1:] != key[:-1], True)]] = True
    return Interactions(
        user_tokens=list(user_code),
        item_tokens=list(item_code),
        users=users[keep],
        items=items[keep],
        timestamps=stamps[keep],
    )


@dataclass(eq=False)
class InteractionDataset:
    """Indexed per-user split of an interaction log.

    Items in all arrays are contiguous 0-based indices; ``user_tokens`` and
    ``item_tokens`` map them back to the raw file tokens. ``train`` arrays are
    ordered oldest interaction first.
    """

    num_users: int
    num_items: int
    train: list[np.ndarray]
    validation: list[int]
    test: list[int]
    user_tokens: list[str]
    item_tokens: list[str]
    dropped_users: int = 0
    dropped_interactions: int = 0
    # every user's negative pool in one flat int32 array, and its row offsets
    _neg_pools: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    def train_items(self, user: int) -> np.ndarray:
        """Item indices this user trains on.

        This is the only per-user interaction data the server side is allowed
        to read, and only for users who opted into sharing.
        """
        return self.train[user]

    def negative_pool(self, user: int) -> np.ndarray:
        """All item indices the user never touched in any split, ascending:
        a read-only int32 view into one flat array that holds every user's
        pool, built on first use."""
        if self._neg_pools is None:
            self._neg_pools = self._build_negative_pools()
        pools, offsets = self._neg_pools
        return pools[offsets[user]:offsets[user + 1]]

    def _build_negative_pools(self) -> tuple[np.ndarray, np.ndarray]:
        n = self.num_users
        seen = np.zeros((n, self.num_items), dtype=bool)
        for u in range(n):
            seen[u, self.train[u]] = True
        seen[np.arange(n), self.validation] = True
        seen[np.arange(n), self.test] = True
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self.num_items - np.count_nonzero(seen, axis=1), out=offsets[1:])
        pools = np.empty(offsets[-1], dtype=np.int32)
        for u in range(n):
            pools[offsets[u]:offsets[u + 1]] = np.flatnonzero(~seen[u])
        pools.flags.writeable = False
        return pools, offsets


def leave_one_out_split(interactions: Interactions) -> InteractionDataset:
    """Split each user's history: most recent item to test, next to validation.

    Recency is (timestamp, file position); records without timestamps fall
    back to file position alone. Users with too few interactions to fill
    every split are dropped with a logged warning. User and item indices are
    assigned in order of first appearance among the surviving records.
    """
    need = 3  # a test item, a validation item and at least one to train on
    counts = np.bincount(interactions.users, minlength=len(interactions.user_tokens))
    kept = counts[interactions.users] >= need
    dropped_users = int(np.count_nonzero(counts < need))  # every token has a record
    dropped_interactions = len(interactions) - int(np.count_nonzero(kept))
    if dropped_users:
        log.warning(
            "dropped %d users (%d interactions) with fewer than %d interactions each",
            dropped_users,
            dropped_interactions,
            need,
        )
    if not kept.any():
        raise ValueError(f"no users with at least {need} interactions")

    users, user_codes = _number_by_first_appearance(interactions.users[kept])
    items, item_codes = _number_by_first_appearance(interactions.items[kept])
    # each user's items, oldest first: the sort is stable in file position
    history = items[np.lexsort((interactions.timestamps[kept], users))]
    ends = np.cumsum(np.bincount(users))
    held = np.zeros(history.size, dtype=bool)
    held[ends - 1] = held[ends - 2] = True
    return InteractionDataset(
        num_users=int(ends.size),
        num_items=int(item_codes.size),
        train=np.split(history[~held], ends[:-1] - 2 * np.arange(1, ends.size)),
        validation=history[ends - 2].tolist(),
        test=history[ends - 1].tolist(),
        user_tokens=[interactions.user_tokens[c] for c in user_codes.tolist()],
        item_tokens=[interactions.item_tokens[c] for c in item_codes.tolist()],
        dropped_users=dropped_users,
        dropped_interactions=dropped_interactions,
    )


def _number_by_first_appearance(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(codes renumbered 0, 1, ... in order of first appearance, the
    original code of each new number)."""
    distinct, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(first)
    number = np.empty_like(order)
    number[order] = np.arange(order.size)
    return number[inverse], distinct[order]


def sample_train_negatives(
    dataset: InteractionDataset, user: int, ratio: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ratio * |train| negative item indices, with replacement."""
    if ratio < 1:
        raise ValueError(f"negative ratio must be >= 1, got {ratio}")
    pool = dataset.negative_pool(user)
    if pool.size == 0:
        raise ValueError(f"user {user}: no items left to sample negatives from")
    count = int(ratio) * int(dataset.train[user].size)
    return pool[rng.integers(0, pool.size, size=count)]


def sample_eval_negatives(
    dataset: InteractionDataset, user: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw `count` distinct never-interacted items for ranking evaluation."""
    pool = dataset.negative_pool(user)
    if pool.size < count:
        raise ValueError(
            f"user {user}: only {pool.size} unseen items, need {count} eval negatives"
        )
    return pool[rng.choice(pool.size, size=count, replace=False)]


@dataclass(frozen=True, eq=False)
class PrivacyAssignment:
    """Which users share their interactions and uploads with the server."""

    is_public: np.ndarray

    def tier(self, user: int) -> Tier:
        return Tier.PUBLIC if self.is_public[user] else Tier.PRIVATE

    def public_users(self) -> np.ndarray:
        return np.flatnonzero(self.is_public)

    def private_users(self) -> np.ndarray:
        return np.flatnonzero(~self.is_public)

    @property
    def num_public(self) -> int:
        return int(self.is_public.sum())

    @property
    def num_private(self) -> int:
        return int(self.is_public.size - self.is_public.sum())


def public_count(num_users: int, public_ratio: float) -> int:
    """round(public_ratio * num_users): how many users assign_privacy marks
    as sharing, for any seed."""
    # floor(x + 0.5): round-half-up, independent of the platform rounding mode
    return int(math.floor(public_ratio * num_users + 0.5))


def assign_privacy(num_users: int, public_ratio: float, seed: int) -> PrivacyAssignment:
    """Mark round(public_ratio * num_users) uniformly chosen users as sharing."""
    if num_users <= 0:
        raise ValueError(f"num_users must be positive, got {num_users}")
    if not 0.0 <= public_ratio <= 1.0:
        raise ValueError(f"public_ratio must be in [0, 1], got {public_ratio}")
    count = public_count(num_users, public_ratio)
    rng = derive_rng(seed, TIER_SALT)
    is_public = np.zeros(num_users, dtype=bool)
    is_public[rng.permutation(num_users)[:count]] = True
    return PrivacyAssignment(is_public=is_public)
