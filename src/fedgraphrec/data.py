"""Interaction files, leave-one-out splits, privacy tiers, negative sampling."""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from fedgraphrec.seeding import TIER_SALT, derive_rng

log = logging.getLogger(__name__)


class DataFormatError(ValueError):
    """Raised for unparseable interaction files."""


class FileFormat(Enum):
    """Supported interaction-file layouts."""

    TAB = "tsv"
    DOUBLE_COLON = "double-colon"
    CSV = "csv"

    @classmethod
    def from_string(cls, name: str) -> "FileFormat":
        for fmt in cls:
            if fmt.value == name:
                return fmt
        choices = ", ".join(f.value for f in cls)
        raise ValueError(f"unknown file format {name!r} (choices: {choices})")


class Tier(Enum):
    """Whether a user shares interaction data with the server."""

    PUBLIC = "public"
    PRIVATE = "private"


@dataclass(frozen=True, eq=False)
class RawInteraction:
    user: str
    item: str
    rating: float
    timestamp: int | None = None


def load_interactions(path, file_format: FileFormat = FileFormat.TAB) -> list[RawInteraction]:
    """Parse an interaction file and collapse duplicate (user, item) pairs.

    Lines hold user, item, rating, and an optional integer timestamp. The
    CSV layout carries a header row; the others do not. For duplicate
    (user, item) pairs the most recent record wins: larger timestamp first,
    later file position as the tie-break. Output preserves the file order of
    the surviving records. Whitespace-only lines are skipped; any other
    malformed line raises DataFormatError naming its 1-based line number.
    """
    path = Path(path)
    if file_format == FileFormat.CSV:
        rows = _read_csv_rows(path)
    else:
        sep = "\t" if file_format == FileFormat.TAB else "::"
        rows = _read_separated_rows(path, sep)

    best: dict[tuple[str, str], tuple[int, int, RawInteraction]] = {}
    for line_no, fields in rows:
        inter = _parse_fields(path, line_no, fields)
        key = (inter.user, inter.item)
        ts_key = inter.timestamp if inter.timestamp is not None else 0
        if key not in best or (ts_key, line_no) > best[key][:2]:
            best[key] = (ts_key, line_no, inter)
    if not best:
        raise DataFormatError(f"{path}: no interaction records")
    return [rec[2] for rec in sorted(best.values(), key=lambda rec: rec[1])]


def _read_separated_rows(path: Path, sep: str) -> list[tuple[int, list[str]]]:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip("\n").strip("\r")
            if not line.strip():
                continue
            rows.append((line_no, line.split(sep)))
    return rows


def _read_csv_rows(path: Path) -> list[tuple[int, list[str]]]:
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for fields in reader:
            if reader.line_num == 1:
                continue  # header row
            if not fields or all(not f.strip() for f in fields):
                continue
            rows.append((reader.line_num, fields))
    return rows


def _parse_fields(path: Path, line_no: int, fields: list[str]) -> RawInteraction:
    if len(fields) not in (3, 4):
        raise DataFormatError(
            f"{path}:{line_no}: expected 3 or 4 fields, got {len(fields)}"
        )
    user, item, rating_text = (f.strip() for f in fields[:3])
    if not user or not item:
        raise DataFormatError(f"{path}:{line_no}: empty user or item token")
    try:
        rating = float(rating_text)
    except ValueError:
        raise DataFormatError(f"{path}:{line_no}: bad rating {rating_text!r}") from None
    timestamp = None
    if len(fields) == 4 and fields[3].strip():
        try:
            timestamp = int(fields[3].strip())
        except ValueError:
            raise DataFormatError(
                f"{path}:{line_no}: bad timestamp {fields[3].strip()!r}"
            ) from None
    return RawInteraction(user=user, item=item, rating=rating, timestamp=timestamp)


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
    user_index: dict[str, int]
    item_index: dict[str, int]
    dropped_users: int = 0
    dropped_interactions: int = 0
    _neg_pools: list | None = field(default=None, repr=False)

    def train_items(self, user: int) -> np.ndarray:
        """Item indices this user trains on.

        This is the only per-user interaction data the server side is allowed
        to read, and only for users who opted into sharing.
        """
        return self.train[user]

    def negative_pool(self, user: int) -> np.ndarray:
        """All item indices the user never touched in any split (cached)."""
        if self._neg_pools is None:
            self._neg_pools = [None] * self.num_users
        pool = self._neg_pools[user]
        if pool is None:
            seen = np.zeros(self.num_items, dtype=bool)
            seen[self.train[user]] = True
            seen[self.validation[user]] = True
            seen[self.test[user]] = True
            pool = np.flatnonzero(~seen)
            self._neg_pools[user] = pool
        return pool

    @property
    def total_interactions(self) -> int:
        held = len(self.validation) + len(self.test)
        return int(sum(arr.size for arr in self.train)) + held


def leave_one_out_split(interactions: list[RawInteraction]) -> InteractionDataset:
    """Split each user's history: most recent item to test, next to validation.

    Recency is (timestamp, file position); records without timestamps fall
    back to file position alone. Users with too few interactions to fill
    every split are dropped with a logged warning. User and item indices are
    assigned in order of first appearance among the surviving records.
    """
    need = 3  # a test item, a validation item and at least one to train on
    per_user: dict[str, list[tuple[int, RawInteraction]]] = {}
    for line_no, inter in enumerate(interactions):
        per_user.setdefault(inter.user, []).append((line_no, inter))

    dropped_users = dropped_interactions = 0
    surviving: dict[str, list[tuple[int, RawInteraction]]] = {}
    for token, recs in per_user.items():
        if len(recs) < need:
            dropped_users += 1
            dropped_interactions += len(recs)
        else:
            surviving[token] = recs
    if dropped_users:
        log.warning(
            "dropped %d users (%d interactions) with fewer than %d interactions each",
            dropped_users,
            dropped_interactions,
            need,
        )
    if not surviving:
        raise ValueError(f"no users with at least {need} interactions")

    user_tokens = list(surviving)
    user_index = {token: idx for idx, token in enumerate(user_tokens)}
    item_tokens: list[str] = []
    item_index: dict[str, int] = {}
    for _line, inter in sorted(
        (rec for recs in surviving.values() for rec in recs), key=lambda rec: rec[0]
    ):
        if inter.item not in item_index:
            item_index[inter.item] = len(item_tokens)
            item_tokens.append(inter.item)

    train: list[np.ndarray] = []
    validation: list[int] = []
    test: list[int] = []
    for token in user_tokens:
        ordered = sorted(
            surviving[token],
            key=lambda rec: (
                rec[1].timestamp if rec[1].timestamp is not None else 0,
                rec[0],
            ),
        )
        items = [item_index[inter.item] for _line, inter in ordered]
        test.append(items[-1])
        validation.append(items[-2])
        train.append(np.asarray(items[:-2], dtype=np.int64))

    return InteractionDataset(
        num_users=len(user_tokens),
        num_items=len(item_tokens),
        train=train,
        validation=validation,
        test=test,
        user_tokens=user_tokens,
        item_tokens=item_tokens,
        user_index=user_index,
        item_index=item_index,
        dropped_users=dropped_users,
        dropped_interactions=dropped_interactions,
    )


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
    public_ratio: float
    seed: int

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
    return PrivacyAssignment(is_public=is_public, public_ratio=public_ratio, seed=seed)
