"""Leave-one-out ranking metrics: HR@K and NDCG@K, overall and split by privacy tier."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fedgraphrec.data import InteractionDataset, PrivacyAssignment, Tier
from fedgraphrec.model import ClientState, ClientStore, clients_per_chunk, score_cohort


@dataclass(frozen=True)
class TierMetrics:
    hr: float
    ndcg: float
    user_count: int


@dataclass(frozen=True, eq=False)
class RoundMetrics:
    """Mean ranking quality over all users, plus per-tier splits.

    Values live in [0, 1]; formatting as percentages happens at output time.
    Tiers with no users are absent from per_tier. From `evaluate_round`, the
    metrics are those of the test items and `validation` holds the same
    metrics for the validation items.
    """

    hr: float
    ndcg: float
    per_tier: dict
    per_user_rank: np.ndarray | None = None
    validation: RoundMetrics | None = None


def _first_problem(negatives: np.ndarray, held: np.ndarray, k: int) -> str | None:
    """Why the first row of (C, K) negatives and (C, H) held items that cannot
    be ranked cannot be, or None. A row's held items are checked in order
    before its k."""
    inside = (negatives[:, :, None] == held[:, None, :]).any(axis=1)
    bad = inside.any(axis=1)
    k_ok = 1 <= k <= negatives.shape[1] + 1
    if k_ok and not bad.any():
        return None
    row = int(np.argmax(bad)) if k_ok else 0
    if bad[row]:
        item = held[row, int(np.argmax(inside[row]))]
        return f"held-out item {item} appears among the negatives"
    return f"k must be in [1, {negatives.shape[1] + 1}], got {k}"


def _held_ranks(
    store: ClientStore, rows: np.ndarray, negatives: np.ndarray, held: np.ndarray
) -> np.ndarray:
    """1-based rank (C, H) of each held item of clients `rows` among that
    client's (C, K) negatives, scored in stacked chunks of
    `clients_per_chunk(K + H)` clients.

    An item's rank counts the negatives that sort before it: a higher score,
    or an equal score and a smaller item index. The held items do not
    compete with each other.
    """
    K = negatives.shape[1]
    ranks = np.empty(held.shape, dtype=np.int64)
    per = clients_per_chunk(K + held.shape[1])
    for start in range(0, rows.size, per):
        part = slice(start, start + per)
        negs, items = negatives[part], held[part]
        scores = score_cohort(store, rows[part], np.concatenate([negs, items], axis=1))
        neg_scores, held_scores = scores[:, :K, None], scores[:, None, K:]
        ahead = (neg_scores > held_scores) | (
            (neg_scores == held_scores) & (negs[:, :, None] < items[:, None, :])
        )
        ranks[part] = 1 + np.count_nonzero(ahead, axis=1)
    return ranks


def _hit(rank: int, k: int) -> tuple[int, float]:
    if rank > k:
        return 0, 0.0
    return 1, 1.0 / math.log2(rank + 1.0)


def evaluate_user(
    state: ClientState, test_item: int, negatives: np.ndarray, k: int = 10
) -> tuple[int, float, int]:
    """Rank the held-out item among the negatives.

    Returns (hr, ndcg, rank): hr is 1 iff the 1-based rank is within the top
    k, ndcg is 1/log2(rank + 1) for hits and 0 otherwise.
    """
    negatives = np.asarray(negatives, dtype=np.int64)[None]
    held = np.array([[test_item]], dtype=np.int64)
    problem = _first_problem(negatives, held, k)
    if problem is not None:
        raise ValueError(problem)
    rank = int(_held_ranks(ClientStore.of(state), np.zeros(1, dtype=np.int64), negatives, held)[0, 0])
    return (*_hit(rank, k), rank)


def _summarize(hrs, ndcgs, ranks, tiers, validation=None) -> RoundMetrics:
    per_tier = {}
    for tier, mask in ((Tier.PUBLIC, tiers.is_public), (Tier.PRIVATE, ~tiers.is_public)):
        count = int(mask.sum())
        if count == 0:
            continue  # empty buckets are absent, not zero
        per_tier[tier] = TierMetrics(
            hr=float(hrs[mask].mean()),
            ndcg=float(ndcgs[mask].mean()),
            user_count=count,
        )
    return RoundMetrics(
        hr=float(hrs.mean()),
        ndcg=float(ndcgs.mean()),
        per_tier=per_tier,
        per_user_rank=ranks,
        validation=validation,
    )


def evaluate_round(
    clients: ClientStore,
    dataset: InteractionDataset,
    eval_negatives: np.ndarray,
    tiers: PrivacyAssignment,
    k: int = 10,
) -> RoundMetrics:
    """Average per-user metrics over all users and per tier.

    One scoring pass ranks both held-out items of every user among the same
    negatives, row u of the (n, K) `eval_negatives`: the test item, for the
    returned metrics, and the validation item, for their `validation` field.
    Users are scored in stacked chunks.
    """
    n = dataset.num_users
    if len(clients) != n or eval_negatives.shape[0] != n or tiers.is_public.size != n:
        raise ValueError("clients, negatives, tiers, and dataset disagree on user count")

    held = np.array([dataset.test, dataset.validation], dtype=np.int64).T
    problem = _first_problem(eval_negatives, held, k)
    if problem is not None:
        raise ValueError(problem)

    # Rows 0 and 1 hold the test and the validation results.
    ranks = _held_ranks(clients, np.arange(n), eval_negatives, held).T
    hits = ranks <= k
    gains = np.array([_hit(rank, k)[1] for rank in range(1, k + 1)])
    hrs = hits.astype(np.float64)
    ndcgs = np.where(hits, gains[np.minimum(ranks, k) - 1], 0.0)

    validation = _summarize(hrs[1], ndcgs[1], ranks[1], tiers)
    return _summarize(hrs[0], ndcgs[0], ranks[0], tiers, validation)
