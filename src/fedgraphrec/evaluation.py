"""Leave-one-out ranking metrics: HR@K and NDCG@K, overall and split by privacy tier."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fedgraphrec.data import InteractionDataset, PrivacyAssignment, Tier
from fedgraphrec.model import ClientState, score_items


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
    k: int
    per_tier: dict
    per_user_rank: np.ndarray | None = None
    validation: RoundMetrics | None = None


def _held_ranks(state: ClientState, negatives: np.ndarray, held: list, k: int) -> list[int]:
    """1-based rank of each held-out item among the negatives, from one
    scoring pass over the negatives and all held items.

    An item's rank counts the negatives that sort before it: a higher score,
    or an equal score and a smaller item index. The held items do not
    compete with each other.
    """
    for item in held:
        if np.any(negatives == item):
            raise ValueError(f"held-out item {item} appears among the negatives")
    if not 1 <= k <= negatives.size + 1:
        raise ValueError(f"k must be in [1, {negatives.size + 1}], got {k}")
    scores = score_items(state, np.concatenate([negatives, held]))
    neg_scores = scores[: negatives.size]
    ranks = []
    for item, score in zip(held, scores[negatives.size :]):
        ahead = (neg_scores > score) | ((neg_scores == score) & (negatives < item))
        ranks.append(1 + int(np.count_nonzero(ahead)))
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
    (rank,) = _held_ranks(state, np.asarray(negatives, dtype=np.int64), [test_item], k)
    return (*_hit(rank, k), rank)


def _summarize(hrs, ndcgs, ranks, tiers, k, validation=None) -> RoundMetrics:
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
        k=k,
        per_tier=per_tier,
        per_user_rank=ranks,
        validation=validation,
    )


def evaluate_round(
    clients: list[ClientState],
    dataset: InteractionDataset,
    eval_negatives: list[np.ndarray],
    tiers: PrivacyAssignment,
    k: int = 10,
) -> RoundMetrics:
    """Average per-user metrics over all users and per tier.

    One scoring pass per user ranks both held-out items among the same
    negatives: the test item, for the returned metrics, and the validation
    item, for their `validation` field.
    """
    n = dataset.num_users
    if len(clients) != n or len(eval_negatives) != n or tiers.is_public.size != n:
        raise ValueError("clients, negatives, tiers, and dataset disagree on user count")

    # Rows 0 and 1 hold the test and the validation results.
    hrs = np.zeros((2, n))
    ndcgs = np.zeros((2, n))
    ranks = np.empty((2, n), dtype=np.int64)
    for u, state in enumerate(clients):
        held = [dataset.test[u], dataset.validation[u]]
        negatives = np.asarray(eval_negatives[u], dtype=np.int64)
        for row, rank in enumerate(_held_ranks(state, negatives, held, k)):
            ranks[row, u] = rank
            hrs[row, u], ndcgs[row, u] = _hit(rank, k)

    validation = _summarize(hrs[1], ndcgs[1], ranks[1], tiers, k)
    return _summarize(hrs[0], ndcgs[0], ranks[0], tiers, k, validation)
