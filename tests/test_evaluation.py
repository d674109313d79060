"""Ranking metric tests against a sort-and-scan oracle and closed-form values."""

import math
from pathlib import Path

import numpy as np
import pytest

from fedgraphrec.data import (
    FileFormat,
    Tier,
    assign_privacy,
    leave_one_out_split,
    load_interactions,
    sample_eval_negatives,
)
from fedgraphrec.evaluation import evaluate_round, evaluate_user
from fedgraphrec.federation import FederationConfig, run_federation
from fedgraphrec.model import COHORT_ROWS, ClientStore, ModelConfig, init_client, score_cohort
from fedgraphrec.seeding import EVAL_NEG_SALT, derive_rng
from oracles import (
    as_cohort,
    clone_state,
    dataset_from_train_sets,
    init_store,
    make_score_state,
    make_score_store,
    oracle_rank,
    rank_items,
    reference_evaluate_round,
    tiers_from_mask,
)

BUNDLED = Path(__file__).resolve().parents[1] / "data" / "synthetic-50.tsv"


def scored_eval(values, test_item, negatives, k=10):
    """Run evaluate_user on a client whose logits equal `values`."""
    state = make_score_state(values)
    return evaluate_user(state, test_item, np.asarray(negatives), k=k)


# --- closed-form ranks ----------------------------------------------------------


def test_rank_one_scores():
    values = np.zeros(100)
    values[99] = 5.0  # test item strictly on top
    hr, ndcg, rank = scored_eval(values, 99, np.arange(99))
    assert (hr, rank) == (1, 1)
    assert ndcg == 1.0


def test_rank_five_ndcg_closed_form():
    values = np.linspace(1.0, 0.0, 100)
    hr, ndcg, rank = scored_eval(values, 4, np.delete(np.arange(100), 4))
    assert rank == 5
    assert hr == 1
    assert ndcg == pytest.approx(1.0 / math.log2(6.0), abs=1e-12)


def test_rank_eleven_misses_top_ten():
    values = np.linspace(1.0, 0.0, 100)
    hr, ndcg, rank = scored_eval(values, 10, np.delete(np.arange(100), 10))
    assert rank == 11
    assert hr == 0
    assert ndcg == 0.0


def test_rank_k_boundary_inclusive():
    values = np.linspace(1.0, 0.0, 100)
    hr, _ndcg, rank = scored_eval(values, 9, np.delete(np.arange(100), 9), k=10)
    assert rank == 10
    assert hr == 1


def test_tied_scores_rank_by_item_id():
    # all logits equal: the test item ranks by its id among the candidates
    hr, ndcg, rank = scored_eval(np.zeros(5), 2, [0, 1, 3, 4], k=2)
    assert rank == 3
    assert hr == 0 and ndcg == 0.0
    hr, _ndcg, rank = scored_eval(np.zeros(5), 0, [1, 2, 3, 4], k=1)
    assert rank == 1 and hr == 1


def test_make_score_state_is_exact():
    # the helper's MLP must reproduce the stored logits bit-for-bit
    values = np.array([-3.0, -0.5, 0.0, 0.25, 8.0])
    state = make_score_state(values)
    scores = score_cohort(*as_cohort(state), np.arange(5)[None])[0]
    from scipy.special import expit

    np.testing.assert_array_equal(scores, expit(values))


# --- oracle agreement -----------------------------------------------------------


def test_matches_sort_and_scan_oracle():
    rng = np.random.default_rng(50)
    for _ in range(400):
        n_cands = int(rng.integers(2, 30))
        values = np.round(rng.normal(size=n_cands), 1)  # coarse grid forces ties
        items = rng.permutation(n_cands)
        test_item = int(items[-1])
        negatives = items[:-1]
        k = int(rng.integers(1, n_cands + 1))
        state = make_score_state(np.empty(0))
        state.item_table = values.reshape(-1, 1)
        hr, ndcg, rank = evaluate_user(state, test_item, negatives, k=k)
        expected_rank = oracle_rank(
            [(int(i), float(values[i])) for i in items], test_item
        )
        assert rank == expected_rank
        assert hr == (1 if rank <= k else 0)
        expected_ndcg = 1.0 / math.log2(rank + 1.0) if rank <= k else 0.0
        assert ndcg == pytest.approx(expected_ndcg, abs=1e-12)


def test_oracle_agreement_with_trained_style_model():
    # same property on a real randomly initialized client
    rng = np.random.default_rng(51)
    config = ModelConfig(embed_dim=4, mlp_hidden=(4,), init_scale=0.5)
    for trial in range(30):
        state = init_client(config, 25, Tier.PUBLIC, seed=trial)
        items = rng.permutation(25)[:12]
        test_item = int(items[0])
        negatives = items[1:]
        scores = score_cohort(*as_cohort(state), np.concatenate([negatives, [test_item]])[None])[0]
        pairs = list(zip(negatives.tolist(), scores[:-1].tolist()))
        pairs.append((test_item, float(scores[-1])))
        _hr, _ndcg, rank = evaluate_user(state, test_item, negatives, k=5)
        assert rank == oracle_rank(pairs, test_item)


def test_raising_test_score_never_worsens_rank():
    rng = np.random.default_rng(52)
    values = rng.normal(size=50)
    negatives = np.arange(1, 50)
    last_rank = None
    for logit in np.linspace(-4, 4, 9):
        values[0] = logit
        _hr, _ndcg, rank = scored_eval(values, 0, negatives)
        if last_rank is not None:
            assert rank <= last_rank
        last_rank = rank


def test_ndcg_never_exceeds_hr():
    rng = np.random.default_rng(53)
    for _ in range(100):
        values = rng.normal(size=20)
        hr, ndcg, _rank = scored_eval(values, 3, np.delete(np.arange(20), 3), k=5)
        assert 0.0 <= ndcg <= hr <= 1.0


# --- input validation -----------------------------------------------------------


def test_test_item_among_negatives_rejected():
    with pytest.raises(ValueError, match="among the negatives"):
        scored_eval(np.zeros(5), 2, [1, 2, 3])


def test_k_bounds():
    values = np.zeros(5)
    with pytest.raises(ValueError, match="k must be"):
        scored_eval(values, 0, [1, 2, 3], k=0)
    with pytest.raises(ValueError, match="k must be"):
        scored_eval(values, 0, [1, 2, 3], k=5)
    hr, _ndcg, _rank = scored_eval(values, 0, [1, 2, 3], k=4)
    assert hr == 1  # k == candidate count always hits


# --- evaluate_round -------------------------------------------------------------


def round_fixture(test_items, per_user_values, mask, num_items=30):
    """Clients with pinned logits plus a dataset whose test items are given.

    Each validation item is the next item the client can score after the
    test item. Like the test item, it is left out of the negatives, as
    `sample_eval_negatives` leaves it out.
    """
    n = len(test_items)
    ds = dataset_from_train_sets([set() for _ in range(n)], num_items)
    ds.test = list(test_items)
    ds.validation = [(t + 1) % len(v) for t, v in zip(test_items, per_user_values)]
    clients = make_score_store(per_user_values)
    negatives = np.array(
        [
            [j for j in range(len(per_user_values[u])) if j not in (ds.test[u], ds.validation[u])]
            for u in range(n)
        ]
    )
    return clients, ds, negatives, tiers_from_mask(mask)


def test_round_hand_average():
    # user 0 ranks first (hr 1, ndcg 1), user 1 ranks 11th (hr 0, ndcg 0)
    top = np.zeros(12)
    top[3] = 9.0
    bottom = np.linspace(1.0, 0.0, 12)
    clients, ds, negs, tiers = round_fixture(
        [3, 10], [top, bottom], [True, False], num_items=12
    )
    metrics = evaluate_round(clients, ds, negs, tiers, k=10)
    assert metrics.hr == pytest.approx(0.5, abs=1e-15)
    assert metrics.ndcg == pytest.approx(0.5, abs=1e-15)
    assert metrics.k == 10
    assert list(metrics.per_user_rank) == [1, 11]
    assert metrics.per_tier[Tier.PUBLIC].hr == 1.0
    assert metrics.per_tier[Tier.PRIVATE].hr == 0.0
    assert metrics.per_tier[Tier.PUBLIC].user_count == 1


def test_round_tier_decomposition_identity():
    rng = np.random.default_rng(54)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        test_items = [int(rng.integers(0, 15)) for _ in range(n)]
        values = [rng.normal(size=15) for _ in range(n)]
        mask = rng.random(n) < 0.5
        clients, ds, negs, tiers = round_fixture(test_items, values, mask, num_items=16)
        metrics = evaluate_round(clients, ds, negs, tiers, k=5)
        total_hr = 0.0
        total_ndcg = 0.0
        count = 0
        for tier_metrics in metrics.per_tier.values():
            total_hr += tier_metrics.hr * tier_metrics.user_count
            total_ndcg += tier_metrics.ndcg * tier_metrics.user_count
            count += tier_metrics.user_count
        assert count == n
        assert metrics.hr == pytest.approx(total_hr / n, abs=1e-12)
        assert metrics.ndcg == pytest.approx(total_ndcg / n, abs=1e-12)


def test_round_empty_tier_absent():
    clients, ds, negs, tiers = round_fixture(
        [0, 1], [np.zeros(5), np.zeros(5)], [True, True], num_items=5
    )
    metrics = evaluate_round(clients, ds, negs, tiers, k=2)
    assert Tier.PRIVATE not in metrics.per_tier
    assert Tier.PUBLIC in metrics.per_tier


def test_round_perfect_model_scores_one():
    values = []
    test_items = [2, 7, 4]
    for t in test_items:
        v = np.zeros(10)
        v[t] = 10.0
        values.append(v)
    clients, ds, negs, tiers = round_fixture(
        test_items, values, [True, False, True], num_items=10
    )
    metrics = evaluate_round(clients, ds, negs, tiers, k=1)
    assert metrics.hr == 1.0
    assert metrics.ndcg == 1.0


def test_round_validation_target_uses_validation_item():
    # logits peak on the validation item, not the test item
    test_items = [3]
    val_item = 4  # round_fixture sets validation = test + 1
    v = np.zeros(10)
    v[val_item] = 5.0
    clients, ds, negs, tiers = round_fixture(test_items, [v], [True], num_items=10)
    metrics = evaluate_round(clients, ds, negs, tiers, k=1)
    assert metrics.validation.hr == 1.0
    assert list(metrics.validation.per_user_rank) == [1]
    assert metrics.hr == 0.0
    # the test item ties the other negatives at 0 and ranks by item index
    assert list(metrics.per_user_rank) == [4]


def test_round_validates_inputs():
    clients, ds, negs, tiers = round_fixture([0, 2], [np.zeros(5)] * 2, [True, True], num_items=5)
    with pytest.raises(ValueError, match="user count"):
        evaluate_round(make_score_store([np.zeros(5)] * 4), ds, negs, tiers)
    with pytest.raises(ValueError, match="user count"):
        evaluate_round(clients, ds, negs[:1], tiers)
    leaky = negs.copy()
    leaky[0, 0] = ds.test[0]
    with pytest.raises(ValueError, match="among the negatives"):
        evaluate_round(clients, ds, leaky, tiers, k=2)


def test_round_one_pass_matches_two_reference_passes():
    # Bundled file after 3 trained rounds: the one scoring pass gives the
    # test and validation metrics of two separate sort-based passes.
    dataset = leave_one_out_split(load_interactions(BUNDLED, FileFormat.TAB))
    tiers = assign_privacy(dataset.num_users, 0.5, 1)
    negatives = np.stack([
        sample_eval_negatives(dataset, u, 49, derive_rng(1, u, EVAL_NEG_SALT))
        for u in range(dataset.num_users)
    ])
    config = FederationConfig(rounds=3, model=ModelConfig(learning_rate=0.05), seed=1)
    compared = []

    def hook(round_index, clients):
        if round_index != 3:
            return None
        metrics = evaluate_round(clients, dataset, negatives, tiers, k=10)
        for got, target in ((metrics, "test"), (metrics.validation, "validation")):
            ranks, hr, ndcg, per_tier = reference_evaluate_round(
                clients, dataset, negatives, tiers, 10, target
            )
            assert np.array_equal(got.per_user_rank, ranks)
            assert (got.hr, got.ndcg) == (hr, ndcg)
            assert {
                tier: (m.hr, m.ndcg, m.user_count) for tier, m in got.per_tier.items()
            } == per_tier
            compared.append(target)
        assert metrics.validation.validation is None
        return metrics

    run_federation(dataset, tiers, config, hook)
    assert compared == ["test", "validation"]


def test_all_equal_scores_rank_by_item_index():
    # Every candidate scores the same: the held item's rank is 1 + the number
    # of negatives with a smaller index, its position in rank_items' order.
    rng = np.random.default_rng(55)
    for _ in range(50):
        items = rng.permutation(40)[: int(rng.integers(3, 20))]
        test_item, val_item, negatives = int(items[0]), int(items[1]), items[2:]
        state = make_score_state(np.zeros(40))
        _hr, _ndcg, rank = evaluate_user(state, test_item, negatives, k=1)
        assert rank == 1 + int((negatives < test_item).sum())
        ranked = [item for item, _score in rank_items(state, np.append(negatives, test_item))]
        assert rank == ranked.index(test_item) + 1

        ds = dataset_from_train_sets([set()], 40)
        ds.test, ds.validation = [test_item], [val_item]
        metrics = evaluate_round(
            ClientStore.of(state), ds, negatives[None], tiers_from_mask([True]), k=1
        )
        assert list(metrics.per_user_rank) == [rank]
        assert list(metrics.validation.per_user_rank) == [1 + int((negatives < val_item).sum())]


def store_world(n=30, num_items=60, seed=56):
    """Store-backed clients with distinct held items and 49 negatives each.

    Users 0, 7, 14, ... score every item alike (a zero output layer), so
    their held items rank by item index alone.
    """
    rng = np.random.default_rng(seed)
    config = ModelConfig(embed_dim=4, mlp_hidden=(6,), init_scale=0.5)
    tiers = tiers_from_mask(rng.random(n) < 0.5)
    store = init_store(config, num_items, n, seed)
    for u in range(0, n, 7):
        store.weights[-1][u] = 0.0
        store.biases[-1][u] = 0.0
    ds = dataset_from_train_sets([set() for _ in range(n)], num_items)
    negatives = np.empty((n, 49), dtype=np.int64)
    for u in range(n):
        items = rng.permutation(num_items)[:51]
        ds.test[u], ds.validation[u] = int(items[0]), int(items[1])
        negatives[u] = items[2:]
    return store, ds, negatives, tiers


def assert_matches_reference(metrics, clients, ds, negatives, tiers, k):
    for got, target in ((metrics, "test"), (metrics.validation, "validation")):
        ranks, hr, ndcg, per_tier = reference_evaluate_round(clients, ds, negatives, tiers, k, target)
        assert np.array_equal(got.per_user_rank, ranks)
        assert (got.hr, got.ndcg) == (hr, ndcg)
        assert {tier: (m.hr, m.ndcg, m.user_count) for tier, m in got.per_tier.items()} == per_tier


def test_store_backed_round_matches_reference_across_chunks():
    store, ds, negatives, tiers = store_world()
    # 51 candidates per user: more users than one chunk of COHORT_ROWS holds
    assert len(store) * 51 > COHORT_ROWS
    metrics = evaluate_round(store, ds, negatives, tiers, k=10)
    assert_matches_reference(metrics, list(store), ds, negatives, tiers, 10)
    for u in range(0, len(store), 7):
        for got, held in ((metrics, ds.test[u]), (metrics.validation, ds.validation[u])):
            assert got.per_user_rank[u] == 1 + int((negatives[u] < held).sum())


def test_plain_client_list_evaluates_like_the_store():
    # Plain copies of the clients, each ranked alone, rank as the store does.
    store, ds, negatives, tiers = store_world()
    plain = [clone_state(client) for client in store]
    from_store = evaluate_round(store, ds, negatives, tiers, k=5)
    for u, client in enumerate(plain):
        for got, held in ((from_store, ds.test[u]), (from_store.validation, ds.validation[u])):
            assert evaluate_user(client, held, negatives[u], k=5)[2] == got.per_user_rank[u]
    assert_matches_reference(from_store, plain, ds, negatives, tiers, 5)
