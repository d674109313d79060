"""Client model tests: forward pass, loss, hand-written gradients, SGD updates."""

import math
import tracemalloc

import numpy as np
import pytest

from fedgraphrec import model as mdl
from fedgraphrec.data import InteractionDataset, Tier
from fedgraphrec.model import (
    ClientState,
    ModelConfig,
    TrainingError,
    init_client,
    train_clients,
    train_local,
)
from fedgraphrec.seeding import TRAIN_SALT, derive_rng
from oracles import (
    as_cohort,
    batch_loss,
    bce_loss,
    check_instance_gradients,
    clone_state,
    dataset_from_train_sets,
    init_store,
    naive_bce,
    naive_forward,
    predict,
    random_instance,
    rank_items,
    reference_init,
    reference_sgd_step,
    reference_train_local,
)


# --- init_client --------------------------------------------------------------


def test_init_shapes_and_zero_biases():
    config = ModelConfig(embed_dim=32)
    state = init_client(config, num_items=1682, tier=Tier.PUBLIC, seed=1)
    assert state.user_vec.shape == (32,)
    assert state.item_table.shape == (1682, 32)
    assert [W.shape for W in state.weights] == [(64, 32), (32, 16), (16, 1)]
    assert all(not b.any() for b in state.biases)
    # the tier lives only in the PrivacyAssignment: the draw ignores it
    other = init_client(config, num_items=1682, tier=Tier.PRIVATE, seed=1)
    assert np.array_equal(state.item_table, other.item_table)
    assert not hasattr(state, "tier")


def test_init_deterministic_under_seed():
    config = ModelConfig(embed_dim=8, mlp_hidden=(4,))
    a = init_client(config, 20, Tier.PRIVATE, seed=42)
    b = init_client(config, 20, Tier.PRIVATE, seed=42)
    np.testing.assert_array_equal(a.user_vec, b.user_vec)
    np.testing.assert_array_equal(a.item_table, b.item_table)
    for Wa, Wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(Wa, Wb)
    c = init_client(config, 20, Tier.PRIVATE, seed=43)
    assert (a.user_vec != c.user_vec).any()


def test_init_scale_zero_gives_all_zero_parameters():
    config = ModelConfig(embed_dim=4, mlp_hidden=(3,), init_scale=0.0, mlp_init="gaussian")
    state = init_client(config, 5, Tier.PUBLIC, seed=0)
    assert not state.user_vec.any()
    assert not state.item_table.any()
    assert all(not W.any() for W in state.weights)


def test_init_he_scales_mlp_only():
    config = ModelConfig(embed_dim=32, mlp_hidden=(32, 16), init_scale=0.01, mlp_init="he")
    state = init_client(config, 400, Tier.PUBLIC, seed=5)
    # embeddings keep the small scale
    assert abs(float(state.item_table.std()) - 0.01) < 0.002
    # first MLP layer should be near sqrt(2 / 64)
    expected = math.sqrt(2.0 / 64.0)
    assert abs(float(state.weights[0].std()) - expected) < 0.25 * expected


@pytest.mark.parametrize(
    "overrides",
    [
        dict(embed_dim=32, mlp_hidden=(32, 16)),
        dict(embed_dim=5, mlp_hidden=(7,), mlp_init="gaussian", init_scale=0.3),
        dict(embed_dim=3, mlp_hidden=(4, 2), init_scale=0.0),
        dict(embed_dim=3, mlp_hidden=(4, 2), init_scale=0.0, mlp_init="gaussian"),
    ],
)
@pytest.mark.parametrize("num_items", [1, 257])
def test_init_matches_reference_draws(overrides, num_items):
    config = ModelConfig(**overrides)
    for seed in (4, (4, 9)):
        state = init_client(config, num_items, Tier.PRIVATE, seed)
        user_vec, item_table, weights, biases = reference_init(config, num_items, seed)
        assert np.array_equal(state.user_vec, user_vec)
        assert np.array_equal(state.item_table, item_table)
        for mine, theirs in zip(state.weights + state.biases, weights + biases, strict=True):
            assert np.array_equal(mine, theirs)


def test_init_into_store_row_draws_in_place():
    # Store row 1 is redrawn in place, biases included; its neighbours keep
    # their bytes, and the draw allocates no table-sized temporary.
    config = ModelConfig(embed_dim=8, mlp_hidden=(8,))
    store = init_store(config, 4000, 3, seed=2)
    store.biases[0][1] = 1.0
    neighbours = store.item_tables[[0, 2]].copy()
    row = store[1]
    tracemalloc.start()
    try:
        init_client(config, 4000, Tier.PUBLIC, seed=(2, 1), out=row)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < store.item_tables[1].nbytes / 8, f"peak {peak} bytes"
    assert np.array_equal(store.item_tables[1], reference_init(config, 4000, (2, 1))[1])
    assert not store.biases[0][1].any()
    assert np.array_equal(store.item_tables[[0, 2]], neighbours)
    with pytest.raises(ValueError, match="shape"):
        init_client(config, 3999, Tier.PUBLIC, seed=0, out=row)


def test_init_validates():
    with pytest.raises(ValueError):
        init_client(ModelConfig(embed_dim=0), 5, Tier.PUBLIC, seed=0)
    with pytest.raises(ValueError):
        init_client(ModelConfig(), 0, Tier.PUBLIC, seed=0)
    with pytest.raises(ValueError):
        ModelConfig(mlp_init="xavier").validate()
    with pytest.raises(ValueError):
        ModelConfig(learning_rate=-0.1).validate()


# --- predict / rank_items -----------------------------------------------------


def hand_built_state():
    """d=2, one hidden layer of 2, weights set by hand."""
    state = ClientState(
        user_vec=np.array([0.1, -0.2]),
        item_table=np.array([[0.3, 0.4], [0.0, 0.0]]),
        weights=[
            np.array([[0.5, -1.0], [1.0, 0.5], [-0.25, 0.75], [2.0, -0.5]]),
            np.array([[1.5], [-2.0]]),
        ],
        biases=[np.array([0.05, -0.1]), np.array([0.2])],
    )
    return state


def test_predict_matches_hand_computation():
    state = hand_built_state()
    # scalar arithmetic done out by hand:
    # z1 = [0.625, -0.275] -> relu [0.625, 0]; z2 = 0.625*1.5 + 0.2 = 1.1375
    expected = 1.0 / (1.0 + math.exp(-1.1375))
    assert predict(state, 0) == pytest.approx(expected, rel=1e-12)


def test_predict_matches_naive_loop_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        state, items, _labels = random_instance(rng)
        for item in items:
            assert predict(state, int(item)) == pytest.approx(
                naive_forward(state, int(item)), rel=1e-10
            )


def test_predict_zero_network_is_half():
    config = ModelConfig(embed_dim=4, mlp_hidden=(3,), init_scale=0.0, mlp_init="gaussian")
    state = init_client(config, 5, Tier.PUBLIC, seed=0)
    assert predict(state, 2) == 0.5


def test_predict_strictly_inside_unit_interval():
    state = hand_built_state()
    state.weights[1][:] = 1e9  # saturate the logit
    value = predict(state, 0)
    assert 0.0 < value < 1.0


def test_predict_is_pure():
    state = hand_built_state()
    first = predict(state, 0)
    for _ in range(5):
        assert predict(state, 0) == first


def test_rank_single_candidate():
    state = hand_built_state()
    assert rank_items(state, [1])[0][0] == 1


def test_rank_all_ties_ascending_item_order():
    config = ModelConfig(embed_dim=4, mlp_hidden=(3,), init_scale=0.0, mlp_init="gaussian")
    state = init_client(config, 8, Tier.PUBLIC, seed=0)
    ranked = rank_items(state, [5, 2, 7, 0])
    assert [item for item, _ in ranked] == [0, 2, 5, 7]
    assert all(score == 0.5 for _, score in ranked)


def test_rank_is_sorted_permutation():
    rng = np.random.default_rng(11)
    state, _items, _labels = random_instance(rng)
    candidates = list(range(state.item_table.shape[0]))
    ranked = rank_items(state, candidates)
    assert sorted(item for item, _ in ranked) == candidates
    scores = [score for _, score in ranked]
    assert all(a >= b for a, b in zip(scores, scores[1:]))


def test_rank_rejects_empty():
    with pytest.raises(ValueError):
        rank_items(hand_built_state(), [])


# --- bce_loss -----------------------------------------------------------------


def test_bce_closed_form_sum():
    assert bce_loss([(0.5, 1), (0.5, 0)]) == pytest.approx(2 * math.log(2), rel=1e-12)


def test_bce_perfect_prediction_near_zero():
    assert bce_loss([(1 - 1e-7, 1)]) == pytest.approx(0.0, abs=1e-6)


def test_bce_matches_naive_loop():
    rng = np.random.default_rng(8)
    for _ in range(50):
        pairs = [
            (float(rng.uniform(0.001, 0.999)), int(rng.integers(0, 2)))
            for _ in range(int(rng.integers(1, 30)))
        ]
        assert bce_loss(pairs) == pytest.approx(naive_bce(pairs), rel=1e-10)


def test_bce_clamps_extreme_probabilities():
    assert np.isfinite(bce_loss([(0.0, 1), (1.0, 0)]))


def test_bce_empty_is_error():
    with pytest.raises(ValueError):
        bce_loss([])


# --- gradients ----------------------------------------------------------------


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(123)
    for _ in range(30):
        state, items, labels = random_instance(rng)
        check_instance_gradients(state, items, labels)


def test_single_step_decreases_single_example_loss():
    rng = np.random.default_rng(77)
    for _ in range(25):
        state, items, labels = random_instance(rng)
        items, labels = items[:1], labels[:1]
        before = batch_loss(state, items, labels)
        rate = 1e-3
        succeeded = False
        while rate >= 1e-5:
            clone = clone_state(state)
            mdl._cohort_step(*as_cohort(clone), items[None], labels[None], rate, None)
            if batch_loss(clone, items, labels) < before:
                succeeded = True
                break
            rate /= 10
        assert succeeded, f"no decrease down to rate {rate}"


@pytest.mark.parametrize("clip_norm", [None, 0.05])
def test_sgd_step_matches_reference_bit_for_bit(clip_norm):
    # 60 batches of 40 items drawn from 12 with replacement, so rows repeat
    # within a batch. Hidden unit 0 of the first layer has zero weights and
    # bias: its pre-activation is exactly 0.0 in every batch, and stays so.
    config = ModelConfig(embed_dim=6, mlp_hidden=(8, 4), init_scale=0.3)
    state = init_client(config, 12, Tier.PUBLIC, seed=41)
    state.weights[0][:, 0] = 0.0
    reference = clone_state(state)
    store, rows = as_cohort(state)
    rng = np.random.default_rng(42)
    clipped = 0
    for _ in range(60):
        items = rng.integers(0, 12, size=40)
        labels = rng.integers(0, 2, size=40).astype(np.float64)
        pres = mdl._cohort_forward(*store.gather(rows, items[None]))[1]
        assert np.any(pres[0] == 0.0)
        assert np.unique(items).size < items.size
        loss, norm = mdl._cohort_step(store, rows, items[None], labels[None], 0.2, clip_norm)
        got = (float(loss[0]), float(norm[0]))
        want = reference_sgd_step(reference, items, labels, 0.2, clip_norm)
        assert got == want
        clipped += clip_norm is not None and got[1] == clip_norm
        assert np.array_equal(state.user_vec, reference.user_vec)
        assert np.array_equal(state.item_table, reference.item_table)
        for mine, theirs in zip(state.weights + state.biases, reference.weights + reference.biases):
            assert np.array_equal(mine, theirs)
    if clip_norm is not None:
        assert clipped == 60


def assert_same_parameters(state, reference):
    assert np.array_equal(state.user_vec, reference.user_vec)
    assert np.array_equal(state.item_table, reference.item_table)
    for mine, theirs in zip(state.weights + state.biases, reference.weights + reference.biases):
        assert np.array_equal(mine, theirs)


def test_cohort_step_matches_reference_bit_for_bit():
    # 30 clients with batches of 40 items drawn from 12, so rows repeat: 1200
    # example rows, more than one chunk holds. Hidden unit 0 of the first
    # layer has zero weights and bias, so its pre-activation is exactly 0.0.
    # The clip sits at the median first-step norm: it fires for some clients
    # and not for others.
    config = ModelConfig(embed_dim=6, mlp_hidden=(8, 4), init_scale=0.3)
    count, batch = 30, 40
    assert count * batch > mdl.COHORT_ROWS >= batch
    store = init_store(config, 12, count, seed=41)
    store.weights[0][:, :, 0] = 0.0
    references = [clone_state(client) for client in store]
    rng = np.random.default_rng(43)
    items = rng.integers(0, 12, size=(count, batch))
    labels = rng.integers(0, 2, size=(count, batch)).astype(np.float64)
    probes = [clone_state(client) for client in store]
    first_norms = [reference_sgd_step(p, items[c], labels[c], 0.2, None)[1] for c, p in enumerate(probes)]
    clip_norm = float(np.median(first_norms))
    clipped = set()
    for _ in range(5):
        rows = rng.permutation(count)
        got_loss, got_norm = mdl._cohort_step(store, rows, items[rows], labels[rows], 0.2, clip_norm)
        for c, row in enumerate(rows):
            reference_store, reference_rows = as_cohort(references[row])
            pres = mdl._cohort_forward(*reference_store.gather(reference_rows, items[row][None]))[1]
            assert np.any(pres[0] == 0.0)
            want = reference_sgd_step(references[row], items[row], labels[row], 0.2, clip_norm)
            assert (got_loss[c], got_norm[c]) == want
            if want[1] == clip_norm:
                clipped.add(int(row))
        for client, reference in zip(store, references):
            assert_same_parameters(client, reference)
        items = rng.integers(0, 12, size=(count, batch))
        labels = rng.integers(0, 2, size=(count, batch)).astype(np.float64)
    assert 0 < len(clipped) < count


def ragged_dataset(sizes, num_items=40, seed=3):
    """Users with the given train sizes; held-out items are the last two."""
    rng = np.random.default_rng(seed)
    train_sets = [set(rng.choice(num_items - 2, size=size, replace=False).tolist()) for size in sizes]
    ds = dataset_from_train_sets(train_sets, num_items)
    ds.validation = [num_items - 2] * len(sizes)
    ds.test = [num_items - 1] * len(sizes)
    return ds


@pytest.mark.parametrize("clip_norm", [None, 0.5])
def test_cohort_training_matches_reference_train_local(clip_norm):
    # Unequal train sizes with batch size 16 and 2 epochs: clients take
    # different numbers of steps, and their last batches differ in length.
    sizes = [3, 7, 4, 9, 3, 12, 5, 8, 6, 4, 10, 2]
    ds = ragged_dataset(sizes)
    config = ModelConfig(
        embed_dim=5, mlp_hidden=(6, 3), learning_rate=0.1, batch_size=16,
        local_epochs=2, neg_ratio=4, init_scale=0.3, clip_norm=clip_norm,
    )
    store = init_store(config, ds.num_items, len(sizes), seed=7)
    references = [clone_state(client) for client in store]
    reports = train_clients(store, ds, config, (derive_rng(7, u, 1, TRAIN_SALT) for u in range(len(sizes))))
    assert len({report.steps for report in reports}) > 1
    for u, reference in enumerate(references):
        rng = derive_rng(7, u, 1, TRAIN_SALT)
        assert reports[u] == reference_train_local(reference, ds, u, config, rng)
        assert_same_parameters(store[u], reference)


def test_cohort_training_error_names_lowest_user_at_its_first_step():
    # User 1 diverges at its third step and user 3 at its first: a loop over
    # users stops at user 1's third step, and cohort training says the same.
    sizes = [8, 8, 8, 8, 8]
    ds = ragged_dataset(sizes)
    config = ModelConfig(embed_dim=4, mlp_hidden=(4,), learning_rate=0.05, batch_size=8)
    store = init_store(config, ds.num_items, len(sizes), seed=5)
    rngs = [derive_rng(5, u, 1, TRAIN_SALT) for u in range(len(sizes))]
    batches = [mdl.local_batches(ds, u, config, derive_rng(5, u, 1, TRAIN_SALT)) for u in range(len(sizes))]

    def first_seen_at(user, step):
        # An item that user's batches first contain at the given 1-based step.
        seen = set().union(*(set(items.tolist()) for items, _ in batches[user][: step - 1]))
        return next(i for i in batches[user][step - 1][0].tolist() if i not in seen)

    for user, step in ((1, 3), (3, 1)):
        store.item_tables[user, first_seen_at(user, step), 0] = np.inf
    references = [clone_state(client) for client in store]
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(TrainingError) as cohort:
            train_clients(store, ds, config, iter(rngs))
        with pytest.raises(TrainingError) as loop:
            for u, reference in enumerate(references):
                reference_train_local(reference, ds, u, config, derive_rng(5, u, 1, TRAIN_SALT))
    assert str(cohort.value) == str(loop.value)
    assert str(cohort.value) == "user 1: non-finite loss or gradient at local step 3"


# --- train_local --------------------------------------------------------------


def tiny_dataset(train_items, num_items=10):
    """One-user dataset with fixed splits for training tests."""
    return InteractionDataset(
        num_users=1,
        num_items=num_items,
        train=[np.asarray(train_items, dtype=np.int64)],
        validation=[num_items - 2],
        test=[num_items - 1],
        user_tokens=["u"],
        item_tokens=[f"i{j}" for j in range(num_items)],
    )


def fresh_state(config, num_items=10, seed=9):
    """A fresh client and the generator its training draws from."""
    return init_client(config, num_items, Tier.PUBLIC, seed=seed), derive_rng(seed, 1, 1)


def test_train_single_positive_counts():
    config = ModelConfig(embed_dim=4, mlp_hidden=(4,), learning_rate=0.01, neg_ratio=4)
    ds = tiny_dataset([3])
    state, rng = fresh_state(config)
    probe = derive_rng(9, 1, 1)
    from fedgraphrec.data import sample_train_negatives

    negatives = sample_train_negatives(ds, 0, 4, probe)
    before = state.item_table.copy()
    report = train_local(state, ds, 0, config, rng)
    assert report.steps == 1  # 5 examples, one batch
    assert report.mean_loss > 0
    touched = set(negatives.tolist()) | {3}
    untouched = [j for j in range(10) if j not in touched]
    np.testing.assert_array_equal(state.item_table[untouched], before[untouched])
    assert (state.item_table[sorted(touched)] != before[sorted(touched)]).any()


def test_train_zero_rate_reports_loss_and_changes_nothing():
    config = ModelConfig(embed_dim=4, mlp_hidden=(4,), learning_rate=0.0)
    ds = tiny_dataset([1, 2, 3])
    state, rng = fresh_state(config)
    snapshot = clone_state(state)
    report = train_local(state, ds, 0, config, rng)
    assert report.mean_loss > 0
    np.testing.assert_array_equal(state.user_vec, snapshot.user_vec)
    np.testing.assert_array_equal(state.item_table, snapshot.item_table)
    for W, W0 in zip(state.weights, snapshot.weights):
        np.testing.assert_array_equal(W, W0)


def test_train_step_count_batches_and_epochs():
    config = ModelConfig(
        embed_dim=4, mlp_hidden=(4,), learning_rate=0.01,
        neg_ratio=2, batch_size=3, local_epochs=2,
    )
    ds = tiny_dataset([0, 1])
    state, rng = fresh_state(config)
    report = train_local(state, ds, 0, config, rng)
    # per epoch: 2 positives + 4 negatives = 6 examples -> 2 batches of 3
    assert report.steps == 4


def test_train_sparse_update_contract():
    config = ModelConfig(embed_dim=3, mlp_hidden=(3,), learning_rate=0.05, neg_ratio=1)
    ds = tiny_dataset([0], num_items=40)
    state, rng = fresh_state(config, num_items=40, seed=21)
    from fedgraphrec.data import sample_train_negatives

    negatives = sample_train_negatives(ds, 0, 1, derive_rng(21, 1, 1))
    before = state.item_table.copy()
    train_local(state, ds, 0, config, rng)
    allowed = set(negatives.tolist()) | {0}
    for j in range(40):
        if j not in allowed:
            np.testing.assert_array_equal(state.item_table[j], before[j])


def test_train_deterministic_under_rng():
    config = ModelConfig(embed_dim=4, mlp_hidden=(4,), learning_rate=0.02)
    ds = tiny_dataset([1, 4, 6])
    runs = []
    for _ in range(2):
        state = init_client(config, 10, Tier.PUBLIC, seed=33)
        train_local(state, ds, 0, config, derive_rng(5, 0, 2))
        runs.append(state)
    np.testing.assert_array_equal(runs[0].item_table, runs[1].item_table)
    np.testing.assert_array_equal(runs[0].user_vec, runs[1].user_vec)


def test_train_nonfinite_error_names_user_and_step():
    config = ModelConfig(embed_dim=4, mlp_hidden=(4,), learning_rate=0.01)
    ds = tiny_dataset([1, 2])
    state, rng = fresh_state(config)
    state.item_table[1, 0] = np.inf
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(TrainingError, match=r"user 0.*step 1"):
            train_local(state, ds, 0, config, rng)


def test_train_requires_positives_and_rng():
    config = ModelConfig(embed_dim=4, mlp_hidden=(4,))
    ds = tiny_dataset([])
    state, rng = fresh_state(config)
    with pytest.raises(ValueError, match="no training interactions"):
        train_local(state, ds, 0, config, rng)


def test_grad_norm_reported_post_clip():
    config = ModelConfig(
        embed_dim=4, mlp_hidden=(4,), learning_rate=0.01, clip_norm=1e-6
    )
    ds = tiny_dataset([1, 2, 3])
    state, rng = fresh_state(config)
    report = train_local(state, ds, 0, config, rng)
    assert report.grad_norm <= 1e-6 + 1e-12


def test_score_items_matches_predict():
    state = hand_built_state()
    batch = mdl.score_cohort(*as_cohort(state), np.array([[0, 1]]))[0]
    assert batch[0] == pytest.approx(predict(state, 0), rel=1e-12)
    assert batch[1] == pytest.approx(predict(state, 1), rel=1e-12)
