"""Client model tests: forward pass, loss, hand-written gradients, SGD updates."""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from fedgraphrec import model as mdl
from fedgraphrec.data import InteractionDataset, Tier
from fedgraphrec.evaluation import evaluate_round
from fedgraphrec.experiments import ConfigError, ExperimentConfig
from fedgraphrec.model import (
    ClientState,
    ModelConfig,
    TrainingError,
    init_client,
    train_clients,
    train_local,
)
from fedgraphrec.seeding import INIT_SALT, TRAIN_SALT, derive_rng
from oracles import (
    as_cohort,
    batch_loss,
    bce_loss,
    check_instance_gradients,
    clone_state,
    concat_reference_sgd_step,
    dataset_from_train_sets,
    init_store,
    naive_bce,
    naive_forward,
    predict,
    random_instance,
    rank_items,
    reference_init,
    reference_local_batches,
    reference_sgd_step,
    reference_train_local,
    tiers_from_mask,
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


@pytest.mark.parametrize("draw_items", [True, False])
def test_init_from_a_generator_equals_init_from_its_seed(draw_items):
    # A Generator seed is used as is: derive_rng(s, u, INIT_SALT) draws what
    # the tuple (s, u) names.
    config = ModelConfig(embed_dim=6, mlp_hidden=(5, 3))

    def init(seed):
        out = mdl.ClientStore.empty(1, 30, config)[0]
        out.item_table.fill(0.5)
        return init_client(config, 30, None, seed=seed, out=out, draw_items=draw_items)

    for s, u in [(0, 0), (7, 3), (2**40, 2**32 - 1)]:
        a = init(derive_rng(s, u, INIT_SALT))
        b = init((s, u))
        for mine, theirs in zip([a.user_vec, a.item_table, *a.weights, *a.biases],
                                [b.user_vec, b.item_table, *b.weights, *b.biases], strict=True):
            assert np.array_equal(mine, theirs)
        # an item table not drawn is left as it was
        assert draw_items or (a.item_table == 0.5).all()


def test_init_scale_zero_gives_all_zero_parameters():
    # init_scale sets the embeddings; the He-scaled MLP weights ignore it
    config = ModelConfig(embed_dim=4, mlp_hidden=(3,), init_scale=0.0)
    state = init_client(config, 5, Tier.PUBLIC, seed=0)
    assert not state.user_vec.any()
    assert not state.item_table.any()
    assert all(not b.any() for b in state.biases)


def test_init_he_scales_mlp_only():
    config = ModelConfig(embed_dim=32, mlp_hidden=(32, 16), init_scale=0.01)
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
        dict(embed_dim=5, mlp_hidden=(7,), init_scale=0.3),
        dict(embed_dim=3, mlp_hidden=(4, 2), init_scale=0.0),
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


def test_init_without_items_leaves_the_table_and_draws_the_rest():
    # The user vector keeps its draws; the MLP's follow it in the stream.
    config = ModelConfig(embed_dim=5, mlp_hidden=(7, 3), init_scale=0.3)
    store = mdl.ClientStore.empty(1, 40, config)
    store.item_tables.fill(np.nan)
    state = init_client(config, 40, None, seed=(4, 9), out=store[0], draw_items=False)
    user_vec, item_table, weights, biases = reference_init(config, 40, (4, 9), draw_items=False)
    assert item_table is None and np.isnan(state.item_table).all()
    assert np.array_equal(state.user_vec, user_vec)
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
        init_client(ModelConfig(), 0, Tier.PUBLIC, seed=0)
    # without `out` the item table is new: not drawing it would return
    # uninitialized memory
    with pytest.raises(ValueError, match="unwritten"):
        init_client(ModelConfig(), 5, Tier.PUBLIC, seed=0, draw_items=False)


@pytest.mark.parametrize(
    "field, value",
    [
        ("learning_rate", float("nan")),
        ("learning_rate", float("inf")),
        ("init_scale", float("nan")),
        ("init_scale", float("inf")),
        ("clip_norm", float("nan")),
        ("clip_norm", float("inf")),
    ],
)
def test_config_rejects_non_finite_floats(field, value):
    # ModelConfig holds no rules: the schema field that fills `field` checks
    # it. nan < 0 is False, so a range check alone lets NaN through.
    owner = {"learning_rate": "lr"}.get(field, field)
    with pytest.raises(ConfigError, match=f"--{owner.replace('_', '-')} must be finite"):
        ExperimentConfig(**{owner: value}).validate()


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


@pytest.mark.parametrize("embed_dim, hidden", [(5, (7,)), (6, (3,)), (4, (9, 2))])
def test_cohort_forward_matches_naive_loop_oracle(embed_dim, hidden):
    # The factored first layer against the concatenated input [u; i], with
    # one hidden layer or two and d != h1, for a cohort of three clients.
    config = ModelConfig(embed_dim=embed_dim, mlp_hidden=hidden, init_scale=0.5)
    store = init_store(config, 9, 3, seed=12)
    for b in store.biases:
        b[:] = np.random.default_rng(embed_dim).normal(0, 0.2, size=b.shape)
    rows = np.array([2, 0, 1])
    items = np.random.default_rng(5).integers(0, 9, size=(3, 6))
    probs = mdl._cohort_forward(*store.gather(rows, items))[2]
    for c, row in enumerate(rows):
        want = [naive_forward(store[row], int(item)) for item in items[c]]
        np.testing.assert_allclose(probs[c], want, rtol=1e-13, atol=0)


def test_predict_zero_network_is_half():
    config = ModelConfig(embed_dim=4, mlp_hidden=(3,), init_scale=0.0)
    state = init_client(config, 5, Tier.PUBLIC, seed=0)
    for W in state.weights:
        W.fill(0.0)
    assert predict(state, 2) == 0.5


def test_predict_strictly_inside_unit_interval():
    state = hand_built_state()
    state.weights[1][:] = 1e9  # saturate the logit
    value = predict(state, 0)
    assert 0.0 < value < 1.0


def test_sigmoid_saturates_exactly_without_warnings():
    # Both sides of exp's overflow edge (-z near 709.78) and a NaN, alone and
    # mixed, give the bits of the errstate form and never warn.
    z = np.array([-1e308, -800.0, -710.0, -709.5, 709.5, 710.0, 800.0, 1e308, np.nan, 0.0])
    inputs = [z, z[:-2], z[[0, 8]], z[[8, 3]], *(z[i : i + 1] for i in range(z.size))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for values in inputs:
            with np.errstate(over="ignore"):
                want = 1.0 / (1.0 + np.exp(-values))
            got = mdl.sigmoid(values)
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        got = mdl.sigmoid(z)
    np.testing.assert_array_equal(got[:8], [0.0, 0.0, 0.0, 1 / (1 + math.exp(709.5)), 1.0, 1.0, 1.0, 1.0])
    assert np.isnan(got[8])


def test_sigmoid_within_two_ulp_of_libm():
    # 1 / (1 + math.exp(-z)) equals scipy.special.expit bit for bit; numpy's
    # vectorized exp may differ from libm's by an ulp or two.
    rng = np.random.default_rng(60)
    z = np.concatenate([np.linspace(-40.0, 40.0, 20001), rng.uniform(-40.0, 40.0, 20000)])
    expected = np.array([1.0 / (1.0 + math.exp(-v)) for v in z.tolist()])
    got = mdl.sigmoid(z)
    assert np.all(np.abs(got - expected) <= 2 * np.spacing(expected))
    # a strided view, as the forward pass passes its last layer's column
    np.testing.assert_array_equal(mdl.sigmoid(np.stack([z, -z], axis=1)[:, 0]), got)


def test_predict_is_pure():
    state = hand_built_state()
    first = predict(state, 0)
    for _ in range(5):
        assert predict(state, 0) == first


def test_rank_single_candidate():
    state = hand_built_state()
    assert rank_items(state, [1])[0][0] == 1


def test_rank_all_ties_ascending_item_order():
    config = ModelConfig(embed_dim=4, mlp_hidden=(3,), init_scale=0.0)
    state = init_client(config, 8, Tier.PUBLIC, seed=0)
    for W in state.weights:
        W.fill(0.0)
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
            mdl._cohort_step(*as_cohort(clone), items[None], labels[None], rate, 0.0)
            if batch_loss(clone, items, labels) < before:
                succeeded = True
                break
            rate /= 10
        assert succeeded, f"no decrease down to rate {rate}"


@pytest.mark.parametrize("clip_norm", [0.0, 0.05])
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
        clipped += clip_norm > 0 and got[1] == clip_norm
        assert np.array_equal(state.user_vec, reference.user_vec)
        assert np.array_equal(state.item_table, reference.item_table)
        for mine, theirs in zip(state.weights + state.biases, reference.weights + reference.biases):
            assert np.array_equal(mine, theirs)
    if clip_norm > 0:
        assert clipped == 60


@pytest.mark.parametrize("clip_norm", [0.0, 0.05])
def test_sgd_step_tracks_concat_reference(clip_norm):
    # The factored first layer moves only the rounding of the step as first
    # written, with the input [u; i] built for every example.
    config = ModelConfig(embed_dim=6, mlp_hidden=(8, 4), init_scale=0.3)
    state = init_client(config, 12, Tier.PUBLIC, seed=41)
    reference = clone_state(state)
    store, rows = as_cohort(state)
    rng = np.random.default_rng(42)
    for _ in range(60):
        items = rng.integers(0, 12, size=40)
        labels = rng.integers(0, 2, size=40).astype(np.float64)
        loss, norm = mdl._cohort_step(store, rows, items[None], labels[None], 0.2, clip_norm)
        want = concat_reference_sgd_step(reference, items, labels, 0.2, clip_norm)
        np.testing.assert_allclose([loss[0], norm[0]], want, rtol=1e-12, atol=0)
        for mine, theirs in zip(
            [state.user_vec, state.item_table, *state.weights, *state.biases],
            [reference.user_vec, reference.item_table, *reference.weights, *reference.biases],
        ):
            np.testing.assert_allclose(mine, theirs, rtol=1e-12, atol=0)


def assert_same_parameters(state, reference):
    assert np.array_equal(state.user_vec, reference.user_vec)
    assert np.array_equal(state.item_table, reference.item_table)
    for mine, theirs in zip(state.weights + state.biases, reference.weights + reference.biases):
        assert np.array_equal(mine, theirs)


def one_batch_each(items, labels):
    """Batches of one step per client: client c's is items[c], labels[c]."""
    count, batch = items.shape
    sizes = np.full(count, batch)
    return mdl.Batches(items.ravel(), labels.ravel(), np.arange(count) * batch, sizes)


def test_cohort_step_matches_reference_bit_for_bit():
    # 30 clients with batches of 40 items drawn from 12, so rows repeat: 1200
    # example rows, more than one chunk holds, and `_train` runs the step in
    # chunks. Hidden unit 0 of the first layer has zero weights and bias, so
    # its pre-activation is exactly 0.0. The clip sits at the median
    # first-step norm: it fires for some clients and not for others.
    config = ModelConfig(embed_dim=6, mlp_hidden=(8, 4), init_scale=0.3)
    count, batch = 30, 40
    assert count * batch > mdl.COHORT_ROWS >= batch
    assert count > mdl.clients_per_chunk(batch) > 1
    store = init_store(config, 12, count, seed=41)
    store.weights[0][:, :, 0] = 0.0
    references = [clone_state(client) for client in store]
    rng = np.random.default_rng(43)
    items = rng.integers(0, 12, size=(count, batch))
    labels = rng.integers(0, 2, size=(count, batch)).astype(np.float64)
    probes = [clone_state(client) for client in store]
    first_norms = [reference_sgd_step(p, items[c], labels[c], 0.2, 0.0)[1] for c, p in enumerate(probes)]
    clip_norm = float(np.median(first_norms))
    step_config = replace(config, learning_rate=0.2, clip_norm=clip_norm)
    clipped = set()
    for _ in range(5):
        reports = mdl._train(store, one_batch_each(items, labels), step_config, range(count))
        for c, report in enumerate(reports):
            reference_store, reference_rows = as_cohort(references[c])
            pres = mdl._cohort_forward(*reference_store.gather(reference_rows, items[c][None]))[1]
            assert np.any(pres[0] == 0.0)
            loss, norm = reference_sgd_step(references[c], items[c], labels[c], 0.2, clip_norm)
            assert (report.mean_loss, report.grad_norm) == (loss / batch, norm)
            if norm == clip_norm:
                clipped.add(c)
        for client, reference in zip(store, references):
            assert_same_parameters(client, reference)
        items = rng.integers(0, 12, size=(count, batch))
        labels = rng.integers(0, 2, size=(count, batch)).astype(np.float64)
    assert 0 < len(clipped) < count


@pytest.mark.parametrize("rows", [[0, 2, 5], [1, 2, 3]])
@pytest.mark.parametrize("drawn", [12, 2])
@pytest.mark.parametrize("clip_norm", [0.0, 0.05])
def test_chunk_step_matches_reference_bit_for_bit(rows, drawn, clip_norm):
    # One stacked step of three of six clients, against the reference step
    # client by client: rows [0, 2, 5] are copied and written back, rows
    # [1, 2, 3] are updated in place. Batches of 40 items drawn from 12, or
    # from 2, so that almost every row repeats. The other clients keep their
    # bytes.
    config = ModelConfig(embed_dim=6, mlp_hidden=(8, 4), init_scale=0.3)
    store = init_store(config, 12, 6, seed=17)
    references = [clone_state(client) for client in store]
    rows = np.asarray(rows)
    rng = np.random.default_rng(18)
    clipped = 0
    for _ in range(10):
        items = rng.choice(rng.permutation(12)[:drawn], size=(rows.size, 40))
        labels = rng.integers(0, 2, size=(rows.size, 40)).astype(np.float64)
        assert all(np.unique(batch).size < batch.size for batch in items)
        loss, norm = mdl._cohort_step(store, rows, items, labels, 0.2, clip_norm)
        for c, u in enumerate(rows):
            want = reference_sgd_step(references[u], items[c], labels[c], 0.2, clip_norm)
            assert (float(loss[c]), float(norm[c])) == want
            clipped += want[1] == clip_norm
        for client, reference in zip(store, references):
            assert_same_parameters(client, reference)
    assert (clipped > 0) == (clip_norm > 0)


def test_gather_views_a_consecutive_run_and_copies_other_rows():
    config = ModelConfig(embed_dim=4, mlp_hidden=(6,))
    store = init_store(config, 10, 6, seed=3)
    stacks = [store.user_vecs, *store.weights, *store.biases]
    for rows, views in (([2, 3, 4], True), ([5], True), ([0, 2, 5], False), ([4, 3, 2], False), ([3, 3], False)):
        rows = np.asarray(rows)
        items = np.arange(rows.size * 4).reshape(rows.size, 4) % 10
        user_vecs, item_rows, weights, biases = store.gather(rows, items)
        for got, stack in zip([user_vecs, *weights, *biases], stacks):
            assert np.shares_memory(got, stack) == views
            assert np.array_equal(got, stack[rows])
        assert not np.shares_memory(item_rows, store.item_tables)
        assert np.array_equal(item_rows, store.item_tables[rows[:, None], items])


def test_clients_per_chunk_rule():
    # At least COHORT_CLIENTS clients, within COHORT_ROWS to COHORT_MAX_ROWS
    # rows, and one client alone above the ceiling. Batches of 256 rows (the
    # ML-100K shape) keep chunks of 8 clients; small batches fill 1024 rows.
    assert mdl.clients_per_chunk(256) == 8
    assert mdl.clients_per_chunk(128) == 8
    assert mdl.clients_per_chunk(100) == mdl.COHORT_ROWS // 100 == 10
    assert mdl.clients_per_chunk(512) == 4
    assert mdl.clients_per_chunk(40) == mdl.COHORT_ROWS // 40 == 25
    assert mdl.clients_per_chunk(51) == mdl.COHORT_ROWS // 51 == 20
    assert mdl.clients_per_chunk(64) == 16
    assert mdl.clients_per_chunk(1) == mdl.COHORT_ROWS
    assert mdl.clients_per_chunk(mdl.COHORT_MAX_ROWS) == 1
    assert mdl.clients_per_chunk(10 * mdl.COHORT_MAX_ROWS) == 1


def test_cohort_step_writes_only_the_batch_rows():
    # The first 20 of 24 clients step on 100 items drawn from 200 with
    # replacement: more clients than one chunk takes, so `_train` runs them in
    # chunks. Every other item row and the last four clients, which have no
    # batch, keep their bytes. A batch row moves unless no hidden unit was
    # active for it, which leaves its gradient zero.
    config = ModelConfig(embed_dim=4, mlp_hidden=(6,), learning_rate=0.1, init_scale=0.3)
    count, num_items, batch = 24, 200, 100
    store = init_store(config, num_items, count, seed=8)
    rng = np.random.default_rng(9)
    rows = np.arange(20)
    assert rows.size > mdl.clients_per_chunk(batch) > 1
    items = rng.integers(0, num_items, size=(rows.size, batch))
    labels = rng.integers(0, 2, size=(rows.size, batch)).astype(np.float64)
    before = [a.copy() for a in (store.user_vecs, store.item_tables, *store.weights, *store.biases)]
    mdl._train(store, one_batch_each(items, labels), config, rows)
    in_batch = np.zeros((count, num_items), dtype=bool)
    in_batch[rows[:, None], items] = True
    changed = (store.item_tables != before[1]).any(axis=2)
    assert not (changed & ~in_batch).any()
    assert changed.sum() > 0.95 * in_batch.sum()
    outside = ~in_batch
    assert store.item_tables[outside].tobytes() == before[1][outside].tobytes()
    idle = np.setdiff1d(np.arange(count), rows)
    for now, then in zip((store.user_vecs, *store.weights, *store.biases), before[:1] + before[2:]):
        assert now[idle].tobytes() == then[idle].tobytes()


def ragged_dataset(sizes, num_items=40, seed=3):
    """Users with the given train sizes; held-out items are the last two."""
    rng = np.random.default_rng(seed)
    train_sets = [set(rng.choice(num_items - 2, size=size, replace=False).tolist()) for size in sizes]
    ds = dataset_from_train_sets(train_sets, num_items)
    ds.validation = [num_items - 2] * len(sizes)
    ds.test = [num_items - 1] * len(sizes)
    return ds


@pytest.mark.parametrize("clip_norm", [0.0, 0.5])
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


def test_cohort_drawn_batches_equal_per_client_reference(monkeypatch):
    # Ragged train sizes, 2 epochs and batch size 16, which divides the 80
    # examples of the 16-item user and none of the others: every client's
    # flat stream, and every batch `_train` hands the step, must equal the
    # per-client draws byte for byte, in step order.
    sizes = [3, 7, 4, 9, 3, 12, 5, 16, 6, 4, 10, 2]
    ds = ragged_dataset(sizes)
    config = ModelConfig(
        embed_dim=4, mlp_hidden=(4,), learning_rate=0.05, batch_size=16,
        local_epochs=2, neg_ratio=4,
    )
    users = range(len(sizes))
    references = [reference_local_batches(ds, u, config, derive_rng(9, u, 1, TRAIN_SALT)) for u in users]
    batches = mdl.draw_batches(ds, users, config, (derive_rng(9, u, 1, TRAIN_SALT) for u in users))
    assert batches.sizes.tolist() == [5 * size for size in sizes]
    for u, reference in enumerate(references):
        span = slice(batches.starts[u], batches.starts[u] + 2 * batches.sizes[u])
        for got, want in ((batches.items, 0), (batches.labels, 1)):
            want = np.concatenate([batch[want] for batch in reference])
            assert got[span].dtype == want.dtype
            assert got[span].tobytes() == want.tobytes()

    seen = [[] for _ in users]
    step = mdl._cohort_step

    def recording_step(store, rows, items, labels, *args):
        for c, u in enumerate(rows):
            seen[u].append((items[c].copy(), labels[c].copy()))
        return step(store, rows, items, labels, *args)

    monkeypatch.setattr(mdl, "_cohort_step", recording_step)
    store = init_store(config, ds.num_items, len(sizes), seed=9)
    train_clients(store, ds, config, (derive_rng(9, u, 1, TRAIN_SALT) for u in users))
    assert len({len(reference) for reference in references}) > 1
    for got, want in zip(seen, references):
        assert len(got) == len(want)
        for (items, labels), (want_items, want_labels) in zip(got, want):
            assert (items.dtype, labels.dtype) == (want_items.dtype, want_labels.dtype)
            assert items.tobytes() == want_items.tobytes()
            assert labels.tobytes() == want_labels.tobytes()


def test_training_and_ranking_are_chunk_invariant(monkeypatch):
    # 44 users with 22-37 training items and batch size 128 over 2 epochs:
    # steps of 128 rows in chunks of 8 clients, plus ragged last batches,
    # and ranking chunks of 20 clients. Negatives are drawn with replacement,
    # so batches repeat items, and the clients of one chunk share items. One
    # client per chunk, the default rule and one chunk of every client must
    # agree to the bit.
    sizes = [22 + (7 * u) % 16 for u in range(44)]
    ds = ragged_dataset(sizes, num_items=60)
    config = ModelConfig(
        embed_dim=5, mlp_hidden=(6, 3), learning_rate=0.1, batch_size=128,
        local_epochs=2, neg_ratio=4, init_scale=0.3, clip_norm=40.0,
    )
    rng = np.random.default_rng(12)
    negatives = np.stack([rng.permutation(58)[:49] for _ in sizes])
    tiers = tiers_from_mask([u % 3 == 0 for u in range(len(sizes))])

    batches = [reference_local_batches(ds, u, config, derive_rng(13, u, 1, TRAIN_SALT)) for u in range(len(sizes))]
    full = [u for u in range(len(sizes)) if batches[u][0][0].size == 128]
    per = mdl.clients_per_chunk(128)
    assert len(full) > per > 1
    assert set(batches[full[0]][0][0].tolist()) & set(batches[full[1]][0][0].tolist())
    assert any(np.unique(b[0]).size < b[0].size for u in full for b in batches[u])
    assert len({b[0].size for u in full for b in batches[u]}) > 2
    assert len(sizes) > mdl.clients_per_chunk(negatives.shape[1] + 2) > 1

    results = []
    for constants in ((1, 1, 1), (mdl.COHORT_ROWS, mdl.COHORT_CLIENTS, mdl.COHORT_MAX_ROWS), (10**9,) * 3):
        for name, value in zip(("COHORT_ROWS", "COHORT_CLIENTS", "COHORT_MAX_ROWS"), constants):
            monkeypatch.setattr(mdl, name, value)
        store = init_store(config, ds.num_items, len(sizes), seed=13)
        rngs = (derive_rng(13, u, 1, TRAIN_SALT) for u in range(len(sizes)))
        reports = train_clients(store, ds, config, rngs)
        metrics = evaluate_round(store, ds, negatives, tiers, k=10)
        arrays = [store.user_vecs, store.item_tables, *store.weights, *store.biases]
        ranks = (metrics.per_user_rank, metrics.validation.per_user_rank)
        results.append((b"".join(a.tobytes() for a in arrays), reports, *(r.tobytes() for r in ranks)))
    assert mdl.clients_per_chunk(128) >= len(sizes)
    assert results[0] == results[1] == results[2]
    assert any(report.grad_norm == 40.0 for report in results[0][1])
    assert any(report.grad_norm < 40.0 for report in results[0][1])


def test_cohort_training_error_names_lowest_user_at_its_first_step():
    # User 1 diverges at its third step and user 3 at its first: a loop over
    # users stops at user 1's third step, and cohort training says the same.
    sizes = [8, 8, 8, 8, 8]
    ds = ragged_dataset(sizes)
    config = ModelConfig(embed_dim=4, mlp_hidden=(4,), learning_rate=0.05, batch_size=8)
    store = init_store(config, ds.num_items, len(sizes), seed=5)
    rngs = [derive_rng(5, u, 1, TRAIN_SALT) for u in range(len(sizes))]
    batches = [reference_local_batches(ds, u, config, derive_rng(5, u, 1, TRAIN_SALT)) for u in range(len(sizes))]

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
