"""Round-loop tests: aggregation order, ablations, noise, the table store, privacy."""

import tracemalloc

import numpy as np
import pytest

from fedgraphrec import federation
from fedgraphrec import model as mdl
from fedgraphrec.evaluation import evaluate_round
from fedgraphrec.federation import (
    FederationConfig,
    add_ldp_noise,
    distribute,
    run_federation,
)
from fedgraphrec.graph import ServerState, build_user_graph, normalize, propagate, server_update
from fedgraphrec.model import ModelConfig, TrainingError, train_clients
from fedgraphrec.seeding import LDP_SALT, TRAIN_SALT, derive_rng
from oracles import dataset_from_train_sets, init_store, tiers_from_mask


def small_model(**overrides):
    base = dict(
        embed_dim=3, mlp_hidden=(4,), learning_rate=0.05,
        neg_ratio=1, batch_size=8, init_scale=0.05,
    )
    base.update(overrides)
    return ModelConfig(**base)


def small_world(n=6, m=14, mask=None):
    """Six users with overlapping small train sets and a roomy negative pool."""
    train_sets = [
        {0, 1, 2}, {1, 2, 3}, {2, 3, 4}, {5, 6}, {6, 7}, {8},
    ][:n]
    ds = dataset_from_train_sets(train_sets, m)
    ds.validation = [m - 2] * n
    ds.test = [m - 1] * n
    if mask is None:
        mask = [True, True, True, False, False, True][:n]
    return ds, tiers_from_mask(mask)


def init_tables(config, ds):
    """Recompute every client's initial item table the way the loop does."""
    return init_store(config.model, ds.num_items, ds.num_users, config.seed).item_tables


# --- distribute -----------------------------------------------------------------


def random_server(rng, n=5, m=4, d=2):
    propagated = rng.normal(size=(n, m, d))
    return ServerState(propagated=propagated, global_table=propagated.mean(axis=0))


def test_distribute_without_personalization_broadcasts_global():
    rng = np.random.default_rng(61)
    server = random_server(rng)
    tiers = tiers_from_mask([True, False, True, False, True])
    tables = distribute(server, tiers, 0.3, disable_upie=True)
    assert tables is server.propagated
    for u in range(5):
        np.testing.assert_array_equal(tables[u], server.global_table)


def test_distribute_blends_by_tier():
    rng = np.random.default_rng(62)
    server = random_server(rng)
    tiers = tiers_from_mask([True, False, True, False, True])
    own = server.propagated.copy()
    tables = distribute(server, tiers, 1.0)
    assert tables is server.propagated
    for u in range(5):
        if tiers.is_public[u]:
            np.testing.assert_array_equal(tables[u], own[u])
        else:
            np.testing.assert_array_equal(tables[u], server.global_table)


# --- round loop: aggregation oracle ----------------------------------------------


def test_all_private_round_is_plain_averaging():
    # with no sharing users the served table must be the mean of the uploads,
    # and a zero learning rate freezes the system at that average
    ds, _ = small_world()
    tiers = tiers_from_mask([False] * 6)
    config = FederationConfig(rounds=2, alpha=0.3, model=small_model(learning_rate=0.0), seed=4)
    inits = init_tables(config, ds)
    run = run_federation(ds, tiers, config, eval_hook=_capture(clients_out := []))
    expected = inits.mean(axis=0)
    for client in clients_out[-1]:
        np.testing.assert_allclose(client.item_table, expected, atol=1e-12)
    assert [r.round_index for r in run] == [1, 2]


def _capture(sink):
    def hook(round_index, clients):
        sink.append(clients)
        return None

    return hook


def test_first_round_serves_blend_of_initial_tables():
    # zero learning rate: after round 1 each client holds exactly what the
    # server pipeline produces from the initial tables
    ds, tiers = small_world()
    config = FederationConfig(rounds=1, alpha=0.4, model=small_model(learning_rate=0.0), seed=9)
    inits = init_tables(config, ds)

    graph = normalize(build_user_graph(ds, tiers))
    expected = distribute(server_update(graph, inits, tiers, layers=1), tiers, 0.4)

    sink = []
    run_federation(ds, tiers, config, eval_hook=_capture(sink))
    for u, client in enumerate(sink[-1]):
        np.testing.assert_array_equal(client.item_table, expected[u])


def test_smoothing_ablation_blends_raw_uploads():
    ds, tiers = small_world()
    config = FederationConfig(
        rounds=1, alpha=0.4, disable_ugc=True, model=small_model(learning_rate=0.0), seed=9
    )
    inits = init_tables(config, ds)
    expected = distribute(server_update(None, inits, tiers), tiers, 0.4)
    sink = []
    run_federation(ds, tiers, config, eval_hook=_capture(sink))
    for u, client in enumerate(sink[-1]):
        np.testing.assert_array_equal(client.item_table, expected[u])


def test_distribution_ablation_leaves_tables_local():
    ds, tiers = small_world()
    config = FederationConfig(
        rounds=2, disable_iei=True, model=small_model(learning_rate=0.0), seed=9
    )
    inits = init_tables(config, ds)
    sink = []
    run_federation(ds, tiers, config, eval_hook=_capture(sink))
    for u, client in enumerate(sink[-1]):
        np.testing.assert_array_equal(client.item_table, inits[u])


def test_personalization_ablation_serves_identical_tables():
    # Every client holds the mean of the smoothed initial tables.
    ds, tiers = small_world()
    config = FederationConfig(
        rounds=1, disable_upie=True, model=small_model(learning_rate=0.0), seed=9
    )
    inits = init_tables(config, ds)
    expected = propagate(normalize(build_user_graph(ds, tiers)), inits).mean(axis=0)
    sink = []
    run_federation(ds, tiers, config, eval_hook=_capture(sink))
    for client in sink[-1]:
        np.testing.assert_array_equal(client.item_table, expected)


def test_global_from_public_only_variant():
    ds, tiers = small_world()
    config = FederationConfig(
        rounds=1, alpha=0.0, global_from_public_only=True,
        model=small_model(learning_rate=0.0), seed=9,
    )
    inits = init_tables(config, ds)
    graph = normalize(build_user_graph(ds, tiers))
    server = server_update(graph, inits, tiers, layers=1, global_from_public_only=True)
    sink = []
    run_federation(ds, tiers, config, eval_hook=_capture(sink))
    # alpha 0 serves the global table to everyone; here it averages only
    # sharing users' smoothed tables
    for client in sink[-1]:
        np.testing.assert_array_equal(client.item_table, server.global_table)


# --- determinism and bookkeeping --------------------------------------------------


def test_run_is_deterministic():
    ds, tiers = small_world()
    runs = []
    finals = []
    for _ in range(2):
        config = FederationConfig(rounds=3, alpha=0.3, model=small_model(), seed=11)
        sink = []
        records = run_federation(ds, tiers, config, eval_hook=_capture(sink))
        runs.append([r.mean_train_loss for r in records])
        finals.append(sink[-1])
    assert runs[0] == runs[1]
    for a, b in zip(finals[0], finals[1]):
        np.testing.assert_array_equal(a.item_table, b.item_table)
        np.testing.assert_array_equal(a.user_vec, b.user_vec)
        for Wa, Wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(Wa, Wb)


def test_records_shape_and_hook_wiring():
    ds, tiers = small_world()
    config = FederationConfig(rounds=3, model=small_model(), seed=2)
    seen = []

    def hook(round_index, clients):
        seen.append(round_index)
        return "metrics" if round_index == 2 else None

    records = run_federation(ds, tiers, config, eval_hook=hook)
    assert seen == [1, 2, 3]
    assert [r.round_index for r in records] == [1, 2, 3]
    assert [r.metrics for r in records] == [None, "metrics", None]
    assert all(r.wall_time >= 0.0 for r in records)
    assert all(np.isfinite(r.mean_train_loss) for r in records)


def test_seed_changes_trajectory():
    ds, tiers = small_world()
    losses = []
    for seed in (1, 2):
        config = FederationConfig(rounds=2, model=small_model(), seed=seed)
        records = run_federation(ds, tiers, config)
        losses.append([r.mean_train_loss for r in records])
    assert losses[0] != losses[1]


# --- upload noise ------------------------------------------------------------------


def test_ldp_zero_scale_is_identity():
    table = np.ones((3, 2))
    rng = derive_rng(0, 404)
    assert add_ldp_noise(table, 0.0, rng) is table
    with pytest.raises(ValueError, match="scale"):
        add_ldp_noise(table, -0.1, rng)


def test_ldp_noise_moments():
    rng = derive_rng(123, 404)
    scale = 0.5
    noise = add_ldp_noise(np.zeros((1000, 1000)), scale, rng)
    n = noise.size
    # Laplace(0, b): std = b * sqrt(2), variance = 2 b^2
    std = scale * np.sqrt(2.0)
    assert abs(noise.mean()) < 3.0 * std / np.sqrt(n)
    assert abs(noise.var() - 2.0 * scale**2) / (2.0 * scale**2) < 0.02


def test_ldp_noise_deterministic_per_seed():
    a = add_ldp_noise(np.zeros((4, 3)), 0.7, derive_rng(5, 1, 404))
    b = add_ldp_noise(np.zeros((4, 3)), 0.7, derive_rng(5, 1, 404))
    np.testing.assert_array_equal(a, b)
    c = add_ldp_noise(np.zeros((4, 3)), 0.7, derive_rng(5, 2, 404))
    assert (a != c).any()


def test_ldp_noise_perturbs_the_run():
    ds, tiers = small_world()
    finals = []
    for scale in (0.0, 0.5):
        config = FederationConfig(rounds=2, ldp_scale=scale, model=small_model(), seed=3)
        sink = []
        run_federation(ds, tiers, config, eval_hook=_capture(sink))
        finals.append(np.stack([c.item_table for c in sink[-1]]))
    assert (finals[0] != finals[1]).any()


def test_ldp_generators_derived_only_with_noise(monkeypatch):
    ds, tiers = small_world()
    derived = []

    def recording(*key):
        derived.append(key)
        return derive_rng(*key)

    monkeypatch.setattr(federation, "derive_rng", recording)
    for scale in (0.0, 0.5):
        derived.clear()
        config = FederationConfig(rounds=2, ldp_scale=scale, model=small_model(), seed=3)
        run_federation(ds, tiers, config)
        ldp_keys = [key for key in derived if key[-1] == LDP_SALT]
        # Round 2's server step noises what round 1 trained; nothing reads the
        # final round's tables, so they draw no noise.
        expected = [(3, u, 1, LDP_SALT) for u in range(6)] if scale else []
        assert ldp_keys == expected


def test_evaluation_reads_clean_tables():
    # Noise is added at the next server step, so round 1's loss and metrics
    # match a run without noise exactly.
    ds, tiers = small_world()
    negatives = np.tile(np.arange(9, 12), (ds.num_users, 1))
    firsts = []
    for scale in (0.0, 0.5):
        config = FederationConfig(rounds=2, ldp_scale=scale, model=small_model(), seed=3)
        tables = []

        def hook(round_index, clients):
            tables.append(np.stack([c.item_table for c in clients]))
            return evaluate_round(clients, ds, negatives, tiers, k=2)

        records = run_federation(ds, tiers, config, eval_hook=hook)
        firsts.append((records[0], tables[0]))
    (clean, clean_tables), (noisy, noisy_tables) = firsts
    assert noisy.mean_train_loss == clean.mean_train_loss
    assert (noisy.metrics.hr, noisy.metrics.ndcg) == (clean.metrics.hr, clean.metrics.ndcg)
    np.testing.assert_array_equal(noisy.metrics.per_user_rank, clean.metrics.per_user_rank)
    np.testing.assert_array_equal(noisy_tables, clean_tables)


# --- the table store ----------------------------------------------------------------


def test_clients_share_one_store():
    ds, tiers = small_world()
    config = FederationConfig(rounds=2, model=small_model(), seed=6)
    sink = []
    run_federation(ds, tiers, config, eval_hook=_capture(sink))
    tables = [client.item_table for client in sink[-1]]
    base = tables[0].base
    assert base is not None and base.shape == (6, ds.num_items, 3)
    assert all(table.base is base for table in tables)


@pytest.mark.parametrize("share_every", [2, 1])
def test_run_keeps_one_table_store(share_every):
    # The server smooths and blends the store in place: one (n, m, d) float64
    # array, plus slabs and single tables, with identity rows in the graph
    # and without.
    n, m, d = 40, 4000, 8
    rng = np.random.default_rng(12)
    train_sets = [set(rng.choice(60, size=5, replace=False).tolist()) for _ in range(n)]
    ds = dataset_from_train_sets(train_sets, m)
    ds.validation = [m - 2] * n
    ds.test = [m - 1] * n
    tiers = tiers_from_mask([u % share_every == 0 for u in range(n)])
    config = FederationConfig(rounds=2, ldp_scale=0.1, model=small_model(embed_dim=d), seed=1)
    tracemalloc.start()
    try:
        run_federation(ds, tiers, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    table_bytes = n * m * d * 8
    assert peak < 1.5 * table_bytes, f"peak {peak} bytes for {table_bytes}-byte tables"


def test_round_memory_is_bounded_by_the_row_cap():
    # 300 clients with 100-example batches and 51 ranking candidates each.
    # Uncapped, one cohort's hidden layer alone would take 300 * 100 * 32 * 8
    # bytes = 7.7 MB; capped, a round of training plus evaluation allocates a
    # few (COHORT_ROWS, width) temporaries beyond the drawn batches.
    n, m, d, hidden = 300, 80, 8, 32
    rng = np.random.default_rng(5)
    train_sets = [set(rng.choice(m - 2, size=20, replace=False).tolist()) for _ in range(n)]
    ds = dataset_from_train_sets(train_sets, m)
    ds.validation = [m - 2] * n
    ds.test = [m - 1] * n
    tiers = tiers_from_mask([u % 2 == 0 for u in range(n)])
    negatives = np.stack([np.setdiff1d(np.arange(m - 2), sorted(s))[:49] for s in train_sets])
    config = ModelConfig(embed_dim=d, mlp_hidden=(hidden,), learning_rate=0.05)
    store = init_store(config, m, n, seed=1)
    tracemalloc.start()
    try:
        train_clients(store, ds, config, (derive_rng(1, u, 1, TRAIN_SALT) for u in range(n)))
        evaluate_round(store, ds, negatives, tiers, k=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    batch_bytes = n * 5 * 20 * (8 + 8)
    budget = 2 * batch_bytes + 16 * mdl.COHORT_ROWS * max(2 * d, hidden) * 8
    assert peak < budget, f"peak {peak} bytes over the {budget}-byte budget"


# --- privacy boundary ---------------------------------------------------------------


def test_server_reads_training_items_of_sharing_users_only():
    ds, tiers = small_world()
    calls = []
    original = ds.train_items
    ds.train_items = lambda u: (calls.append(u), original(u))[1]
    config = FederationConfig(rounds=2, model=small_model(), seed=8)
    run_federation(ds, tiers, config)
    # One graph build for the whole run: each sharing user is read once.
    assert sorted(calls) == np.flatnonzero(tiers.is_public).tolist()


# --- failure wrapping ----------------------------------------------------------------


def test_training_failure_carries_round_context():
    ds, tiers = small_world()
    ds.train[2] = np.asarray([], dtype=np.int64)  # user 2 has nothing to train on
    config = FederationConfig(rounds=1, model=small_model(), seed=8)
    with pytest.raises(TrainingError, match=r"round 1.*user 2"):
        run_federation(ds, tiers, config)


def test_config_validation():
    with pytest.raises(ValueError, match="rounds"):
        FederationConfig(rounds=0).validate()
    with pytest.raises(ValueError, match="alpha"):
        FederationConfig(alpha=1.5).validate()
    with pytest.raises(ValueError, match="gcn_layers"):
        FederationConfig(gcn_layers=0).validate()
    with pytest.raises(ValueError, match="ldp_scale"):
        FederationConfig(ldp_scale=-0.5).validate()


def test_tier_count_mismatch():
    ds, _ = small_world()
    with pytest.raises(ValueError, match="users"):
        run_federation(ds, tiers_from_mask([True]), FederationConfig(model=small_model()))
