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
    private_init_sum,
    run_federation,
)
from fedgraphrec.graph import ServerState, build_user_graph, normalize, propagate, server_update
from fedgraphrec.model import ModelConfig, TrainingError, train_clients
from fedgraphrec.seeding import LDP_SALT, PRIVATE_SUM_SALT, TRAIN_SALT, derive_rng, derive_rngs
from oracles import dataset_from_train_sets, init_store, tiers_from_mask


def small_config(**overrides):
    base = dict(
        embed_dim=3, mlp_hidden=(4,), learning_rate=0.05,
        neg_ratio=1, batch_size=8, init_scale=0.05,
    )
    base.update(overrides)
    return FederationConfig(**base)


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
    """Every client's full initial item table, as init_client draws it; the
    loop draws only the sharing clients' (and every client's under
    disable_iei)."""
    return init_store(config, ds.num_items, ds.num_users, config.seed).item_tables


def drawn_private_sum(config, ds, tiers):
    """The server's one draw of the non-sharing users' initial table sum."""
    num_private = int((~tiers.is_public).sum())
    rng = derive_rng(config.seed, PRIVATE_SUM_SALT)
    scale = config.init_scale * np.sqrt(num_private)
    return rng.standard_normal((ds.num_items, config.embed_dim)) * scale


def first_global(config, ds, tiers, smoothed):
    """Round 1's global table: the sharing users' smoothed initial tables
    added in user order, plus the drawn private sum, over n."""
    total = np.zeros(smoothed.shape[1:])
    for u in np.flatnonzero(tiers.is_public):
        total += smoothed[u]
    total += drawn_private_sum(config, ds, tiers)
    return total / ds.num_users


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
    # With no sharing users round 1 serves the drawn private sum over n, the
    # mean of the tables it stands for, and a zero learning rate freezes the
    # system at that average.
    ds, _ = small_world()
    tiers = tiers_from_mask([False] * 6)
    config = small_config(rounds=2, alpha=0.3, learning_rate=0.0, seed=4)
    served = []
    run = run_federation(
        ds, tiers, config, eval_hook=lambda r, clients: served.append(clients.item_tables.copy())
    )
    expected = drawn_private_sum(config, ds, tiers) / 6
    for table in served[0]:
        np.testing.assert_array_equal(table, expected)
    for table in served[-1]:
        np.testing.assert_allclose(table, expected, atol=1e-12)
    assert [r.round_index for r in run] == [1, 2]


def _capture(sink):
    def hook(round_index, clients):
        sink.append(clients)
        return None

    return hook


def test_first_round_serves_blend_of_initial_tables():
    # zero learning rate: after round 1 each client holds exactly what the
    # server pipeline produces from the sharing users' initial tables and
    # the drawn private sum
    ds, tiers = small_world()
    config = small_config(rounds=1, alpha=0.4, learning_rate=0.0, seed=9)
    smoothed = propagate(normalize(build_user_graph(ds, tiers)), init_tables(config, ds))
    server = ServerState(smoothed, first_global(config, ds, tiers, smoothed))
    expected = distribute(server, tiers, 0.4)

    sink = []
    run_federation(ds, tiers, config, eval_hook=_capture(sink))
    for u, client in enumerate(sink[-1]):
        np.testing.assert_array_equal(client.item_table, expected[u])


def test_smoothing_ablation_blends_raw_uploads():
    ds, tiers = small_world()
    config = small_config(rounds=1, alpha=0.4, disable_ugc=True, learning_rate=0.0, seed=9)
    inits = init_tables(config, ds)
    expected = distribute(ServerState(inits, first_global(config, ds, tiers, inits)), tiers, 0.4)
    sink = []
    run_federation(ds, tiers, config, eval_hook=_capture(sink))
    for u, client in enumerate(sink[-1]):
        np.testing.assert_array_equal(client.item_table, expected[u])


def test_distribution_ablation_leaves_tables_local():
    ds, tiers = small_world()
    config = small_config(rounds=2, disable_iei=True, learning_rate=0.0, seed=9)
    inits = init_tables(config, ds)
    sink = []
    run_federation(ds, tiers, config, eval_hook=_capture(sink))
    for u, client in enumerate(sink[-1]):
        np.testing.assert_array_equal(client.item_table, inits[u])


def test_personalization_ablation_serves_identical_tables():
    # Every client holds round 1's global table.
    ds, tiers = small_world()
    config = small_config(rounds=1, disable_upie=True, learning_rate=0.0, seed=9)
    smoothed = propagate(normalize(build_user_graph(ds, tiers)), init_tables(config, ds))
    expected = first_global(config, ds, tiers, smoothed)
    sink = []
    run_federation(ds, tiers, config, eval_hook=_capture(sink))
    for client in sink[-1]:
        np.testing.assert_array_equal(client.item_table, expected)


def test_global_from_public_only_variant():
    ds, tiers = small_world()
    config = small_config(
        rounds=1, alpha=0.0, global_from_public_only=True, learning_rate=0.0, seed=9
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


# --- initial draws ----------------------------------------------------------------


def _store_at_first(monkeypatch, name):
    """Copies of the run's store as it stands when federation.<name> is first
    called: (user vectors, item tables, weights, biases)."""
    stores, snapshots = [], []
    empty = mdl.ClientStore.empty

    def recording_empty(*args):
        stores.append(empty(*args))
        return stores[-1]

    monkeypatch.setattr(mdl.ClientStore, "empty", staticmethod(recording_empty))
    inner = getattr(federation, name)

    def snapshot(*args, **kwargs):
        if not snapshots:
            store = stores[-1]
            snapshots.append((
                store.user_vecs.copy(),
                store.item_tables.copy(),
                [W.copy() for W in store.weights],
                [b.copy() for b in store.biases],
            ))
        return inner(*args, **kwargs)

    monkeypatch.setattr(federation, name, snapshot)
    return snapshots


def _run_outputs(ds, tiers, config):
    """Each round's loss and metrics, and the final store's arrays."""
    negatives = np.tile(np.arange(9, 12), (ds.num_users, 1))
    sink = []

    def hook(round_index, clients):
        sink.append(clients)
        return evaluate_round(clients, ds, negatives, tiers, k=2)

    records = run_federation(ds, tiers, config, eval_hook=hook)
    store = sink[-1]
    rounds = [
        (r.mean_train_loss, r.metrics.hr, r.metrics.ndcg, r.metrics.per_user_rank.tolist())
        for r in records
    ]
    return rounds, [store.user_vecs, store.item_tables, *store.weights, *store.biases]


@pytest.mark.parametrize("switch", [
    {}, {"disable_ugc": True}, {"disable_upie": True}, {"disable_iei": True},
    {"global_from_public_only": True}, {"gcn_layers": 2}, {"share": False},
])
def test_private_rows_are_not_read_before_round_one_installs(monkeypatch, switch):
    # NaN in every unwritten item row: a read before round 1's install
    # would reach the losses, the metrics or the final store.
    switch = dict(switch)
    mask = None if switch.pop("share", True) else [False] * 6
    ds, tiers = small_world(mask=mask)
    config = small_config(rounds=2, ldp_scale=0.1, seed=5, **switch)
    clean = _run_outputs(ds, tiers, config)
    empty = mdl.ClientStore.empty

    def nan_empty(n, num_items, model_config):
        store = empty(n, num_items, model_config)
        store.item_tables.fill(np.nan)
        return store

    monkeypatch.setattr(mdl.ClientStore, "empty", staticmethod(nan_empty))
    rounds, arrays = _run_outputs(ds, tiers, config)
    assert rounds == clean[0]
    for got, want in zip(arrays, clean[1]):
        np.testing.assert_array_equal(got, want)


def test_private_sum_has_the_moments_of_a_sum_of_tables():
    # Over many seeds, N(0, s^2 * n_priv) entrywise: the mean and the
    # variance each lie within 5 standard errors.
    config = small_config(embed_dim=4, init_scale=0.05)
    num_private = 7
    draws = np.stack([private_init_sum(num_private, 50, config, seed) for seed in range(200)])
    variance = num_private * config.init_scale**2
    count = draws.size
    assert abs(draws.mean()) < 5.0 * np.sqrt(variance / count)
    assert abs(draws.var() - variance) < 5.0 * variance * np.sqrt(2.0 / count)
    np.testing.assert_array_equal(draws[3], private_init_sum(num_private, 50, config, 3))


def test_clients_start_from_init_client_draws(monkeypatch):
    # Sharing clients hold init_client's full state at the first server
    # step; non-sharing clients hold its user vector (their MLP draws
    # follow the user vector's, and they draw no item table).
    ds, tiers = small_world()
    config = small_config(rounds=1, seed=7)
    snapshots = _store_at_first(monkeypatch, "server_update")
    run_federation(ds, tiers, config)
    user_vecs, tables, weights, biases = snapshots[0]
    full = init_store(config, ds.num_items, ds.num_users, config.seed)
    for u in range(ds.num_users):
        np.testing.assert_array_equal(user_vecs[u], full.user_vecs[u])
        if tiers.is_public[u]:
            np.testing.assert_array_equal(tables[u], full.item_tables[u])
            for got, want in zip([*weights, *biases], [*full.weights, *full.biases]):
                np.testing.assert_array_equal(got[u], want[u])


@pytest.mark.parametrize(
    "disable_iei, first_call", [(True, "train_clients"), (False, "server_update")]
)
def test_full_draws_match_init_store(monkeypatch, disable_iei, first_call):
    # Under disable_iei, and with every user sharing, every client draws
    # exactly what init_store draws.
    ds, tiers = small_world(mask=None if disable_iei else [True] * 6)
    config = small_config(rounds=1, disable_iei=disable_iei, seed=7)
    snapshots = _store_at_first(monkeypatch, first_call)
    run_federation(ds, tiers, config)
    full = init_store(config, ds.num_items, ds.num_users, config.seed)
    user_vecs, tables, weights, biases = snapshots[0]
    np.testing.assert_array_equal(user_vecs, full.user_vecs)
    np.testing.assert_array_equal(tables, full.item_tables)
    for got, want in zip([*weights, *biases], [*full.weights, *full.biases]):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("mask", [None, [True] * 6, [False] * 6])
@pytest.mark.parametrize("disable_iei", [False, True])
def test_store_equals_per_client_init_from_tuple_seeds(monkeypatch, mask, disable_iei):
    # run_federation takes every client's init stream from one vectorized
    # hash; each client must hold what init_client(seed=(seed, u)) draws on
    # its own, with or without its item table.
    ds, tiers = small_world(mask=mask)
    config = small_config(rounds=1, disable_iei=disable_iei, seed=9)
    snapshots = _store_at_first(monkeypatch, "train_clients" if disable_iei else "server_update")
    run_federation(ds, tiers, config)
    user_vecs, tables, weights, biases = snapshots[0]
    for u in range(ds.num_users):
        draw_items = disable_iei or bool(tiers.is_public[u])
        row = mdl.ClientStore.empty(1, ds.num_items, config)[0]
        want = mdl.init_client(config, ds.num_items, None, seed=(config.seed, u),
                               out=row, draw_items=draw_items)
        np.testing.assert_array_equal(user_vecs[u], want.user_vec)
        for got, drawn in zip([*weights, *biases], [*want.weights, *want.biases], strict=True):
            np.testing.assert_array_equal(got[u], drawn)
        if draw_items:
            np.testing.assert_array_equal(tables[u], want.item_table)


# --- determinism and bookkeeping --------------------------------------------------


def test_run_is_deterministic():
    ds, tiers = small_world()
    runs = []
    finals = []
    for _ in range(2):
        config = small_config(rounds=3, alpha=0.3, seed=11)
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
    config = small_config(rounds=3, seed=2)
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
        config = small_config(rounds=2, seed=seed)
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


def test_ldp_noise_matches_numpy_laplace():
    # Same uniform stream and formula as Generator.laplace; only the log may
    # differ by an ulp.
    scale = 0.01
    noise = add_ldp_noise(np.zeros((1682, 32)), scale, derive_rng(1, 7, 2, LDP_SALT))
    expected = derive_rng(1, 7, 2, LDP_SALT).laplace(0.0, scale, size=(1682, 32))
    np.testing.assert_allclose(noise, expected, rtol=1e-15, atol=0)
    assert (np.signbit(noise) == np.signbit(expected)).all()


class _UniformStub:
    """A generator whose `random` serves fixed values first, then real draws."""

    def __init__(self, first):
        self.first = np.asarray(first, dtype=float)
        self.rng = derive_rng(0, 404)
        self.calls = []

    def random(self, size):
        self.calls.append(size)
        if len(self.calls) == 1:
            return self.first.reshape(size).copy()
        return self.rng.random(size)


def test_ldp_noise_redraws_exact_zeros():
    stub = _UniformStub([0.0, 0.25, 0.0, 0.75])
    noise = add_ldp_noise(np.zeros((2, 2)), 1.0, stub)
    assert np.isfinite(noise).all()
    assert stub.calls == [(2, 2), 2]
    assert noise[0, 1] == np.log(0.5) and noise[1, 1] == -np.log(0.5)


def test_ldp_noise_half_gives_positive_zero():
    noise = add_ldp_noise(np.zeros(3), 2.0, _UniformStub([0.5, 0.5, 0.5]))
    assert (noise == 0.0).all() and not np.signbit(noise).any()


def test_ldp_noise_leaves_the_table_alone():
    table = np.arange(12.0).reshape(4, 3)
    before = table.copy()
    noisy = add_ldp_noise(table, 0.3, derive_rng(5, 1, 404))
    np.testing.assert_array_equal(table, before)
    assert not np.shares_memory(noisy, table)
    assert (noisy != table).all()


@pytest.mark.parametrize("scale", [float("nan"), float("inf")])
def test_ldp_rejects_non_finite_scale(scale):
    with pytest.raises(ValueError, match="noise scale"):
        add_ldp_noise(np.zeros((2, 2)), scale, derive_rng(0, 404))


def test_ldp_noise_perturbs_the_run():
    ds, tiers = small_world()
    finals = []
    for scale in (0.0, 0.5):
        config = small_config(rounds=2, ldp_scale=scale, seed=3)
        sink = []
        run_federation(ds, tiers, config, eval_hook=_capture(sink))
        finals.append(np.stack([c.item_table for c in sink[-1]]))
    assert (finals[0] != finals[1]).any()


def record_derive_rngs(monkeypatch):
    """Patch `federation.derive_rngs` to record each call's coordinates, with
    users as given; returns the record."""
    derived = []

    def recording(seed, users, *rest):
        derived.append((seed, users, *rest))
        return derive_rngs(seed, users, *rest)

    monkeypatch.setattr(federation, "derive_rngs", recording)
    return derived


def test_ldp_generators_derived_only_with_noise(monkeypatch):
    ds, tiers = small_world()
    derived = record_derive_rngs(monkeypatch)
    for scale in (0.0, 0.5):
        derived.clear()
        config = small_config(rounds=2, ldp_scale=scale, seed=3)
        run_federation(ds, tiers, config)
        ldp_keys = [key for key in derived if key[-1] == LDP_SALT]
        # Round 2's server step noises what round 1 trained; nothing reads the
        # final round's tables, so they draw no noise.
        expected = [(3, range(6), 1, LDP_SALT)] if scale else []
        assert ldp_keys == expected


def test_training_generators_are_derived_per_round(monkeypatch):
    ds, tiers = small_world()
    derived = record_derive_rngs(monkeypatch)
    run_federation(ds, tiers, small_config(rounds=2, seed=3))
    train_keys = [key for key in derived if key[-1] == TRAIN_SALT]
    assert train_keys == [(3, range(6), 1, TRAIN_SALT), (3, range(6), 2, TRAIN_SALT)]


def test_evaluation_reads_clean_tables():
    # Noise is added at the next server step, so round 1's loss and metrics
    # match a run without noise exactly.
    ds, tiers = small_world()
    negatives = np.tile(np.arange(9, 12), (ds.num_users, 1))
    firsts = []
    for scale in (0.0, 0.5):
        config = small_config(rounds=2, ldp_scale=scale, seed=3)
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
    config = small_config(rounds=2, seed=6)
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
    config = small_config(rounds=2, ldp_scale=0.1, embed_dim=d, seed=1)
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
    # few (rows, width) temporaries beyond the drawn batches. The budget is
    # fixed at 512 rows, not read from COHORT_ROWS, so that a larger chunk
    # rule must still fit it: its peak was 1.04 MB at 512 rows and is 1.24 MB
    # at 1024.
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
    budget = 2 * batch_bytes + 16 * 512 * max(2 * d, hidden) * 8
    assert peak < budget, f"peak {peak} bytes over the {budget}-byte budget"


# --- privacy boundary ---------------------------------------------------------------


def test_server_reads_training_items_of_sharing_users_only():
    ds, tiers = small_world()
    calls = []
    original = ds.train_items
    ds.train_items = lambda u: (calls.append(u), original(u))[1]
    config = small_config(rounds=2, seed=8)
    run_federation(ds, tiers, config)
    # One graph build for the whole run: each sharing user is read once.
    assert sorted(calls) == np.flatnonzero(tiers.is_public).tolist()


# --- failure wrapping ----------------------------------------------------------------


def test_training_failure_carries_round_context():
    ds, tiers = small_world()
    ds.train[2] = np.asarray([], dtype=np.int64)  # user 2 has nothing to train on
    config = small_config(rounds=1, seed=8)
    with pytest.raises(TrainingError, match=r"round 1.*user 2"):
        run_federation(ds, tiers, config)


def test_tier_count_mismatch():
    ds, _ = small_world()
    with pytest.raises(ValueError, match="users"):
        run_federation(ds, tiers_from_mask([True]), small_config())
