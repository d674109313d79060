"""Server graph tests: adjacency construction, normalization, smoothing, blending."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fedgraphrec import graph as graph_module
from fedgraphrec.data import (
    assign_privacy,
    leave_one_out_split,
    load_interactions,
)
from fedgraphrec.federation import distribute
from fedgraphrec.graph import (
    ServerState,
    UserGraph,
    build_user_graph,
    dump_triplets,
    full_matrix,
    global_embedding,
    normalize,
    propagate,
    server_update,
)
from oracles import (
    brute_adjacency,
    brute_normalized,
    brute_propagate,
    brute_triplets,
    dataset_from_train_sets,
    random_graph_instance,
    tiers_from_mask,
)


def built(train_sets, num_items, mask):
    ds = dataset_from_train_sets(train_sets, num_items)
    return build_user_graph(ds, tiers_from_mask(mask))


# Four users: two overlapping sharers, one isolated sharer, one non-sharer
# whose items overlap a sharer but must not count.
HAND_SETS = [{0, 1, 2}, {1, 2, 3}, {9}, {0, 1}]
HAND_MASK = [True, True, True, False]
HAND_ADJ = np.array(
    [
        [0.0, 2.0, 0.0, 0.0],
        [2.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ]
)


# --- adjacency ------------------------------------------------------------------


def test_adjacency_hand_example():
    graph = built(HAND_SETS, 10, HAND_MASK)
    np.testing.assert_array_equal(full_matrix(graph), HAND_ADJ)
    np.testing.assert_array_equal(graph.linked, [0, 1])
    np.testing.assert_array_equal(graph.adjacency, [[0.0, 2.0], [2.0, 0.0]])


def test_adjacency_counts_are_not_binarized():
    graph = built(HAND_SETS, 10, HAND_MASK)
    assert graph.adjacency[0, 1] == 2.0


def test_normalized_hand_example_is_row_swap():
    graph = normalize(built(HAND_SETS, 10, HAND_MASK))
    swap = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    np.testing.assert_allclose(full_matrix(graph, normalized=True), swap, atol=1e-15)


def test_second_hand_example_normalization_constants():
    # u0 {0,1}, u1 {1,2}, u2 {0,1,2}: counts 1, 2, 2 and degrees 3, 3, 4.
    graph = normalize(built([{0, 1}, {1, 2}, {0, 1, 2}], 3, [True] * 3))
    np.testing.assert_array_equal(
        graph.adjacency,
        np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 2.0], [2.0, 2.0, 0.0]]),
    )
    dense = full_matrix(graph, normalized=True)
    assert dense[0, 1] == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert dense[0, 2] == pytest.approx(2.0 / np.sqrt(12.0), rel=1e-15)
    assert dense[1, 2] == pytest.approx(2.0 / np.sqrt(12.0), rel=1e-15)


def test_adjacency_symmetric_on_random_instances():
    rng = np.random.default_rng(40)
    for _ in range(50):
        train_sets, m, mask = random_graph_instance(rng)
        dense = built(train_sets, m, mask).adjacency
        np.testing.assert_array_equal(dense, dense.T)


def test_nonsharing_rows_hold_only_the_self_loop():
    rng = np.random.default_rng(41)
    for _ in range(50):
        train_sets, m, mask = random_graph_instance(rng)
        dense = full_matrix(built(train_sets, m, mask))
        for u in np.flatnonzero(~mask):
            row = dense[u].copy()
            row[u] = 0.0
            assert not row.any()
            col = dense[:, u].copy()
            col[u] = 0.0
            assert not col.any()
            assert dense[u, u] == 1.0


def test_matches_brute_force_oracles():
    rng = np.random.default_rng(42)
    for _ in range(250):
        train_sets, m, mask = random_graph_instance(rng)
        graph = built(train_sets, m, mask)
        expected_adj = brute_adjacency(train_sets, mask)
        np.testing.assert_array_equal(full_matrix(graph), expected_adj)

        normalize(graph)
        expected_norm = brute_normalized(expected_adj)
        np.testing.assert_allclose(full_matrix(graph, normalized=True), expected_norm, atol=1e-10)

        n = len(train_sets)
        tables = rng.normal(size=(n, 3, 2))
        for layers in (1, 2, 3):
            got = propagate(graph, tables, layers=layers)
            np.testing.assert_allclose(
                got, brute_propagate(expected_norm, tables, layers), atol=1e-10
            )


def test_float32_counts_match_set_intersections_on_large_worlds():
    # The counts are built in float32: integers up to 2**24 are exact there,
    # so thousands of shared items still count exactly. Users 0 and 1 share
    # over 1,000 items in every world.
    rng = np.random.default_rng(24)
    for _ in range(6):
        n = int(rng.integers(2, 30))
        m = int(rng.integers(2500, 6000))
        train_sets = [set(rng.choice(m, size=int(rng.integers(0, m)), replace=False).tolist())
                      for _u in range(n)]
        common = set(rng.choice(m, size=int(rng.integers(1001, 2400)), replace=False).tolist())
        train_sets[0] |= common
        train_sets[1] |= common
        mask = rng.random(n) < 0.8
        mask[:2] = True
        graph = built(train_sets, m, mask)
        assert graph.adjacency.dtype == np.float64
        expected = brute_adjacency(train_sets, mask)
        assert expected[0, 1] > 1000
        np.testing.assert_array_equal(full_matrix(graph), expected)


def test_build_rejects_item_counts_float32_cannot_count_exactly():
    ds = dataset_from_train_sets([{0, 1}, {1}], 2)
    tiers = tiers_from_mask([True, True])
    with pytest.raises(ValueError, match=r"exact only below 2\*\*24 items, got 16777216"):
        build_user_graph(replace(ds, num_items=2**24), tiers)


def test_all_sharing_build_is_canonical_and_allocates_little():
    # A co-interaction block as dense as the paper's all-sharing setting: the
    # adjacency comes out as one C-ordered float64 array that owns its data,
    # and the build holds no more than the incidence rows and that array.
    rng = np.random.default_rng(8)
    train_sets = [set(rng.choice(100, size=20, replace=False).tolist()) for _ in range(300)]
    ds = dataset_from_train_sets(train_sets, 100)
    tiers = tiers_from_mask([True] * len(train_sets))
    tracemalloc.start()
    try:
        graph = build_user_graph(ds, tiers)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    adj = graph.adjacency
    assert adj.shape == (300, 300) and adj.dtype == np.float64
    assert adj.flags.c_contiguous and adj.flags.owndata
    size = adj.nbytes
    assert peak < 3.5 * size, f"peak {peak} bytes for a {size}-byte adjacency"


def test_all_nonsharing_gives_identity_adjacency():
    graph = built([{0, 1}, {1, 2}, {2}], 3, [False] * 3)
    np.testing.assert_array_equal(full_matrix(graph), np.eye(3))
    assert graph.linked.size == 0 and graph.adjacency.shape == (0, 0)


def test_sharing_user_with_empty_train_gets_self_loop():
    graph = built([set(), {0, 1}], 2, [True, True])
    np.testing.assert_array_equal(full_matrix(graph), np.eye(2))
    assert graph.linked.size == 0 and graph.adjacency.shape == (0, 0)


def test_graph_holds_nothing_about_nonsharing_users():
    # The server's graph is cut from the sharing users' data alone: it has no
    # row for a non-sharing user, and rewriting every non-sharing user's
    # training set leaves it the same byte for byte.
    rng = np.random.default_rng(44)
    for _ in range(100):
        train_sets, m, mask = random_graph_instance(rng, max_users=12)
        tiers = tiers_from_mask(mask)
        graph = normalize(built(train_sets, m, mask))
        assert np.isin(graph.linked, tiers.public_users()).all()
        assert graph.adjacency.shape == (graph.linked.size, graph.linked.size)
        rewritten = [
            train_set if shares else set(rng.choice(m, size=int(rng.integers(0, m + 1)), replace=False).tolist())
            for train_set, shares in zip(train_sets, mask)
        ]
        again = normalize(built(rewritten, m, mask))
        for name in ("linked", "adjacency", "_dense_normalized"):
            before, after = getattr(graph, name), getattr(again, name)
            assert before.dtype == after.dtype and before.shape == after.shape
            assert before.tobytes() == after.tobytes(), name


def test_user_count_mismatch_rejected():
    ds = dataset_from_train_sets([{0}, {1}], 2)
    with pytest.raises(ValueError, match="2 users"):
        build_user_graph(ds, tiers_from_mask([True]))


# --- normalize / propagate ------------------------------------------------------


def test_normalize_rejects_zero_degree_row():
    bad = UserGraph(num_users=2, linked=np.arange(2), adjacency=np.array([[0.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="zero-degree"):
        normalize(bad)


def test_propagate_requires_normalization():
    graph = built(HAND_SETS, 10, HAND_MASK)
    with pytest.raises(ValueError, match="not normalized"):
        propagate(graph, np.zeros((4, 2)))


def test_propagate_validates_layers_and_shape():
    graph = normalize(built(HAND_SETS, 10, HAND_MASK))
    with pytest.raises(ValueError, match="layers"):
        propagate(graph, np.zeros((4, 2)), layers=0)
    with pytest.raises(ValueError, match="users"):
        propagate(graph, np.zeros((3, 2)))
    with pytest.raises(ValueError, match="shape"):
        propagate(graph, np.zeros((4, 2)), out=np.zeros((4, 3)))


def test_propagate_identity_graph_returns_input_unchanged():
    graph = built([{0, 1}, {1}, {2}], 3, [False] * 3)
    normalize(graph)
    assert graph.linked.size == 0
    tables = np.random.default_rng(1).normal(size=(3, 4, 2))
    np.testing.assert_array_equal(propagate(graph, tables), tables)
    out = np.full_like(tables, np.nan)
    assert propagate(graph, tables, layers=2, out=out) is out
    np.testing.assert_array_equal(out, tables)


def test_propagate_hand_example_swaps_rows():
    graph = normalize(built(HAND_SETS, 10, HAND_MASK))
    tables = np.arange(12.0).reshape(4, 3)
    got = propagate(graph, tables)
    np.testing.assert_allclose(got, tables[[1, 0, 2, 3]], atol=1e-15)
    # two hops of a swap land back on the input
    np.testing.assert_allclose(propagate(graph, tables, layers=2), tables, atol=1e-15)


def test_propagate_is_linear():
    rng = np.random.default_rng(9)
    train_sets, m, mask = random_graph_instance(rng, max_users=6)
    graph = normalize(built(train_sets, m, mask))
    n = len(train_sets)
    X = rng.normal(size=(n, 5))
    Y = rng.normal(size=(n, 5))
    a, b = 0.7, -2.5
    combined = propagate(graph, a * X + b * Y, layers=2)
    separate = a * propagate(graph, X, layers=2) + b * propagate(graph, Y, layers=2)
    np.testing.assert_allclose(combined, separate, atol=1e-12)


def test_propagate_multi_hop_composes():
    rng = np.random.default_rng(10)
    train_sets, m, mask = random_graph_instance(rng, max_users=7)
    graph = normalize(built(train_sets, m, mask))
    tables = rng.normal(size=(len(train_sets), 3, 2))
    two_hop = propagate(graph, tables, layers=2)
    chained = propagate(graph, propagate(graph, tables))
    np.testing.assert_allclose(two_hop, chained, atol=1e-12)


def test_propagate_out_buffer_receives_result():
    graph = normalize(built(HAND_SETS, 10, HAND_MASK))
    tables = np.arange(8.0).reshape(4, 2)
    out = np.full((4, 2), np.nan)
    result = propagate(graph, tables, out=out)
    assert result is out
    np.testing.assert_allclose(out, propagate(graph, tables), atol=1e-15)


def test_propagate_rejects_out_aliasing_tables():
    # out=tables itself runs in place; any other overlap is an error.
    graph = normalize(built(HAND_SETS, 10, HAND_MASK))
    tables = np.arange(8.0).reshape(4, 2)
    expected = propagate(graph, tables)
    assert propagate(graph, tables, out=tables) is tables
    np.testing.assert_array_equal(tables, expected)
    for view in (tables[:, :], tables.view(), tables[::-1]):
        with pytest.raises(ValueError, match="alias"):
            propagate(graph, tables, out=view)


def dense_scale_graph(rng, n=80):
    """Co-interaction graph as dense as the paper's sharing setting."""
    train_sets = [
        set(rng.choice(12, size=int(rng.integers(3, 7)), replace=False).tolist())
        for _ in range(n)
    ]
    mask = np.ones(n, dtype=bool)
    return train_sets, mask


def test_propagate_dense_path_matches_oracle():
    rng = np.random.default_rng(30)
    train_sets, mask = dense_scale_graph(rng)
    graph = normalize(built(train_sets, 12, mask))
    density = np.count_nonzero(full_matrix(graph, normalized=True)) / graph.num_users**2
    assert density >= 0.05, "instance too sparse for a dense graph"
    tables = rng.normal(size=(80, 6, 3))
    got = propagate(graph, tables, layers=2)
    assert graph._dense_normalized.shape == (80, 80)
    expected = brute_propagate(
        brute_normalized(brute_adjacency(train_sets, mask)), tables, 2
    )
    np.testing.assert_allclose(got, expected, atol=1e-10)


def test_propagate_dense_path_with_out_buffer():
    rng = np.random.default_rng(31)
    train_sets, mask = dense_scale_graph(rng)
    graph = normalize(built(train_sets, 12, mask))
    tables = rng.normal(size=(80, 4))
    out = np.empty_like(tables)
    result = propagate(graph, tables, layers=1, out=out)
    assert result is out
    np.testing.assert_allclose(out, propagate(graph, tables), atol=1e-12)


def mixed_tier_graph(rng, n=140):
    """Half the users share, densely overlapping on items 0-11; the first
    sharing user alone holds items 12 and 13, so it has no co-interactions.
    Non-sharing users draw from all 16 items."""
    train_sets = [
        set(rng.choice(16, size=int(rng.integers(3, 7)), replace=False).tolist())
        for _ in range(n)
    ]
    mask = np.zeros(n, dtype=bool)
    mask[rng.permutation(n)[: n // 2]] = True
    sharers = np.flatnonzero(mask)
    for u in sharers[1:]:
        train_sets[u] = {i for i in train_sets[u] if i < 12} or {0}
    train_sets[sharers[0]] = {12, 13}
    return train_sets, mask, int(sharers[0])


def test_propagate_block_path_matches_oracle(monkeypatch):
    # Narrow slabs so the tables span several, the last one partial.
    monkeypatch.setattr(graph_module, "SLAB_COLUMNS", 4)
    rng = np.random.default_rng(32)
    train_sets, mask, lone_sharer = mixed_tier_graph(rng)
    graph = normalize(built(train_sets, 16, mask))
    linked = np.flatnonzero(mask)
    linked = linked[linked != lone_sharer]
    np.testing.assert_array_equal(graph.linked, linked)
    expected_norm = brute_normalized(brute_adjacency(train_sets, mask))
    identity = np.setdiff1d(np.arange(len(train_sets)), linked)
    tables = rng.normal(size=(len(train_sets), 6, 3))
    for layers in (1, 3):
        expected = brute_propagate(expected_norm, tables, layers)
        out = np.full_like(tables, np.nan)
        assert propagate(graph, tables, layers=layers, out=out) is out
        for got in (propagate(graph, tables, layers=layers), out):
            np.testing.assert_allclose(got, expected, atol=1e-10)
            np.testing.assert_array_equal(got[identity], tables[identity])
    assert graph._dense_normalized.shape == (linked.size, linked.size)


def test_propagate_block_path_allocates_slabs_only():
    rng = np.random.default_rng(33)
    train_sets, mask, _ = mixed_tier_graph(rng)
    graph = normalize(built(train_sets, 16, mask))
    tables = rng.normal(size=(len(train_sets), 1536, 32))
    out = np.empty_like(tables)
    tracemalloc.start()
    try:
        propagate(graph, tables, out=out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * tables.nbytes, f"peak {peak} bytes for {tables.nbytes}-byte tables"


@pytest.mark.parametrize("branch", ["identity", "small block", "sparse all", "dense block", "dense all"])
def test_propagate_in_place_matches_out_buffer(monkeypatch, branch):
    # Narrow slabs so the tables span several, the last one partial.
    monkeypatch.setattr(graph_module, "SLAB_COLUMNS", 4)
    rng = np.random.default_rng(34)
    if branch == "identity":
        train_sets, m, mask = [{0, 1}, {1}, {2}], 3, np.zeros(3, dtype=bool)
    elif branch == "small block":
        train_sets, m, mask = HAND_SETS, 10, HAND_MASK
    elif branch == "sparse all":
        # A ring of 40 sharers, each sharing one item with each neighbour.
        train_sets, m, mask = [{u, (u + 1) % 40} for u in range(40)], 40, np.ones(40, dtype=bool)
    elif branch == "dense block":
        train_sets, mask, _ = mixed_tier_graph(rng)
        m = 16
    else:
        train_sets, mask = dense_scale_graph(rng)
        m = 12
    graph = normalize(built(train_sets, m, mask))
    n = len(train_sets)
    k = graph.linked.size
    assert k == {"identity": 0, "small block": 2, "dense block": n // 2 - 1}.get(branch, n)
    tables = rng.normal(size=(n, 5, 3))
    for layers in (1, 3):
        expected = propagate(graph, tables, layers=layers, out=np.full_like(tables, np.nan))
        in_place = tables.copy()
        assert propagate(graph, in_place, layers=layers, out=in_place) is in_place
        assert np.array_equal(in_place, expected)
    assert graph._dense_normalized.shape == (k, k)


def test_in_place_dense_propagation_allocates_slabs_only():
    rng = np.random.default_rng(35)
    train_sets, mask = dense_scale_graph(rng)
    graph = normalize(built(train_sets, 12, mask))
    assert graph.linked.size == graph.num_users
    tables = rng.normal(size=(graph.num_users, 1536, 32))
    tracemalloc.start()
    try:
        assert propagate(graph, tables, layers=2, out=tables) is tables
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * tables.nbytes, f"peak {peak} bytes for {tables.nbytes}-byte tables"


# --- global_embedding / the personalization blend (distribute) -----------------


def test_global_embedding_hand_mean():
    propagated = np.array([[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0], [7.0, 8.0]]])
    np.testing.assert_array_equal(
        global_embedding(propagated), np.array([[3.0, 4.0], [5.0, 6.0]])
    )
    with pytest.raises(ValueError):
        global_embedding(np.zeros((0, 2)))


def test_global_embedding_matches_loop_mean():
    rng = np.random.default_rng(12)
    propagated = rng.normal(size=(9, 5, 3))
    acc = np.zeros((5, 3))
    for u in range(9):
        acc += propagated[u]
    np.testing.assert_allclose(global_embedding(propagated), acc / 9, atol=1e-12)


def test_global_embedding_sums_rows_in_user_order():
    # Every row read: bit for bit the mean over users. The sharing rows only:
    # bit for bit a loop accumulating them in user order, over the sharing
    # users, or with private_sum added, over all n.
    rng = np.random.default_rng(16)
    for shape in ((50, 100, 32), (9, 5, 3)):
        propagated = rng.normal(size=shape)
        np.testing.assert_array_equal(global_embedding(propagated), propagated.mean(axis=0))
        sharing = rng.random(shape[0]) < 0.5
        sharing[0] = True
        acc = np.zeros(shape[1:])
        for u in np.flatnonzero(sharing):
            acc += propagated[u]
        np.testing.assert_array_equal(global_embedding(propagated, sharing), acc / sharing.sum())
        private_sum = rng.normal(size=shape[1:])
        np.testing.assert_array_equal(
            global_embedding(propagated, sharing, private_sum), (acc + private_sum) / shape[0]
        )


def mixed_blend_instance(rng, n=6):
    propagated = rng.normal(size=(n, 4, 2))
    mask = np.array([True, False] * (n // 2))
    return propagated, global_embedding(propagated), tiers_from_mask(mask)


def blend(propagated, global_table, alpha, tiers):
    """distribute's in-place blend, run on a copy of `propagated`."""
    server = ServerState(propagated=propagated.copy(), global_table=global_table)
    blended = distribute(server, tiers, alpha)
    assert blended is server.propagated
    return blended


def test_personalize_alpha_zero_serves_global_everywhere():
    rng = np.random.default_rng(13)
    propagated, global_table, tiers = mixed_blend_instance(rng)
    blended = blend(propagated, global_table, 0.0, tiers)
    for u in range(6):
        np.testing.assert_array_equal(blended[u], global_table)


def test_personalize_alpha_one_keeps_own_smoothed_table():
    rng = np.random.default_rng(14)
    propagated, global_table, tiers = mixed_blend_instance(rng)
    blended = blend(propagated, global_table, 1.0, tiers)
    for u in range(6):
        expected = propagated[u] if tiers.is_public[u] else global_table
        np.testing.assert_array_equal(blended[u], expected)


def test_personalize_matches_affine_formula():
    rng = np.random.default_rng(15)
    propagated, global_table, tiers = mixed_blend_instance(rng)
    alpha = 0.3
    blended = blend(propagated, global_table, alpha, tiers)
    for u in range(6):
        if tiers.is_public[u]:
            expected = alpha * propagated[u] + (1 - alpha) * global_table
        else:
            expected = global_table
        np.testing.assert_allclose(blended[u], expected, atol=1e-12)


def test_personalize_validates():
    rng = np.random.default_rng(17)
    propagated, global_table, tiers = mixed_blend_instance(rng)
    with pytest.raises(ValueError, match="alpha"):
        blend(propagated, global_table, 1.5, tiers)
    with pytest.raises(ValueError, match="users"):
        blend(propagated[:4], global_table, 0.5, tiers)


# --- server_update ---------------------------------------------------------------


def test_server_update_without_graph_aliases_uploads():
    rng = np.random.default_rng(18)
    uploads = rng.normal(size=(4, 3, 2))
    tiers = tiers_from_mask([True, True, False, False])
    state = server_update(None, uploads, tiers)
    assert state.propagated is uploads
    np.testing.assert_allclose(state.global_table, uploads.mean(axis=0), atol=1e-12)


def test_server_update_with_graph_matches_oracles():
    rng = np.random.default_rng(19)
    train_sets, m, mask = random_graph_instance(rng, max_users=6)
    graph = normalize(built(train_sets, m, mask))
    n = len(train_sets)
    uploads = rng.normal(size=(n, 4, 2))
    state = server_update(graph, uploads, tiers_from_mask(mask), layers=2)
    expected = brute_propagate(
        brute_normalized(brute_adjacency(train_sets, mask)), uploads, 2
    )
    np.testing.assert_allclose(state.propagated, expected, atol=1e-10)
    np.testing.assert_allclose(state.global_table, expected.mean(axis=0), atol=1e-10)


def test_server_update_public_only_global():
    # Bit for bit the mean of an accumulation over the sharing users in order.
    rng = np.random.default_rng(20)
    for n in (4, 50):
        uploads = rng.normal(size=(n, 7, 3))
        tiers = tiers_from_mask(rng.random(n) < 0.5)
        acc = np.zeros((7, 3))
        for u in tiers.public_users():
            acc += uploads[u]
        state = server_update(None, uploads, tiers, global_from_public_only=True)
        np.testing.assert_array_equal(state.global_table, acc / tiers.num_public)
    all_private = tiers_from_mask([False] * len(uploads))
    with pytest.raises(ValueError, match="sharing"):
        server_update(None, uploads, all_private, global_from_public_only=True)


# --- helpers ---------------------------------------------------------------------


def test_dump_triplets_raw_values(tmp_path):
    graph = built([{0, 1}, {1, 2}, {0, 1, 2}], 3, [True] * 3)
    path = tmp_path / "adj.tsv"
    count = dump_triplets(graph, path)
    assert count == 3
    lines = path.read_text().splitlines()
    assert lines[0] == "user_a\tuser_b\tweight"
    assert lines[1:] == ["0\t1\t1.0", "0\t2\t2.0", "1\t2\t2.0"]


def test_dump_triplets_normalized_round_trip(tmp_path):
    graph = normalize(built([{0, 1}, {1, 2}, {0, 1, 2}], 3, [True] * 3))
    path = tmp_path / "norm.tsv"
    count = dump_triplets(graph, path, normalized=True)
    assert count == 3
    rows = [line.split("\t") for line in path.read_text().splitlines()[1:]]
    parsed = {(int(a), int(b)): float(w) for a, b, w in rows}
    assert parsed[(0, 1)] == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert parsed[(0, 2)] == pytest.approx(2.0 / np.sqrt(12.0), rel=1e-15)


def test_dump_triplets_normalized_requires_normalize(tmp_path):
    graph = built([{0, 1}], 2, [True])
    with pytest.raises(ValueError, match="not normalized"):
        dump_triplets(graph, tmp_path / "x.tsv", normalized=True)


@pytest.mark.parametrize("normalized", [False, True])
def test_dump_triplets_matches_brute_force_writer(tmp_path, normalized):
    rng = np.random.default_rng(43)
    path = tmp_path / "triplets.tsv"
    for _ in range(60):
        train_sets, m, mask = random_graph_instance(rng)
        graph = normalize(built(train_sets, m, mask))
        expected = brute_adjacency(train_sets, mask)
        if normalized:
            expected = brute_normalized(expected)
        count = dump_triplets(graph, path, normalized=normalized)
        text = path.read_text(encoding="utf-8")
        assert text == brute_triplets(expected)
        assert count == len(text.splitlines()) - 1


# --- integration with the real loader --------------------------------------------


def test_graph_from_bundled_dataset_matches_oracle():
    records = load_interactions("data/synthetic-50.tsv")
    dataset = leave_one_out_split(records)
    tiers = assign_privacy(dataset.num_users, 0.5, seed=3)
    graph = normalize(build_user_graph(dataset, tiers))

    dense = full_matrix(graph)
    np.testing.assert_array_equal(dense, dense.T)
    assert (dense.sum(axis=1) >= 1.0).all()

    train_sets = [set(dataset.train[u].tolist()) for u in range(dataset.num_users)]
    expected = brute_adjacency(train_sets, tiers.is_public)
    np.testing.assert_array_equal(dense, expected)
