"""Server-side mathematics: co-interaction user graph, embedding smoothing, averaging."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from fedgraphrec.data import InteractionDataset, PrivacyAssignment

# Column slab width of every product: each hop's temporaries are
# (rows with neighbours) x SLAB_COLUMNS, never the size of the tables.
SLAB_COLUMNS = 2048


@dataclass(eq=False)
class UserGraph:
    """Symmetric user-user co-interaction graph, held as dense arrays.

    ``adjacency[a, b]`` counts training items users a and b share, for users
    who opted into sharing; their diagonal is zero. Users who share nothing
    (non-sharing users, and sharing users with no co-interactions) carry a
    unit self-loop so degree normalization stays defined. normalize() fills
    ``normalized``, ``linked``, the sorted rows that have neighbours, and
    ``_dense_normalized``, the normalized operator restricted to those rows
    and columns. Every other row of the operator is an identity row.
    """

    adjacency: np.ndarray
    normalized: np.ndarray | None = None
    linked: np.ndarray | None = None
    _dense_normalized: np.ndarray | None = field(default=None, repr=False)

    @property
    def num_users(self) -> int:
        return int(self.adjacency.shape[0])


def build_user_graph(dataset: InteractionDataset, tiers: PrivacyAssignment) -> UserGraph:
    """Co-interaction counts between sharing users' training sets.

    Reads train_items() only for sharing users; non-sharing users' rows stay
    empty apart from the unit self-loop. The counts are one product of the
    sharing users' 0/1 incidence rows: integers, so exact in any summation
    order.
    """
    num_users = int(tiers.is_public.size)
    if dataset.num_users != num_users:
        raise ValueError(
            f"dataset has {dataset.num_users} users but tiers cover {num_users}"
        )
    sharing = tiers.public_users()
    incidence = np.zeros((sharing.size, dataset.num_items))
    for row, u in enumerate(sharing):
        incidence[row, dataset.train_items(int(u))] = 1.0
    shared = incidence @ incidence.T
    del incidence
    np.fill_diagonal(shared, 0.0)
    if sharing.size == num_users:
        adjacency = shared
    else:
        adjacency = np.zeros((num_users, num_users))
        adjacency[np.ix_(sharing, sharing)] = shared

    isolated = np.flatnonzero(adjacency.sum(axis=1) == 0.0)
    adjacency[isolated, isolated] = 1.0
    return UserGraph(adjacency=adjacency)


def normalize(graph: UserGraph) -> UserGraph:
    """Fill graph.normalized with the symmetric degree normalization."""
    degree = graph.adjacency.sum(axis=1)
    if (degree <= 0.0).any():
        raise ValueError("adjacency has a zero-degree row; self-loops are missing")
    inv_sqrt = 1.0 / np.sqrt(degree)
    # (a_ij * s_i) * s_j, entry by entry, into one new array.
    mat = graph.adjacency * inv_sqrt[:, None]
    mat *= inv_sqrt[None, :]
    # An identity row holds one unit entry on the diagonal, and nothing else
    # in its column reads it; propagation leaves such rows as they are.
    identity = (
        (np.count_nonzero(mat, axis=1) == 1)
        & (np.count_nonzero(mat, axis=0) == 1)
        & (mat.diagonal() == 1.0)
    )
    linked = np.flatnonzero(~identity)
    graph.normalized = mat
    graph.linked = linked
    graph._dense_normalized = mat if linked.size == mat.shape[0] else mat[np.ix_(linked, linked)]
    return graph


def propagate(
    graph: UserGraph, tables: np.ndarray, layers: int = 1, out: np.ndarray | None = None
) -> np.ndarray:
    """Average each user's table with its neighborhood, `layers` hops.

    Parameter-free and linear: one hop multiplies by the normalized
    adjacency. `tables` is (num_users, ...) with any trailing shape; `out`,
    when given, receives the result. `out=tables` runs in place; any other
    overlap between the two is rejected. Every hop acts along the user axis
    only, so the rows with neighbours run one column slab at a time, as a
    dense matmul with (rows with neighbours) x SLAB_COLUMNS temporaries, and
    identity rows are never touched after the result holds a copy of
    `tables`.
    """
    if layers < 1:
        raise ValueError(f"layers must be >= 1, got {layers}")
    if graph.normalized is None:
        raise ValueError("graph is not normalized; call normalize() first")
    n = graph.num_users
    if tables.shape[0] != n:
        raise ValueError(f"tables cover {tables.shape[0]} users, graph has {n}")
    block = graph._dense_normalized
    if out is None:
        out = np.array(tables, dtype=np.result_type(tables.dtype, block.dtype))
    elif out.shape != tables.shape:
        raise ValueError(f"out shape {out.shape} != tables shape {tables.shape}")
    elif out is not tables:
        if np.shares_memory(out, tables):
            raise ValueError("out must not alias tables; pass out=tables to run in place")
        np.copyto(out, tables)

    flat = out.reshape(n, -1)
    k = block.shape[0]
    # A plain slice when every row has neighbours: no fancy-index copies.
    rows = graph.linked if k < n else slice(None)
    if k:
        for start in range(0, flat.shape[1], SLAB_COLUMNS):
            cols = slice(start, start + SLAB_COLUMNS)
            current = flat[rows, cols]
            for _ in range(layers):
                current = block @ current
            flat[rows, cols] = current
    return out


def global_embedding(propagated: np.ndarray) -> np.ndarray:
    """Mean of the smoothed tables over users (fixed reduction order)."""
    if propagated.shape[0] == 0:
        raise ValueError("no user tables to average")
    return propagated.mean(axis=0)


@dataclass(eq=False)
class ServerState:
    """What the server derives from one round of uploads.

    Holds only item-embedding aggregates; client user vectors and MLP weights
    are structurally absent. In the round loop ``propagated`` is the store of
    item tables itself: the server smooths it in place, and `distribute`
    blends it in place.
    """

    propagated: np.ndarray
    global_table: np.ndarray


def server_update(
    graph: UserGraph | None,
    uploads: np.ndarray,
    tiers: PrivacyAssignment,
    *,
    layers: int = 1,
    global_from_public_only: bool = False,
    private_sum: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> ServerState:
    """One aggregation step over the stacked uploaded item tables; smoothed
    over `graph` (in place with `out=uploads`), or passed through unsmoothed
    when `graph` is None.

    With `private_sum`, the non-sharing users' rows are not read: the global
    table is (the sharing rows' sum + `private_sum`) / n. Non-sharing users
    are identity rows of `graph`, so propagation does not read them either.
    """
    if global_from_public_only and tiers.num_public == 0:
        raise ValueError("global_from_public_only needs at least one sharing user")
    if graph is None:
        propagated = uploads
    else:
        propagated = propagate(graph, uploads, layers=layers, out=out)
    if global_from_public_only or private_sum is not None:
        # Sums the sharing rows in user order, as a loop accumulating them would.
        sharing = tiers.is_public.reshape((-1,) + (1,) * (propagated.ndim - 1))
        total = propagated.sum(axis=0, where=sharing)
        if global_from_public_only:
            global_table = total / tiers.num_public
        else:
            total += private_sum
            global_table = total / propagated.shape[0]
    else:
        global_table = global_embedding(propagated)
    return ServerState(propagated=propagated, global_table=global_table)


def dump_triplets(graph: UserGraph, path, normalized: bool = False) -> int:
    """Write `user_a<TAB>user_b<TAB>weight` triplets (upper triangle).

    Returns the number of triplets written.
    """
    mat = graph.normalized if normalized else graph.adjacency
    if mat is None:
        raise ValueError("graph is not normalized; call normalize() first")
    rows, cols = np.nonzero(np.triu(mat))
    weights = mat[rows, cols].tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("user_a\tuser_b\tweight\n")
        for a, b, w in zip(rows.tolist(), cols.tolist(), weights):
            fh.write(f"{a}\t{b}\t{w!r}\n")
    return int(rows.size)
