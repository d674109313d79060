"""Server-side mathematics: co-interaction user graph, embedding smoothing, averaging."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from fedgraphrec.data import InteractionDataset, PrivacyAssignment

# Column slab width of every product: each hop's temporaries are
# (linked rows) x SLAB_COLUMNS, never the size of the tables.
SLAB_COLUMNS = 2048


@dataclass(eq=False)
class UserGraph:
    """Symmetric user-user co-interaction graph over the sharing users it links.

    ``linked`` lists, ascending, the sharing users who share a training item
    with another sharing user; ``adjacency[a, b]`` counts the training items
    that linked users ``linked[a]`` and ``linked[b]`` share, with a zero
    diagonal. The graph holds nothing about any other user: propagation
    leaves their tables as they are. normalize() fills ``_dense_normalized``,
    the symmetric degree normalization of that block. full_matrix() embeds
    either block in the (num_users, num_users) form, where every unlinked
    user carries a unit self-loop; only the output writers build it.
    """

    num_users: int
    linked: np.ndarray
    adjacency: np.ndarray
    _dense_normalized: np.ndarray | None = field(default=None, repr=False)


def build_user_graph(dataset: InteractionDataset, tiers: PrivacyAssignment) -> UserGraph:
    """Co-interaction counts between sharing users' training sets, kept for
    the users with a co-interaction.

    Reads train_items() only for sharing users. The counts are one float32
    product of their 0/1 incidence rows, cast to float64. Every partial sum is
    an integer of at most num_items, so the counts are exact in any summation
    order while num_items < 2**24; a larger item count is an error.
    """
    num_users = int(tiers.is_public.size)
    if dataset.num_users != num_users:
        raise ValueError(f"dataset has {dataset.num_users} users but tiers cover {num_users}")
    if dataset.num_items >= 2**24:
        raise ValueError("float32 co-interaction counts are exact only below 2**24 items, "
                         f"got {dataset.num_items}")
    sharing = tiers.public_users()
    incidence = np.zeros((sharing.size, dataset.num_items), dtype=np.float32)
    for row, u in enumerate(sharing):
        incidence[row, dataset.train_items(int(u))] = 1.0
    shared = incidence @ incidence.T
    del incidence
    np.fill_diagonal(shared, 0.0)
    keep = np.flatnonzero(shared.any(axis=1))
    if keep.size < sharing.size:
        shared = shared[np.ix_(keep, keep)]
    return UserGraph(num_users=num_users, linked=sharing[keep],
                     adjacency=shared.astype(np.float64))


def normalize(graph: UserGraph) -> UserGraph:
    """Fill graph._dense_normalized with the symmetric degree normalization."""
    degree = graph.adjacency.sum(axis=1)
    if (degree <= 0.0).any():
        raise ValueError("adjacency has a zero-degree row; every linked user needs a neighbour")
    inv_sqrt = 1.0 / np.sqrt(degree)
    # (a_ij * s_i) * s_j, entry by entry, into one new array.
    mat = graph.adjacency * inv_sqrt[:, None]
    mat *= inv_sqrt[None, :]
    graph._dense_normalized = mat
    return graph


def full_matrix(graph: UserGraph, normalized: bool = False) -> np.ndarray:
    """The (num_users, num_users) adjacency, or with `normalized` the
    normalized operator: the block at the linked users' rows and columns,
    and a unit self-loop on every other user. For output only."""
    block = graph._dense_normalized if normalized else graph.adjacency
    if block is None:
        raise ValueError("graph is not normalized; call normalize() first")
    # The block's zero diagonal overwrites the linked users' unit entries.
    mat = np.eye(graph.num_users)
    mat[np.ix_(graph.linked, graph.linked)] = block
    return mat


def propagate(
    graph: UserGraph, tables: np.ndarray, layers: int = 1, out: np.ndarray | None = None
) -> np.ndarray:
    """Average each user's table with its neighborhood, `layers` hops.

    Parameter-free and linear: one hop multiplies by the normalized
    adjacency. `tables` is (num_users, ...) with any trailing shape; `out`,
    when given, receives the result. `out=tables` runs in place; any other
    overlap between the two is rejected. Every hop acts along the user axis
    only, so the linked rows run one column slab at a time, as a dense matmul
    with (linked rows) x SLAB_COLUMNS temporaries, and the other rows are
    never touched after the result holds a copy of `tables`.
    """
    if layers < 1:
        raise ValueError(f"layers must be >= 1, got {layers}")
    block = graph._dense_normalized
    if block is None:
        raise ValueError("graph is not normalized; call normalize() first")
    n = graph.num_users
    if tables.shape[0] != n:
        raise ValueError(f"tables cover {tables.shape[0]} users, graph has {n}")
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
    # A plain slice when every user is linked: no fancy-index copies.
    rows = graph.linked if k < n else slice(None)
    if k:
        for start in range(0, flat.shape[1], SLAB_COLUMNS):
            cols = slice(start, start + SLAB_COLUMNS)
            current = flat[rows, cols]
            for _ in range(layers):
                current = block @ current
            flat[rows, cols] = current
    return out


def global_embedding(
    propagated: np.ndarray,
    sharing: np.ndarray | None = None,
    private_sum: np.ndarray | None = None,
) -> np.ndarray:
    """The global item table: the rows read, summed in user order, over the
    users they stand for.

    Without `sharing` every row is read and the sum is over all n users. With
    `sharing`, a boolean user mask, only its rows are read: `private_sum`,
    the other users' tables summed, completes the sum over n; without it the
    sum is over the sharing users alone.
    """
    if propagated.shape[0] == 0:
        raise ValueError("no user tables to average")
    where = True if sharing is None else sharing.reshape((-1,) + (1,) * (propagated.ndim - 1))
    total = propagated.sum(axis=0, where=where)
    count = propagated.shape[0]
    if private_sum is not None:
        total += private_sum
    elif sharing is not None:
        count = int(np.count_nonzero(sharing))
    total /= count
    return total


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

    The global table is global_embedding() of the smoothed tables. It reads
    only the sharing rows under `global_from_public_only`, and when given
    `private_sum`, the non-sharing users' tables summed. Propagation does not
    read the non-sharing rows either: `graph` holds nothing about them.
    """
    if global_from_public_only and tiers.num_public == 0:
        raise ValueError("global_from_public_only needs at least one sharing user")
    propagated = uploads if graph is None else propagate(graph, uploads, layers=layers, out=out)
    sharing = tiers.is_public if global_from_public_only or private_sum is not None else None
    global_table = global_embedding(propagated, sharing, private_sum)
    return ServerState(propagated=propagated, global_table=global_table)


def dump_triplets(graph: UserGraph, path, normalized: bool = False) -> int:
    """Write `user_a<TAB>user_b<TAB>weight` triplets of full_matrix() (upper
    triangle, unit self-loops included).

    Returns the number of triplets written.
    """
    mat = full_matrix(graph, normalized)
    rows, cols = np.nonzero(np.triu(mat))
    weights = mat[rows, cols].tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("user_a\tuser_b\tweight\n")
        for a, b, w in zip(rows.tolist(), cols.tolist(), weights):
            fh.write(f"{a}\t{b}\t{w!r}\n")
    return int(rows.size)
