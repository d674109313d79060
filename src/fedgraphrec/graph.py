"""Server-side mathematics: co-interaction user graph, embedding smoothing, averaging."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from fedgraphrec.data import InteractionDataset, PrivacyAssignment

# Smoothing multiplies only the block of the normalized adjacency whose rows
# have neighbours. Above this density of that block, and with more than 64 of
# its rows, it runs as a dense matmul, which is far faster than CSR at the
# near-complete co-interaction blocks sharing users produce.
DENSE_DENSITY_CUTOFF = 0.05
# Column slab width of every product: each hop's temporaries are
# (rows with neighbours) x SLAB_COLUMNS, never the size of the tables.
SLAB_COLUMNS = 2048


@dataclass(eq=False)
class UserGraph:
    """Symmetric user-user co-interaction graph.

    ``adjacency[a, b]`` counts training items users a and b share, for users
    who opted into sharing; their diagonal is zero. Users who share nothing
    (non-sharing users, and sharing users with no co-interactions) carry a
    unit self-loop so degree normalization stays defined. normalize() fills
    ``normalized``, ``linked``, the sorted rows that have neighbours, and
    ``_block``, the normalized operator restricted to those rows and columns.
    Every other row of the operator is an identity row. propagate() caches
    the dense form of the block in ``_dense_normalized`` when it takes the
    dense path.
    """

    adjacency: sp.csr_matrix
    normalized: sp.csr_matrix | None = None
    linked: np.ndarray | None = None
    _block: sp.csr_matrix | None = field(default=None, repr=False)
    _dense_normalized: np.ndarray | None = field(default=None, repr=False)

    @property
    def num_users(self) -> int:
        return int(self.adjacency.shape[0])


def build_user_graph(dataset: InteractionDataset, tiers: PrivacyAssignment) -> UserGraph:
    """Co-interaction counts between sharing users' training sets.

    Reads train_items() only for sharing users; non-sharing users' rows stay
    empty apart from the unit self-loop.
    """
    num_users = int(tiers.is_public.size)
    if dataset.num_users != num_users:
        raise ValueError(
            f"dataset has {dataset.num_users} users but tiers cover {num_users}"
        )
    rows = []
    cols = []
    for u in tiers.public_users():
        items = np.asarray(dataset.train_items(int(u)), dtype=np.int64)
        rows.append(np.full(items.size, u, dtype=np.int64))
        cols.append(items)
    if rows:
        r = np.concatenate(rows)
        c = np.concatenate(cols)
        incidence = sp.csr_matrix(
            (np.ones(r.size), (r, c)), shape=(num_users, dataset.num_items)
        )
        shared = incidence @ incidence.T
        shared.sort_indices()
        adjacency = shared - sp.diags(shared.diagonal())
        adjacency.eliminate_zeros()
    else:
        adjacency = sp.csr_matrix((num_users, num_users))

    degree = np.asarray(adjacency.sum(axis=1)).ravel()
    isolated = (degree == 0.0).astype(np.float64)
    if isolated.any():
        adjacency = (adjacency + sp.diags(isolated)).tocsr()
    return UserGraph(adjacency=adjacency)


def normalize(graph: UserGraph) -> UserGraph:
    """Fill graph.normalized with the symmetric degree normalization."""
    degree = np.asarray(graph.adjacency.sum(axis=1)).ravel()
    if (degree <= 0.0).any():
        raise ValueError("adjacency has a zero-degree row; self-loops are missing")
    inv_sqrt = sp.diags(1.0 / np.sqrt(degree))
    mat = (inv_sqrt @ graph.adjacency @ inv_sqrt).tocsr()
    # An identity row holds one unit entry on the diagonal, and nothing else
    # in its column reads it; propagation leaves such rows as they are.
    row_entries = np.diff(mat.indptr)
    col_entries = np.bincount(mat.indices, minlength=mat.shape[1])
    identity = (row_entries == 1) & (col_entries == 1) & (mat.diagonal() == 1.0)
    linked = np.flatnonzero(~identity)
    graph.normalized = mat
    graph.linked = linked
    graph._block = mat if linked.size == mat.shape[0] else mat[linked][:, linked]
    graph._dense_normalized = None
    return graph


def propagate(
    graph: UserGraph, tables: np.ndarray, layers: int = 1, out: np.ndarray | None = None
) -> np.ndarray:
    """Average each user's table with its neighborhood, `layers` hops.

    Parameter-free and linear: one hop multiplies by the normalized
    adjacency. `tables` is (num_users, ...) with any trailing shape; `out`,
    when given, receives the result. `out=tables` runs in place; any other
    overlap between the two is rejected. Every hop acts along the user axis
    only, so the rows with neighbours run one column slab at a time, with
    (rows with neighbours) x SLAB_COLUMNS temporaries, and identity rows are
    never touched after the result holds a copy of `tables`.
    """
    if layers < 1:
        raise ValueError(f"layers must be >= 1, got {layers}")
    if graph.normalized is None:
        raise ValueError("graph is not normalized; call normalize() first")
    n = graph.num_users
    if tables.shape[0] != n:
        raise ValueError(f"tables cover {tables.shape[0]} users, graph has {n}")
    block = graph._block
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
    dense = k > 64 and block.nnz >= DENSE_DENSITY_CUTOFF * k * k
    if dense and graph._dense_normalized is None:
        graph._dense_normalized = block.toarray()
    op = graph._dense_normalized if dense else block
    # A plain slice when every row has neighbours: no fancy-index copies.
    rows = graph.linked if k < n else slice(None)
    if k:
        for start in range(0, flat.shape[1], SLAB_COLUMNS):
            cols = slice(start, start + SLAB_COLUMNS)
            current = flat[rows, cols]
            for _ in range(layers):
                current = op @ current
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
    out: np.ndarray | None = None,
) -> ServerState:
    """One aggregation step over the stacked uploaded item tables; smoothed
    over `graph` (in place with `out=uploads`), or passed through unsmoothed
    when `graph` is None."""
    if graph is None:
        propagated = uploads
    else:
        propagated = propagate(graph, uploads, layers=layers, out=out)
    if global_from_public_only:
        if tiers.num_public == 0:
            raise ValueError("global_from_public_only needs at least one sharing user")
        # Sums the sharing rows in user order, as a loop accumulating them would.
        sharing = tiers.is_public.reshape((-1,) + (1,) * (propagated.ndim - 1))
        global_table = propagated.sum(axis=0, where=sharing) / tiers.num_public
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
    coo = sp.triu(mat).tocoo()
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("user_a\tuser_b\tweight\n")
        for idx in order:
            fh.write(f"{coo.row[idx]}\t{coo.col[idx]}\t{float(coo.data[idx])!r}\n")
    return int(coo.nnz)
