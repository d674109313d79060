"""Per-user recommender: embeddings plus a small MLP, trained with hand-written backprop.

Every kernel runs over a cohort of clients at once: their parameters are
stacked on a leading client axis, and one client is a cohort of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fedgraphrec.data import InteractionDataset, Tier, sample_train_negatives
from fedgraphrec.seeding import INIT_SALT, derive_rng

# Probabilities are clamped to [PROB_FLOOR, 1 - PROB_FLOOR] before any log.
PROB_FLOOR = 1e-7

# Example rows per stacked kernel call. A cohort whose batches hold B rows a
# client runs in chunks of `clients_per_chunk(B)` clients: at least
# COHORT_CLIENTS of them, within COHORT_ROWS to COHORT_MAX_ROWS rows, and a
# client above the ceiling alone. Each chunk's temporaries are a few (rows,
# width) float64 arrays. One call costs ~120 us whatever it holds, plus ~48
# us a client at B = 40 and ~210 us at B = 256, so small batches want many
# clients a call; past ~1280 rows the temporaries likely outgrow the 2 MB L2
# per core of the CPU this was tuned on. Median round of the bundled file's
# benchmark run (B = 40; 3 seeds, one CPU) at
# COHORT_ROWS 512/768/1024/1280/2048: 6.65/6.23/5.85/6.05/7.67 ms. At the
# ML-100K shape (B = 256) every one of these keeps training chunks of 8
# clients (2048 rows, which beat 4096 by 486 to 699 ms a round), and only
# the 51-row ranking chunks grow: 21.7/20.6/20.2/19.7/19.1 ms a round.
COHORT_ROWS = 1024
COHORT_CLIENTS = 8
COHORT_MAX_ROWS = 2048


def clients_per_chunk(length: int) -> int:
    """How many clients with `length` example rows each one stacked kernel call takes."""
    rows = min(max(COHORT_CLIENTS * length, COHORT_ROWS), COHORT_MAX_ROWS)
    return max(1, rows // length)


class TrainingError(RuntimeError):
    """Raised when local optimization produces a non-finite loss or gradient."""


@dataclass
class ModelConfig:
    """Client model and local-training hyperparameters; `ExperimentConfig.validate` checks them."""

    embed_dim: int = 32
    mlp_hidden: tuple[int, ...] = (32, 16)
    learning_rate: float = 0.01
    local_epochs: int = 1
    neg_ratio: int = 4
    batch_size: int = 256
    init_scale: float = 0.01  # embedding std; MLP weights use He scaling
    clip_norm: float = 0.0  # gradient norm clip; 0 disables it


@dataclass(eq=False)
class ClientState:
    """One user's parameters: views of the user's row of a ClientStore.

    Only ``item_table`` is ever shared; ``user_vec`` and the MLP weights stay
    on the client across all rounds.
    """

    user_vec: np.ndarray
    item_table: np.ndarray
    weights: list
    biases: list


@dataclass(eq=False)
class ClientStore:
    """Every client's parameters, stacked on a leading client axis.

    ``store[u]`` is client u's ClientState, built on access: its arrays view
    row u of each stack, so a kernel that writes the stacks moves that client
    too, and the other way round.
    """

    user_vecs: np.ndarray  # (n, d)
    item_tables: np.ndarray  # (n, m, d)
    weights: list  # per layer, (n, fan_in, fan_out)
    biases: list  # per layer, (n, fan_out)

    @classmethod
    def empty(cls, n: int, num_items: int, config: ModelConfig) -> ClientStore:
        """Stacks for n clients of `config`'s shape, with zero biases; the
        other parameters are left for `init_client` to draw."""
        d = config.embed_dim
        dims = [2 * d, *config.mlp_hidden, 1]
        return cls(
            user_vecs=np.empty((n, d)),
            item_tables=np.empty((n, num_items, d)),
            weights=[np.empty((n, a, b)) for a, b in zip(dims[:-1], dims[1:])],
            biases=[np.zeros((n, fan_out)) for fan_out in dims[1:]],
        )

    @classmethod
    def of(cls, state: ClientState) -> ClientStore:
        """A cohort of one that views `state`'s own arrays."""
        return cls(
            user_vecs=state.user_vec[None],
            item_tables=state.item_table[None],
            weights=[W[None] for W in state.weights],
            biases=[b[None] for b in state.biases],
        )

    def flat_items(self) -> np.ndarray:
        """The item tables as one (n·m, d) view: client u's item j is row u·m + j.
        Writes through it must reach the store, so the tables must be C-contiguous."""
        if not self.item_tables.flags.c_contiguous:
            raise ValueError("item tables must be C-contiguous to be viewed flat")
        return self.item_tables.reshape(-1, self.item_tables.shape[2])

    def gather(self, rows: np.ndarray, items: np.ndarray):
        """Clients `rows`' parameters, with client c's item-table rows
        `items[c]`: (user vectors, item rows, weights, biases). The item rows
        are a copy. The rest view the stacks when `rows` is one ascending run
        of consecutive clients, and are copies otherwise."""
        keys = rows[:, None] * self.item_tables.shape[1] + items
        if rows.size and (np.diff(rows) == 1).all():
            rows = slice(rows[0], rows[-1] + 1)
        return (
            self.user_vecs[rows],
            self.flat_items().take(keys, axis=0),
            [W[rows] for W in self.weights],
            [b[rows] for b in self.biases],
        )

    def __len__(self) -> int:
        return self.user_vecs.shape[0]

    def __getitem__(self, u: int) -> ClientState:
        return ClientState(
            user_vec=self.user_vecs[u],
            item_table=self.item_tables[u],
            weights=[W[u] for W in self.weights],
            biases=[b[u] for b in self.biases],
        )

    def __iter__(self):
        return (self[u] for u in range(len(self)))


@dataclass(frozen=True)
class TrainReport:
    """Summary of one local optimization pass."""

    mean_loss: float
    steps: int
    grad_norm: float


def init_client(
    config: ModelConfig,
    num_items: int,
    tier: Tier | None,
    seed,
    out: ClientState | None = None,
    *,
    draw_items: bool = True,
) -> ClientState:
    """Draw a fresh client into `out`, a row of a ClientStore, and return it:
    Gaussian embeddings at std `init_scale`, Gaussian MLP weights at He's
    std sqrt(2 / fan_in), zero biases. Without `out`, the client is the one
    row of a new store. With `draw_items` False the item table is left as it
    is: the user vector keeps its draws, and the MLP's follow it directly in
    the stream.

    `seed` may be an int, a tuple of ints, or a Generator, used as is: the
    one `derive_rng(*seed, INIT_SALT)` makes draws what that seed names.
    `tier` is not read: the client's privacy tier lives only in the
    PrivacyAssignment. The parameter stays because `perfbench/test_checks.py`
    passes it, by position and by name.
    """
    if num_items < 1:
        raise ValueError(f"num_items must be >= 1, got {num_items}")
    if out is None:
        if not draw_items:
            raise ValueError("init_client without `out` makes a fresh item table; "
                             "draw_items=False would leave it unwritten")
        out = ClientStore.empty(1, num_items, config)[0]
    d = config.embed_dim
    dims = [2 * d, *config.mlp_hidden, 1]
    arrays = [out.user_vec, out.item_table, *out.weights]
    if [a.shape for a in arrays] != [(d,), (num_items, d), *zip(dims[:-1], dims[1:])]:
        raise ValueError("out does not have the shape of this config and item count")
    scales = [config.init_scale, config.init_scale, *(np.sqrt(2.0 / n) for n in dims[:-1])]
    if not draw_items:
        del arrays[1], scales[1]
    if isinstance(seed, np.random.Generator):
        rng = seed
    else:
        parts = tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)
        rng = derive_rng(*parts, INIT_SALT)
    # In place, z * scale equals the scale * z + 0 that rng.normal(0, scale)
    # returns, bar the sign of a zero.
    for array, scale in zip(arrays, scales):
        rng.standard_normal(out=array)
        array *= scale
    for b in out.biases:
        b.fill(0.0)
    return out


def _cohort_forward(user_vecs, item_rows, weights, biases):
    """Forward pass of C clients over their batches of B item rows each.

    Takes (C, d) user vectors, (C, B, d) item rows and per-layer (C, in, out)
    weights and (C, out) biases. Returns the activations and pre-activations
    per layer, each (C, B, width), and the (C, B) output probabilities,
    unclamped. The first layer is factored, [u; i] W1 + b1 = i W1[d:] +
    (u W1[:d] + b1), so the user half is multiplied once per client, and its
    activations are the item rows. Every client's slice is computed as its
    own product.
    """
    d = user_vecs.shape[1]
    user_term = np.matmul(user_vecs[:, None, :], weights[0][:, :d])
    user_term += biases[0][:, None, :]
    Z = np.matmul(item_rows, weights[0][:, d:])
    Z += user_term
    acts = [item_rows]
    pres = [Z]
    for W, b in zip(weights[1:], biases[1:]):
        acts.append(np.maximum(Z, 0.0))
        Z = np.matmul(acts[-1], W)
        Z += b[:, None, :]
        pres.append(Z)
    probs = sigmoid(Z[:, :, 0])
    return acts, pres, probs


def sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) into one new array. Logits below about -709
    overflow exp to inf and give exactly 0; above 709 the sum rounds to 1."""
    out = np.negative(z)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def _bce(probs: np.ndarray, labels: np.ndarray):
    """Summed binary cross-entropy over the last axis."""
    p = np.clip(probs, PROB_FLOOR, 1.0 - PROB_FLOOR)
    return -(labels * np.log(p) + (1.0 - labels) * np.log1p(-p)).sum(axis=-1)


def score_cohort(store: ClientStore, rows: np.ndarray, items: np.ndarray) -> np.ndarray:
    """Interaction probabilities of clients `rows` for their items (C, K)."""
    probs = _cohort_forward(*store.gather(rows, items))[2]
    return np.clip(probs, PROB_FLOOR, 1.0 - PROB_FLOOR)


def _zero_where(values: np.ndarray, mask: np.ndarray) -> None:
    """values[mask] = 0.0, bit for bit, as one product of the float bits with
    the mask, inverted in place: np.putmask branches per element and took 4x
    as long on a ReLU mask."""
    bits = values.view(np.int64)
    np.multiply(bits, np.logical_not(mask, out=mask), out=bits)


def _row_dots(v: np.ndarray) -> np.ndarray:
    """v[c] @ v[c] for every row, each through the same BLAS dot as a 1-D `@`."""
    return np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0]


def _cohort_step(
    store: ClientStore,
    rows: np.ndarray,
    items: np.ndarray,
    labels: np.ndarray,
    learning_rate: float,
    clip_norm: float,
) -> tuple[np.ndarray, np.ndarray]:
    """One mini-batch update of every parameter of clients `rows`, client c on
    its batch items[c], labels[c] (C, B), as one stacked call. Returns
    per-client (summed loss, grad norm after clipping)."""
    C = rows.size
    m = store.item_tables.shape[1]
    user_vecs, item_rows, weights, biases = store.gather(rows, items)
    d = user_vecs.shape[1]
    acts, pres, probs = _cohort_forward(user_vecs, item_rows, weights, biases)
    loss = _bce(probs, labels)

    # Gradient of the summed BCE w.r.t. the logits is simply (p - y). Each
    # layer's activations and pre-activations are dropped once used, which
    # keeps the chunk's peak memory down.
    delta = (probs - labels)[:, :, None]
    n_layers = len(weights)
    grads_W = [None] * n_layers
    grads_b = [None] * n_layers
    pres.pop()
    for li in range(n_layers - 1, 0, -1):
        grads_W[li] = np.matmul(acts.pop().transpose(0, 2, 1), delta)
        grads_b[li] = delta.sum(axis=1)
        delta = np.matmul(delta, weights[li].transpose(0, 2, 1))
        _zero_where(delta, pres.pop() <= 0.0)
    # The first layer's user half saw one u in every row, so its gradients
    # need only s, the row sum of delta: u ⊗ s, and s W1[:d]ᵀ for u itself.
    W1 = weights[0]
    s = grads_b[0] = delta.sum(axis=1)
    gW = grads_W[0] = np.empty(W1.shape)
    np.multiply(user_vecs[:, :, None], s[:, None, :], out=gW[:, :d])
    np.matmul(item_rows.transpose(0, 2, 1), delta, out=gW[:, d:])
    grad_users = np.matmul(s[:, None, :], W1[:, :d].transpose(0, 2, 1))[:, 0]
    del acts
    delta = np.matmul(delta, W1[:, d:].transpose(0, 2, 1))

    # Accumulate duplicate item rows per client in batch layout; only rows
    # present in a client's batch change. Each key c·m + item takes its first
    # batch position from a dense (C·m) slot array, and the filled slots, in
    # key order, are each client's unique rows as one sorted block: nothing
    # is sorted. A row's gradient is its first occurrence plus 0.0 (a -0.0
    # turns +0.0), then `add.at` adds the later occurrences onto it, cell by
    # cell in batch row order: 0.0 + x1 + x2 + ..., bit for bit.
    positions = np.arange(items.size)
    keys = (np.arange(C)[:, None] * m + items).ravel()
    slots = np.full(C * m, items.size)
    np.minimum.at(slots, keys, positions)
    uniq = np.flatnonzero(slots < items.size)
    first = slots[keys]
    later = np.flatnonzero(first != positions)
    first_of_later = first[later]
    delta += 0.0
    flat_delta = delta.reshape(-1, d)
    cells = (first_of_later[:, None] * d + np.arange(d)).ravel()
    np.add.at(flat_delta.reshape(-1), cells, flat_delta[later].ravel())

    # Each client's squared norm in the one-client order: every vector's and
    # item row's own dot, with the client's item rows added one after another
    # in item order, as bincount adds the dots taken at their first positions.
    row_sq = np.bincount(uniq // m, weights=_row_dots(flat_delta)[slots[uniq]], minlength=C)
    sq = _row_dots(grad_users) + row_sq
    for gW, gb in zip(grads_W, grads_b):
        sq += (gW * gW).reshape(C, -1).sum(axis=1) + _row_dots(gb)
    norm = np.sqrt(sq)

    scale = np.full(C, float(learning_rate))
    if clip_norm > 0:
        clipped = norm > clip_norm
        scale[clipped] = learning_rate * (clip_norm / norm[clipped])
        norm[clipped] = clip_norm

    # Every occurrence of a row was gathered with the same bytes, so the first
    # serves as the row's old value: the later ones take its new bytes, and
    # every batch row is written back, none read again. The other parameters
    # are views of the store when `rows` is a run of consecutive clients, and
    # are updated in place; otherwise they are copies and written back.
    delta *= scale[:, None, None]
    item_rows -= delta
    flat_rows = item_rows.reshape(-1, d)
    flat_rows[later] = flat_rows[first_of_later]
    store.flat_items()[(rows[:, None] * m + items).ravel()] = flat_rows
    user_vecs -= scale[:, None] * grad_users
    for W, gW in zip(weights, grads_W):
        gW *= scale[:, None, None]
        W -= gW
    for b, gb in zip(biases, grads_b):
        gb *= scale[:, None]
        b -= gb
    if not np.may_share_memory(user_vecs, store.user_vecs):
        store.user_vecs[rows] = user_vecs
        for stack, W in zip(store.weights, weights):
            stack[rows] = W
        for stack, b in zip(store.biases, biases):
            stack[rows] = b
    return loss, norm


@dataclass(eq=False)
class Batches:
    """Every mini-batch of one local pass of a list of clients, as one flat
    stream. Client i's epoch e is the `sizes[i]` examples of `items` and
    `labels` (True for a positive) that start at `starts[i] + e * sizes[i]`,
    cut into batches of the config's `batch_size`, in order."""

    items: np.ndarray
    labels: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray


def draw_batches(dataset: InteractionDataset, users, config: ModelConfig, rngs) -> Batches:
    """The batches of one local pass of each of `users`, client i drawing
    from the i-th generator of `rngs`.

    Each epoch draws a fresh negative sample and shuffles positives and
    negatives together; each client makes its draws in that order. No draw
    depends on the parameters, so all of them are made before the first
    step, and the gathers that put every shuffle in place run once.
    """
    sources, orders = [], []
    for user, rng in zip(users, rngs):
        positives = dataset.train[user]
        if positives.size == 0:
            raise ValueError(f"user {user}: no training interactions")
        for _epoch in range(config.local_epochs):
            negatives = sample_train_negatives(dataset, user, config.neg_ratio, rng)
            sources += (positives, negatives)
            orders.append(rng.permutation(positives.size + negatives.size))
    sizes = np.array([order.size for order in orders], dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    # Epoch k's examples are sources[2k], its positives, then sources[2k + 1],
    # its negatives: a shuffled index below the positive count is a positive.
    order = np.concatenate(orders)
    labels = order < np.repeat([source.size for source in sources[::2]], sizes)
    order += np.repeat(starts, sizes)
    items = np.concatenate(sources)[order]
    epochs = config.local_epochs
    return Batches(items, labels, starts[::epochs], sizes[::epochs])


def _train(store: ClientStore, batches: Batches, config: ModelConfig, users) -> list[TrainReport]:
    """Plain SGD for store client i over its `batches`, named users[i] in errors.

    Local step s of every client runs in cohorts of the clients whose step s
    has the same length, each in chunks of `clients_per_chunk(length)`
    clients, whose batches are gathered from the flat stream into one
    (clients, length) array. A non-finite loss or gradient stops its client
    and every client above it after the step; the clients below train on, as
    a client-by-client loop would, and then the lowest failing client's first
    failing step is raised.
    """
    size, starts, batch = batches.sizes, batches.starts, config.batch_size
    count = size.size
    per_epoch = -(-size // batch)
    steps = config.local_epochs * per_epoch
    loss_sums = np.zeros(count)
    norms = np.zeros((count, int(steps.max(initial=0))))
    failed, failed_step = count, 0
    for s in range(norms.shape[1]):
        active = np.flatnonzero(steps[:failed] > s)
        epoch, offset = np.divmod(s, per_epoch[active])
        offset *= batch
        lengths = np.minimum(size[active] - offset, batch)
        begins = starts[active] + epoch * size[active] + offset
        for length in np.unique(lengths):
            same = lengths == length
            members, firsts = active[same], begins[same]
            per = clients_per_chunk(int(length))
            for at in range(0, members.size, per):
                rows = members[at : at + per]
                window = firsts[at : at + per, None] + np.arange(length)
                loss, norm = _cohort_step(
                    store,
                    rows,
                    batches.items[window],
                    batches.labels[window],
                    config.learning_rate,
                    config.clip_norm,
                )
                loss_sums[rows] += loss
                norms[rows, s] = norm
                bad = rows[~(np.isfinite(loss) & np.isfinite(norm))]
                if bad.size and bad[0] < failed:
                    failed, failed_step = int(bad[0]), s + 1
    if failed < count:
        raise TrainingError(
            f"user {users[failed]}: non-finite loss or gradient at local step {failed_step}"
        )

    mean_losses = loss_sums / (config.local_epochs * size)
    # np.mean over each client's own steps, as one row per step count.
    grad_norms = np.empty(count)
    for n_steps in np.unique(steps):
        same = steps == n_steps
        grad_norms[same] = norms[same, :n_steps].mean(axis=1)
    return [
        TrainReport(mean_loss=float(loss), steps=int(n), grad_norm=float(g))
        for loss, n, g in zip(mean_losses, steps, grad_norms)
    ]


def train_local(
    state: ClientState,
    dataset: InteractionDataset,
    user: int,
    config: ModelConfig,
    rng: np.random.Generator,
) -> TrainReport:
    """One local optimization pass over the user's training interactions,
    drawing its batches from `rng`: the cohort training of a cohort of one."""
    batches = draw_batches(dataset, [user], config, [rng])
    (report,) = _train(ClientStore.of(state), batches, config, [user])
    return report


def train_clients(
    store: ClientStore, dataset: InteractionDataset, config: ModelConfig, rngs
) -> list[TrainReport]:
    """One local optimization pass of every client in the store; client u is
    dataset user u and draws its batches from the u-th generator of `rngs`."""
    users = range(len(store))
    return _train(store, draw_batches(dataset, users, config, rngs), config, users)
