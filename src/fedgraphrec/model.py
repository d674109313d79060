"""Per-user recommender: embeddings plus a small MLP, trained with hand-written backprop.

Every kernel runs over a cohort of clients at once: their parameters are
stacked on a leading client axis, and one client is a cohort of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from fedgraphrec.data import InteractionDataset, Tier, sample_train_negatives
from fedgraphrec.seeding import INIT_SALT, derive_rng

# Probabilities are clamped to [PROB_FLOOR, 1 - PROB_FLOOR] before any log.
PROB_FLOOR = 1e-7

MLP_INIT_CHOICES = ("gaussian", "he")

# Example rows per stacked kernel call: a cohort of clients whose batches hold
# B rows each runs in chunks of max(1, COHORT_ROWS // B) clients. Each chunk's
# temporaries are a few (COHORT_ROWS, width) float64 arrays. On the bundled
# 50-client file (one CPU, median round over 4 seeds), 128/256/384/512/768/
# 1024/2048 rows took 15.9/13.2/12.4/10.8/11.4/12.0/15.4 ms a round, against
# 22.7 ms client by client; from 768 rows up the peak RSS grows too. Larger
# fresh temporaries page-fault more than the saved calls are worth.
COHORT_ROWS = 512


class TrainingError(RuntimeError):
    """Raised when local optimization produces a non-finite loss or gradient."""


@dataclass
class ModelConfig:
    """Client model and local-training hyperparameters."""

    embed_dim: int = 32
    mlp_hidden: tuple[int, ...] = (32, 16)
    learning_rate: float = 0.01
    local_epochs: int = 1
    neg_ratio: int = 4
    batch_size: int = 256
    init_scale: float = 0.01
    # "gaussian": every weight ~ N(0, init_scale^2); "he": MLP weights use
    # N(0, 2/fan_in) instead, embeddings keep init_scale. Gaussian MLP weights
    # at the default scale leave the net too flat to train in a practical
    # round budget, so "he" is the default.
    mlp_init: str = "he"
    clip_norm: float | None = None

    def validate(self) -> None:
        if self.embed_dim < 1:
            raise ValueError(f"embed_dim must be >= 1, got {self.embed_dim}")
        if not self.mlp_hidden or any(h < 1 for h in self.mlp_hidden):
            raise ValueError(f"mlp_hidden must be positive widths, got {self.mlp_hidden}")
        if self.learning_rate < 0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.local_epochs < 1:
            raise ValueError(f"local_epochs must be >= 1, got {self.local_epochs}")
        if self.neg_ratio < 1:
            raise ValueError(f"neg_ratio must be >= 1, got {self.neg_ratio}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.init_scale < 0:
            raise ValueError(f"init_scale must be >= 0, got {self.init_scale}")
        if self.mlp_init not in MLP_INIT_CHOICES:
            raise ValueError(f"mlp_init must be one of {MLP_INIT_CHOICES}, got {self.mlp_init!r}")
        if self.clip_norm is not None and self.clip_norm <= 0:
            raise ValueError(f"clip_norm must be > 0 when set, got {self.clip_norm}")


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

    def gather(self, rows: np.ndarray, items: np.ndarray):
        """Copies of clients `rows`' parameters, with client c's item-table rows
        `items[c]`: (user vectors, item rows, weights, biases)."""
        return (
            self.user_vecs[rows],
            self.item_tables[rows[:, None], items],
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
    config: ModelConfig, num_items: int, tier: Tier | None, seed, out: ClientState | None = None
) -> ClientState:
    """Draw a fresh client into `out`, a row of a ClientStore, and return it:
    Gaussian embeddings and MLP weights, zero biases. Without `out`, the
    client is the one row of a new store.

    `seed` may be an int or a tuple of ints. `tier` is not read: the client's
    privacy tier lives only in the PrivacyAssignment. The parameter stays
    because `perfbench/test_checks.py` passes it, by position and by name.
    """
    config.validate()
    if num_items < 1:
        raise ValueError(f"num_items must be >= 1, got {num_items}")
    if out is None:
        out = ClientStore.empty(1, num_items, config)[0]
    d = config.embed_dim
    dims = [2 * d, *config.mlp_hidden, 1]
    arrays = [out.user_vec, out.item_table, *out.weights]
    if [a.shape for a in arrays] != [(d,), (num_items, d), *zip(dims[:-1], dims[1:])]:
        raise ValueError("out does not have the shape of this config and item count")
    if config.mlp_init == "he":
        mlp_scales = [np.sqrt(2.0 / fan_in) for fan_in in dims[:-1]]
    else:
        mlp_scales = [config.init_scale] * (len(dims) - 1)
    parts = tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)
    rng = derive_rng(*parts, INIT_SALT)
    # In place, z * scale equals the scale * z + 0 that rng.normal(0, scale)
    # returns, bar the sign of a zero.
    for array, scale in zip(arrays, [config.init_scale, config.init_scale, *mlp_scales]):
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
    unclamped. Every client's slice is computed as its own 2-D product.
    """
    C, B, d = item_rows.shape
    X = np.empty((C, B, 2 * d))
    X[:, :, :d] = user_vecs[:, None, :]
    X[:, :, d:] = item_rows
    acts = [X]
    pres = []
    A = X
    last = len(weights) - 1
    for li, (W, b) in enumerate(zip(weights, biases)):
        Z = np.matmul(A, W)
        Z += b[:, None, :]
        pres.append(Z)
        if li < last:
            A = np.maximum(Z, 0.0)
            acts.append(A)
    probs = expit(pres[-1][:, :, 0])
    return acts, pres, probs


def _bce(probs: np.ndarray, labels: np.ndarray):
    """Summed binary cross-entropy over the last axis."""
    p = np.clip(probs, PROB_FLOOR, 1.0 - PROB_FLOOR)
    return -(labels * np.log(p) + (1.0 - labels) * np.log1p(-p)).sum(axis=-1)


def score_cohort(store: ClientStore, rows: np.ndarray, items: np.ndarray) -> np.ndarray:
    """Interaction probabilities of clients `rows` for their items (C, K)."""
    probs = _cohort_forward(*store.gather(rows, items))[2]
    return np.clip(probs, PROB_FLOOR, 1.0 - PROB_FLOOR)


def _row_dots(v: np.ndarray) -> np.ndarray:
    """v[c] @ v[c] for every row, each through the same BLAS dot as a 1-D `@`."""
    return np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0]


def _cohort_step(
    store: ClientStore,
    rows: np.ndarray,
    items: np.ndarray,
    labels: np.ndarray,
    learning_rate: float,
    clip_norm: float | None,
) -> tuple[np.ndarray, np.ndarray]:
    """One mini-batch update of every parameter of clients `rows`, client c on
    its batch items[c], labels[c] (C, B). Runs in chunks of at most
    COHORT_ROWS example rows. Returns per-client (summed loss, grad norm
    after clipping)."""
    per = max(1, COHORT_ROWS // items.shape[1])
    if rows.size > per:
        parts = [
            _cohort_step(store, rows[i : i + per], items[i : i + per], labels[i : i + per],
                         learning_rate, clip_norm)
            for i in range(0, rows.size, per)
        ]
        return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])

    C = rows.size
    m = store.item_tables.shape[1]
    user_vecs, item_rows, weights, biases = store.gather(rows, items)
    d = user_vecs.shape[1]
    acts, pres, probs = _cohort_forward(user_vecs, item_rows, weights, biases)
    del item_rows  # copied into acts[0]
    loss = _bce(probs, labels)

    # Gradient of the summed BCE w.r.t. the logits is simply (p - y). Each
    # layer's activations and pre-activations are dropped once used, which
    # keeps the chunk's peak memory down.
    delta = (probs - labels)[:, :, None]
    n_layers = len(weights)
    grads_W = [None] * n_layers
    grads_b = [None] * n_layers
    pres.pop()
    for li in range(n_layers - 1, -1, -1):
        grads_W[li] = np.matmul(acts.pop().transpose(0, 2, 1), delta)
        grads_b[li] = delta.sum(axis=1)
        delta = np.matmul(delta, weights[li].transpose(0, 2, 1))
        if li > 0:
            np.putmask(delta, pres.pop() <= 0.0, 0.0)
    grad_users = delta[:, :, :d].sum(axis=1)

    # Accumulate duplicate item rows per client; only rows present in a
    # client's batch change. bincount adds each cell's contributions in batch
    # row order, and each client's unique rows come out as one sorted block.
    keys = (np.arange(C)[:, None] * m + items).ravel()
    uniq, inverse = np.unique(keys, return_inverse=True)
    cells = (inverse[:, None] * d + np.arange(d)).ravel()
    grad_items = np.bincount(
        cells, weights=delta[:, :, d:].ravel(), minlength=uniq.size * d
    ).reshape(uniq.size, d)
    owner = uniq // m

    # Each client's squared norm adds its parts in the one-client order. Its
    # item rows are summed alone: numpy's pairwise sum splits by length, so
    # no segmented reduction gives the same bits.
    squares = (grad_items * grad_items).ravel()
    bounds = (np.searchsorted(owner, np.arange(C + 1)) * d).tolist()
    sq = _row_dots(grad_users) + [squares[a:b].sum() for a, b in zip(bounds, bounds[1:])]
    for gW, gb in zip(grads_W, grads_b):
        sq += (gW * gW).reshape(C, -1).sum(axis=1) + _row_dots(gb)
    norm = np.sqrt(sq)

    scale = np.full(C, float(learning_rate))
    if clip_norm is not None:
        clipped = norm > clip_norm
        scale[clipped] = learning_rate * (clip_norm / norm[clipped])
        norm[clipped] = clip_norm

    user_vecs -= scale[:, None] * grad_users
    store.user_vecs[rows] = user_vecs
    store.item_tables[rows[owner], uniq % m] -= scale[owner, None] * grad_items
    for stack, W, gW in zip(store.weights, weights, grads_W):
        W -= scale[:, None, None] * gW
        stack[rows] = W
    for stack, b, gb in zip(store.biases, biases, grads_b):
        b -= scale[:, None] * gb
        stack[rows] = b
    return loss, norm


def local_batches(
    dataset: InteractionDataset, user: int, config: ModelConfig, rng: np.random.Generator
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Every mini-batch of one local pass, in order, as (items, labels), where
    a label is True for a positive.

    Each epoch draws a fresh negative sample and shuffles positives and
    negatives together. No draw depends on the parameters, so all of them
    can be made before the first step.
    """
    positives = dataset.train[user]
    if positives.size == 0:
        raise ValueError(f"user {user}: no training interactions")
    batches = []
    for _epoch in range(config.local_epochs):
        negatives = sample_train_negatives(dataset, user, config.neg_ratio, rng)
        order = rng.permutation(positives.size + negatives.size)
        items = np.concatenate([positives, negatives])[order]
        labels = order < positives.size
        for start in range(0, items.size, config.batch_size):
            batches.append(
                (items[start : start + config.batch_size], labels[start : start + config.batch_size])
            )
    return batches


def _train(store: ClientStore, batches: list, config: ModelConfig, users) -> list[TrainReport]:
    """Plain SGD for store client i over batches[i], named users[i] in errors.

    Local step s of every client runs in cohorts of the clients whose step s
    has the same length. A non-finite loss or gradient stops its client and
    every client above it after the step; the clients below train on, as a
    client-by-client loop would, and then the lowest failing client's first
    failing step is raised.
    """
    count = len(batches)
    steps = np.array([len(b) for b in batches])
    loss_sums = np.zeros(count)
    norms = np.zeros((count, int(steps.max(initial=0))))
    failed, failed_step = count, 0
    for s in range(norms.shape[1]):
        cohorts: dict[int, list[int]] = {}
        for i in range(failed):
            if s < steps[i]:
                cohorts.setdefault(batches[i][s][0].size, []).append(i)
        for members in cohorts.values():
            rows = np.asarray(members)
            loss, norm = _cohort_step(
                store,
                rows,
                np.stack([batches[i][s][0] for i in members]),
                np.stack([batches[i][s][1] for i in members]),
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

    examples = [sum(items.size for items, _labels in b) for b in batches]
    mean_losses = loss_sums / examples
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
    batches = local_batches(dataset, user, config, rng)
    (report,) = _train(ClientStore.of(state), [batches], config, [user])
    return report


def train_clients(
    store: ClientStore, dataset: InteractionDataset, config: ModelConfig, rngs
) -> list[TrainReport]:
    """One local optimization pass of every client in the store; client u is
    dataset user u and draws its batches from the u-th generator of `rngs`."""
    batches = [local_batches(dataset, u, config, rng) for u, rng in zip(range(len(store)), rngs)]
    return _train(store, batches, config, range(len(batches)))
