"""Per-user recommender: embeddings plus a small MLP, trained with hand-written backprop."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from fedgraphrec.data import InteractionDataset, Tier, sample_train_negatives
from fedgraphrec.seeding import INIT_SALT, derive_rng

# Probabilities are clamped to [PROB_FLOOR, 1 - PROB_FLOOR] before any log.
PROB_FLOOR = 1e-7

MLP_INIT_CHOICES = ("gaussian", "he")


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
    """Everything one user holds locally.

    Only ``item_table`` is ever shared; ``user_vec`` and the MLP weights stay
    on the client across all rounds.
    """

    user_vec: np.ndarray
    item_table: np.ndarray
    weights: list
    biases: list
    tier: Tier
    rng: np.random.Generator = field(repr=False, default=None)

    @property
    def embed_dim(self) -> int:
        return int(self.user_vec.size)

    @property
    def num_items(self) -> int:
        return int(self.item_table.shape[0])


@dataclass(frozen=True)
class TrainReport:
    """Summary of one local optimization pass."""

    mean_loss: float
    steps: int
    grad_norm: float


def init_client(config: ModelConfig, num_items: int, tier: Tier, seed) -> ClientState:
    """Fresh client: Gaussian embeddings and MLP weights, zero biases.

    `seed` may be an int or a tuple of ints.
    """
    config.validate()
    if num_items < 1:
        raise ValueError(f"num_items must be >= 1, got {num_items}")
    parts = tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)
    rng = derive_rng(*parts, INIT_SALT)
    d = config.embed_dim
    user_vec = rng.normal(0.0, config.init_scale, size=d)
    item_table = rng.normal(0.0, config.init_scale, size=(num_items, d))
    dims = [2 * d, *config.mlp_hidden, 1]
    weights = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        if config.mlp_init == "he":
            scale = np.sqrt(2.0 / fan_in)
        else:
            scale = config.init_scale
        weights.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
    biases = [np.zeros(fan_out) for fan_out in dims[1:]]
    return ClientState(
        user_vec=user_vec,
        item_table=item_table,
        weights=weights,
        biases=biases,
        tier=tier,
        rng=rng,
    )


def _forward(state: ClientState, item_rows: np.ndarray):
    """Batch forward pass. Returns input, hidden activations, pre-activations,
    and output probabilities (unclamped)."""
    d = state.user_vec.size
    X = np.empty((item_rows.shape[0], 2 * d))
    X[:, :d] = state.user_vec
    X[:, d:] = item_rows
    acts = [X]
    pres = []
    A = X
    last = len(state.weights) - 1
    for li, (W, b) in enumerate(zip(state.weights, state.biases)):
        Z = A @ W
        Z += b
        pres.append(Z)
        if li < last:
            A = np.maximum(Z, 0.0)
            acts.append(A)
    probs = expit(pres[-1].ravel())
    return X, acts, pres, probs


def _bce(probs: np.ndarray, labels: np.ndarray) -> float:
    p = np.clip(probs, PROB_FLOOR, 1.0 - PROB_FLOOR)
    return float(-(labels * np.log(p) + (1.0 - labels) * np.log1p(-p)).sum())


def score_items(state: ClientState, items: np.ndarray) -> np.ndarray:
    """Vectorized interaction probabilities for a batch of item indices."""
    items = np.asarray(items, dtype=np.int64)
    probs = _forward(state, state.item_table[items])[3]
    return np.clip(probs, PROB_FLOOR, 1.0 - PROB_FLOOR)


def _sgd_step(
    state: ClientState,
    batch_items: np.ndarray,
    batch_labels: np.ndarray,
    learning_rate: float,
    clip_norm: float | None,
) -> tuple[float, float]:
    """One mini-batch update of every parameter. Returns (summed loss, grad norm)."""
    d = state.user_vec.size
    X, acts, pres, probs = _forward(state, state.item_table[batch_items])
    loss = _bce(probs, batch_labels)

    # Gradient of the summed BCE w.r.t. the logits is simply (p - y).
    delta = (probs - batch_labels)[:, None]
    n_layers = len(state.weights)
    grads_W = [None] * n_layers
    grads_b = [None] * n_layers
    for li in range(n_layers - 1, -1, -1):
        grads_W[li] = acts[li].T @ delta
        grads_b[li] = delta.sum(axis=0)
        delta = delta @ state.weights[li].T
        if li > 0:
            np.putmask(delta, pres[li - 1] <= 0.0, 0.0)
    grad_user = delta[:, :d].sum(axis=0)
    grad_item_rows = delta[:, d:]

    # Accumulate duplicate item rows; only rows present in the batch change.
    # bincount adds each cell's contributions in batch row order.
    uniq_items, inverse = np.unique(batch_items, return_inverse=True)
    cells = (inverse[:, None] * d + np.arange(d)).ravel()
    grad_items = np.bincount(
        cells, weights=grad_item_rows.ravel(), minlength=uniq_items.size * d
    ).reshape(uniq_items.size, d)

    sq = float(grad_user @ grad_user) + float((grad_items * grad_items).sum())
    for gW, gb in zip(grads_W, grads_b):
        sq += float((gW * gW).sum()) + float(gb @ gb)
    norm = float(np.sqrt(sq))

    scale = learning_rate
    effective_norm = norm
    if clip_norm is not None and norm > clip_norm:
        scale = learning_rate * (clip_norm / norm)
        effective_norm = clip_norm

    state.user_vec -= scale * grad_user
    state.item_table[uniq_items] -= scale * grad_items
    for W, b, gW, gb in zip(state.weights, state.biases, grads_W, grads_b):
        W -= scale * gW
        b -= scale * gb
    return loss, effective_norm


def train_local(
    state: ClientState, dataset: InteractionDataset, user: int, config: ModelConfig
) -> TrainReport:
    """One local optimization pass over the user's training interactions.

    Each epoch draws a fresh negative sample, shuffles positives and
    negatives together, and applies plain SGD per mini-batch.
    """
    positives = dataset.train[user]
    if positives.size == 0:
        raise ValueError(f"user {user}: no training interactions")
    if state.rng is None:
        raise ValueError(f"user {user}: client has no RNG attached")

    total_loss = 0.0
    total_examples = 0
    step = 0
    norms = []
    for _epoch in range(config.local_epochs):
        negatives = sample_train_negatives(dataset, user, config.neg_ratio, state.rng)
        items = np.concatenate([positives, negatives])
        labels = np.concatenate(
            [np.ones(positives.size), np.zeros(negatives.size)]
        )
        order = state.rng.permutation(items.size)
        items = items[order]
        labels = labels[order]
        for start in range(0, items.size, config.batch_size):
            batch_items = items[start : start + config.batch_size]
            batch_labels = labels[start : start + config.batch_size]
            loss, norm = _sgd_step(
                state, batch_items, batch_labels, config.learning_rate, config.clip_norm
            )
            step += 1
            if not np.isfinite(loss) or not np.isfinite(norm):
                raise TrainingError(
                    f"user {user}: non-finite loss or gradient at local step {step}"
                )
            total_loss += loss
            total_examples += batch_items.size
            norms.append(norm)

    return TrainReport(
        mean_loss=total_loss / total_examples,
        steps=step,
        grad_norm=float(np.mean(norms)),
    )
