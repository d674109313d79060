"""Independent reference implementations the test suites check against.

Everything here is deliberately naive: plain loops, dense matrices, and
sort-and-scan ranking, written separately from the library code paths.
"""

import csv
import math

import numpy as np

from fedgraphrec import model as mdl
from fedgraphrec.data import (
    DataFormatError,
    InteractionDataset,
    PrivacyAssignment,
    Tier,
    sample_train_negatives,
)
from fedgraphrec.model import ClientState, ClientStore, ModelConfig, init_client
from fedgraphrec.seeding import INIT_SALT, derive_rng


# --- data oracles -------------------------------------------------------------


def reference_load_split(lines):
    """Loaded log and leave-one-out split of a log, from its data lines in file
    order: (user, item, rating, timestamp or None) each, tokens stripped. The
    rating is never read: every record counts as a positive.

    Returns (log, split): a dict of the Interactions fields, tokens coded by
    first appearance in the file and arrays as lists, and a dict of the
    InteractionDataset fields, train as lists.
    """
    # per (user, item), the record with the largest (timestamp or 0, line)
    best = {}
    for line, (user, item, _rating, ts) in enumerate(lines):
        rank = (0 if ts is None else ts, line)
        if (user, item) not in best or rank > best[(user, item)][0]:
            best[(user, item)] = (rank, (user, item))
    kept = sorted(best.values(), key=lambda entry: entry[0][1])  # line order
    records = [rec for _rank, rec in kept]
    file_users = list(dict.fromkeys(user for user, *_rest in lines))
    file_items = list(dict.fromkeys(item for _user, item, *_rest in lines))
    log = dict(
        user_tokens=file_users,
        item_tokens=file_items,
        users=[file_users.index(user) for user, _item in records],
        items=[file_items.index(item) for _user, item in records],
        timestamps=[ts for (ts, _line), _rec in kept],
    )

    counts = {}
    for user, *_rest in records:
        counts[user] = counts.get(user, 0) + 1
    user_tokens, item_tokens = [], []
    for user, item in records:
        if counts[user] >= 3:
            if user not in user_tokens:
                user_tokens.append(user)
            if item not in item_tokens:
                item_tokens.append(item)
    train, validation, test = [], [], []
    for user in user_tokens:
        history = sorted((rank, rec[1]) for rank, rec in kept if rec[0] == user)
        items = [item_tokens.index(item) for _rank, item in history]
        train.append(items[:-2])
        validation.append(items[-2])
        test.append(items[-1])
    dropped = [user for user in counts if counts[user] < 3]
    split = dict(
        num_users=len(user_tokens),
        num_items=len(item_tokens),
        user_tokens=user_tokens,
        item_tokens=item_tokens,
        train=train,
        validation=validation,
        test=test,
        dropped_users=len(dropped),
        dropped_interactions=sum(counts[user] for user in dropped),
    )
    return log, split


def reference_load_interactions(path, layout):
    """`load_interactions` as a per-line parser told the file's layout
    ("tsv", "double-colon" or "csv"): a generator of each non-blank line's
    (1-based line number, fields), then one call per line that checks the
    fields and returns (user, item, timestamp). Returns the Interactions
    fields as a dict of lists, as `reference_load_split`'s log."""
    records = []
    for line_no, fields in _reference_rows(path, layout):
        records.append(_reference_parse_fields(path, line_no, fields))
    if not records:
        raise DataFormatError(f"{path}: no interaction records")
    user_tokens = list(dict.fromkeys(user for user, _item, _ts in records))
    item_tokens = list(dict.fromkeys(item for _user, item, _ts in records))
    # per (user, item), the record with the largest (timestamp, line)
    best = {}
    for line, (user, item, ts) in enumerate(records):
        if (user, item) not in best or (ts, line) >= best[(user, item)]:
            best[(user, item)] = (ts, line)
    kept = sorted(line for _ts, line in best.values())
    return dict(
        user_tokens=user_tokens,
        item_tokens=item_tokens,
        users=[user_tokens.index(records[line][0]) for line in kept],
        items=[item_tokens.index(records[line][1]) for line in kept],
        timestamps=[records[line][2] for line in kept],
    )


def _reference_rows(path, layout):
    if layout == "csv":
        # the header row is the first line that is not whitespace alone
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            lines = list(fh)
        header = next((n for n, line in enumerate(lines, start=1) if line.strip()), 0)
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            for fields in reader:
                if reader.line_num > header and any(f.strip() for f in fields):
                    yield reader.line_num, fields
        return
    sep = "\t" if layout == "tsv" else "::"
    with open(path, "r", encoding="utf-8-sig") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.strip():
                yield line_no, line.split(sep)


def _reference_parse_fields(path, line_no, fields):
    if len(fields) not in (3, 4):
        raise DataFormatError(f"{path}:{line_no}: expected 3 or 4 fields, got {len(fields)}")
    user, item, rating_text = (f.strip() for f in fields[:3])
    if not user or not item:
        raise DataFormatError(f"{path}:{line_no}: empty user or item token")
    try:
        float(rating_text)
    except ValueError:
        raise DataFormatError(f"{path}:{line_no}: bad rating {rating_text!r}") from None
    timestamp = 0
    if len(fields) == 4 and fields[3].strip():
        try:
            timestamp = int(fields[3].strip())
        except ValueError:
            raise DataFormatError(
                f"{path}:{line_no}: bad timestamp {fields[3].strip()!r}") from None
        if not -(2**63) <= timestamp < 2**63:
            raise DataFormatError(
                f"{path}:{line_no}: timestamp {timestamp} does not fit in 64 bits")
    return user, item, timestamp


def reference_negative_pool(dataset, user):
    """The items `user` never touched in any split, as first written: an
    int64 np.flatnonzero over a fresh seen mask."""
    seen = np.zeros(dataset.num_items, dtype=bool)
    seen[dataset.train[user]] = True
    seen[dataset.validation[user]] = True
    seen[dataset.test[user]] = True
    return np.flatnonzero(~seen)


# --- model oracles ------------------------------------------------------------


def as_cohort(state):
    """`state` as a cohort of one: the (store, rows) that the cohort kernels
    take, viewing `state`'s own arrays."""
    return ClientStore.of(state), np.zeros(1, dtype=np.int64)


def init_store(config, num_items, n, seed):
    """A store of n fresh clients; client u is drawn from seed (seed, u)."""
    store = ClientStore.empty(n, num_items, config)
    for u in range(n):
        init_client(config, num_items, None, seed=(seed, u), out=store[u])
    return store


def reference_init(config, num_items, seed, draw_items=True):
    """(user vector, item table, weights, biases) of a fresh client, drawn
    as first written: one `rng.normal(0, scale, size)` per array, in order.
    Without `draw_items` the item table is None and is not drawn."""
    rng = derive_rng(*(tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)), INIT_SALT)
    d = config.embed_dim
    user_vec = rng.normal(0.0, config.init_scale, size=d)
    item_table = rng.normal(0.0, config.init_scale, size=(num_items, d)) if draw_items else None
    dims = [2 * d, *config.mlp_hidden, 1]
    weights = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out)))
    return user_vec, item_table, weights, [np.zeros(fan_out) for fan_out in dims[1:]]


def naive_forward(state, item):
    """Scalar re-implementation of the forward pass with plain loops."""
    x = list(state.user_vec) + list(state.item_table[item])
    for li, (W, b) in enumerate(zip(state.weights, state.biases)):
        out = []
        for j in range(W.shape[1]):
            z = b[j] + sum(x[i] * W[i, j] for i in range(W.shape[0]))
            out.append(z)
        if li < len(state.weights) - 1:
            out = [max(z, 0.0) for z in out]
        x = out
    return 1.0 / (1.0 + math.exp(-x[0]))


def predict(state, item):
    """Interaction probability for one item, through the library's scoring."""
    return float(mdl.score_cohort(*as_cohort(state), np.asarray([[item]]))[0, 0])


def bce_loss(pairs):
    """Summed binary cross-entropy over (probability, label) pairs, through
    the library's loss."""
    arr = np.asarray(pairs, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("bce_loss needs at least one (prediction, label) pair")
    arr = arr.reshape(-1, 2)
    return mdl._bce(arr[:, 0], arr[:, 1])


def rank_items(state, candidates):
    """Score candidates, sorted by descending score; ties by ascending item index."""
    cands = np.asarray(candidates, dtype=np.int64)
    if cands.size == 0:
        raise ValueError("no candidate items to rank")
    scores = mdl.score_cohort(*as_cohort(state), cands[None])[0]
    order = np.lexsort((cands, -scores))
    return [(int(cands[i]), float(scores[i])) for i in order]


def naive_bce(pairs):
    total = 0.0
    for p, y in pairs:
        p = min(max(p, 1e-7), 1 - 1e-7)
        total += -(y * math.log(p) + (1 - y) * math.log(1 - p))
    return total


def clone_state(state):
    return ClientState(
        user_vec=state.user_vec.copy(),
        item_table=state.item_table.copy(),
        weights=[W.copy() for W in state.weights],
        biases=[b.copy() for b in state.biases],
    )


def batch_loss(state, items, labels):
    store, rows = as_cohort(state)
    probs = mdl._cohort_forward(*store.gather(rows, np.asarray(items)[None]))[2][0]
    return mdl._bce(probs, np.asarray(labels, dtype=np.float64))


def analytic_gradients(state, items, labels):
    """Recover the raw gradients by applying one unit-rate step to a copy."""
    clone = clone_state(state)
    labels = np.asarray(labels, dtype=np.float64)
    mdl._cohort_step(*as_cohort(clone), items[None], labels[None], 1.0, 0.0)
    grads = {
        "user_vec": state.user_vec - clone.user_vec,
        "item_table": state.item_table - clone.item_table,
    }
    for li in range(len(state.weights)):
        grads[f"W{li}"] = state.weights[li] - clone.weights[li]
        grads[f"b{li}"] = state.biases[li] - clone.biases[li]
    return grads


def numeric_gradient(state, items, labels, array, index, eps=1e-5):
    old = array[index]
    array[index] = old + eps
    plus = batch_loss(state, items, labels)
    array[index] = old - eps
    minus = batch_loss(state, items, labels)
    array[index] = old
    return (plus - minus) / (2 * eps)


def reference_forward(state, item_rows):
    """The batch forward pass as first written: bias added out of place."""
    d = state.user_vec.size
    X = np.empty((item_rows.shape[0], 2 * d))
    X[:, :d] = state.user_vec
    X[:, d:] = item_rows
    acts = [X]
    pres = []
    A = X
    last = len(state.weights) - 1
    for li, (W, b) in enumerate(zip(state.weights, state.biases)):
        Z = A @ W + b
        pres.append(Z)
        if li < last:
            A = np.maximum(Z, 0.0)
            acts.append(A)
    probs = 1 / (1 + np.exp(-pres[-1].ravel()))
    return X, acts, pres, probs


def reference_sgd_step(state, batch_items, batch_labels, learning_rate, clip_norm):
    """The SGD step with the first layer factored, written client by client:
    [u; i] W1 + b1 as i W1[d:] + (u W1[:d] + b1), boolean-mask ReLU and
    `np.add.at` scatter.

    The library step must match it bit for bit.
    """
    d = state.user_vec.size
    item_rows = state.item_table[batch_items]
    W1 = state.weights[0]
    acts = [item_rows]
    pres = [item_rows @ W1[d:] + (state.user_vec @ W1[:d] + state.biases[0])]
    for W, b in zip(state.weights[1:], state.biases[1:]):
        acts.append(np.maximum(pres[-1], 0.0))
        pres.append(acts[-1] @ W + b)
    probs = 1 / (1 + np.exp(-pres[-1].ravel()))
    loss = mdl._bce(probs, batch_labels)

    # Gradient of the summed BCE w.r.t. the logits is simply (p - y).
    delta = (probs - batch_labels)[:, None]
    n_layers = len(state.weights)
    grads_W = [None] * n_layers
    grads_b = [None] * n_layers
    for li in range(n_layers - 1, 0, -1):
        grads_W[li] = acts[li].T @ delta
        grads_b[li] = delta.sum(axis=0)
        delta = delta @ state.weights[li].T
        delta[pres[li - 1] <= 0.0] = 0.0
    # Every example shares the user half of the first layer's input.
    row_sum = delta.sum(axis=0)
    grads_b[0] = row_sum
    grads_W[0] = np.vstack([np.outer(state.user_vec, row_sum), item_rows.T @ delta])
    grad_user = row_sum @ W1[:d].T
    grad_item_rows = delta @ W1[d:].T

    # Accumulate duplicate item rows; only rows present in the batch change.
    uniq_items, inverse = np.unique(batch_items, return_inverse=True)
    grad_items = np.zeros((uniq_items.size, d))
    np.add.at(grad_items, inverse, grad_item_rows)

    # The item rows' squares are added one row after another, in item order.
    sq = float(grad_user @ grad_user) + sum(float(row @ row) for row in grad_items)
    for gW, gb in zip(grads_W, grads_b):
        sq += float((gW * gW).sum()) + float(gb @ gb)
    return loss, apply_reference_step(
        state, grad_user, uniq_items, grad_items, grads_W, grads_b, float(np.sqrt(sq)),
        learning_rate, clip_norm,
    )


def concat_reference_sgd_step(state, batch_items, batch_labels, learning_rate, clip_norm):
    """The SGD step as first written: the NCF input [u; i] built for every
    example, boolean-mask ReLU and `np.add.at` scatter.

    The library step factors the first layer, so it tracks this step to
    rounding, not bit for bit.
    """
    d = state.user_vec.size
    X, acts, pres, probs = reference_forward(state, state.item_table[batch_items])
    loss = mdl._bce(probs, batch_labels)

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
            delta[pres[li - 1] <= 0.0] = 0.0
    grad_user = delta[:, :d].sum(axis=0)
    grad_item_rows = delta[:, d:]

    # Accumulate duplicate item rows; only rows present in the batch change.
    uniq_items, inverse = np.unique(batch_items, return_inverse=True)
    grad_items = np.zeros((uniq_items.size, d))
    np.add.at(grad_items, inverse, grad_item_rows)

    sq = float(grad_user @ grad_user) + float((grad_items * grad_items).sum())
    for gW, gb in zip(grads_W, grads_b):
        sq += float((gW * gW).sum()) + float(gb @ gb)
    return loss, apply_reference_step(
        state, grad_user, uniq_items, grad_items, grads_W, grads_b, float(np.sqrt(sq)),
        learning_rate, clip_norm,
    )


def apply_reference_step(
    state, grad_user, uniq_items, grad_items, grads_W, grads_b, norm, learning_rate, clip_norm
):
    """Apply one step's gradients to `state`, scaled down when `norm` exceeds
    `clip_norm`, and return the norm after clipping."""
    scale = learning_rate
    effective_norm = norm
    if clip_norm > 0 and norm > clip_norm:
        scale = learning_rate * (clip_norm / norm)
        effective_norm = clip_norm

    state.user_vec -= scale * grad_user
    state.item_table[uniq_items] -= scale * grad_items
    for W, b, gW, gb in zip(state.weights, state.biases, grads_W, grads_b):
        W -= scale * gW
        b -= scale * gb
    return effective_norm


def reference_local_batches(dataset, user, config, rng):
    """Every mini-batch of one client's local pass, in order, as (items,
    labels), drawn client by client as first written: each epoch draws a
    negative sample, then a permutation of positives and negatives.

    `model.draw_batches` must give every client these batches byte for byte.
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


def reference_train_local(state, dataset, user, config, rng):
    """One client's local pass as first written: a loop of
    `reference_sgd_step` calls, drawing from `rng` epoch by epoch.

    Cohort training must match it bit for bit, client by client.
    """
    positives = dataset.train[user]
    if positives.size == 0:
        raise ValueError(f"user {user}: no training interactions")
    total_loss = 0.0
    total_examples = 0
    step = 0
    norms = []
    for _epoch in range(config.local_epochs):
        negatives = sample_train_negatives(dataset, user, config.neg_ratio, rng)
        items = np.concatenate([positives, negatives])
        labels = np.concatenate([np.ones(positives.size), np.zeros(negatives.size)])
        order = rng.permutation(items.size)
        items = items[order]
        labels = labels[order]
        for start in range(0, items.size, config.batch_size):
            batch_items = items[start : start + config.batch_size]
            batch_labels = labels[start : start + config.batch_size]
            loss, norm = reference_sgd_step(
                state, batch_items, batch_labels, config.learning_rate, config.clip_norm
            )
            step += 1
            if not np.isfinite(loss) or not np.isfinite(norm):
                raise mdl.TrainingError(
                    f"user {user}: non-finite loss or gradient at local step {step}"
                )
            total_loss += loss
            total_examples += batch_items.size
            norms.append(norm)
    return mdl.TrainReport(
        mean_loss=total_loss / total_examples, steps=step, grad_norm=float(np.mean(norms))
    )


def random_instance(rng, max_dim=4):
    """Small random model plus a batch, regenerated while any ReLU
    pre-activation sits too close to its kink for finite differences."""
    for _attempt in range(200):
        d = int(rng.integers(1, max_dim + 1))
        hidden = tuple(
            int(rng.integers(1, max_dim + 1)) for _ in range(int(rng.integers(1, 3)))
        )
        num_items = int(rng.integers(2, 7))
        config = ModelConfig(embed_dim=d, mlp_hidden=hidden, learning_rate=0.01)
        state = init_client(config, num_items, Tier.PUBLIC, seed=int(rng.integers(1 << 30)))
        state.user_vec[:] = rng.normal(0, 0.5, size=d)
        state.item_table[:] = rng.normal(0, 0.5, size=(num_items, d))
        for W in state.weights:
            W[:] = rng.normal(0, 0.5, size=W.shape)
        for b in state.biases:
            b[:] = rng.normal(0, 0.2, size=b.shape)
        batch = int(rng.integers(1, 6))
        items = rng.integers(0, num_items, size=batch)
        labels = rng.integers(0, 2, size=batch).astype(np.float64)
        store, rows = as_cohort(state)
        pres = mdl._cohort_forward(*store.gather(rows, items[None]))[1]
        margin = min(float(np.abs(p).min()) for p in pres[:-1]) if len(pres) > 1 else 1.0
        if margin > 1e-3:
            return state, items, labels
    raise AssertionError("could not build a kink-free instance")


def check_instance_gradients(state, items, labels, rel_tol=1e-4):
    """Every analytic partial matches central finite differences."""
    grads = analytic_gradients(state, items, labels)
    arrays = {"user_vec": state.user_vec, "item_table": state.item_table}
    for li in range(len(state.weights)):
        arrays[f"W{li}"] = state.weights[li]
        arrays[f"b{li}"] = state.biases[li]
    for name, array in arrays.items():
        grad = grads[name]
        for index in np.ndindex(array.shape):
            expected = numeric_gradient(state, items, labels, array, index)
            got = grad[index]
            denom = max(abs(expected), abs(got), 1e-8)
            assert abs(expected - got) / denom < rel_tol, (
                f"{name}{list(index)}: analytic {got} vs numeric {expected}"
            )


# --- graph oracles ------------------------------------------------------------


def brute_adjacency(train_sets, is_public):
    """Set-intersection co-interaction counts plus the self-loop rules."""
    n = len(train_sets)
    A = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            if a != b and is_public[a] and is_public[b]:
                A[a, b] = len(set(train_sets[a]) & set(train_sets[b]))
    for u in range(n):
        if A[u].sum() == 0:
            A[u, u] = 1.0
    return A


def brute_normalized(A):
    degree = A.sum(axis=1)
    inv_sqrt = np.diag(1.0 / np.sqrt(degree))
    return inv_sqrt @ A @ inv_sqrt


def brute_triplets(matrix):
    """The `dump_triplets` file for a dense matrix, written cell by cell."""
    lines = ["user_a\tuser_b\tweight"]
    n = matrix.shape[0]
    for a in range(n):
        for b in range(a, n):
            if matrix[a, b] != 0.0:
                lines.append(f"{a}\t{b}\t{float(matrix[a, b])!r}")
    return "\n".join(lines) + "\n"


def brute_propagate(normalized, tables, layers):
    n = tables.shape[0]
    flat = tables.reshape(n, -1).copy()
    for _ in range(layers):
        flat = normalized @ flat
    return flat.reshape(tables.shape)


def dataset_from_train_sets(train_sets, num_items):
    """Minimal InteractionDataset wrapper around explicit train lists."""
    n = len(train_sets)
    return InteractionDataset(
        num_users=n,
        num_items=num_items,
        train=[np.asarray(sorted(s), dtype=np.int64) for s in train_sets],
        validation=[0] * n,
        test=[0] * n,
        user_tokens=[f"u{i}" for i in range(n)],
        item_tokens=[f"i{j}" for j in range(num_items)],
    )


def tiers_from_mask(mask):
    mask = np.asarray(mask, dtype=bool)
    return PrivacyAssignment(is_public=mask)


def random_graph_instance(rng, max_users=8, max_items=12):
    """Random train sets (possibly empty) and a random privacy mask."""
    n = int(rng.integers(1, max_users + 1))
    m = int(rng.integers(1, max_items + 1))
    train_sets = []
    for _u in range(n):
        size = int(rng.integers(0, min(m, 5) + 1))
        train_sets.append(set(rng.choice(m, size=size, replace=False).tolist()))
    mask = rng.random(n) < rng.random()
    return train_sets, m, mask


# --- evaluation oracles ---------------------------------------------------------


def make_score_store(per_user_values):
    """Clients whose predicted logit for item j is exactly per_user_values[u][j].

    Uses h = [relu(v), relu(-v)] and output relu(v) - relu(-v) = v, so the
    sigmoid output is strictly monotone in the stored value.
    """
    values = np.asarray(per_user_values, dtype=np.float64)
    n, num_items = values.shape
    config = ModelConfig(embed_dim=1, mlp_hidden=(2,))
    store = ClientStore.empty(n, num_items, config)
    store.user_vecs[:] = 0.0
    store.item_tables[:] = values[:, :, None]
    store.weights[0][:] = [[0.0, 0.0], [1.0, -1.0]]
    store.weights[1][:] = [[1.0], [-1.0]]
    return store


def make_score_state(values):
    """One client whose predicted logit for item j is exactly values[j]."""
    return make_score_store([values])[0]


def oracle_rank(item_scores, test_item):
    """Sort-and-scan 1-based rank under (descending score, ascending item)."""
    ordered = sorted(item_scores, key=lambda pair: (-pair[1], pair[0]))
    for position, (item, _score) in enumerate(ordered, start=1):
        if item == test_item:
            return position
    raise AssertionError("test item missing from candidates")


def reference_evaluate_round(clients, dataset, eval_negatives, tiers, k, target):
    """One full ranking pass per held-out item, through `rank_items`' sort.

    Returns (per-user ranks, hr, ndcg, {tier: (hr, ndcg, user_count)}).
    """
    n = dataset.num_users
    hrs = np.empty(n)
    ndcgs = np.empty(n)
    ranks = np.empty(n, dtype=np.int64)
    for u, state in enumerate(clients):
        held = dataset.test[u] if target == "test" else dataset.validation[u]
        candidates = np.concatenate([eval_negatives[u], [held]])
        ranked = rank_items(state, candidates)
        rank = next(pos for pos, (item, _score) in enumerate(ranked, start=1) if item == held)
        hrs[u] = 1 if rank <= k else 0
        ndcgs[u] = 1.0 / math.log2(rank + 1.0) if rank <= k else 0.0
        ranks[u] = rank
    per_tier = {}
    for tier, mask in ((Tier.PUBLIC, tiers.is_public), (Tier.PRIVATE, ~tiers.is_public)):
        if mask.any():
            per_tier[tier] = (float(hrs[mask].mean()), float(ndcgs[mask].mean()), int(mask.sum()))
    return ranks, float(hrs.mean()), float(ndcgs.mean()), per_tier
