"""Correctness checks the benchmark applies to the program's outputs.

Each check recomputes what it expects on its own, from the inputs and the
published formulas, and raises CheckFailed when the program disagrees. None
of them compares against a stored copy of an earlier output.
"""

from __future__ import annotations

import math

import numpy as np

METRIC_COLUMNS = ("hr", "ndcg", "hr_public", "ndcg_public", "hr_private", "ndcg_private")
PROB_FLOOR = 1e-7


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def num_public(num_users: int, public_ratio: float) -> int:
    """Tier size by round-half-up, as the paper's tier split defines it."""
    return int(math.floor(public_ratio * num_users + 0.5))


def check_rounds(rows: list[dict], *, rounds: int, eval_every: int, num_users: int,
                 public_ratio: float) -> None:
    """One repetition's rounds.csv rows, as dicts of the raw cell strings.

    Metric cells lie in [0, 100]; evaluated rounds are exactly the stride and
    the final round; hr and ndcg are the user-weighted means of their tier
    columns; the loss is finite and falls from the first to the last round.
    """
    _require([int(r["round"]) for r in rows] == list(range(1, rounds + 1)),
             f"rounds.csv holds rounds {[r['round'] for r in rows]}, expected 1..{rounds}")
    sizes = {"public": num_public(num_users, public_ratio)}
    sizes["private"] = num_users - sizes["public"]
    for row in rows:
        r = int(row["round"])
        loss = float(row["loss"])
        _require(math.isfinite(loss) and loss > 0.0, f"round {r}: loss {loss} is not finite and positive")
        wall = float(row["wall_time"])
        _require(math.isfinite(wall) and wall > 0.0, f"round {r}: wall_time {wall}")
        cells = {c: float(row[c]) for c in METRIC_COLUMNS if row[c] != ""}
        for column, value in cells.items():
            _require(0.0 <= value <= 100.0, f"round {r}: {column} = {value} outside [0, 100]")
        evaluated = r % eval_every == 0 or r == rounds
        _require(("hr" in cells) == evaluated,
                 f"round {r}: evaluated is {'hr' in cells}, expected {evaluated}")
        if not evaluated:
            continue
        for metric in ("hr", "ndcg"):
            total = 0.0
            for tier, size in sizes.items():
                column = f"{metric}_{tier}"
                _require((column in cells) == (size > 0),
                         f"round {r}: {column} present is {column in cells} with {size} users")
                total += size * cells.get(column, 0.0)
            expected = total / num_users
            _require(abs(cells[metric] - expected) <= 1e-9 * max(1.0, expected),
                     f"round {r}: {metric} = {cells[metric]} but its tiers give {expected}")
    first, last = float(rows[0]["loss"]), float(rows[-1]["loss"])
    _require(last < first, f"loss did not fall: round 1 {first}, round {rounds} {last}")


def check_summary(summary: dict, final_rows: list[dict]) -> None:
    """summary.csv's final-round means against the repetitions' last rows."""
    _require(int(summary["reps"]) == len(final_rows),
             f"summary covers {summary['reps']} reps, found {len(final_rows)}")
    for metric in ("hr", "ndcg"):
        for stat in ("best", "final"):
            value = float(summary[f"{metric}_{stat}_mean"])
            _require(0.0 <= value <= 100.0, f"summary {metric}_{stat}_mean = {value} outside [0, 100]")
        expected = float(np.mean([float(row[metric]) for row in final_rows]))
        value = float(summary[f"{metric}_final_mean"])
        _require(abs(value - expected) <= 1e-9 * max(1.0, expected),
                 f"summary {metric}_final_mean = {value}, rounds.csv gives {expected}")


def check_beats_chance(hr_pct: float, k: int, negatives: int) -> None:
    chance = 100.0 * k / (negatives + 1)
    _require(hr_pct > chance, f"HR@{k} = {hr_pct:.2f} % does not beat chance {chance:.2f} %")


def check_server_step(train_sets, is_public, alpha: float, layers: int,
                      uploads: np.ndarray, tables: np.ndarray) -> None:
    """Installed tables against a dense recomputation from the uploads.

    `uploads` and `tables` are (users, sampled items, dim). The adjacency
    counts shared training items by set intersection between sharing users;
    rows with no edge get a unit self-loop. The propagation is the symmetric
    normalized smoothing; sharing users then get alpha * own + (1 - alpha) *
    global mean, everyone else the global mean.
    """
    n = len(train_sets)
    _require(uploads.shape == tables.shape and uploads.shape[0] == n,
             f"shapes: {n} users, uploads {uploads.shape}, tables {tables.shape}")
    sets = [set(np.asarray(items).tolist()) for items in train_sets]
    public = [u for u in range(n) if is_public[u]]
    adjacency = np.zeros((n, n))
    for i, a in enumerate(public):
        for b in public[i + 1:]:
            shared = len(sets[a] & sets[b])
            adjacency[a, b] = adjacency[b, a] = shared
    degree = adjacency.sum(axis=1)
    lonely = degree == 0.0
    adjacency[lonely, lonely] = 1.0
    degree[lonely] = 1.0
    inv_sqrt = 1.0 / np.sqrt(degree)
    normalized = adjacency * inv_sqrt[:, None] * inv_sqrt[None, :]
    smoothed = uploads.reshape(n, -1)
    for _ in range(layers):
        smoothed = normalized @ smoothed
    smoothed = smoothed.reshape(uploads.shape)
    global_mean = smoothed.mean(axis=0)
    mask = np.asarray(is_public, dtype=bool)[:, None, None]
    expected = np.where(mask, alpha * smoothed + (1.0 - alpha) * global_mean, global_mean)
    scale = float(np.abs(uploads).max())
    error = float(np.abs(tables - expected).max())
    _require(error <= 1e-9 * scale,
             f"installed tables differ from the dense recomputation by {error:.3e} (scale {scale:.3e})")


def _scalar_score(user_vec, item_row, weights, biases) -> float:
    x = [float(v) for v in user_vec] + [float(v) for v in item_row]
    last = len(weights) - 1
    for li, (W, b) in enumerate(zip(weights, biases)):
        z = [float(b[j]) + sum(x[i] * W[i][j] for i in range(len(x))) for j in range(len(b))]
        x = z if li == last else [max(v, 0.0) for v in z]
    logit = x[0]
    if logit >= 0.0:
        p = 1.0 / (1.0 + math.exp(-logit))
    else:
        e = math.exp(logit)
        p = e / (1.0 + e)
    return min(max(p, PROB_FLOOR), 1.0 - PROB_FLOOR)


def check_ranking(user_vec, item_rows: dict, weights, biases, candidates, held_item: int,
                  rank: int) -> None:
    """The program's 1-based rank of `held_item` against a scalar re-scoring.

    `item_rows` maps each candidate item to its embedding row. Candidates are
    sorted by descending score, ties by ascending item index, and scanned
    for the held-out item. Scores within 1e-12 of the held item's are float
    noise between the two forward passes, so each one widens the accepted
    rank by one.
    """
    W = [np.asarray(w).tolist() for w in weights]
    b = [np.asarray(v).tolist() for v in biases]
    scores = {int(c): _scalar_score(user_vec, item_rows[int(c)], W, b) for c in candidates}
    order = sorted(scores, key=lambda c: (-scores[c], c))
    expected = order.index(int(held_item)) + 1
    held = scores[int(held_item)]
    slack = sum(1 for c, s in scores.items() if c != held_item and 0.0 < abs(s - held) <= 1e-12)
    _require(abs(rank - expected) <= slack,
             f"item {held_item} ranked {rank}, sort-and-scan gives {expected}")


def check_laplace_noise(noise: np.ndarray, delta: float, z: float = 5.0) -> None:
    """Upload minus trained table is Laplace(0, delta) noise.

    Mean 0, mean |x| = delta and mean x^2 = 2 delta^2, each within z standard
    errors; the second moment tells Laplace from a Gaussian of equal mean |x|.
    """
    x = np.asarray(noise, dtype=np.float64).ravel()
    n = x.size
    _require(n > 0 and delta > 0.0, f"need noise samples and delta > 0, got {n} and {delta}")
    mean, mean_abs, mean_sq = float(x.mean()), float(np.abs(x).mean()), float((x * x).mean())
    root_n = math.sqrt(n)
    _require(abs(mean) <= z * delta * math.sqrt(2.0) / root_n,
             f"noise mean {mean:.3e} is not 0 for delta {delta}")
    _require(abs(mean_abs - delta) <= z * delta / root_n,
             f"noise mean |x| {mean_abs:.4e}, expected {delta}")
    _require(abs(mean_sq - 2.0 * delta * delta) <= z * math.sqrt(20.0) * delta * delta / root_n,
             f"noise mean x^2 {mean_sq:.4e}, expected {2.0 * delta * delta:.4e}")
