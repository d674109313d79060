"""The benchmark's checks accept the program's real outputs and reject broken ones.

Run from the root of a checkout: python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
from fedgraphrec.data import assign_privacy, leave_one_out_split, load_interactions  # noqa: E402
from fedgraphrec.evaluation import evaluate_user  # noqa: E402
from fedgraphrec.federation import add_ldp_noise, distribute  # noqa: E402
from fedgraphrec.graph import build_user_graph, normalize, server_update  # noqa: E402
from fedgraphrec.model import ModelConfig, init_client  # noqa: E402

BUNDLED = HERE.parent / "data" / "synthetic-50.tsv"


def _row(round_index, loss, hr=None, ndcg=None, tiers=None):
    row = {"round": str(round_index), "loss": repr(loss), "wall_time": "0.01"}
    for column in checks.METRIC_COLUMNS:
        row[column] = ""
    if hr is not None:
        row["hr"], row["ndcg"] = repr(hr), repr(ndcg)
        for tier, (t_hr, t_ndcg) in (tiers or {}).items():
            row[f"hr_{tier}"], row[f"ndcg_{tier}"] = repr(t_hr), repr(t_ndcg)
    return row


def _good_rounds():
    # 10 users at ratio 0.5: 5 public, 5 private.
    return [
        _row(1, 0.69),
        _row(2, 0.60, 30.0, 12.0, {"public": (40.0, 16.0), "private": (20.0, 8.0)}),
        _row(3, 0.55, 50.0, 25.0, {"public": (60.0, 30.0), "private": (40.0, 20.0)}),
    ]


ROUNDS_ARGS = {"rounds": 3, "eval_every": 2, "num_users": 10, "public_ratio": 0.5}


def test_rounds_accepts_consistent_rows():
    checks.check_rounds(_good_rounds(), **ROUNDS_ARGS)


def test_rounds_rejects_tier_inconsistent_row():
    rows = _good_rounds()
    rows[2]["hr_private"] = repr(30.0)
    with pytest.raises(checks.CheckFailed, match="its tiers give"):
        checks.check_rounds(rows, **ROUNDS_ARGS)


def test_rounds_rejects_out_of_range_cell_and_rising_loss():
    rows = _good_rounds()
    rows[1]["ndcg_public"] = repr(101.0)
    with pytest.raises(checks.CheckFailed, match=r"outside \[0, 100\]"):
        checks.check_rounds(rows, **ROUNDS_ARGS)
    rows = _good_rounds()
    rows[2]["loss"] = repr(0.7)
    with pytest.raises(checks.CheckFailed, match="loss did not fall"):
        checks.check_rounds(rows, **ROUNDS_ARGS)


def test_rounds_rejects_wrong_evaluation_stride():
    rows = _good_rounds()
    rows[0] = _row(1, 0.69, 30.0, 12.0, {"public": (40.0, 16.0), "private": (20.0, 8.0)})
    with pytest.raises(checks.CheckFailed, match="evaluated is True"):
        checks.check_rounds(rows, **ROUNDS_ARGS)


def test_summary_and_chance():
    finals = [{"hr": "40.0", "ndcg": "20.0"}, {"hr": "30.0", "ndcg": "10.0"}]
    summary = {"reps": "2", "hr_best_mean": "36.0", "ndcg_best_mean": "16.0",
               "hr_final_mean": "35.0", "ndcg_final_mean": "15.0"}
    checks.check_summary(summary, finals)
    with pytest.raises(checks.CheckFailed, match="rounds.csv gives"):
        checks.check_summary(dict(summary, hr_final_mean="36.0"), finals)
    checks.check_beats_chance(35.0, 10, 49)
    with pytest.raises(checks.CheckFailed, match="does not beat chance"):
        checks.check_beats_chance(20.0, 10, 49)


@pytest.fixture(scope="module")
def server_step():
    """One real server step on the bundled data, from fresh client tables."""
    dataset = leave_one_out_split(load_interactions(BUNDLED))
    tiers = assign_privacy(dataset.num_users, 0.5, seed=3)
    config = ModelConfig()
    uploads = np.stack([init_client(config, dataset.num_items, tiers.tier(u), seed=(3, u)).item_table
                        for u in range(dataset.num_users)])
    graph = normalize(build_user_graph(dataset, tiers))
    server = server_update(graph, uploads, tiers, out=np.empty_like(uploads))
    tables = distribute(server, tiers, 0.3).copy()
    columns = np.array([0, 7, 42, 99])
    return dataset, tiers, uploads[:, columns, :], tables[:, columns, :]


def test_server_step_accepts_program_output(server_step):
    dataset, tiers, uploads, tables = server_step
    checks.check_server_step(dataset.train, tiers.is_public, 0.3, 1, uploads, tables)


def test_server_step_rejects_perturbed_installed_table(server_step):
    dataset, tiers, uploads, tables = server_step
    bad = tables.copy()
    bad[int(tiers.public_users()[0]), 1, 5] += 1e-6 * np.abs(uploads).max()
    with pytest.raises(checks.CheckFailed, match="dense recomputation"):
        checks.check_server_step(dataset.train, tiers.is_public, 0.3, 1, uploads, bad)


def test_server_step_rejects_wrong_blend_weight(server_step):
    dataset, tiers, uploads, tables = server_step
    with pytest.raises(checks.CheckFailed):
        checks.check_server_step(dataset.train, tiers.is_public, 0.4, 1, uploads, tables)


def _ranked_user(seed):
    state = init_client(ModelConfig(), 60, tier=None, seed=(seed, 1))
    rng = np.random.default_rng(seed)
    candidates = rng.choice(60, size=20, replace=False)
    negatives, held = candidates[:-1], int(candidates[-1])
    _hr, _ndcg, rank = evaluate_user(state, held, negatives, k=10)
    rows = {int(c): state.item_table[c] for c in candidates}
    return state, rows, candidates, held, rank


def test_ranking_accepts_program_rank():
    for seed in range(5):
        state, rows, candidates, held, rank = _ranked_user(seed)
        checks.check_ranking(state.user_vec, rows, state.weights, state.biases, candidates, held, rank)


def test_ranking_rejects_shuffled_ranking():
    # Ranks taken from a shuffled candidate order instead of the scores.
    rejected = 0
    for seed in range(5):
        state, rows, candidates, held, rank = _ranked_user(seed)
        shuffled = list(np.random.default_rng(100 + seed).permutation(candidates))
        wrong = shuffled.index(held) + 1
        if wrong == rank:
            continue
        with pytest.raises(checks.CheckFailed, match="sort-and-scan gives"):
            checks.check_ranking(state.user_vec, rows, state.weights, state.biases, candidates, held, wrong)
        rejected += 1
    assert rejected >= 3


DELTA = 0.01


def _noise(kind):
    table = np.random.default_rng(0).normal(0.0, 0.01, size=(1682, 32))
    rng = np.random.default_rng(1)
    if kind == "laplace":
        return add_ldp_noise(table, DELTA, rng) - table
    if kind == "zero":
        return add_ldp_noise(table, 0.0, rng) - table
    if kind == "gaussian":
        return rng.normal(0.0, DELTA, size=table.shape)
    # A Gaussian scaled so that its mean |x| equals the Laplace one.
    return rng.normal(0.0, DELTA * np.sqrt(np.pi / 2.0), size=table.shape)


def test_noise_accepts_program_laplace():
    checks.check_laplace_noise(_noise("laplace"), DELTA)


@pytest.mark.parametrize("kind", ["zero", "gaussian", "gaussian_matched"])
def test_noise_rejects_zero_and_gaussian(kind):
    with pytest.raises(checks.CheckFailed, match="noise mean"):
        checks.check_laplace_noise(_noise(kind), DELTA)
