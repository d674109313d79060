"""Shipping checklist: one test per numbered acceptance criterion.

Each test prints a single `[acceptance N] PASS/FAIL/SKIP` line (run pytest
with -s to see them live; they also appear in captured output). Checks 1-3
and 9a exercise MovieLens-100K, which is not bundled: point FEDREC_ML100K at
a `u.data` file, or place it at data/ml-100k/u.data, to enable them. All
other checks run self-contained.
"""

import math
import os
from pathlib import Path

import numpy as np
import pytest

from fedgraphrec import cli
from fedgraphrec.experiments import (
    ABLATION_VARIANTS,
    ExperimentConfig,
    execute_run,
    gen_synthetic,
)
from fedgraphrec.federation import distribute
from fedgraphrec.graph import ServerState, build_user_graph, normalize, propagate
from fedgraphrec.model import ModelConfig
from oracles import (
    brute_adjacency,
    brute_normalized,
    brute_propagate,
    check_instance_gradients,
    dataset_from_train_sets,
    full_matrix,
    make_score_state,
    oracle_rank,
    random_graph_instance,
    random_instance,
    tiers_from_mask,
)

pytestmark = pytest.mark.acceptance

REPO = Path(__file__).resolve().parents[1]
BUNDLED = str(REPO / "data" / "synthetic-50.tsv")

NEED_ML100K = (
    "MovieLens-100K not found. Set FEDREC_ML100K=/path/to/u.data or place the "
    "file at data/ml-100k/u.data; this check trains on that dataset and "
    "cannot run without it."
)


def ml100k_path():
    env = os.environ.get("FEDREC_ML100K")
    if env and Path(env).exists():
        return env
    bundled = REPO / "data" / "ml-100k" / "u.data"
    if bundled.exists():
        return str(bundled)
    return None


ML100K = ml100k_path()


def report(number, status, detail):
    print(f"[acceptance {number}] {status}: {detail}")


def check(number, passed, detail):
    report(number, "PASS" if passed else "FAIL", detail)
    assert passed, f"acceptance {number}: {detail}"


def ml_config(out_dir, label, **extra):
    """The MovieLens-100K recipe: every-user sharing, validation-selected
    learning rate, 100 rounds, 5 repetitions, defaults everywhere else."""
    values = dict(
        dataset=ML100K,
        public_ratio=1.0,
        lr="grid",
        rounds=100,
        reps=5,
        seed=0,
        workers=max(1, min(5, os.cpu_count() or 1)),
        out=str(out_dir),
        label=label,
    )
    values.update(extra)
    config = ExperimentConfig(**values)
    config.validate()
    return config


@pytest.fixture(scope="module")
def ml_headline(tmp_path_factory):
    out = tmp_path_factory.mktemp("ml100k")
    config = ml_config(out, "headline")
    summary = execute_run(config)
    return config, summary


# --- 1: headline ranking quality ---------------------------------------------------


@pytest.mark.slow
def test_01_headline_accuracy_ml100k(request):
    if ML100K is None:
        report(1, "SKIP", NEED_ML100K)
        pytest.skip(NEED_ML100K)
    _config, summary = request.getfixturevalue("ml_headline")
    detail = (
        f"HR@10 = {summary.hr_best_mean:.2f} (need >= 70.00), "
        f"NDCG@10 = {summary.ndcg_best_mean:.2f} (need >= 41.00), "
        f"lr = {summary.learning_rate:g}, {summary.reps} repetitions"
    )
    check(1, summary.hr_best_mean >= 70.0 and summary.ndcg_best_mean >= 41.0, detail)


# --- 2: every mechanism earns its keep ----------------------------------------------


@pytest.mark.slow
def test_02_ablation_ordering_ml100k(request, tmp_path):
    if ML100K is None:
        report(2, "SKIP", NEED_ML100K)
        pytest.skip(NEED_ML100K)
    config, full_summary = request.getfixturevalue("ml_headline")
    scores = {"full": full_summary.hr_best_mean}
    for variant, flags in ABLATION_VARIANTS:
        if not flags:
            continue
        ablated = ml_config(
            tmp_path, variant.replace("/", "").replace(" ", "_"),
            lr=full_summary.learning_rate, **flags,
        )
        scores[variant] = execute_run(ablated).hr_best_mean
    detail = ", ".join(f"{name} = {hr:.2f}" for name, hr in scores.items())
    passed = all(
        scores["full"] > hr for name, hr in scores.items() if name != "full"
    )
    check(2, passed, f"full model must strictly beat each ablation: {detail}")


# --- 3: upload noise carries a bounded accuracy cost ---------------------------------


@pytest.mark.slow
def test_03_upload_noise_cost_ml100k(request, tmp_path):
    if ML100K is None:
        report(3, "SKIP", NEED_ML100K)
        pytest.skip(NEED_ML100K)
    _config, clean = request.getfixturevalue("ml_headline")
    noisy = execute_run(
        ml_config(tmp_path, "noise", lr=clean.learning_rate, ldp_delta=0.5)
    )
    drop = clean.hr_best_mean - noisy.hr_best_mean
    detail = (
        f"HR@10 {clean.hr_best_mean:.2f} -> {noisy.hr_best_mean:.2f} at noise 0.5, "
        f"drop = {drop:.2f} (need > 0 and <= 4.00)"
    )
    check(3, 0.0 < drop <= 4.0, detail)


# --- 4: more sharing users, better ranking -------------------------------------------


@pytest.mark.slow
def test_04_sharing_ratio_tendency(tmp_path):
    # Sparse clustered world: users see ~25% of their cluster's pool, so a
    # held-out pool item's embedding is trained almost entirely by peers and
    # graph smoothing is the only channel that delivers it.
    data = gen_synthetic(150, 400, 10, 10, seed=11, path=tmp_path / "ratio.tsv")
    means = {}
    for ratio in (0.1, 0.5, 0.9):
        config = ExperimentConfig(
            dataset=str(data), public_ratio=ratio, alpha=0.7, lr=0.01,
            rounds=60, local_epochs=4, reps=3, eval_negatives=50, k=10,
            eval_every=5, seed=11, out=str(tmp_path / "runs"),
            label=f"ratio-{ratio:g}", workers=2,
        )
        config.validate()
        means[ratio] = execute_run(config).hr_best_mean
    detail = (
        f"HR@10 at sharing ratio 0.1/0.5/0.9 = "
        f"{means[0.1]:.2f}/{means[0.5]:.2f}/{means[0.9]:.2f} (need 0.9 >= 0.1)"
    )
    check(4, means[0.9] >= means[0.1], detail)


# --- 5: hand-written gradients -------------------------------------------------------


def test_05_gradient_finite_difference_suite():
    rng = np.random.default_rng(2024)
    instances = 100
    for _ in range(instances):
        state, items, labels = random_instance(rng)
        check_instance_gradients(state, items, labels, rel_tol=1e-4)
    check(
        5,
        True,
        f"{instances} random models: every parameter partial matches central "
        f"finite differences within 1e-4 relative",
    )


# --- 6: graph mathematics vs brute force ---------------------------------------------


def test_06_graph_oracle_suite():
    rng = np.random.default_rng(2025)
    instances = 1000
    max_norm_err = 0.0
    for _ in range(instances):
        train_sets, m, mask = random_graph_instance(rng, max_users=8)
        graph = build_user_graph(dataset_from_train_sets(train_sets, m), tiers_from_mask(mask))
        expected_adj = brute_adjacency(train_sets, mask)
        assert np.array_equal(full_matrix(graph), expected_adj)

        normalize(graph)
        expected_norm = brute_normalized(expected_adj)
        tables = rng.normal(size=(len(train_sets), 3, 2))
        for layers in (1, 2):
            got = propagate(graph, tables, layers=layers)
            err = float(np.abs(got - brute_propagate(expected_norm, tables, layers)).max())
            max_norm_err = max(max_norm_err, err)
            assert err < 1e-10
    check(
        6,
        True,
        f"{instances} random graphs (<= 8 users): adjacency matches "
        f"set-intersection counts exactly; propagation within 1e-10 of the "
        f"dense oracle (worst {max_norm_err:.2e})",
    )


# --- 7: blend boundary identities ------------------------------------------------------


def test_07_blend_boundary_identities():
    rng = np.random.default_rng(2026)
    trials = 50
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 10))
        propagated = rng.normal(size=(n, 4, 3))
        global_table = propagated.mean(axis=0)
        server = ServerState(propagated=propagated.copy(), global_table=global_table)
        mask = rng.random(n) < 0.5
        tiers = tiers_from_mask(mask)

        served = distribute(server, tiers, 0.0)
        for u in range(n):
            worst = max(worst, float(np.abs(served[u] - global_table).max()))

        server = ServerState(propagated=propagated.copy(), global_table=global_table)
        served = distribute(server, tiers, 1.0)
        for u in range(n):
            expected = propagated[u] if mask[u] else global_table
            worst = max(worst, float(np.abs(served[u] - expected).max()))

        # identity graph: every user isolated, smoothing must return the input
        graph = normalize(
            build_user_graph(
                dataset_from_train_sets([set() for _ in range(n)], 5),
                tiers_from_mask([False] * n),
            )
        )
        tables = rng.normal(size=(n, 4, 3))
        worst = max(worst, float(np.abs(propagate(graph, tables) - tables).max()))
    check(
        7,
        worst <= 1e-12,
        f"{trials} random server states: zero blend serves the global table, "
        f"full blend preserves sharing users' own tables, and the isolated "
        f"graph is an identity (worst deviation {worst:.2e}, need <= 1e-12)",
    )


# --- 8: ranking metric vs sort-and-scan ---------------------------------------------------


def test_08_ranking_oracle_suite():
    from fedgraphrec.evaluation import evaluate_user

    rng = np.random.default_rng(2027)
    vectors = 10_000
    for _ in range(vectors):
        n_cands = int(rng.integers(5, 120))
        values = np.round(rng.normal(size=n_cands), 1)  # coarse grid forces ties
        items = rng.permutation(n_cands)
        test_item = int(items[-1])
        state = make_score_state(np.empty(0))
        state.item_table = values.reshape(-1, 1)
        k = int(rng.integers(1, n_cands + 1))
        hr, ndcg, rank = evaluate_user(state, test_item, items[:-1], k=k)
        expected = oracle_rank([(int(i), float(values[i])) for i in items], test_item)
        assert rank == expected
        assert hr == (1 if rank <= k else 0)
        assert ndcg == (1.0 / math.log2(rank + 1.0) if rank <= k else 0.0)

    # closed form: a fifth-place hit under a top-10 cutoff
    values = np.linspace(1.0, 0.0, 100)
    _hr, ndcg, rank = evaluate_user(
        make_score_state(values), 4, np.delete(np.arange(100), 4), k=10
    )
    assert rank == 5
    closed_form_gap = abs(ndcg - 1.0 / math.log2(6.0))
    check(
        8,
        closed_form_gap <= 1e-12,
        f"{vectors} random score vectors match the sort-and-scan oracle on "
        f"every rank; fifth-place quality equals 1/log2(6) "
        f"(gap {closed_form_gap:.2e}, need <= 1e-12)",
    )


# --- 9: byte-identical outputs ---------------------------------------------------------


def _metric_outputs(out_dir, label, reps):
    base = Path(out_dir) / label
    stripped = []
    for rep in range(reps):
        lines = (base / f"rep{rep}" / "rounds.csv").read_text().splitlines()
        # wall_time is the one genuine measurement; every other byte must match
        stripped.append([",".join(line.split(",")[:-1]) for line in lines])
    return (base / "summary.csv").read_bytes(), stripped


def _determinism_trial(number, dataset, tmp_path, extra=()):
    outputs = []
    for tag, workers in (("one", "1"), ("one-again", "1"), ("two", "2")):
        argv = [
            "run", "--dataset", dataset, "--rounds", "3", "--reps", "2",
            "--lr", "0.05", "--embed-dim", "4", "--mlp-hidden", "4",
            "--eval-negatives", "20", "--k", "5", "--seed", "3",
            "--workers", workers, "--out", str(tmp_path / tag), "--label", "d",
            *extra,
        ]
        assert cli.main(argv) == 0
        outputs.append(_metric_outputs(tmp_path / tag, "d", 2))
    same_rerun = outputs[0] == outputs[1]
    same_workers = outputs[0] == outputs[2]
    check(
        number,
        same_rerun and same_workers,
        "two identical invocations and a --workers 2 invocation produce "
        "byte-identical metric CSVs (wall_time column excluded) and summaries",
    )


@pytest.mark.slow
def test_09a_determinism_ml100k(tmp_path):
    if ML100K is None:
        report("9a", "SKIP", NEED_ML100K)
        pytest.skip(NEED_ML100K)
    _determinism_trial("9a", ML100K, tmp_path)


def test_09b_determinism_synthetic(tmp_path):
    _determinism_trial("9b", BUNDLED, tmp_path)
