"""Experiment front-end tests: config handling, artifacts, sweeps, CLI contract."""

import csv
import dataclasses
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import fedgraphrec
from fedgraphrec import cli, experiments
from fedgraphrec.data import FileFormat, leave_one_out_split, load_interactions
from fedgraphrec.experiments import (
    ABLATION_VARIANTS,
    GRID_LEARNING_RATES,
    ROUNDS_CSV_HEADER,
    ConfigError,
    ExperimentConfig,
    build_config,
    execute_run,
    gen_synthetic,
    load_config_file,
    load_dataset,
    parse_learning_rate,
    run_repetition,
    select_learning_rate,
)
from fedgraphrec.model import TrainingError

BUNDLED = str(Path(__file__).resolve().parents[1] / "data" / "synthetic-50.tsv")


def tiny_config(tmp_path, **extra):
    """Fast 50-user configuration used by the artifact tests."""
    values = dict(
        dataset=BUNDLED,
        rounds=3,
        lr=0.05,
        reps=2,
        embed_dim=4,
        mlp_hidden=(4,),
        batch_size=64,
        eval_negatives=30,
        k=5,
        public_ratio=0.5,
        seed=1,
        out=str(tmp_path / "runs"),
        label="t",
    )
    values.update(extra)
    config = ExperimentConfig(**values)
    config.validate()
    return config


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def rounds_without_wall_time(path):
    lines = Path(path).read_text().splitlines()
    return ["\x1f".join(line.split(",")[:-1]) for line in lines]


# --- config files and precedence --------------------------------------------------


def test_config_file_parses_types(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# comment\n"
        "\n"
        "alpha = 0.7\n"
        "mlp_hidden = 8,4\n"
        "ablate_ugc = true\n"
        "lr = grid\n"
        "rounds = 12\n"
        "dataset = \n"
    )
    values = load_config_file(path)
    assert values == {
        "alpha": 0.7,
        "mlp_hidden": (8, 4),
        "ablate_ugc": True,
        "lr": "grid",
        "rounds": 12,
        "dataset": None,
    }


def test_config_file_unknown_key_names_line(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("alpha = 0.5\nlearning_rate = 0.1\n")
    with pytest.raises(ConfigError, match=r"exp\.cfg:2.*learning_rate"):
        load_config_file(path)


def test_config_file_bad_value_and_shape(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("rounds = soon\n")
    with pytest.raises(ConfigError, match=r":1.*rounds"):
        load_config_file(path)
    path.write_text("just a line\n")
    with pytest.raises(ConfigError, match="key = value"):
        load_config_file(path)
    with pytest.raises(ConfigError, match="not found"):
        load_config_file(tmp_path / "absent.cfg")


def test_build_config_precedence(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("alpha = 0.9\nrounds = 7\n")
    config = build_config(file_path=path, overrides={"alpha": 0.1}, env={})
    assert config.alpha == 0.1  # flag beats file
    assert config.rounds == 7  # file beats default
    assert config.layers == 1  # untouched default


def test_build_config_env_seed_fallback(tmp_path):
    config = build_config(env={"FEDREC_SEED": "99"})
    assert config.seed == 99
    config = build_config(overrides={"seed": 3}, env={"FEDREC_SEED": "99"})
    assert config.seed == 3
    path = tmp_path / "exp.cfg"
    path.write_text("seed = 5\n")
    config = build_config(file_path=path, env={"FEDREC_SEED": "99"})
    assert config.seed == 5
    with pytest.raises(ConfigError, match="FEDREC_SEED"):
        build_config(env={"FEDREC_SEED": "many"})


def test_validate_rejects_bad_values():
    cases = [
        dict(public_ratio=1.5),
        dict(reps=0),
        dict(workers=0),
        dict(k=0),
        dict(k=10, eval_negatives=5),
        dict(eval_every=0),
        dict(mlp_init="xavier"),
        dict(format="parquet"),
        dict(rounds=0),
        dict(alpha=2.0),
        dict(seed=-1),
        dict(layers=0),
        dict(ldp_delta=-1.0),
    ]
    for overrides in cases:
        config = ExperimentConfig(**overrides)
        with pytest.raises(ConfigError):
            config.validate()


@pytest.mark.parametrize("label", ["", "/abs", "/", "../up", "a/../b", ".."])
def test_label_must_stay_inside_out(tmp_path, label):
    # An empty label once sent ablation and sweep cells to "/full" and the like.
    with pytest.raises(ConfigError, match="--label"):
        build_config(overrides={"label": label}, env={})
    # No dataset: should the label pass, the suite still fails before it writes.
    config = ExperimentConfig(out=str(tmp_path), label=label)
    with pytest.raises(ConfigError, match="--label"):
        experiments.ablation_suite(config)
    assert not list(tmp_path.iterdir())


def test_parse_learning_rate():
    assert parse_learning_rate("grid") == "grid"
    assert parse_learning_rate("0.01") == 0.01
    assert parse_learning_rate(0.5) == 0.5
    with pytest.raises(ConfigError):
        parse_learning_rate("0")
    with pytest.raises(ConfigError):
        parse_learning_rate("fast")


def test_resolved_config_round_trips(tmp_path):
    config = tiny_config(tmp_path, lr="grid", ablate_upie=True)
    path = tmp_path / "resolved.txt"
    path.write_text(config.to_text())
    rebuilt = build_config(file_path=path, env={})
    assert rebuilt == config


# Every config field at a value other than its default.
NON_DEFAULT = dict(
    dataset=BUNDLED, format="csv", public_ratio=0.25, alpha=0.7, ldp_delta=0.05, layers=2,
    embed_dim=8, mlp_hidden=(8, 4), lr=0.05, rounds=7, local_epochs=2, neg_ratio=3,
    batch_size=32, init_scale=0.02, mlp_init="gaussian", clip_norm=0.5, ablate_iei=True,
    ablate_ugc=True, ablate_upie=True, global_from_public_only=True, k=5, eval_negatives=20,
    eval_every=2, seed=4, reps=3, out="elsewhere", label="all", workers=2,
)


def test_every_config_field_is_a_flag_a_key_and_round_trips(tmp_path, capsys):
    names = [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert sorted(NON_DEFAULT) == sorted(names)

    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["run", "--help"])
    help_text = capsys.readouterr().out
    flags = {name: "--" + name.replace("_", "-") for name in names}
    for flag in flags.values():
        assert re.search(re.escape(flag) + r"(?![\w-])", help_text), flag

    argv = ["run"]
    for name, value in NON_DEFAULT.items():
        if value is True:
            argv.append(flags[name])
        elif isinstance(value, tuple):
            argv += [flags[name], ",".join(str(v) for v in value)]
        else:
            argv += [flags[name], str(value)]
    config = cli._config_from_args(cli.build_parser().parse_args(argv))
    assert config == ExperimentConfig(**NON_DEFAULT)

    path = tmp_path / "resolved_config.txt"
    path.write_text(config.to_text())
    assert set(load_config_file(path)) == set(names)
    rebuilt = cli._config_from_args(cli.build_parser().parse_args(["run", "--config", str(path)]))
    assert rebuilt == config


def test_negative_seed_fails_before_any_output(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("FEDREC_SEED", raising=False)
    run_args = ["run", "--dataset", BUNDLED, "--eval-negatives", "49", "--rounds", "1",
                "--reps", "1", "--lr", "0.05", "--out", str(tmp_path / "runs")]
    gen_args = ["gen-synth", "--users", "10", "--items", "20", "--per-user", "4",
                "--clusters", "2", "--out", str(tmp_path / "g.tsv")]
    inspect_args = ["inspect-graph", "--dataset", BUNDLED, "--out", str(tmp_path / "dump")]
    for argv in (run_args, gen_args, inspect_args):
        assert cli.main([*argv, "--seed", "-3"]) == 1
        assert "--seed" in capsys.readouterr().err
    monkeypatch.setenv("FEDREC_SEED", "-2")
    for argv in (run_args, gen_args, inspect_args):
        assert cli.main(argv) == 1
        assert "FEDREC_SEED" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# --- run_repetition ---------------------------------------------------------------


def record_values(records):
    """Everything a round record holds but its wall time."""
    return [
        (r.round_index, r.mean_train_loss, r.metrics.hr, r.metrics.ndcg,
         r.metrics.validation.hr, r.metrics.validation.ndcg)
        for r in records
    ]


def test_repetition_row_and_snapshot_shape(tmp_path):
    config = tiny_config(tmp_path, rounds=4)
    dataset = load_dataset(config)
    result = run_repetition(config, dataset, lr=0.05, rep=1)
    assert result.rep == 1
    assert result.learning_rate == 0.05
    assert [record.round_index for record in result.rounds] == [1, 2, 3, 4]
    for record in result.rounds:
        assert record.mean_train_loss > 0.0
        assert 0.0 <= record.metrics.hr <= 1.0
        assert 0.0 <= record.metrics.ndcg <= record.metrics.hr
    # best is the earliest record with the highest validation HR
    top = max(r.metrics.validation.hr for r in result.rounds)
    assert result.best is next(r for r in result.rounds if r.metrics.validation.hr == top)
    # repetition r runs at seed base + r
    shifted = run_repetition(replace(config, seed=config.seed + 1), dataset, lr=0.05, rep=0)
    assert record_values(shifted.rounds) == record_values(result.rounds)
    unshifted = run_repetition(config, dataset, lr=0.05, rep=0)
    assert record_values(unshifted.rounds) != record_values(result.rounds)


def test_repetition_eval_stride(tmp_path):
    config = tiny_config(tmp_path, rounds=5, eval_every=2)
    result = run_repetition(config, load_dataset(config), lr=0.05, rep=0)
    evaluated = [r.round_index for r in result.rounds if r.metrics is not None]
    assert evaluated == [2, 4, 5]  # stride hits plus the forced final round
    skipped = [r.round_index for r in result.rounds if r.metrics is None]
    assert skipped == [1, 3]


def test_repetition_requires_dataset(tmp_path):
    config = tiny_config(tmp_path)
    config.dataset = None
    with pytest.raises(ConfigError, match="no dataset"):
        load_dataset(config)


# --- grid selection ----------------------------------------------------------------


def stub_results(hr_by_lr):
    def fake(config, dataset, lr, rep):
        hr = hr_by_lr[lr]
        if hr is None:
            raise TrainingError("boom")
        best = SimpleNamespace(metrics=SimpleNamespace(validation=SimpleNamespace(hr=hr)))
        return experiments.RepetitionResult(rep, lr, [best], best)

    return fake


def test_grid_picks_best_validation_hr(monkeypatch, tmp_path):
    config = tiny_config(tmp_path)
    monkeypatch.setattr(
        experiments, "run_repetition", stub_results({0.0001: 0.1, 0.001: 0.4, 0.01: 0.3, 0.1: 0.2})
    )
    winner, outcomes = select_learning_rate(config, None)
    assert (winner.learning_rate, winner.rep) == (0.001, 0)
    assert outcomes == [(0.0001, 0.1), (0.001, 0.4), (0.01, 0.3), (0.1, 0.2)]


def test_grid_tie_goes_to_earlier_rate(monkeypatch, tmp_path):
    config = tiny_config(tmp_path)
    monkeypatch.setattr(
        experiments, "run_repetition", stub_results({0.0001: 0.4, 0.001: 0.4, 0.01: 0.4, 0.1: 0.1})
    )
    winner, _ = select_learning_rate(config, None)
    assert winner.learning_rate == 0.0001


def test_grid_survives_diverging_candidates(monkeypatch, tmp_path):
    config = tiny_config(tmp_path)
    monkeypatch.setattr(
        experiments, "run_repetition", stub_results({0.0001: 0.2, 0.001: None, 0.01: 0.5, 0.1: None})
    )
    winner, outcomes = select_learning_rate(config, None)
    assert winner.learning_rate == 0.01
    nan_rates = [rate for rate, hr in outcomes if math.isnan(hr)]
    assert nan_rates == [0.001, 0.1]


def test_grid_all_diverged_is_an_error(monkeypatch, tmp_path):
    config = tiny_config(tmp_path)
    monkeypatch.setattr(
        experiments, "run_repetition",
        stub_results({lr: None for lr in GRID_LEARNING_RATES}),
    )
    with pytest.raises(TrainingError, match="every grid learning rate"):
        select_learning_rate(config, None)


# --- execute_run artifacts -----------------------------------------------------------


@pytest.mark.parametrize(
    "extra",
    [
        dict(reps=3),
        dict(lr="grid", reps=2),
        dict(command="ablate", reps=1),
        dict(command="sweep", reps=1),
    ],
)
def test_dataset_is_loaded_once_per_run(tmp_path, monkeypatch, extra):
    calls = []

    def counting_load(*args, **kwargs):
        calls.append(args)
        return load_interactions(*args, **kwargs)

    monkeypatch.setattr(experiments, "load_interactions", counting_load)
    extra = dict(extra)
    command = extra.pop("command", "run")
    config = tiny_config(tmp_path, rounds=1, **extra)
    if command == "run":
        execute_run(config)
    elif command == "ablate":
        assert experiments.ablation_suite(config) == 0
    else:  # four cells over two axes
        axes = [("alpha", [0.0, 0.5]), ("public_ratio", [0.5, 1.0])]
        assert experiments.sweep(config, axes) == 0
    assert len(calls) == 1


LOAD_RSS_SCRIPT = """
import os, sys
import numpy
from fedgraphrec import experiments

def resident():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

config = experiments.ExperimentConfig(dataset=sys.argv[1], eval_negatives=49)
before = resident()
dataset = experiments.load_dataset(config)
print(resident() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm")
def test_load_dataset_leaves_little_resident(tmp_path):
    # An ML-100K-shaped file (1.2 MB) once left 41 MB resident after the
    # load: parser objects pinning their memory, plus every user's int64
    # negative pool. A fresh process measures the load alone.
    path = gen_synthetic(943, 1682, 100, 19, 1, tmp_path / "ml100k.tsv")
    src = str(Path(fedgraphrec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", LOAD_RSS_SCRIPT, str(path)], env=env,
                          capture_output=True, text=True, check=True)
    grown_mb = int(done.stdout) / 2**20
    assert grown_mb < 20, f"load_dataset left {grown_mb:.1f} MB resident"


@pytest.mark.parametrize("verb, extra", [
    ("ablate", []),
    ("sweep", ["--axis", "alpha", "--values", "0,0.5"]),
])
def test_cell_commands_check_the_dataset_before_any_cell(tmp_path, capsys, verb, extra):
    # The bundled file's users have at most 90 unseen items: no cell can run.
    argv = [verb, "--dataset", BUNDLED, "--eval-negatives", "99", "--rounds", "1",
            "--reps", "1", "--lr", "0.05", "--out", str(tmp_path), "--label", "cells", *extra]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "config error: --eval-negatives 99 is too large" in err
    assert "--eval-negatives 90 or less" in err
    assert not list(tmp_path.rglob("*.csv"))
    assert not list(tmp_path.rglob("resolved_config.txt"))


def test_execute_run_writes_all_artifacts(tmp_path):
    config = tiny_config(tmp_path)
    summary = execute_run(config)
    out = tmp_path / "runs" / "t"
    assert (out / "resolved_config.txt").exists()
    assert (out / "summary.csv").exists()
    assert (out / "summary.txt").exists()
    assert not (out / "grid_search.csv").exists()  # fixed rate: no grid phase
    assert not list(out.rglob("*.tmp"))
    for rep in range(2):
        rows = read_csv(out / f"rep{rep}" / "rounds.csv")
        assert rows[0] == ROUNDS_CSV_HEADER.split(",")
        assert len(rows) == 1 + config.rounds
        for row in rows[1:]:
            assert 0.0 <= float(row[2]) <= 100.0  # hr as percent
            assert float(row[1]) > 0.0
    assert summary.reps == 2
    assert summary.learning_rate == 0.05


def test_execute_run_summary_is_mean_of_reps(tmp_path):
    config = tiny_config(tmp_path)
    summary = execute_run(config)
    out = tmp_path / "runs" / "t"
    finals = []
    for rep in range(2):
        rows = read_csv(out / f"rep{rep}" / "rounds.csv")
        finals.append(float(rows[-1][2]))
    assert summary.hr_final_mean == pytest.approx(np.mean(finals), abs=1e-9)
    csv_row = read_csv(out / "summary.csv")
    assert csv_row[0] == experiments.SUMMARY_CSV_HEADER
    assert float(csv_row[1][7]) == pytest.approx(summary.hr_final_mean, abs=1e-12)
    text = (out / "summary.txt").read_text()
    assert f"HR@{config.k}" in text


def test_execute_run_grid_artifact(tmp_path):
    config = tiny_config(tmp_path, lr="grid", rounds=2, reps=1)
    summary = execute_run(config)
    rows = read_csv(tmp_path / "runs" / "t" / "grid_search.csv")
    assert rows[0] == ["learning_rate", "validation_hr_best", "selected"]
    assert len(rows) == 1 + len(GRID_LEARNING_RATES)
    assert [float(r[0]) for r in rows[1:]] == list(GRID_LEARNING_RATES)
    selected = [r for r in rows[1:] if r[2] == "1"]
    assert len(selected) == 1
    assert float(selected[0][0]) == summary.learning_rate


def test_grid_run_trains_each_rate_and_repetition_once(tmp_path, monkeypatch):
    # The grid's winning run is repetition 0; it is not trained again.
    calls = []
    real = experiments.run_repetition

    def counting(config, dataset, lr, rep):
        calls.append((lr, rep))
        return real(config, dataset, lr, rep)

    monkeypatch.setattr(experiments, "run_repetition", counting)
    summary = execute_run(tiny_config(tmp_path, lr="grid", rounds=1, reps=3))
    assert len(calls) == len(GRID_LEARNING_RATES) + 3 - 1
    assert len(set(calls)) == len(calls)
    assert calls[len(GRID_LEARNING_RATES):] == [(summary.learning_rate, 1),
                                               (summary.learning_rate, 2)]


@pytest.fixture(scope="module")
def grid_search_at_one_worker(tmp_path_factory):
    """grid_search.csv of the grid run below at workers=1."""
    tmp_path = tmp_path_factory.mktemp("grid-one-worker")
    execute_run(tiny_config(tmp_path, lr="grid", rounds=2, reps=3, label="grid"))
    return (tmp_path / "runs" / "grid" / "grid_search.csv").read_bytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_grid_run_matches_fixed_rate_run_at_the_selected_rate(
    tmp_path, workers, grid_search_at_one_worker
):
    grid = tiny_config(tmp_path, lr="grid", rounds=2, reps=3, workers=workers, label="grid")
    summary = execute_run(grid)
    fixed = tiny_config(tmp_path, lr=summary.learning_rate, rounds=2, reps=3, label="fixed")
    execute_run(fixed)
    grid_dir, fixed_dir = tmp_path / "runs" / "grid", tmp_path / "runs" / "fixed"
    # the candidates run on the pool when there is one, and pick the same rate
    assert (grid_dir / "grid_search.csv").read_bytes() == grid_search_at_one_worker
    for name in ("summary.csv", "summary.txt"):
        assert (grid_dir / name).read_bytes() == (fixed_dir / name).read_bytes()
    for rep in range(3):
        assert rounds_without_wall_time(grid_dir / f"rep{rep}" / "rounds.csv") == (
            rounds_without_wall_time(fixed_dir / f"rep{rep}" / "rounds.csv")
        )


def failing_at(failed_rep):
    """run_repetition, but repetition `failed_rep` diverges."""
    real = experiments.run_repetition

    def run(config, dataset, lr, rep):
        if rep == failed_rep:
            raise TrainingError("round 2: user 7: non-finite loss or gradient at local step 1")
        return real(config, dataset, lr, rep)

    return run


def test_failed_repetition_leaves_the_finished_ones_on_disk(tmp_path, monkeypatch):
    execute_run(tiny_config(tmp_path, reps=3, label="whole"))
    monkeypatch.setattr(experiments, "run_repetition", failing_at(2))
    with pytest.raises(TrainingError, match=r"^repetition 2 \(lr 0\.05\): round 2: user 7: "):
        execute_run(tiny_config(tmp_path, reps=3, label="cut"))
    whole, cut = tmp_path / "runs" / "whole", tmp_path / "runs" / "cut"
    for rep in (0, 1):
        assert rounds_without_wall_time(cut / f"rep{rep}" / "rounds.csv") == (
            rounds_without_wall_time(whole / f"rep{rep}" / "rounds.csv")
        )
    assert not (cut / "rep2").exists()
    assert not (cut / "summary.csv").exists()


def test_failed_repetition_after_the_grid_leaves_the_grid_on_disk(tmp_path, monkeypatch):
    execute_run(tiny_config(tmp_path, lr="grid", rounds=1, reps=2, label="whole"))
    monkeypatch.setattr(experiments, "run_repetition", failing_at(1))
    with pytest.raises(TrainingError, match=r"^repetition 1 \(lr [0-9.e+-]+\): round 2: "):
        execute_run(tiny_config(tmp_path, lr="grid", rounds=1, reps=2, label="cut"))
    whole, cut = tmp_path / "runs" / "whole", tmp_path / "runs" / "cut"
    assert (cut / "grid_search.csv").read_bytes() == (whole / "grid_search.csv").read_bytes()
    assert rounds_without_wall_time(cut / "rep0" / "rounds.csv") == (
        rounds_without_wall_time(whole / "rep0" / "rounds.csv")
    )
    assert not (cut / "summary.csv").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_failed_repetition_on_the_pool_is_named(tmp_path):
    # A rate this large overflows a local step within the first rounds.
    config = tiny_config(tmp_path, lr=1e300, reps=2, workers=2)
    with pytest.raises(TrainingError, match=r"^repetition 0 \(lr 1e\+300\): round \d+: user \d+: "):
        execute_run(config)
    assert not (tmp_path / "runs" / "t" / "summary.csv").exists()


def test_repeat_invocation_is_byte_identical(tmp_path):
    outputs = []
    for name in ("a", "b"):
        config = tiny_config(tmp_path, out=str(tmp_path / name))
        execute_run(config)
        out = tmp_path / name / "t"
        outputs.append(
            (
                (out / "summary.csv").read_bytes(),
                [rounds_without_wall_time(out / f"rep{r}" / "rounds.csv") for r in range(2)],
            )
        )
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]


def test_worker_pool_matches_sequential(tmp_path):
    outputs = []
    for name, workers in (("seq", 1), ("par", 2)):
        config = tiny_config(tmp_path, out=str(tmp_path / name), workers=workers)
        execute_run(config)
        out = tmp_path / name / "t"
        outputs.append(
            (
                (out / "summary.csv").read_bytes(),
                [rounds_without_wall_time(out / f"rep{r}" / "rounds.csv") for r in range(2)],
            )
        )
    assert outputs[0] == outputs[1]


def test_rerun_from_resolved_config_reproduces_outputs(tmp_path):
    config = tiny_config(tmp_path)
    execute_run(config)
    first = tmp_path / "runs" / "t"

    rebuilt = build_config(file_path=first / "resolved_config.txt", env={})
    assert rebuilt == config
    rebuilt.out = str(tmp_path / "again")
    execute_run(rebuilt)
    second = tmp_path / "again" / "t"
    assert (first / "summary.csv").read_bytes() == (second / "summary.csv").read_bytes()
    for rep in range(2):
        assert rounds_without_wall_time(
            first / f"rep{rep}" / "rounds.csv"
        ) == rounds_without_wall_time(second / f"rep{rep}" / "rounds.csv")


# --- sweep / ablate -----------------------------------------------------------------


def test_sweep_single_axis(tmp_path):
    config = tiny_config(tmp_path, rounds=2, reps=1)
    assert experiments.sweep(config, [("alpha", [0.0, 0.5])]) == 0
    out = tmp_path / "runs" / "t"
    rows = read_csv(out / "sweep.csv")
    assert rows[0][:3] == ["alpha", "status", "learning_rate"]
    assert [r[0] for r in rows[1:]] == ["0", "0.5"]
    assert all(r[1] == "ok" for r in rows[1:])
    assert (out / "alpha=0" / "summary.csv").exists()
    assert (out / "alpha=0.5" / "summary.csv").exists()


def test_sweep_records_cell_failure_and_continues(tmp_path, monkeypatch):
    # A cell that fails at run time is recorded, and the next cell runs.
    config = tiny_config(tmp_path, rounds=2, reps=1)
    execute_run = experiments.execute_run

    def diverging_at_zero(cell_config, dataset):
        if cell_config.alpha == 0.0:
            raise TrainingError("diverged")
        return execute_run(cell_config, dataset)

    monkeypatch.setattr(experiments, "execute_run", diverging_at_zero)
    assert experiments.sweep(config, [("alpha", [0.0, 0.5])]) == 0
    rows = read_csv(tmp_path / "runs" / "t" / "sweep.csv")
    assert rows[1][0] == "0" and rows[1][1] == "failed: diverged"
    assert all(cell == "" for cell in rows[1][2:])
    assert rows[2][0] == "0.5" and rows[2][1] == "ok"


def test_sweep_rejects_bad_cell_before_any_cell_runs(tmp_path, capsys):
    # An axis value the config checks reject stops the sweep at config time,
    # naming the axis and the value, before the first (valid) cell runs.
    base = ["sweep", "--dataset", BUNDLED, "--eval-negatives", "49", "--rounds", "1",
            "--reps", "1", "--lr", "0.05", "--out", str(tmp_path)]
    cases = [
        (["--axis", "alpha", "--values", "0.5,1.5"], "alpha=1.5", "alpha must be in [0, 1]"),
        (["--axis", "public_ratio", "--values", "0.5,2"], "public_ratio=2", "public_ratio must"),
        (["--axis", "public_ratio", "--values", "0.5,0", "--global-from-public-only"],
         "public_ratio=0", "needs at least one sharing user"),
    ]
    for flags, cell, problem in cases:
        assert cli.main([*base, *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and cell in err and problem in err
    assert not list(tmp_path.iterdir())


def test_sweep_two_axes(tmp_path):
    config = tiny_config(tmp_path, rounds=2, reps=1)
    experiments.sweep(config, [("alpha", [0.0, 1.0]), ("public_ratio", [0.5])])
    rows = read_csv(tmp_path / "runs" / "t" / "sweep.csv")
    assert rows[0][:2] == ["alpha", "public_ratio"]
    assert [(r[0], r[1]) for r in rows[1:]] == [("0", "0.5"), ("1", "0.5")]


def test_sweep_rejects_values_that_share_a_cell_name(tmp_path):
    # Cells are named with :g, which keeps 6 significant digits; two values
    # with one name would write into one directory.
    config = tiny_config(tmp_path, rounds=1, reps=1)
    cases = [
        ([("alpha", [0.5, 0.50])], "alpha=0.5 and alpha=0.5", "'alpha=0.5'"),
        ([("alpha", [0.1234561, 0.1234562])],
         "alpha=0.1234561 and alpha=0.1234562", "'alpha=0.123456'"),
        ([("alpha", [0.0]), ("layers", [2, 2])],
         "alpha=0.0,layers=2 and alpha=0.0,layers=2", "'alpha=0,layers=2'"),
    ]
    for axes, values, cell in cases:
        with pytest.raises(ConfigError) as err:
            experiments.sweep(config, axes)
        assert values in str(err.value) and cell in str(err.value)
    assert not (tmp_path / "runs").exists()


def test_sweep_axis_validation(tmp_path):
    config = tiny_config(tmp_path)
    with pytest.raises(ConfigError, match="unknown sweep axis"):
        experiments.sweep(config, [("dropout", [0.1])])
    with pytest.raises(ConfigError, match="distinct"):
        experiments.sweep(config, [("alpha", [0.1]), ("alpha", [0.2])])
    with pytest.raises(ConfigError, match="one or two"):
        experiments.sweep(config, [])
    with pytest.raises(ConfigError, match="unknown sweep axis"):
        experiments.parse_axis_values("dropout", "0.1")
    with pytest.raises(ConfigError, match="bad value"):
        experiments.parse_axis_values("layers", "one")
    with pytest.raises(ConfigError, match="no values"):
        experiments.parse_axis_values("alpha", ",")


def test_ablation_suite_rows(tmp_path):
    config = tiny_config(tmp_path, rounds=2, reps=1)
    assert experiments.ablation_suite(config) == 0
    out = tmp_path / "runs" / "t"
    rows = read_csv(out / "ablation.csv")
    assert [r[0] for r in rows[1:]] == [name for name, _ in ABLATION_VARIANTS]
    assert [r[0] for r in rows[1:]] == ["full", "w/o IEI", "w/o UGC", "w/o U-PIE"]
    assert all(r[1] == "ok" for r in rows[1:])
    for directory in ("full", "wo_IEI", "wo_UGC", "wo_U-PIE"):
        assert (out / directory / "summary.csv").exists()


# --- synthetic generator --------------------------------------------------------------


def test_gen_synthetic_counts_and_determinism(tmp_path):
    a = tmp_path / "a.tsv"
    b = tmp_path / "b.tsv"
    gen_synthetic(200, 100, 10, 1, seed=5, path=a)
    gen_synthetic(200, 100, 10, 1, seed=5, path=b)
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert len(lines) == 2000
    gen_synthetic(200, 100, 10, 1, seed=6, path=b)
    assert a.read_bytes() != b.read_bytes()


def test_gen_synthetic_is_loadable(tmp_path):
    path = gen_synthetic(30, 60, 8, 3, seed=2, path=tmp_path / "s.tsv")
    dataset = leave_one_out_split(load_interactions(path, FileFormat.TAB))
    assert dataset.num_users == 30
    assert all(len(dataset.train[u]) == 6 for u in range(30))


def test_gen_synthetic_single_cluster_is_near_uniform(tmp_path):
    path = gen_synthetic(200, 100, 10, 1, seed=5, path=tmp_path / "u.tsv")
    counts = np.zeros(101)
    for line in path.read_text().splitlines():
        counts[int(line.split("\t")[1])] += 1
    expected = 2000 / 100
    assert counts[1:].max() <= 2 * expected


def test_gen_synthetic_clusters_bias_items(tmp_path):
    users, items, per, clusters = 40, 100, 10, 4
    path = gen_synthetic(users, items, per, clusters, seed=3, path=tmp_path / "c.tsv")
    pools = np.array_split(np.arange(items), clusters)
    in_pool = []
    by_user = {}
    for line in path.read_text().splitlines():
        u, i, _r, _t = line.split("\t")
        by_user.setdefault(int(u) - 1, []).append(int(i) - 1)
    for u, drawn in by_user.items():
        pool = set(pools[u * clusters // users].tolist())
        in_pool.append(sum(1 for i in drawn if i in pool) / len(drawn))
    assert np.mean(in_pool) > 0.6  # bias parameter is 0.8


def test_gen_synthetic_validation():
    with pytest.raises(ConfigError, match="interactions_per_user"):
        gen_synthetic(5, 10, 2, 1, seed=0, path="x.tsv")
    with pytest.raises(ConfigError, match="num_items"):
        gen_synthetic(5, 4, 5, 1, seed=0, path="x.tsv")
    with pytest.raises(ConfigError, match="clusters"):
        gen_synthetic(5, 10, 3, 11, seed=0, path="x.tsv")
    with pytest.raises(ConfigError, match="num_users"):
        gen_synthetic(0, 10, 3, 1, seed=0, path="x.tsv")


# --- CLI ---------------------------------------------------------------------------


def test_cli_flag_beats_config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("alpha = 0.9\nrounds = 6\n")
    args = cli.build_parser().parse_args(
        ["run", "--config", str(path), "--alpha", "0.1"]
    )
    config = cli._config_from_args(args)
    assert config.alpha == 0.1
    assert config.rounds == 6


def test_cli_run_smoke(tmp_path, capsys):
    code = cli.main(
        [
            "run", "--dataset", BUNDLED, "--rounds", "2", "--lr", "0.05",
            "--reps", "1", "--embed-dim", "4", "--mlp-hidden", "4",
            "--eval-negatives", "20", "--k", "5", "--seed", "1",
            "--out", str(tmp_path), "--label", "smoke",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "wrote" in out and "HR@5" in out
    assert (tmp_path / "smoke" / "summary.txt").exists()


def test_cli_exit_codes(tmp_path, capsys):
    # usage problems and bad configs exit 1
    assert cli.main([]) == 1
    assert cli.main(["run", "--alpha", "2.0", "--dataset", BUNDLED]) == 1
    assert cli.main(["run", "--rounds", "0", "--dataset", BUNDLED]) == 1
    assert cli.main(["sweep", "--axis", "alpha", "--values", "0.1",
                     "--values2", "0.5", "--dataset", BUNDLED]) == 1
    capsys.readouterr()
    # a negative clip norm, and a public-only global table with nobody
    # sharing, fail before any training
    run_args = ["run", "--dataset", BUNDLED, "--eval-negatives", "49", "--rounds", "1",
                "--reps", "1", "--lr", "0.05", "--out", str(tmp_path)]
    assert cli.main([*run_args, "--clip-norm", "-5"]) == 1
    err = capsys.readouterr().err
    assert "--clip-norm" in err and "0 disables clipping" in err
    assert cli.main([*run_args, "--layers", "0"]) == 1
    assert "--layers must be >= 1, got 0" in capsys.readouterr().err
    assert cli.main([*run_args, "--ldp-delta", "-1"]) == 1
    assert "--ldp-delta must be >= 0" in capsys.readouterr().err
    assert cli.main([*run_args, "--global-from-public-only", "--public-ratio", "0"]) == 1
    err = capsys.readouterr().err
    assert "--global-from-public-only needs at least one sharing user" in err
    # a missing dataset file, for every verb that reads one, writes nothing
    absent = str(tmp_path / "absent.tsv")
    for verb in (["run"], ["ablate"], ["sweep", "--axis", "alpha", "--values", "0.5"],
                 ["inspect-graph"]):
        assert cli.main([*verb, "--dataset", absent, "--out", str(tmp_path / "out")]) == 1
        assert f"dataset file not found: {absent}" in capsys.readouterr().err
    assert cli.main(["inspect-graph", "--dataset", BUNDLED, "--public-ratio", "1.5",
                     "--out", str(tmp_path / "out")]) == 1
    assert "config error: public_ratio must be in [0, 1], got 1.5" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
    # a user who rated every item leaves nothing to draw negatives from,
    # whatever the negative counts
    rated_all = tmp_path / "rated_all.tsv"
    rated_all.write_text("".join(f"{u}\t{i}\t5\n" for u in ("ann", "bob") for i in range(3)))
    tiny = ["--dataset", str(rated_all), "--rounds", "1", "--reps", "1", "--lr", "0.01",
            "--out", str(tmp_path / "out")]
    for verb in (["run"], ["ablate"], ["sweep", "--axis", "alpha", "--values", "0.5"]):
        for k, count in (("1", "0"), ("2", "5")):
            assert cli.main([*verb, *tiny, "--k", k, "--eval-negatives", count]) == 1
            err = capsys.readouterr().err
            assert "user ann has interacted with every item" in err
            assert "no unseen item is left to draw negatives from" in err
    assert list(tmp_path.iterdir()) == [rated_all]
    # runtime failures exit 2
    malformed = tmp_path / "malformed.tsv"
    malformed.write_text("1\t2\n")
    assert cli.main([*run_args, "--dataset", str(malformed)]) == 2
    assert "expected 3 or 4 fields" in capsys.readouterr().err


def test_non_finite_float_flags_fail_at_config_time(tmp_path, capsys):
    # nan slips past every range check (nan > 0 is false), so a nan noise
    # scale used to run without noise and an infinite rate died mid-run
    out = tmp_path / "out"
    run_args = ["run", "--dataset", BUNDLED, "--eval-negatives", "49", "--rounds", "2",
                "--reps", "1", "--lr", "0.01", "--out", str(out)]
    for flag, value in (("--ldp-delta", "nan"), ("--clip-norm", "nan"), ("--lr", "nan"),
                        ("--lr", "inf"), ("--ldp-delta", "inf"), ("--init-scale", "nan")):
        assert cli.main([*run_args, flag, value]) == 1, (flag, value)
        assert f"{flag} must be finite, got {value}" in capsys.readouterr().err
        assert not out.exists()
    config_file = tmp_path / "exp.cfg"
    config_file.write_text("ldp_delta = nan\n")
    assert cli.main([*run_args, "--config", str(config_file)]) == 1
    assert "--ldp-delta must be finite, got nan" in capsys.readouterr().err
    assert not out.exists()


def test_cli_quick_start_on_bundled_file(tmp_path, capsys):
    # The default 99 eval negatives exceed the bundled file's 90-item pools:
    # a config error before any training, naming the flag and the fix.
    assert cli.main(["run", "--dataset", BUNDLED, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "--eval-negatives 99" in err and "--eval-negatives 90 or less" in err
    assert not list(tmp_path.rglob("rounds.csv"))
    assert cli.main(["run", "--dataset", BUNDLED, "--eval-negatives", "49", "--rounds", "2",
                     "--reps", "1", "--lr", "0.01", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "experiment" / "summary.csv").exists()
    capsys.readouterr()


NO_SCIPY_SCRIPT = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from fedgraphrec import cli
code = cli.main(sys.argv[1:])
print(sorted(name for name, module in sys.modules.items()
             if name.startswith("scipy") and module is not None))
sys.exit(code)
"""


def test_run_needs_no_scipy(tmp_path):
    # A run loads numpy and the standard library only: scipy's import cost
    # about 0.25 s and 19 MB in every process.
    src = str(Path(fedgraphrec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = ["run", "--dataset", BUNDLED, "--eval-negatives", "49", "--rounds", "2",
            "--reps", "1", "--lr", "0.01", "--out", str(tmp_path), "--label", "numpy-only"]
    done = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, *argv], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "numpy-only" / "summary.csv").exists()


def test_cli_gen_synth_and_seed_env(tmp_path, monkeypatch, capsys):
    out = tmp_path / "g.tsv"
    monkeypatch.setenv("FEDREC_SEED", "7")
    assert cli.main(["gen-synth", "--users", "10", "--items", "20",
                     "--per-user", "4", "--clusters", "2", "--out", str(out)]) == 0
    from_env = out.read_bytes()
    assert cli.main(["gen-synth", "--users", "10", "--items", "20",
                     "--per-user", "4", "--clusters", "2", "--seed", "7",
                     "--out", str(out)]) == 0
    assert out.read_bytes() == from_env
    capsys.readouterr()


def test_cli_inspect_graph(tmp_path, capsys):
    out = tmp_path / "dump"
    code = cli.main(
        ["inspect-graph", "--dataset", BUNDLED, "--public-ratio", "0.5",
         "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "users: 50" in printed
    adjacency = (out / "graph_adjacency.tsv").read_text().splitlines()
    assert adjacency[0] == "user_a\tuser_b\tweight"
    assert len(adjacency) > 1
    assert (out / "graph_normalized.tsv").exists()


def test_cli_sweep_smoke(tmp_path, capsys):
    code = cli.main(
        [
            "sweep", "--dataset", BUNDLED, "--rounds", "2", "--lr", "0.05",
            "--reps", "1", "--embed-dim", "4", "--mlp-hidden", "4",
            "--eval-negatives", "20", "--k", "5", "--seed", "1",
            "--out", str(tmp_path), "--label", "sw",
            "--axis", "alpha", "--values", "0.0,1.0",
        ]
    )
    assert code == 0
    rows = read_csv(tmp_path / "sw" / "sweep.csv")
    assert len(rows) == 3
    capsys.readouterr()
