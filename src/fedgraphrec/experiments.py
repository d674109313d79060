"""Experiment front-end: config files, single runs, sweeps, ablations, synthetic data."""

from __future__ import annotations

import csv
import dataclasses
import io
import logging
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import product
from pathlib import Path, PurePath

import numpy as np

from fedgraphrec.data import (
    FileFormat,
    InteractionDataset,
    Tier,
    assign_privacy,
    leave_one_out_split,
    load_interactions,
    public_count,
    sample_eval_negatives,
)
from fedgraphrec.evaluation import evaluate_round
from fedgraphrec.federation import FederationConfig, RoundRecord, run_federation
from fedgraphrec.graph import build_user_graph, dump_triplets, normalize
from fedgraphrec.model import MLP_INIT_CHOICES, ModelConfig, TrainingError
from fedgraphrec.seeding import EVAL_NEG_SALT, SYNTH_SALT, derive_rng

log = logging.getLogger(__name__)

GRID_LEARNING_RATES = (0.0001, 0.001, 0.01, 0.1)
# Probability mass a synthetic user puts on their own cluster's item pool.
CLUSTER_BIAS = 0.8

# axis name -> config field; the field's parser reads the axis values
_AXIS_FIELDS = {
    "alpha": "alpha",
    "public_ratio": "public_ratio",
    "delta": "ldp_delta",
    "layers": "layers",
    "embed_dim": "embed_dim",
    "learning_rate": "lr",
}
SWEEP_AXES = tuple(_AXIS_FIELDS)

ABLATION_VARIANTS = (
    ("full", {}),
    ("w/o IEI", {"ablate_iei": True}),
    ("w/o UGC", {"ablate_ugc": True}),
    ("w/o U-PIE", {"ablate_upie": True}),
)


class ConfigError(ValueError):
    """Invalid configuration: bad value, unknown key, missing input."""


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_hidden(text: str) -> tuple[int, ...]:
    try:
        widths = tuple(int(part) for part in str(text).split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"expected comma-separated widths, got {text!r}") from None
    if not widths:
        raise ConfigError("mlp_hidden needs at least one width")
    return widths


def _parse_optional(text: str) -> str | None:
    return text or None


def parse_learning_rate(text) -> "float | str":
    """A positive float, or the literal 'grid' for validation-based selection."""
    if isinstance(text, (int, float)):
        value = float(text)
    else:
        if str(text).strip().lower() == "grid":
            return "grid"
        try:
            value = float(text)
        except ValueError:
            raise ConfigError(f"lr must be a positive number or 'grid', got {text!r}") from None
    if value <= 0:
        raise ConfigError(f"lr must be positive, got {value}")
    return value


def resolve_seed(seed: int | None = None, env=None) -> int:
    """`seed` when set, else the FEDREC_SEED environment variable, else 0."""
    env = os.environ if env is None else env
    if seed is None and env.get("FEDREC_SEED"):
        try:
            seed = int(env["FEDREC_SEED"])
        except ValueError:
            raise ConfigError(f"FEDREC_SEED must be an integer, got {env['FEDREC_SEED']!r}") from None
    seed = 0 if seed is None else seed
    if seed < 0:
        raise ConfigError(f"--seed/FEDREC_SEED must be >= 0, got {seed}")
    return seed


def _check_public_ratio(public_ratio: float) -> None:
    if not 0.0 <= public_ratio <= 1.0:
        raise ConfigError(f"public_ratio must be in [0, 1], got {public_ratio}")


def _option(default, help_text: str, **metadata):
    """One config field. It is also the flag `--<name with hyphens>` and the
    config-file key `<name>`. Metadata: `help`; `parse`, text to value, where
    the default's type is not enough; `choices` for the flag."""
    return field(default=default, metadata={"help": help_text, **metadata})


@dataclass
class ExperimentConfig:
    """Everything one experiment needs; every field has a working default.

    This class is the config schema: the CLI flags, the config-file keys and
    `resolved_config.txt` are all derived from its fields.

    `lr` is either a float or the string "grid", which selects the best rate
    from GRID_LEARNING_RATES by validation HR before the real repetitions.
    """

    dataset: str | None = _option(None, "interaction file path", parse=_parse_optional)
    format: str = _option("tsv", "dataset layout", choices=tuple(f.value for f in FileFormat))
    public_ratio: float = _option(1.0, "fraction of users who share data")
    alpha: float = _option(0.3, "personalization blend weight in [0, 1]")
    ldp_delta: float = _option(0.0, "Laplace noise scale on uploads")
    layers: int = _option(1, "graph smoothing hops")
    embed_dim: int = _option(32, "embedding width")
    mlp_hidden: tuple[int, ...] = _option(
        (32, 16), "comma-separated hidden widths, e.g. 32,16", parse=_parse_hidden
    )
    lr: object = _option(
        "grid", "learning rate, or 'grid' to select on validation", parse=parse_learning_rate
    )
    rounds: int = _option(100, "federated rounds")
    local_epochs: int = _option(1, "local passes per round")
    neg_ratio: int = _option(4, "train negatives per positive")
    batch_size: int = _option(256, "local mini-batch size")
    init_scale: float = _option(0.01, "parameter init standard deviation")
    mlp_init: str = _option("he", "MLP weight init scheme", choices=MLP_INIT_CHOICES)
    clip_norm: float = _option(0.0, "gradient norm clip (0 disables)")
    ablate_iei: bool = _option(
        False, "server distributes nothing; clients keep their own tables", parse=_parse_bool
    )
    ablate_ugc: bool = _option(
        False, "skip graph smoothing; average and blend raw uploads", parse=_parse_bool
    )
    ablate_upie: bool = _option(False, "send every user the global table", parse=_parse_bool)
    global_from_public_only: bool = _option(
        False, "average only sharing users' tables into the global table", parse=_parse_bool
    )
    k: int = _option(10, "ranking cutoff")
    eval_negatives: int = _option(99, "sampled negatives per evaluation")
    eval_every: int = _option(1, "evaluation stride in rounds")
    seed: int = _option(0, "seed base (env FEDREC_SEED as fallback)")
    reps: int = _option(5, "independent repetitions")
    out: str = _option("runs", "output directory")
    label: str = _option("experiment", "run label (subdirectory of --out)")
    workers: int = _option(1, "worker processes for grid candidates and repetitions")

    def validate(self) -> None:
        self.lr = parse_learning_rate(self.lr)
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"--{f.name.replace('_', '-')} must be finite, got {value}")
        _check_public_ratio(self.public_ratio)
        try:
            FileFormat.from_string(self.format)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.seed < 0:
            raise ConfigError(f"--seed/FEDREC_SEED must be >= 0, got {self.seed}")
        if self.reps < 1:
            raise ConfigError(f"reps must be >= 1, got {self.reps}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        label = PurePath(self.label)
        if not self.label or label.is_absolute() or ".." in label.parts:
            raise ConfigError(f"--label must be a non-empty relative path without '..', "
                              f"so the run's files stay inside --out; got {self.label!r}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.eval_negatives < self.k - 1:
            raise ConfigError(
                f"eval_negatives ({self.eval_negatives}) must be >= k - 1 ({self.k - 1})"
            )
        if self.eval_every < 1:
            raise ConfigError(f"eval_every must be >= 1, got {self.eval_every}")
        if self.clip_norm < 0:
            raise ConfigError(
                f"--clip-norm must be >= 0 (0 disables clipping), got {self.clip_norm}"
            )
        if self.layers < 1:
            raise ConfigError(f"--layers must be >= 1, got {self.layers}")
        if self.ldp_delta < 0:
            raise ConfigError(f"--ldp-delta must be >= 0 (0 adds no noise), got {self.ldp_delta}")
        try:
            self.to_federation_config(self.seed, lr=0.01).validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def to_federation_config(self, rep_seed: int, lr: float) -> FederationConfig:
        model = ModelConfig(
            embed_dim=self.embed_dim,
            mlp_hidden=tuple(self.mlp_hidden),
            learning_rate=lr,
            local_epochs=self.local_epochs,
            neg_ratio=self.neg_ratio,
            batch_size=self.batch_size,
            init_scale=self.init_scale,
            mlp_init=self.mlp_init,
            clip_norm=self.clip_norm if self.clip_norm > 0 else None,
        )
        return FederationConfig(
            rounds=self.rounds,
            alpha=self.alpha,
            gcn_layers=self.layers,
            ldp_scale=self.ldp_delta,
            disable_iei=self.ablate_iei,
            disable_ugc=self.ablate_ugc,
            disable_upie=self.ablate_upie,
            global_from_public_only=self.global_from_public_only,
            model=model,
            seed=rep_seed,
        )

    def to_text(self) -> str:
        """Flat `key = value` provenance form; parses back via from_file."""
        lines = ["# resolved experiment configuration"]
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value is None:
                value = ""
            elif isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            elif isinstance(value, bool):
                value = "true" if value else "false"
            lines.append(f"{f.name} = {value}")
        return "\n".join(lines) + "\n"


CONFIG_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}


def field_parser(name: str):
    """Text -> value for one config field."""
    f = CONFIG_FIELDS[name]
    return f.metadata.get("parse", type(f.default))


def load_config_file(path) -> dict:
    """Parse a flat `key = value` file into typed overrides.

    Unknown keys are a hard error; blank lines and `#` comments are ignored.
    """
    overrides = {}
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in CONFIG_FIELDS:
            raise ConfigError(f"{path}:{line_no}: unknown config key {key!r}")
        try:
            overrides[key] = field_parser(key)(raw)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}:{line_no}: bad value for {key}: {exc}") from None
    return overrides


def build_config(file_path=None, overrides=None, env=None) -> ExperimentConfig:
    """Defaults <- config file <- explicit overrides; FEDREC_SEED fills in a
    seed when neither file nor overrides set one."""
    values = {} if file_path is None else load_config_file(file_path)
    for key, value in (overrides or {}).items():
        if key not in CONFIG_FIELDS:
            raise ConfigError(f"unknown config key {key!r}")
        if value is not None:
            values[key] = value
    values["seed"] = resolve_seed(values.get("seed"), env)
    config = ExperimentConfig(**values)
    config.validate()
    return config


@dataclass
class RepetitionResult:
    """One repetition's round records; `best` is the one with the highest
    validation HR, the earliest on a tie. The repetition ran at seed base + rep."""

    rep: int
    learning_rate: float
    rounds: list[RoundRecord]
    best: RoundRecord


def check_eval_negatives(dataset: InteractionDataset, count: int) -> None:
    """Fail before any training when some user has no unseen item to draw
    training negatives from, or fewer unseen items than the evaluation
    samples. A user's items are distinct across the splits, so the unseen
    items number num_items - (train size + 2)."""
    sizes = dataset.num_items - 2 - np.array([items.size for items in dataset.train])
    fewest = int(np.argmin(sizes))
    largest = int(sizes[fewest])  # the most negatives every user can give
    if largest == 0:
        raise ConfigError(
            f"user {dataset.user_tokens[fewest]} has interacted with every item, so no unseen "
            f"item is left to draw negatives from; remove that user or add items to the file"
        )
    if count > largest:
        raise ConfigError(
            f"--eval-negatives {count} is too large for this dataset: the user with "
            f"the fewest unseen items has {largest}; use --eval-negatives {largest} or less"
        )


def _split_file(path, format_name: str) -> InteractionDataset:
    if not Path(path).is_file():
        raise ConfigError(f"dataset file not found: {path}")
    return leave_one_out_split(load_interactions(path, FileFormat.from_string(format_name)))


def load_dataset(config: ExperimentConfig) -> InteractionDataset:
    """Parse and split the configured file, and fail before any training when
    it cannot carry the evaluation. Every run, repetition and grid candidate
    of one command shares it."""
    if config.dataset is None:
        raise ConfigError("no dataset configured (--dataset or config file)")
    dataset = _split_file(config.dataset, config.format)
    check_eval_negatives(dataset, config.eval_negatives)
    return dataset


def check_sharing_users(config: ExperimentConfig, dataset: InteractionDataset) -> None:
    """Fail before any training when a public-only global table would average
    nobody; assign_privacy marks the same number of users whatever the seed."""
    if config.global_from_public_only and public_count(dataset.num_users, config.public_ratio) == 0:
        raise ConfigError(
            f"--global-from-public-only needs at least one sharing user, but "
            f"--public-ratio {config.public_ratio} makes none of the {dataset.num_users} "
            f"users share; raise --public-ratio or drop the flag"
        )


def run_repetition(
    config: ExperimentConfig, dataset: InteractionDataset, lr: float, rep: int
) -> RepetitionResult:
    """One full federated run with seed base + rep."""
    rep_seed = config.seed + rep
    tiers = assign_privacy(dataset.num_users, config.public_ratio, rep_seed)
    negatives = np.stack([
        sample_eval_negatives(
            dataset, u, config.eval_negatives, derive_rng(rep_seed, u, EVAL_NEG_SALT)
        )
        for u in range(dataset.num_users)
    ])

    def eval_hook(round_index, clients):
        # Stride-skipped rounds stay unevaluated, but the final round always runs.
        if round_index % config.eval_every != 0 and round_index != config.rounds:
            return None
        return evaluate_round(clients, dataset, negatives, tiers, config.k)

    records = run_federation(dataset, tiers, config.to_federation_config(rep_seed, lr), eval_hook)
    best = max(
        (record for record in records if record.metrics is not None),
        key=lambda record: (record.metrics.validation.hr, -record.round_index),
    )
    return RepetitionResult(rep, lr, records, best)


def _submit(pool, config: ExperimentConfig, dataset: InteractionDataset, lr: float, rep: int):
    """Repetition `rep` at rate `lr` as a call that returns its result: a pool
    future's, or with no pool a run in this process at call time."""
    if pool is None:
        return lambda: run_repetition(config, dataset, lr, rep)
    return pool.submit(run_repetition, config, dataset, lr, rep).result


@contextmanager
def _pool(workers: int):
    """`workers` processes, or None for one; leaving cancels what has not started."""
    if workers == 1:
        yield None
        return
    from concurrent.futures import ProcessPoolExecutor
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)


def select_learning_rate(
    config: ExperimentConfig, dataset: InteractionDataset, pool=None
) -> tuple[RepetitionResult, list[tuple[float, float]]]:
    """Grid phase: repetition 0 once per candidate rate, winner by validation HR.
    The candidates start together, on `pool` when given.

    Returns the winner's repetition, which is the run's repetition 0, and
    [(rate, best validation HR)] in grid order; ties go to the earlier grid
    entry.
    """
    runs = [_submit(pool, config, dataset, lr, 0) for lr in GRID_LEARNING_RATES]
    winner = None
    outcomes = []
    for lr, result_of in zip(GRID_LEARNING_RATES, runs):
        try:
            result = result_of()
        except TrainingError as exc:
            # A diverging candidate loses the grid; it must not kill the run.
            log.warning("grid: lr=%s diverged (%s)", lr, exc)
            outcomes.append((lr, float("nan")))
            continue
        val_hr = result.best.metrics.validation.hr
        outcomes.append((lr, val_hr))
        log.info("grid: lr=%s best validation HR=%.4f", lr, val_hr)
        if winner is None or val_hr > winner.best.metrics.validation.hr:
            winner = result
    if winner is None:
        raise TrainingError("every grid learning rate diverged")
    return winner, outcomes


# --- output writers ---------------------------------------------------------


@contextmanager
def _atomic(path: Path):
    """A temporary path that replaces `path` when the block ends without error."""
    tmp = path.with_name(path.name + ".tmp")
    yield tmp
    os.replace(tmp, path)


def _atomic_write(path: Path, text: str) -> None:
    with _atomic(path) as tmp:
        tmp.write_text(text, encoding="utf-8")


def _full(value) -> str:
    """Full-precision decimal text; round-trips exactly."""
    return repr(float(value))


def _pct(value) -> str:
    """Metric cell: percent at full precision, empty for absent values."""
    return "" if value is None else repr(float(value) * 100.0)


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _round_metric(record: RoundRecord, tier: Tier | None, name: str) -> str:
    """One test metric of the round, over all users (tier None) or one tier;
    empty when the round or the tier was not evaluated."""
    metrics = record.metrics
    if metrics is not None and tier is not None:
        metrics = metrics.per_tier.get(tier)
    return _pct(None if metrics is None else getattr(metrics, name))


# rounds.csv: (column, cell text from a RoundRecord), in column order.
ROUNDS_CSV_COLUMNS = (
    ("round", lambda record: str(record.round_index)),
    ("loss", lambda record: _full(record.mean_train_loss)),
    *(
        (name + suffix, partial(_round_metric, tier=tier, name=name))
        for suffix, tier in (("", None), ("_public", Tier.PUBLIC), ("_private", Tier.PRIVATE))
        for name in ("hr", "ndcg")
    ),
    ("wall_time", lambda record: _full(record.wall_time)),
)
ROUNDS_CSV_HEADER = ",".join(name for name, _cell in ROUNDS_CSV_COLUMNS)


def _write_repetition(out_dir: Path, result: RepetitionResult) -> None:
    """`rep<r>/rounds.csv` of one finished repetition."""
    rep_dir = out_dir / f"rep{result.rep}"
    rep_dir.mkdir(exist_ok=True)
    rows = [[cell(record) for _name, cell in ROUNDS_CSV_COLUMNS] for record in result.rounds]
    _atomic_write(rep_dir / "rounds.csv", _csv_text(ROUNDS_CSV_HEADER.split(","), rows))


def _mean_std(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return mean, std


@dataclass(frozen=True)
class RunSummary:
    """Cross-repetition statistics for one configuration (percent units)."""

    reps: int
    learning_rate: float
    best_round_mean: float
    hr_best_mean: float
    hr_best_std: float
    ndcg_best_mean: float
    ndcg_best_std: float
    hr_final_mean: float
    hr_final_std: float
    ndcg_final_mean: float
    ndcg_final_std: float


def summarize(results: list[RepetitionResult]) -> RunSummary:
    """Test metrics at each repetition's best-validation round and at its
    final round, read from the round records."""
    stats = {}
    for when, records in (("best", [r.best for r in results]),
                          ("final", [r.rounds[-1] for r in results])):
        for name in ("hr", "ndcg"):
            stats[f"{name}_{when}_mean"], stats[f"{name}_{when}_std"] = _mean_std(
                [getattr(record.metrics, name) * 100 for record in records]
            )
    return RunSummary(
        reps=len(results),
        learning_rate=results[0].learning_rate,
        best_round_mean=float(np.mean([r.best.round_index for r in results])),
        **stats,
    )


SUMMARY_CSV_HEADER = [f.name for f in dataclasses.fields(RunSummary)]
# sweep.csv and ablation.csv columns after each cell's status
CELL_SUMMARY_COLUMNS = [
    name for name in SUMMARY_CSV_HEADER if name not in ("reps", "best_round_mean")
]


def _summary_cells(summary: RunSummary) -> dict[str, str]:
    """summary.csv cell text by column: integers as they are, floats at full
    precision."""
    cells = {}
    for name in SUMMARY_CSV_HEADER:
        value = getattr(summary, name)
        cells[name] = str(value) if isinstance(value, int) else _full(value)
    return cells


def _summary_text(summary: RunSummary, k: int) -> str:
    return (
        f"repetitions: {summary.reps}\n"
        f"learning rate: {summary.learning_rate:g}\n"
        f"mean best-validation round: {summary.best_round_mean:g}\n"
        f"test at best-validation round: "
        f"HR@{k} = {summary.hr_best_mean:.2f} +/- {summary.hr_best_std:.2f}, "
        f"NDCG@{k} = {summary.ndcg_best_mean:.2f} +/- {summary.ndcg_best_std:.2f}\n"
        f"test at final round:          "
        f"HR@{k} = {summary.hr_final_mean:.2f} +/- {summary.hr_final_std:.2f}, "
        f"NDCG@{k} = {summary.ndcg_final_mean:.2f} +/- {summary.ndcg_final_std:.2f}\n"
    )


def execute_run(
    config: ExperimentConfig, dataset: InteractionDataset | None = None
) -> RunSummary:
    """Grid selection (when asked), all repetitions, and every artifact file
    for one configuration. Returns the cross-repetition summary. The grid
    winner's run is repetition 0. Grid candidates and repetitions share one
    pool; each repetition's files land as it is read, in repetition order.

    `dataset` is the configured file as `load_dataset` returns it; omitted,
    the run loads it."""
    config.validate()
    if dataset is None:
        dataset = load_dataset(config)
    check_sharing_users(config, dataset)
    out_dir = Path(config.out) / config.label
    out_dir.mkdir(parents=True, exist_ok=True)
    _atomic_write(out_dir / "resolved_config.txt", config.to_text())

    lr = config.lr
    results = []
    pooled = lr == "grid" or config.reps > 1  # more than one repetition to run
    with _pool(config.workers if pooled else 1) as pool:
        if lr == "grid":
            winner, grid_rows = select_learning_rate(config, dataset, pool)
            lr = winner.learning_rate
            rows = [
                [_full(rate), _pct(val_hr), "1" if rate == lr else "0"]
                for rate, val_hr in grid_rows
            ]
            _atomic_write(
                out_dir / "grid_search.csv",
                _csv_text(["learning_rate", "validation_hr_best", "selected"], rows),
            )
            _write_repetition(out_dir, winner)
            results.append(winner)

        reps = range(len(results), config.reps)
        runs = {rep: _submit(pool, config, dataset, lr, rep) for rep in reps}
        for rep, result_of in runs.items():
            try:
                result = result_of()
            except TrainingError as exc:
                raise TrainingError(f"repetition {rep} (lr {lr:g}): {exc}") from exc
            _write_repetition(out_dir, result)
            results.append(result)

    summary = summarize(results)
    cells = _summary_cells(summary)
    _atomic_write(
        out_dir / "summary.csv", _csv_text(SUMMARY_CSV_HEADER, [list(cells.values())])
    )
    _atomic_write(out_dir / "summary.txt", _summary_text(summary, config.k))
    return summary


def run(config: ExperimentConfig) -> int:
    """CLI verb: one configuration end to end."""
    summary = execute_run(config)
    print(f"wrote {Path(config.out) / config.label}")
    print(_summary_text(summary, config.k), end="")
    return 0


def _cell_metric_cells(summary: RunSummary | None) -> list[str]:
    if summary is None:
        return [""] * len(CELL_SUMMARY_COLUMNS)
    cells = _summary_cells(summary)
    return [cells[name] for name in CELL_SUMMARY_COLUMNS]


def parse_axis_values(axis: str, text: str) -> list:
    if axis not in _AXIS_FIELDS:
        raise ConfigError(f"unknown sweep axis {axis!r} (choices: {', '.join(SWEEP_AXES)})")
    parse = field_parser(_AXIS_FIELDS[axis])
    values = []
    for part in str(text).split(","):
        part = part.strip()
        if not part:
            continue
        try:
            value = parse(part)
            if isinstance(value, str):  # "grid" is a learning rate, not an axis value
                raise ValueError(part)
        except ValueError:
            raise ConfigError(f"bad value {part!r} for axis {axis}") from None
        values.append(value)
    if not values:
        raise ConfigError(f"no values given for axis {axis}")
    return values


def _run_cells(config: ExperimentConfig, header: list[str], cells, csv_name: str) -> int:
    """Run each (leading row cells, cell config) of `cells` in turn on one
    load of the dataset and write one `csv_name` row per cell; a cell that
    fails at run time is recorded as `failed: ...` and the next one runs.

    No cell changes what `load_dataset` reads, so a dataset problem, or a
    cell config that fails its checks, stops the command before any cell
    runs."""
    config.validate()
    dataset = load_dataset(config)
    for _lead, cell_config in cells:
        try:
            cell_config.validate()
            check_sharing_users(cell_config, dataset)
        except ConfigError as exc:
            raise ConfigError(f"cell {cell_config.label}: {exc}") from None
    base_dir = Path(config.out) / config.label
    base_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for lead, cell_config in cells:
        try:
            summary = execute_run(cell_config, dataset)
            status = "ok"
        except Exception as exc:  # record and continue with the next cell
            log.warning("cell %s failed: %s", cell_config.label, exc)
            summary = None
            status = f"failed: {exc}"
        rows.append(lead + [status] + _cell_metric_cells(summary))
    header = header + ["status"] + CELL_SUMMARY_COLUMNS
    _atomic_write(base_dir / csv_name, _csv_text(header, rows))
    print(f"wrote {base_dir / csv_name}")
    return 0


def sweep(config: ExperimentConfig, axes: list[tuple[str, list]]) -> int:
    """CLI verb: cross product over one axis (or two for the blend-ratio x
    sharing-ratio grid)."""
    if not 1 <= len(axes) <= 2:
        raise ConfigError(f"sweep takes one or two axes, got {len(axes)}")
    for axis, _values in axes:
        if axis not in _AXIS_FIELDS:
            raise ConfigError(f"unknown sweep axis {axis!r} (choices: {', '.join(SWEEP_AXES)})")
    axis_names = [axis for axis, _ in axes]
    if len(set(axis_names)) != len(axis_names):
        raise ConfigError("sweep axes must be distinct")

    cells = []
    taken = {}  # cell name -> the values that named it
    for combo in product(*(values for _axis, values in axes)):
        cell_name = ",".join(f"{a}={v:g}" for a, v in zip(axis_names, combo))
        named = ",".join(f"{a}={v!r}" for a, v in zip(axis_names, combo))
        if cell_name in taken:
            raise ConfigError(
                f"sweep values {taken[cell_name]} and {named} share the cell directory "
                f"{cell_name!r}; give values that differ within 6 significant digits"
            )
        taken[cell_name] = named
        settings = {_AXIS_FIELDS[axis]: value for axis, value in zip(axis_names, combo)}
        cell_config = replace(config, **settings, label=f"{config.label}/{cell_name}")
        cells.append(([f"{v:g}" for v in combo], cell_config))
    return _run_cells(config, axis_names, cells, "sweep.csv")


def ablation_suite(config: ExperimentConfig) -> int:
    """CLI verb: full configuration plus each single-mechanism ablation."""
    cells = []
    for variant, flags in ABLATION_VARIANTS:
        directory = variant.replace("/", "").replace(" ", "_")
        cells.append(([variant], replace(config, **flags, label=f"{config.label}/{directory}")))
    return _run_cells(config, ["variant"], cells, "ablation.csv")


def gen_synthetic(
    num_users: int,
    num_items: int,
    interactions_per_user: int,
    clusters: int,
    seed: int,
    path,
) -> Path:
    """Write a deterministic clustered TSV interaction file.

    Users in the same cluster draw CLUSTER_BIAS of their items from a shared
    pool, so sharing users form co-interaction blocks. Timestamps increase
    per user; tokens are 1-based integers.
    """
    if num_users < 1:
        raise ConfigError(f"num_users must be >= 1, got {num_users}")
    if interactions_per_user < 3:
        raise ConfigError(
            f"interactions_per_user must be >= 3 for leave-one-out, got {interactions_per_user}"
        )
    if num_items < interactions_per_user:
        raise ConfigError(
            f"num_items ({num_items}) must be >= interactions_per_user ({interactions_per_user})"
        )
    if not 1 <= clusters <= num_items:
        raise ConfigError(f"clusters must be in [1, num_items], got {clusters}")

    rng = derive_rng(seed, SYNTH_SALT)
    pools = np.array_split(np.arange(num_items), clusters)
    lines = []
    for user in range(num_users):
        pool = pools[user * clusters // num_users]
        if pool.size == num_items:
            probs = np.full(num_items, 1.0 / num_items)
        else:
            probs = np.full(num_items, (1.0 - CLUSTER_BIAS) / (num_items - pool.size))
            probs[pool] = CLUSTER_BIAS / pool.size
        items = rng.choice(num_items, size=interactions_per_user, replace=False, p=probs)
        ratings = rng.integers(1, 6, size=interactions_per_user)
        for stamp, (item, rating) in enumerate(zip(items, ratings), start=1):
            lines.append(f"{user + 1}\t{item + 1}\t{rating}\t{stamp}")
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write(path, "\n".join(lines) + "\n")
    return path


def inspect_graph(dataset_path, format_name, public_ratio, seed, out) -> int:
    """CLI verb: build the user graph for a dataset and dump sparse triplets."""
    _check_public_ratio(public_ratio)
    dataset = _split_file(dataset_path, format_name)
    tiers = assign_privacy(dataset.num_users, public_ratio, seed)
    graph = normalize(build_user_graph(dataset, tiers))

    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    adjacency_path = out_dir / "graph_adjacency.tsv"
    normalized_path = out_dir / "graph_normalized.tsv"
    for path, normalized in ((adjacency_path, False), (normalized_path, True)):
        with _atomic(path) as tmp:
            dump_triplets(graph, tmp, normalized=normalized)

    adjacency = graph.adjacency
    diagonal = adjacency.diagonal()
    nnz = int(np.count_nonzero(adjacency))
    off_diag_nnz = nnz - int(np.count_nonzero(diagonal))
    print(f"users: {dataset.num_users} ({tiers.num_public} public, {tiers.num_private} private)")
    print(f"items: {dataset.num_items}")
    print(f"co-interaction edges: {off_diag_nnz // 2}")
    print(f"self-loops: {int(np.count_nonzero(diagonal))}")
    density = nnz / max(dataset.num_users**2, 1)
    print(f"adjacency density: {density:.4f}")
    print(f"wrote {adjacency_path} and {normalized_path}")
    return 0
