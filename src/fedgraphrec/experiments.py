"""Experiment front-end: config files, single runs, sweeps, ablations, synthetic data."""

from __future__ import annotations

import csv
import dataclasses
import io
import logging
import math
import os
import re
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import product
from pathlib import Path, PurePath

import numpy as np

from fedgraphrec.data import (
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
from fedgraphrec.model import TrainingError
from fedgraphrec.seeding import EVAL_NEG_SALT, SYNTH_SALT, derive_rng, derive_rngs

log = logging.getLogger(__name__)

GRID_LEARNING_RATES = (0.0001, 0.001, 0.01, 0.1)
# Probability mass a synthetic user puts on their own cluster's item pool.
CLUSTER_BIAS = 0.8

# config keys a sweep can vary; each axis parses and names itself as its key
SWEEP_AXES = ("alpha", "public_ratio", "ldp_delta", "layers", "embed_dim", "lr")

# round-loop name -> schema field, for the FederationConfig fields named apart
# from their schema field (perfbench/traced.py reads them by these names)
ROUND_LOOP_NAMES = {"gcn_layers": "layers", "ldp_scale": "ldp_delta", "disable_iei": "ablate_iei",
                    "disable_ugc": "ablate_ugc", "disable_upie": "ablate_upie"}

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
        return tuple(int(part) for part in str(text).split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"expected comma-separated widths, got {text!r}") from None


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


def _option(default, help_text: str, **metadata):
    """One config field. It is also the flag `--<name with hyphens>` and the
    config-file key `<name>`. Metadata: `help`; `parse`, text to value, where
    the default's type is not enough; `bounds`, the least and most value
    (None: no upper bound) that `validate` accepts."""
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
    public_ratio: float = _option(1.0, "fraction of users who share data", bounds=(0, 1))
    alpha: float = _option(0.3, "personalization blend weight", bounds=(0, 1))
    ldp_delta: float = _option(
        0.0, "Laplace noise scale on uploads; 0 adds no noise", bounds=(0, None)
    )
    layers: int = _option(1, "graph smoothing hops", bounds=(1, None))
    embed_dim: int = _option(32, "embedding width", bounds=(1, None))
    mlp_hidden: tuple[int, ...] = _option(
        (32, 16), "comma-separated hidden widths, e.g. 32,16", parse=_parse_hidden
    )
    lr: object = _option(
        "grid", "learning rate, or 'grid' to select on validation", parse=parse_learning_rate
    )
    rounds: int = _option(100, "federated rounds", bounds=(1, None))
    local_epochs: int = _option(1, "local passes per round", bounds=(1, None))
    neg_ratio: int = _option(4, "train negatives per positive", bounds=(1, None))
    batch_size: int = _option(256, "local mini-batch size", bounds=(1, None))
    init_scale: float = _option(0.01, "embedding init standard deviation", bounds=(0, None))
    clip_norm: float = _option(0.0, "gradient norm clip; 0 disables clipping", bounds=(0, None))
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
    k: int = _option(10, "ranking cutoff", bounds=(1, None))
    eval_negatives: int = _option(99, "sampled negatives per evaluation", bounds=(0, None))
    eval_every: int = _option(1, "evaluation stride in rounds", bounds=(1, None))
    seed: int = _option(0, "seed base (env FEDREC_SEED as fallback)", bounds=(0, None))
    reps: int = _option(5, "independent repetitions", bounds=(1, None))
    out: str = _option("runs", "output directory")
    label: str = _option("experiment", "run label (subdirectory of --out)")
    workers: int = _option(
        1, "worker processes for grid candidates and repetitions", bounds=(1, None)
    )

    def validate(self) -> None:
        self.lr = parse_learning_rate(self.lr)
        self.mlp_hidden = tuple(self.mlp_hidden)
        for name in CONFIG_FIELDS:
            check_field(name, getattr(self, name))
        if not self.mlp_hidden or any(h < 1 for h in self.mlp_hidden):
            raise ConfigError(f"--mlp-hidden must be positive widths, got {self.mlp_hidden}")
        label = PurePath(self.label)
        if not label.parts or label.is_absolute() or ".." in label.parts:
            raise ConfigError(f"--label must name a directory strictly inside --out: a relative "
                              f"path, not '.', without '..'; got {self.label!r}")
        if self.eval_negatives < self.k - 1:
            raise ConfigError(f"--eval-negatives must be >= --k - 1 ({self.k - 1}), got "
                              f"{self.eval_negatives}; raise --eval-negatives or lower --k")

    def to_federation_config(self, rep_seed: int, lr: float) -> FederationConfig:
        """The repetition's round-loop record, filled from the schema by field name."""
        shared = {f.name: getattr(self, ROUND_LOOP_NAMES.get(f.name, f.name))
                  for f in dataclasses.fields(FederationConfig)
                  if f.name not in ("seed", "learning_rate")}
        return FederationConfig(**shared, seed=rep_seed, learning_rate=lr)

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


def flag(name: str) -> str:
    """The CLI flag of config field `name`: `--<name with hyphens>`."""
    return "--" + name.replace("_", "-")


def check_field(name: str, value) -> None:
    """Reject a non-finite float, or a value outside config field `name`'s
    bounds, with a message that names the flag and quotes its help."""
    f = CONFIG_FIELDS[name]
    least, most = f.metadata.get("bounds", (None, None))
    if isinstance(value, float) and not math.isfinite(value):
        need = "finite"
    elif least is not None and not least <= value <= (math.inf if most is None else most):
        need = f">= {least}" if most is None else f"in [{least}, {most}]"
    else:
        return
    raise ConfigError(f"{flag(name)} must be {need}, got {value} ({f.metadata['help']})")


def parse_value(name: str, text: str, source: str):
    """Text -> value of config field `name`, for every input channel: a flag,
    a config-file line, a sweep value or FEDREC_SEED. Text that does not parse
    is a ConfigError that names `source` and the field."""
    f = CONFIG_FIELDS[name]
    try:
        return f.metadata.get("parse", type(f.default))(text)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{source}: bad value for {name}: {exc}") from None


def load_config_file(path) -> dict:
    """Parse a flat `key = value` file into typed overrides.

    Unknown keys, and a key set twice, are a hard error; blank lines and `#`
    comments are ignored.
    """
    overrides = {}
    line_of = {}  # key -> the line that set it
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        # the BOM goes after decoding, so error offsets count the file's bytes
        text = path.read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: config file is not UTF-8 text (byte {exc.start})") from None
    for line_no, line in enumerate(text.splitlines(), start=1):
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
        if key in line_of:
            raise ConfigError(f"{path}:{line_no}: config key {key!r} is set twice, "
                              f"on lines {line_of[key]} and {line_no}")
        line_of[key] = line_no
        overrides[key] = parse_value(key, raw, f"{path}:{line_no}")
    return overrides


def build_config(file_path=None, overrides=None, env=None) -> ExperimentConfig:
    """Defaults <- config file <- explicit overrides; FEDREC_SEED fills in a
    seed when neither file nor overrides set one. An override given as text
    is the flag `--<name>` and parses as one; other values pass as they are."""
    values = {} if file_path is None else load_config_file(file_path)
    for key, value in (overrides or {}).items():
        if key not in CONFIG_FIELDS:
            raise ConfigError(f"unknown config key {key!r}")
        if isinstance(value, str):
            value = parse_value(key, value, flag(key))
        if value is not None:
            values[key] = value
    env = os.environ if env is None else env
    if "seed" not in values and env.get("FEDREC_SEED"):
        values["seed"] = parse_value("seed", env["FEDREC_SEED"], "FEDREC_SEED")
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
    """Fail before any training when some user's negative pool is empty, so
    training has no item to draw negatives from, or smaller than the
    evaluation samples."""
    sizes = dataset.negative_pool_sizes()
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


def _split_file(path, set_by: str = "--dataset or config file") -> InteractionDataset:
    if path is None:
        raise ConfigError(f"no dataset configured ({set_by})")
    if not Path(path).is_file():
        raise ConfigError(f"dataset file not found: {path}")
    return leave_one_out_split(load_interactions(path))


def load_dataset(config: ExperimentConfig) -> InteractionDataset:
    """Parse and split the configured file, and fail before any training when
    it cannot carry the evaluation. Every run, repetition and grid candidate
    of one command shares it."""
    dataset = _split_file(config.dataset)
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
    rngs = derive_rngs(rep_seed, range(dataset.num_users), EVAL_NEG_SALT)
    negatives = np.stack([
        sample_eval_negatives(dataset, u, config.eval_negatives, rng)
        for u, rng in enumerate(rngs)
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


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextmanager
def _pool(workers: int):
    """`workers` spawned processes, or None for one; leaving cancels what has not
    started. Each worker's BLAS, loaded afresh, gets its share of the cores where
    the environment sets no thread count; closing restores the environment."""
    if workers == 1:
        yield None
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    unset = [name for name in BLAS_THREAD_VARS if name not in os.environ]
    os.environ.update(dict.fromkeys(unset, str(max(1, (os.cpu_count() or 1) // workers))))
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn"))
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)
        for name in unset:
            os.environ.pop(name, None)


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
    """A temporary path that replaces `path` when the block ends without error;
    on an error it is removed and `path` is left as it was."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        yield tmp
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
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


def _clear_run_files(out_dir: Path) -> None:
    """Remove from `out_dir`, and from each direct subdirectory that holds a
    `resolved_config.txt` (an earlier cell), what a run, sweep or ablation
    writes there: its config, grid, summary and cell-table files, each
    `rep<r>/rounds.csv`, and each `rep<r>/` or cell directory that this
    leaves empty. Nothing else in them is touched."""
    cells = [path.parent for path in out_dir.glob("*/resolved_config.txt")]
    for directory in [*cells, out_dir]:
        for name in ("resolved_config.txt", "grid_search.csv", "summary.csv", "summary.txt",
                     "sweep.csv", "ablation.csv"):
            (directory / name).unlink(missing_ok=True)
        for rounds in directory.glob("rep*/rounds.csv"):
            if re.fullmatch(r"rep[0-9]+", rounds.parent.name):
                rounds.unlink()
                if not any(rounds.parent.iterdir()):
                    rounds.parent.rmdir()
        if directory in cells and not any(directory.iterdir()):
            directory.rmdir()


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


def _at_once(config: ExperimentConfig) -> int:
    """The most repetitions a run has going at once: the grid's candidates
    together, then the repetitions after the winner."""
    return max(len(GRID_LEARNING_RATES), config.reps - 1) if config.lr == "grid" else config.reps


def execute_run(
    config: ExperimentConfig, dataset: InteractionDataset | None = None, pool=None
) -> RunSummary:
    """Grid selection (when asked), all repetitions, and every artifact file
    for one configuration. Returns the cross-repetition summary. The grid
    winner's run is repetition 0. Grid candidates and repetitions share one
    pool; each repetition's files land as it is read, in repetition order,
    after an earlier run's files in the directory are removed.

    `dataset` is the configured file as `load_dataset` returns it; omitted,
    the run loads it. `pool` is an open `_pool` to run on; omitted, the run
    opens one of no more processes than `_at_once` needs."""
    config.validate()
    if dataset is None:
        dataset = load_dataset(config)
    check_sharing_users(config, dataset)
    out_dir = Path(config.out) / config.label
    out_dir.mkdir(parents=True, exist_ok=True)
    _clear_run_files(out_dir)
    _atomic_write(out_dir / "resolved_config.txt", config.to_text())

    lr = config.lr
    results = []
    opened = _pool(min(config.workers, _at_once(config))) if pool is None else nullcontext(pool)
    with opened as pool:
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
    """The comma-separated values of sweep axis `axis`, parsed as its config key."""
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r} (choices: {', '.join(SWEEP_AXES)})")
    parts = [part.strip() for part in str(text).split(",")]
    values = [parse_value(axis, part, f"axis {axis}") for part in parts if part]
    if "grid" in values:  # selects a learning rate; it is not one
        raise ConfigError(f"axis {axis}: bad value for {axis}: 'grid' is not a number")
    if not values:
        raise ConfigError(f"no values given for axis {axis}")
    return values


def _run_cells(config: ExperimentConfig, header: list[str], cells, csv_name: str) -> int:
    """Run each (leading row cells, cell config) of `cells` in turn on one
    load of the dataset and one worker pool, sized for the cell with the most
    repetitions at once, and write one `csv_name` row per cell; a cell that
    fails at run time is recorded as `failed: ...` and the next one runs.

    No cell changes what `load_dataset` reads, so a dataset problem, or a
    cell config that fails its checks, stops the command before an earlier
    command's files are cleared and any cell runs."""
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
    _clear_run_files(base_dir)
    rows = []
    with _pool(min(config.workers, max(_at_once(c) for _lead, c in cells))) as pool:
        for lead, cell_config in cells:
            try:
                summary = execute_run(cell_config, dataset, pool)
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
    axis_names = [axis for axis, _ in axes]
    for axis in axis_names:
        if axis not in SWEEP_AXES:
            raise ConfigError(f"unknown sweep axis {axis!r} (choices: {', '.join(SWEEP_AXES)})")
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
        settings = dict(zip(axis_names, combo))
        cell_config = replace(config, **settings, label=f"{config.label}/{cell_name}")
        cells.append(([f"{v:g}" for v in combo], cell_config))
    # the axis columns are config keys, which no summary column shares
    return _run_cells(config, axis_names, cells, "sweep.csv")


def ablation_suite(config: ExperimentConfig) -> int:
    """CLI verb: full configuration plus each single-mechanism ablation, which
    each variant switches on itself: the base configuration sets none."""
    set_flags = [flag(name) for _variant, flags in ABLATION_VARIANTS
                 for name in flags if getattr(config, name)]
    if set_flags:
        raise ConfigError(f"ablate runs each ablation itself; drop {' '.join(set_flags)}")
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
    per user; tokens are 1-based integers. A range error names the
    `gen-synth` flag that sets the parameter.
    """
    if num_users < 1:
        raise ConfigError(f"--users must be >= 1, got {num_users}")
    if interactions_per_user < 3:
        raise ConfigError(f"--per-user must be >= 3 for leave-one-out, got {interactions_per_user}")
    if num_items < interactions_per_user:
        raise ConfigError(f"--items ({num_items}) must be >= --per-user ({interactions_per_user})")
    if not 1 <= clusters <= num_items:
        raise ConfigError(f"--clusters must be in [1, --items], got {clusters}")

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


def inspect_graph(config: ExperimentConfig, out) -> int:
    """CLI verb: build the user graph of the configured dataset, sharing
    ratio and seed, and dump sparse triplets to directory `out`."""
    dataset = _split_file(config.dataset, "--dataset")  # the verb reads no config file
    tiers = assign_privacy(dataset.num_users, config.public_ratio, config.seed)
    graph = normalize(build_user_graph(dataset, tiers))

    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    adjacency_path = out_dir / "graph_adjacency.tsv"
    normalized_path = out_dir / "graph_normalized.tsv"
    with _atomic(adjacency_path) as tmp:
        edges, self_loops = dump_triplets(graph, tmp)
    with _atomic(normalized_path) as tmp:
        dump_triplets(graph, tmp, normalized=True)

    print(f"users: {dataset.num_users} ({tiers.num_public} public, {tiers.num_private} private)")
    print(f"items: {dataset.num_items}")
    print(f"co-interaction edges: {edges}")
    print(f"self-loops: {self_loops}")
    density = (2 * edges + self_loops) / max(dataset.num_users**2, 1)
    print(f"adjacency density: {density:.4f}")
    print(f"wrote {adjacency_path} and {normalized_path}")
    return 0
