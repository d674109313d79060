"""Command-line front-end: run, sweep, ablate, gen-synth, inspect-graph."""

from __future__ import annotations

import argparse
import logging
import os
import sys

from fedgraphrec import experiments
from fedgraphrec.experiments import ConfigError


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as config errors (exit code 1)."""

    def error(self, message):
        raise ConfigError(message)


def _add_experiment_flags(parser: argparse.ArgumentParser) -> None:
    """Flags shared by run/sweep/ablate; None means 'not set on the command line'."""
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--dataset", help="interaction file path")
    parser.add_argument("--format", choices=["tsv", "double-colon", "csv"], help="dataset layout")
    parser.add_argument("--public-ratio", type=float, help="fraction of users who share data")
    parser.add_argument("--alpha", type=float, help="personalization blend weight in [0, 1]")
    parser.add_argument("--ldp-delta", type=float, help="Laplace noise scale on uploads")
    parser.add_argument("--layers", type=int, help="graph smoothing hops")
    parser.add_argument("--embed-dim", type=int, help="embedding width")
    parser.add_argument("--mlp-hidden", help="comma-separated hidden widths, e.g. 32,16")
    parser.add_argument("--lr", help="learning rate, or 'grid' to select on validation")
    parser.add_argument("--rounds", type=int, help="federated rounds")
    parser.add_argument("--local-epochs", type=int, help="local passes per round")
    parser.add_argument("--neg-ratio", type=int, help="train negatives per positive")
    parser.add_argument("--batch-size", type=int, help="local mini-batch size")
    parser.add_argument("--init-scale", type=float, help="parameter init standard deviation")
    parser.add_argument("--mlp-init", choices=["gaussian", "he"], help="MLP weight init scheme")
    parser.add_argument("--clip-norm", type=float, help="gradient norm clip (0 disables)")
    parser.add_argument("--k", type=int, help="ranking cutoff")
    parser.add_argument("--eval-negatives", type=int, help="sampled negatives per evaluation")
    parser.add_argument("--eval-every", type=int, help="evaluation stride in rounds")
    parser.add_argument("--seed", type=int, help="seed base (env FEDREC_SEED as fallback)")
    parser.add_argument("--reps", type=int, help="independent repetitions")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--label", help="run label (subdirectory of --out)")
    parser.add_argument("--workers", type=int, help="parallel repetition workers")
    parser.add_argument(
        "--ablate-iei", action="store_const", const=True, default=None,
        help="server distributes nothing; clients keep their own tables",
    )
    parser.add_argument(
        "--ablate-ugc", action="store_const", const=True, default=None,
        help="skip graph smoothing; average and blend raw uploads",
    )
    parser.add_argument(
        "--ablate-upie", action="store_const", const=True, default=None,
        help="send every user the global table",
    )
    parser.add_argument(
        "--global-from-public-only", action="store_const", const=True, default=None,
        help="average only sharing users' tables into the global table",
    )


_FLAG_FIELDS = (
    "dataset", "format", "public_ratio", "alpha", "ldp_delta", "layers",
    "embed_dim", "mlp_hidden", "lr", "rounds", "local_epochs", "neg_ratio",
    "batch_size", "init_scale", "mlp_init", "clip_norm", "k", "eval_negatives",
    "eval_every", "seed", "reps", "out", "label", "workers",
    "ablate_iei", "ablate_ugc", "ablate_upie", "global_from_public_only",
)


def _config_from_args(args) -> experiments.ExperimentConfig:
    overrides = {}
    for name in _FLAG_FIELDS:
        value = getattr(args, name, None)
        if value is None:
            continue
        if name == "mlp_hidden":
            value = experiments._parse_hidden(value)
        if name == "lr":
            value = experiments.parse_learning_rate(value)
        overrides[name] = value
    return experiments.build_config(file_path=args.config, overrides=overrides)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fedgraphrec", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="one configuration, several repetitions")
    _add_experiment_flags(p_run)

    p_sweep = sub.add_parser("sweep", help="repeat a run across axis values")
    _add_experiment_flags(p_sweep)
    p_sweep.add_argument("--axis", required=True, choices=list(experiments.SWEEP_AXES))
    p_sweep.add_argument("--values", required=True, help="comma-separated axis values")
    p_sweep.add_argument("--axis2", choices=list(experiments.SWEEP_AXES),
                         help="optional second axis (grid sweep)")
    p_sweep.add_argument("--values2", help="comma-separated values for --axis2")

    p_ablate = sub.add_parser("ablate", help="full model and each single-mechanism ablation")
    _add_experiment_flags(p_ablate)

    p_gen = sub.add_parser("gen-synth", help="write a clustered synthetic interaction TSV")
    p_gen.add_argument("--users", type=int, default=50)
    p_gen.add_argument("--items", type=int, default=100)
    p_gen.add_argument("--per-user", type=int, default=10, help="interactions per user")
    p_gen.add_argument("--clusters", type=int, default=5)
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--out", default="synthetic.tsv", help="output TSV path")

    p_inspect = sub.add_parser("inspect-graph", help="dump the user graph as sparse triplets")
    p_inspect.add_argument("--dataset", required=True)
    p_inspect.add_argument("--format", choices=["tsv", "double-colon", "csv"], default="tsv")
    p_inspect.add_argument("--public-ratio", type=float, default=1.0)
    p_inspect.add_argument("--seed", type=int, default=None)
    p_inspect.add_argument("--out", default="graph-dump", help="output directory")

    return parser


def _fallback_seed(seed) -> int:
    if seed is not None:
        return seed
    env = os.environ.get("FEDREC_SEED")
    if env:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"FEDREC_SEED must be an integer, got {env!r}") from None
    return 0


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.verb == "run":
            return experiments.run(_config_from_args(args))
        if args.verb == "sweep":
            axes = [(args.axis, experiments.parse_axis_values(args.axis, args.values))]
            if args.axis2 is not None:
                if args.values2 is None:
                    raise ConfigError("--axis2 requires --values2")
                axes.append((args.axis2, experiments.parse_axis_values(args.axis2, args.values2)))
            elif args.values2 is not None:
                raise ConfigError("--values2 requires --axis2")
            return experiments.sweep(_config_from_args(args), axes)
        if args.verb == "ablate":
            return experiments.ablation_suite(_config_from_args(args))
        if args.verb == "gen-synth":
            path = experiments.gen_synthetic(
                args.users, args.items, args.per_user, args.clusters,
                _fallback_seed(args.seed), args.out,
            )
            print(f"wrote {path}")
            return 0
        if args.verb == "inspect-graph":
            return experiments.inspect_graph(
                args.dataset, args.format, args.public_ratio,
                _fallback_seed(args.seed), args.out,
            )
        raise ConfigError(f"unknown verb {args.verb!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure: dataset, training, IO
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
