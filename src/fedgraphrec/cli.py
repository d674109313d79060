"""Command-line front-end: run, sweep, ablate, gen-synth, inspect-graph."""

from __future__ import annotations

import argparse
import logging
import sys

from fedgraphrec import experiments
from fedgraphrec.experiments import ConfigError


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as config errors (exit code 1)."""

    def error(self, message):
        raise ConfigError(message)


def _flag_type(parse):
    """argparse type from a field parser; its ConfigError message is the
    usage error."""

    def convert(text):
        try:
            return parse(text)
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    convert.__name__ = parse.__name__  # argparse names it in "invalid int value"
    return convert


def _add_experiment_flags(parser: argparse.ArgumentParser) -> None:
    """Flags shared by run/sweep/ablate, one per ExperimentConfig field; None
    means 'not set on the command line'."""
    parser.add_argument("--config", help="flat key = value config file")
    for f in experiments.CONFIG_FIELDS.values():
        flag = "--" + f.name.replace("_", "-")
        if isinstance(f.default, bool):
            parser.add_argument(flag, action="store_const", const=True, help=f.metadata["help"])
        else:
            parser.add_argument(
                flag, type=_flag_type(experiments.field_parser(f.name)),
                choices=f.metadata.get("choices"), help=f.metadata["help"],
            )


def _config_from_args(args) -> experiments.ExperimentConfig:
    overrides = {name: getattr(args, name) for name in experiments.CONFIG_FIELDS}
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
    p_inspect.add_argument(
        "--format", choices=experiments.CONFIG_FIELDS["format"].metadata["choices"], default="tsv"
    )
    p_inspect.add_argument("--public-ratio", type=float, default=1.0)
    p_inspect.add_argument("--seed", type=int, default=None)
    p_inspect.add_argument("--out", default="graph-dump", help="output directory")

    return parser


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
                experiments.resolve_seed(args.seed), args.out,
            )
            print(f"wrote {path}")
            return 0
        if args.verb == "inspect-graph":
            return experiments.inspect_graph(
                args.dataset, args.format, args.public_ratio,
                experiments.resolve_seed(args.seed), args.out,
            )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure: dataset, training, IO
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
