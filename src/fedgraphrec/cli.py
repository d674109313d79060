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


INSPECT_FIELDS = ("dataset", "public_ratio", "seed")


def _add_config_flags(parser: argparse.ArgumentParser, names=None) -> None:
    """One flag per ExperimentConfig field in `names`, or per field and
    `--config` when `names` is None. An unset flag reads None; a value flag
    keeps its text, which `build_config` parses as the field's value."""
    if names is None:
        parser.add_argument("--config", help="flat key = value config file")
    for name in names or experiments.CONFIG_FIELDS:
        f = experiments.CONFIG_FIELDS[name]
        flag = "--" + name.replace("_", "-")
        if isinstance(f.default, bool):
            parser.add_argument(flag, action="store_const", const=True, help=f.metadata["help"])
        else:
            parser.add_argument(flag, help=f.metadata["help"])


def _config_from_args(args, names=None) -> experiments.ExperimentConfig:
    overrides = {name: getattr(args, name) for name in names or experiments.CONFIG_FIELDS}
    return experiments.build_config(file_path=getattr(args, "config", None), overrides=overrides)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fedgraphrec", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="one configuration, several repetitions")
    _add_config_flags(p_run)

    p_sweep = sub.add_parser("sweep", help="repeat a run across axis values")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--axis", required=True, choices=list(experiments.SWEEP_AXES))
    p_sweep.add_argument("--values", required=True, help="comma-separated axis values")
    p_sweep.add_argument("--axis2", choices=list(experiments.SWEEP_AXES),
                         help="optional second axis (grid sweep)")
    p_sweep.add_argument("--values2", help="comma-separated values for --axis2")

    p_ablate = sub.add_parser("ablate", help="full model and each single-mechanism ablation")
    _add_config_flags(p_ablate)

    p_gen = sub.add_parser("gen-synth", help="write a clustered synthetic interaction TSV")
    p_gen.add_argument("--users", type=int, default=50)
    p_gen.add_argument("--items", type=int, default=100)
    p_gen.add_argument("--per-user", type=int, default=10, help="interactions per user")
    p_gen.add_argument("--clusters", type=int, default=5)
    _add_config_flags(p_gen, ("seed",))
    p_gen.add_argument("--out", default="synthetic.tsv", help="output TSV path")

    p_inspect = sub.add_parser("inspect-graph", help="dump the user graph as sparse triplets")
    _add_config_flags(p_inspect, INSPECT_FIELDS)
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
                _config_from_args(args, ("seed",)).seed, args.out,
            )
            print(f"wrote {path}")
            return 0
        if args.verb == "inspect-graph":
            return experiments.inspect_graph(_config_from_args(args, INSPECT_FIELDS), args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure: dataset, training, IO
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
