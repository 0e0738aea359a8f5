"""Command-line front end for the experiment harness.

Subcommands mirror the experiments plus two utilities:

    threshold       print thresholds/fixed points for (k, optional d) as JSON
    rank-profile    full-rank fraction over a density grid
    threshold-scan  bisection estimate of the full-rank threshold
    wp-stats        warning-propagation statistics vs. predictions
    balance         kernel-sample balance profiles
    peel            2-core sizes and excess
    interpolate     nullity of the interpolation family
    audit-freeness  short-relation audit of pinned instances
    dump-matrix     generate one instance and dump it in text format

Exit codes: 0 success, 2 config errors (an explicit table that runs out
mid-run among them), 3 budget refusals, 4 I/O errors,
5 threshold-scan bracket failures (the bracket does not straddle the
full-rank crossing).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from xorlab.ensemble import ExplicitTableError, gen_base, gen_pinned
from xorlab.harness import (
    EXPERIMENTS,
    BracketError,
    ConfigError,
    ExperimentConfig,
    run,
)
from xorlab.sparsemat import BudgetExceededError
from xorlab.theory import threshold_report, threshold_dk, threshold_dk_star


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="JSON experiment config")
    p.add_argument("--seed", type=int, default=None, help="override master seed")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--workers", type=int, default=None, help="worker processes")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="xorlab")
    sub = parser.add_subparsers(dest="command", required=True)

    th = sub.add_parser("threshold", help="print threshold report as JSON")
    th.add_argument("--k", type=int, required=True)
    th.add_argument("--d", type=float, default=None)

    for name in EXPERIMENTS:
        _add_common(sub.add_parser(name, help=f"run the {name} experiment"))

    dm = sub.add_parser("dump-matrix", help="generate and dump one instance")
    _add_common(dm)
    return parser


def _load_config(args, experiment: str | None = None) -> ExperimentConfig:
    """The config file with the command-line overrides, validated again."""
    config = ExperimentConfig.from_json_file(args.config)
    overrides = {"experiment": experiment, "seed": args.seed, "out": args.out,
                 "workers": args.workers}
    return replace(config, **{k: v for k, v in overrides.items() if v is not None})


def _cmd_threshold(args) -> int:
    if args.d is not None:
        report = threshold_report(args.d, args.k).to_dict()
    else:
        report = {
            "k": args.k,
            "d_k": threshold_dk(args.k),
            "d_k_star": threshold_dk_star(args.k),
        }
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _cmd_dump_matrix(args) -> int:
    config = _load_config(args)
    params = config.ensemble()
    rng = params.make_rng()
    A = gen_pinned(params, rng)[0] if config.pinned else gen_base(params, rng)
    text = A.dumps()
    if args.out is None:
        sys.stdout.write(text)
    else:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "matrix.txt").write_text(text)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "threshold":
            return _cmd_threshold(args)
        if args.command == "dump-matrix":
            return _cmd_dump_matrix(args)
        config = _load_config(args, args.command)
        return run(config, fmt=args.format)
    except (ConfigError, ExplicitTableError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"budget refused: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except BracketError as exc:
        print(f"bracket error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
