"""Command-line interface.

Subcommands: generate, fit, replicate, analyze.  Every flag stores its
text into the config field of its ``dest`` and overrides that field of
the JSON config given with --config; ``--beta`` and ``--inset`` only
split theirs on ``,`` and ``:``.  The CLI converts no value:
:meth:`~gemgmm.experiments.ExperimentConfig.from_mapping` reads flag
text and JSON values by the same rules, with the same messages.
``--algo`` takes the names in :data:`~gemgmm.dynamics.ALGORITHMS`,
hyphenated.

Exit codes: 0 success; 2 configuration or validation problem, a
malformed flag value included; 3 numerical failure (any
:class:`~gemgmm.errors.NumericalError`: degenerate component,
constraint violation, underflow); 4 the fit hit max_iters without
converging.
"""

from __future__ import annotations

import argparse
import sys

from .dynamics import ALGORITHMS
from .errors import NumericalError, ValidationError
from .experiments import ExperimentConfig, cmd_analyze, cmd_fit, cmd_generate, cmd_replicate
from .io import load_json

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_NO_CONVERGENCE = 4

_ALGO_CHOICES = tuple(a.replace("_", "-") for a in ALGORITHMS)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gemgmm",
        description="Gaussian mixture estimation via preconditioned, "
                    "projected generalized EM updates")
    sub = ap.add_subparsers(dest="command", required=True)
    gen, fit, rep, ana = (sub.add_parser(name, help=text) for name, text in (
        ("generate", "sample a dataset from a true model"),
        ("fit", "run one algorithm on a dataset"),
        ("replicate", "paired replication study over fresh datasets"),
        ("analyze", "rate certificate / jacobian spectrum / empirical rate")))
    for p in (gen, fit, rep, ana):
        p.add_argument("--config", metavar="PATH", help="JSON config; flags override fields")
        p.add_argument("--out", metavar="DIR", help="output directory")
    for p in (gen, fit, rep):
        p.add_argument("--seed", metavar="INT")
    for p in (fit, ana):
        p.add_argument("--dataset", metavar="PATH", help="dataset CSV")
        p.add_argument("--algo", dest="algorithm", choices=_ALGO_CHOICES)
    for p in (fit, rep, ana):
        p.add_argument("--beta", type=lambda text: text.split(","), metavar="B1,B2,...",
                       help="per-component mean step factors (w-pb-gem)")
    for p in (fit, rep):
        p.add_argument("--tol", metavar="FLOAT",
                       help="relative log-likelihood tolerance (default 1e-10)")
        p.add_argument("--max-iters", metavar="INT", help="default 10000")
        p.add_argument("--plot", action="store_true", default=None)
        p.add_argument("--inset", type=lambda text: text.split(":"), metavar="A:B",
                       help="iteration window for the plot inset")
    rep.add_argument("--instances", metavar="INT")
    ana.add_argument("params_file", nargs="?", metavar="PARAMS.json",
                     help="fitted parameters to analyze")
    ana.add_argument("--trace", metavar="PATH", help="trace CSV for the empirical rate")
    return ap


def _build_config(args) -> ExperimentConfig:
    mapping = {}
    if args.config is not None:
        mapping = load_json(args.config)
        if not isinstance(mapping, dict):
            raise ValidationError(f"config {args.config} must hold a JSON object")
    for field, value in vars(args).items():
        if field not in ("command", "config") and value is not None:
            mapping[field] = value
    return ExperimentConfig.from_mapping(mapping)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return int(exit_.code or 0)
    try:
        config = _build_config(args)
        if args.command == "generate":
            result = cmd_generate(config)
            print(f"wrote {result['dataset']} and {result['truth']}")
        elif args.command == "fit":
            trace = cmd_fit(config)
            print(f"{trace.algorithm}: {trace.iterations} iterations, "
                  f"reason={trace.reason}, loglik={trace.records[-1].loglik:.6f}")
            if trace.reason == "max_iters":
                print("did not converge within max_iters", file=sys.stderr)
                return EXIT_NO_CONVERGENCE
        elif args.command == "replicate":
            result = cmd_replicate(config)
            summary = result["summary"]
            print(f"replicate: {summary['instances']} instances, "
                  f"{summary['failure_count']} failures -> {result['paths']['aggregate']}")
        elif args.command == "analyze":
            report = cmd_analyze(config)
            print(f"analysis sections: {sorted(report)}")
    except ValidationError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK
