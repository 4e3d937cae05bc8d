"""Command-line interface.

Subcommands: generate, fit, replicate, analyze.  Every flag stores into
the config field of its ``dest`` and overrides that field of the JSON
config given with --config.  ``--algo`` takes the names in
:data:`~gemgmm.dynamics.ALGORITHMS`, hyphenated.

Exit codes: 0 success; 2 configuration or validation problem; 3
numerical failure (any :class:`~gemgmm.errors.NumericalError`:
degenerate component, constraint violation, underflow); 4 the fit hit
max_iters without converging.
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


def _parse_beta(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}")


def _parse_inset(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected A:B, got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected numeric A:B, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gemgmm",
        description="Gaussian mixture estimation via preconditioned, "
                    "projected generalized EM updates")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", metavar="PATH", help="JSON config; flags override fields")
        p.add_argument("--seed", type=int, metavar="INT")
        p.add_argument("--out", metavar="DIR", help="output directory")

    gen = sub.add_parser("generate", help="sample a dataset from a true model")
    common(gen)

    fit = sub.add_parser("fit", help="run one algorithm on a dataset")
    common(fit)
    fit.add_argument("--dataset", metavar="PATH", help="dataset CSV")
    fit.add_argument("--algo", dest="algorithm", choices=_ALGO_CHOICES)
    fit.add_argument("--beta", type=_parse_beta, metavar="B1,B2,...",
                     help="per-component mean step factors (w-pb-gem)")
    fit.add_argument("--tol", type=float, metavar="FLOAT",
                     help="relative log-likelihood tolerance (default 1e-10)")
    fit.add_argument("--max-iters", type=int, metavar="INT", help="default 10000")
    fit.add_argument("--plot", action="store_true", default=None)
    fit.add_argument("--inset", type=_parse_inset, metavar="A:B",
                     help="iteration window for the plot inset")

    rep = sub.add_parser("replicate", help="paired replication study over fresh datasets")
    common(rep)
    rep.add_argument("--instances", type=int, metavar="INT")
    rep.add_argument("--beta", type=_parse_beta, metavar="B1,B2,...")
    rep.add_argument("--tol", type=float, metavar="FLOAT")
    rep.add_argument("--max-iters", type=int, metavar="INT")
    rep.add_argument("--plot", action="store_true", default=None)
    rep.add_argument("--inset", type=_parse_inset, metavar="A:B")

    ana = sub.add_parser("analyze", help="rate certificate / jacobian spectrum / empirical rate")
    common(ana)
    ana.add_argument("params_file", nargs="?", metavar="PARAMS.json",
                     help="fitted parameters to analyze")
    ana.add_argument("--dataset", metavar="PATH")
    ana.add_argument("--trace", metavar="PATH", help="trace CSV for the empirical rate")
    ana.add_argument("--algo", dest="algorithm", choices=_ALGO_CHOICES)
    ana.add_argument("--beta", type=_parse_beta, metavar="B1,B2,...")
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
