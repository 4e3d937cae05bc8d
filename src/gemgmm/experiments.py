"""Experiment configuration and the four harness commands.

The commands mirror the CLI subcommands: ``generate`` samples a dataset
from a declared true model, ``fit`` runs one algorithm on a dataset,
``replicate`` repeats a paired fit (plain vs weighted projected steps)
over freshly sampled datasets and aggregates, ``analyze`` wraps the
convergence-analysis toolkit.  Everything is driven by one JSON config
document; CLI flags override individual fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import io
from .analysis import (FD_STEP, GRID_RESOLUTION, SectorBounds, empirical_rate, rate_bound,
                       rate_certificate, update_map_jacobian)
from .core import GmmParams, sample
from .dynamics import ALGORITHMS, MeanStepWeights, RunTrace, _step_for, run
from .errors import NumericalError, StepFailure, ValidationError
from .svgplot import line_plot

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITERS = 10_000
DEFAULT_BETA = 0.996

# What a value given for a field of each annotation must be.  An int or
# float field takes what _number takes; a bool field takes true/false or
# 0/1 as given; the others must hold their type.
_KINDS = {int: "an integer", float: "a number", bool: "true or false",
          str: "a string", str | None: "a string", dict | None: "an object"}


def _number(value, kind: type = float):
    """``value``, a number or numeric string, as a finite ``kind`` (int
    or float).  A bool is not a number here, and an int must be integral;
    anything else raises TypeError, ValueError or OverflowError."""
    if isinstance(value, bool):
        raise TypeError(value)
    number = kind(value)
    if kind is float and not math.isfinite(number):
        raise ValueError(value)
    if kind is int and not isinstance(value, str) and number != value:
        raise ValueError(value)
    return number


def _numbers(values, field: str, what: str = "a list of numbers",
             size: int | None = None) -> list[float]:
    """``values`` as floats by :func:`_number`, or a ValidationError
    saying that config ``field`` must be ``what``.  Only a list or tuple
    (a JSON array, or what the CLI parses) passes, of ``size`` entries
    when given, so a string is never read as its characters."""
    if isinstance(values, (list, tuple)) and size in (None, len(values)):
        try:
            return [_number(v) for v in values]
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValidationError(f"config field {field!r} must be {what}")


@dataclass
class ExperimentConfig:
    """Typed view of the config document (all fields optional in JSON)."""

    true_model: dict | str | None = None
    n_samples: int = 1000
    init: dict | None = None
    algorithm: str = "pb_gem"
    beta: list[float] | None = None
    tol: float = DEFAULT_TOL
    max_iters: int = DEFAULT_MAX_ITERS
    seed: int = 0
    out: str = "."
    dataset: str | None = None
    header: bool = False
    plot: bool = False
    inset: tuple[float, float] | None = None
    instances: int = 30
    seed_stride: int = 1
    params_file: str | None = None
    trace: str | None = None
    sector: dict | None = None

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ExperimentConfig":
        known = set(cls.__dataclass_fields__)
        unknown = sorted(set(mapping) - known)
        if unknown:
            raise ValidationError(f"unknown config keys: {unknown}")
        cfg = cls(**mapping)
        hints = get_type_hints(cls)
        for name, value in mapping.items():
            kind = hints[name]
            try:
                if kind in (int, float):
                    setattr(cfg, name, _number(value, kind))
                elif kind in _KINDS and not (value in (True, False) if kind is bool
                                             else isinstance(value, kind)):
                    raise TypeError(value)
            except (TypeError, ValueError, OverflowError):
                raise ValidationError(f"config field {name!r} must be {_KINDS[kind]}")
        cfg.algorithm = cfg.algorithm.replace("-", "_")
        if cfg.algorithm not in ALGORITHMS:
            raise ValidationError(
                f"unknown algorithm {cfg.algorithm!r}, expected one of {ALGORITHMS}")
        if cfg.beta is not None:
            cfg.beta = _numbers(cfg.beta, "beta")
        if cfg.inset is not None:
            start, stop = _numbers(cfg.inset, "inset", "a pair [start, stop]", size=2)
            if not start < stop:
                raise ValidationError(f"config field 'inset' must be a pair [start, stop] "
                                      f"with start < stop, got [{start!r}, {stop!r}]")
            cfg.inset = (start, stop)
        return cfg


def _resolve_params(spec) -> GmmParams:
    """Accept an inline parameter object or a path to a parameter JSON."""
    if isinstance(spec, dict):
        return io.params_from_dict(spec)
    if isinstance(spec, (str, Path)):
        return io.load_params(spec)
    raise ValidationError(
        f"expected a parameter object or file path, got {type(spec).__name__}")


def orthogonal_line_init(truth: GmmParams, distance: float) -> GmmParams:
    """Worst-case style initialization for a two-component model.

    Places the initial means at ``d*v`` and ``-d*v`` where ``v`` is a
    unit vector orthogonal to the line joining the true means (for 2-D,
    the counterclockwise rotation of that direction).  Covariances start
    at identity, weights uniform.
    """
    if truth.n_components != 2:
        raise ValidationError("orthogonal-line init needs exactly 2 components")
    if not distance > 0.0:
        raise ValidationError(f"init distance must be positive, got {distance}")
    u = truth.means[0] - truth.means[1]
    norm = np.linalg.norm(u)
    if norm == 0.0:
        raise ValidationError("true means coincide; the orthogonal direction is undefined")
    u = u / norm
    m = truth.n_features
    if m == 1:
        raise ValidationError("orthogonal-line init needs at least 2 features")
    if m == 2:
        v = np.array([-u[1], u[0]])
    else:
        e = np.zeros(m)
        e[int(np.argmin(np.abs(u)))] = 1.0
        v = e - (e @ u) * u
        v /= np.linalg.norm(v)
    means = np.vstack([distance * v, -distance * v])
    covs = np.broadcast_to(np.eye(m), (2, m, m))
    return GmmParams(np.array([0.5, 0.5]), means, covs)


def _initial_params(config: ExperimentConfig, truth: GmmParams | None) -> GmmParams:
    if config.init is None:
        raise ValidationError("an 'init' spec is required: "
                              "{'kind': 'explicit'|'orthogonal-line', ...}")
    kind = config.init.get("kind")
    if kind == "explicit":
        if "params" not in config.init:
            raise ValidationError("explicit init needs a 'params' entry")
        return _resolve_params(config.init["params"])
    if kind == "orthogonal-line":
        if truth is None:
            raise ValidationError("orthogonal-line init needs the true model (config key 'true_model')")
        if "distance" not in config.init:
            raise ValidationError("orthogonal-line init needs a 'distance' entry")
        distance = _numbers([config.init["distance"]], "init.distance", "a number")[0]
        return orthogonal_line_init(truth, distance)
    raise ValidationError(f"unknown init kind {kind!r}")


def _design_for(config: ExperimentConfig, algorithm: str,
                n_components: int) -> MeanStepWeights | None:
    """The configured betas as a design (``DEFAULT_BETA`` per component
    when ``w_pb_gem`` is given none), judged with ``algorithm`` and K by
    :func:`~gemgmm.dynamics._step_for` before any fit, pass or probe."""
    betas = config.beta
    if betas is None and algorithm == "w_pb_gem":
        betas = [DEFAULT_BETA] * n_components
    design = None if betas is None else MeanStepWeights(np.asarray(betas, dtype=float))
    _step_for(algorithm, design, n_components)
    return design


def _outdir(config: ExperimentConfig) -> Path:
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_generate(config: ExperimentConfig) -> dict:
    """Sample a dataset from the true model; write CSV + ground truth."""
    if config.true_model is None:
        raise ValidationError("generate requires a true model (config key 'true_model')")
    truth = _resolve_params(config.true_model)
    if config.n_samples < 1:
        raise ValidationError(f"n_samples must be at least 1, got {config.n_samples}")
    data = sample(truth, config.n_samples, config.seed)
    out = _outdir(config)
    dataset_path = out / "dataset.csv"
    truth_path = out / "truth.json"
    io.save_dataset(dataset_path, data)
    io.save_params(truth_path, truth)
    return {"dataset": str(dataset_path), "truth": str(truth_path),
            "n_samples": config.n_samples, "seed": config.seed}


def _fit_summary(trace: RunTrace, config: ExperimentConfig,
                 betas: list[float] | None, error: str | None = None) -> dict:
    summary = {
        "algorithm": trace.algorithm,
        "iterations": trace.iterations,
        "termination_reason": trace.reason,
        "converged": trace.reason == "tolerance",
        "final_loglik": float(trace.records[-1].loglik),
        "final_params": io.params_to_dict(trace.final_params),
        "beta": betas,
        "tol": config.tol,
        "max_iters": config.max_iters,
        "seed": config.seed,
        "wall_time_s": trace.wall_time,
    }
    if error is not None:
        summary["error"] = error
    return summary


def _write_plot(path: Path, curves: list[dict], title: str, config: ExperimentConfig) -> str:
    """Render ``curves`` of -loglik against iteration to an SVG at ``path``."""
    path.write_text(line_plot(curves, title=title, xlabel="iteration", ylabel="-loglik",
                              inset=config.inset))
    return str(path)


def _write_fit_outputs(trace: RunTrace, config: ExperimentConfig,
                       betas: list[float] | None, error: str | None = None) -> dict:
    out = _outdir(config)
    paths = {"trace": str(out / "trace.csv"), "summary": str(out / "summary.json")}
    io.save_trace_csv(paths["trace"], trace)
    io.save_json(paths["summary"], _fit_summary(trace, config, betas, error))
    if config.plot:
        curve = {"label": trace.algorithm.replace("_", "-"),
                 "x": [r.iteration for r in trace.records],
                 "y": [-r.loglik for r in trace.records]}
        paths["plot"] = _write_plot(out / "loglik.svg", [curve], "negative log-likelihood", config)
    return paths


def cmd_fit(config: ExperimentConfig) -> RunTrace:
    """Fit one algorithm on the configured dataset; write trace + summary.

    On a numerical failure the partial trace and summary are still
    written before the error propagates.
    """
    if config.dataset is None:
        raise ValidationError("fit requires a dataset path (config key 'dataset')")
    data = io.load_dataset(config.dataset, header=config.header)
    truth = _resolve_params(config.true_model) if config.true_model is not None else None
    start = _initial_params(config, truth)
    design = _design_for(config, config.algorithm, start.n_components)
    betas = None if design is None else [float(b) for b in design.betas]
    try:
        trace = run(start, data, config.algorithm, design=design,
                    rel_ll_tol=config.tol, max_iters=config.max_iters)
    except StepFailure as err:
        try:
            _write_fit_outputs(err.trace, config, betas, error=str(err))
        except ValidationError:
            pass  # an inset past the partial trace: the failure is what this fit reports
        raise
    _write_fit_outputs(trace, config, betas)
    return trace


def _iteration_stats(traces: list[RunTrace]) -> dict:
    counts = np.array([tr.iterations for tr in traces], dtype=float)
    if counts.size == 0:
        return {"runs": 0}
    return {"runs": int(counts.size),
            "mean_iterations": float(counts.mean()),
            "std_iterations": float(counts.std()),
            "min_iterations": int(counts.min()),
            "max_iterations": int(counts.max())}


def cmd_replicate(config: ExperimentConfig) -> dict:
    """Paired replication study: plain vs weighted projected steps.

    Each instance draws a fresh dataset (seed = base seed + i *
    seed_stride) and fits both algorithms from the same initialization.
    Emits the per-iteration mean/std of the negative log-likelihood
    across instances, iteration-count statistics, and failure records.
    When every run fails, the summary is written all the same and a
    NumericalError is raised in place of the aggregate.
    """
    if config.instances < 2:
        raise ValidationError(f"replicate needs at least 2 instances, got {config.instances}")
    if config.true_model is None:
        raise ValidationError("replicate requires a true model (config key 'true_model')")
    last_seed = config.seed + (config.instances - 1) * config.seed_stride
    if config.seed < 0 or last_seed < 0:
        raise ValidationError(
            f"replicate seeds must be non-negative: seed {config.seed} with stride "
            f"{config.seed_stride} over {config.instances} instances reaches {last_seed}")
    truth = _resolve_params(config.true_model)
    designs = {"pb_gem": None, "w_pb_gem": _design_for(config, "w_pb_gem", truth.n_components)}
    start = _initial_params(config, truth)
    traces: dict[str, list[RunTrace]] = {a: [] for a in designs}
    failures = []
    for i in range(config.instances):
        data = sample(truth, config.n_samples, config.seed + i * config.seed_stride)
        for algorithm, design in designs.items():
            try:
                trace = run(start, data, algorithm, design=design,
                            rel_ll_tol=config.tol, max_iters=config.max_iters)
            except StepFailure as err:
                failures.append({"instance": i, "algorithm": algorithm,
                                 "iteration": err.iteration, "error": str(err.cause)})
                continue
            traces[algorithm].append(trace)

    stats = {algorithm: _iteration_stats(lst) for algorithm, lst in traces.items()}
    faster = None
    if stats["pb_gem"]["runs"] and stats["w_pb_gem"]["runs"]:
        faster = bool(stats["w_pb_gem"]["mean_iterations"] < stats["pb_gem"]["mean_iterations"])
    summary = {
        "instances": config.instances,
        "n_samples": config.n_samples,
        "base_seed": config.seed,
        "seed_stride": config.seed_stride,
        "beta": [float(b) for b in designs["w_pb_gem"].betas],
        **stats,
        "weighted_mean_iterations_below_plain": faster,
        "failures": failures,
        "failure_count": len(failures),
    }
    out = _outdir(config)
    paths = {"aggregate": str(out / "replicate.csv"), "summary": str(out / "replicate_summary.json")}
    io.save_json(paths["summary"], summary)
    n_rows = max((tr.logliks.size for lst in traces.values() for tr in lst), default=0)
    if n_rows == 0:
        raise NumericalError(f"every replicate run failed; the {len(failures)} failures "
                             f"are listed in {paths['summary']}")
    # An algorithm without runs keeps NaN CSV columns but gets no curve:
    # NaN would blank the plot's y-axis for every curve.
    header, columns, curves = ["iter"], [], []
    for algorithm, lst in traces.items():
        tag = algorithm.replace("_gem", "").replace("_", "")
        header += [f"mean_negll_{tag}", f"std_negll_{tag}"]
        if lst:
            negll = np.vstack([np.pad(-tr.logliks, (0, n_rows - tr.logliks.size), mode="edge")
                               for tr in lst])
            mean, std = negll.mean(axis=0), negll.std(axis=0)
            curves.append({"label": algorithm.replace("_", "-"), "x": np.arange(n_rows),
                           "y": mean, "band": (mean - std, mean + std)})
        else:
            mean = std = np.full(n_rows, np.nan)
        columns += [mean, std]
    io.save_table(paths["aggregate"], [
        "# per-iteration negative log-likelihood aggregated across replicate instances",
        "# runs shorter than the longest run are padded by repeating their terminal value",
        ",".join(header),
    ], zip(range(n_rows), *(col.tolist() for col in columns)))
    if config.plot:
        paths["plot"] = _write_plot(out / "replicate.svg", curves,
                                    "replicated negative log-likelihood (mean +/- std)", config)
    return {"summary": summary, "traces": traces, "paths": paths}


def cmd_analyze(config: ExperimentConfig) -> dict:
    """Rate certificate, update-map Jacobian spectrum, empirical rate."""
    report: dict = {}
    if config.sector is not None:
        if set(config.sector) != {"m_lo", "L_hi"}:
            raise ValidationError("sector must be an object with keys 'm_lo' and 'L_hi'")
        bounds = SectorBounds(*_numbers([config.sector["m_lo"], config.sector["L_hi"]],
                                        "sector", "an object with numeric 'm_lo' and 'L_hi'"))
        cert = rate_certificate(bounds)
        report["rate"] = {
            "m_lo": bounds.m_lo,
            "L_hi": bounds.L_hi,
            "rate_bound": rate_bound(bounds),
            "grid_resolution": GRID_RESOLUTION,
            "certificate": {
                "mu_bound": cert.mu_bound if cert.feasible else None,
                "multiplier": cert.multiplier if cert.feasible else None,
                "feasible": cert.feasible,
            },
        }
    if config.params_file is not None:
        params = io.load_params(config.params_file)
        if config.dataset is None:
            raise ValidationError("jacobian analysis requires a dataset (config key 'dataset')")
        data = io.load_dataset(config.dataset, header=config.header)
        design = _design_for(config, config.algorithm, params.n_components)
        jac = update_map_jacobian(params, data, config.algorithm, design=design)
        report["jacobian"] = {
            "algorithm": config.algorithm,
            "fd_step": FD_STEP,
            "classification": jac.classification,
            "max_modulus": float(jac.moduli[0]),
            "moduli": [float(v) for v in jac.moduli],
        }
    if config.trace is not None:
        arr = io.load_trace_csv(config.trace)
        report["empirical_rate"] = empirical_rate(arr[:, :2])
    if not report:
        raise ValidationError(
            "analyze needs at least one of: 'sector', 'params_file', 'trace'")
    out = _outdir(config)
    io.save_json(out / "analysis.json", report)
    return report
