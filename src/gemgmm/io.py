"""File formats: parameter JSON, dataset CSV, trace CSV, report JSON.

All float output goes through ``repr``, the shortest round-tripping
decimal form, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .core import GmmParams, as_dataset
from .dynamics import RunTrace
from .errors import ValidationError

TRACE_HEADER = "iter,loglik,step_norm,alpha_residual,sym_residual"

PARAM_KEYS = ("K", "m", "alpha", "mu", "sigma")

# Dataset rows turned into text per write: bounds the Python floats and
# strings alive at once, whatever N is.
CSV_CHUNK_ROWS = 4096


def params_to_dict(params: GmmParams) -> dict:
    """Schema: {"K", "m", "alpha": [K], "mu": [K][m], "sigma": [K][m][m]}
    with matrices listed row-major."""
    return {
        "K": params.n_components,
        "m": params.n_features,
        "alpha": [float(v) for v in params.weights],
        "mu": [[float(v) for v in row] for row in params.means],
        "sigma": [[[float(v) for v in row] for row in mat] for mat in params.covs],
    }


def params_from_dict(spec: dict) -> GmmParams:
    if not isinstance(spec, dict):
        raise ValidationError(f"parameter spec must be an object, got {type(spec).__name__}")
    missing = [key for key in PARAM_KEYS if key not in spec]
    if missing:
        raise ValidationError(f"parameter spec is missing keys {missing}")
    k, m = spec["K"], spec["m"]
    try:
        weights = np.asarray(spec["alpha"], dtype=float)
        means = np.asarray(spec["mu"], dtype=float)
        covs = np.asarray(spec["sigma"], dtype=float)
    except (TypeError, ValueError) as err:
        raise ValidationError(f"malformed parameter arrays: {err}") from err
    if weights.shape != (k,) or means.shape != (k, m) or covs.shape != (k, m, m):
        raise ValidationError(
            f"parameter arrays do not match K={k}, m={m}: "
            f"alpha {weights.shape}, mu {means.shape}, sigma {covs.shape}")
    return GmmParams(weights, means, covs)


def save_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def load_json(path):
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"file not found: {path}")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise ValidationError(f"invalid JSON in {path}: {err}") from err


def save_params(path, params: GmmParams) -> None:
    save_json(path, params_to_dict(params))


def load_params(path) -> GmmParams:
    return params_from_dict(load_json(path))


def save_dataset(path, data: np.ndarray) -> None:
    """CSV, one sample per row, no header."""
    x = as_dataset(data)
    with open(path, "w") as fh:
        for start in range(0, x.shape[0], CSV_CHUNK_ROWS):
            rows = x[start:start + CSV_CHUNK_ROWS].tolist()
            fh.write("\n".join([",".join(map(repr, row)) for row in rows]) + "\n")


def load_dataset(path, header: bool = False) -> np.ndarray:
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"dataset file not found: {path}")
    try:
        x = np.loadtxt(path, delimiter=",", skiprows=1 if header else 0, ndmin=2)
    except ValueError as err:
        raise ValidationError(f"could not parse dataset {path}: {err}") from err
    return as_dataset(x)


def save_trace_csv(path, trace: RunTrace) -> None:
    """Fixed five-column format; snapshots are not serialized."""
    lines = [TRACE_HEADER]
    for r in trace.records:
        lines.append(f"{r.iteration},{float(r.loglik)!r},{float(r.step_norm)!r},"
                     f"{float(r.alpha_residual)!r},{float(r.sym_residual)!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_trace_csv(path) -> np.ndarray:
    """(n, 5) array in TRACE_HEADER column order."""
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"trace file not found: {path}")
    try:
        arr = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as err:
        raise ValidationError(f"could not parse trace {path}: {err}") from err
    if arr.shape[1] != 5:
        raise ValidationError(f"trace {path} has {arr.shape[1]} columns, expected 5")
    return arr
