"""File formats: parameter JSON, CSV tables, report JSON.

All float output goes through ``repr``, the shortest round-tripping
decimal form, so identical inputs produce byte-identical files; every
CSV table is written by :func:`save_table`.
"""

from __future__ import annotations

import json
from itertools import islice
from pathlib import Path

import numpy as np

from .core import GmmParams, as_dataset
from .dynamics import RunTrace
from .errors import ValidationError

TRACE_HEADER = "iter,loglik,step_norm"

PARAM_KEYS = ("K", "m", "alpha", "mu", "sigma")

# Rows turned into text (dataset rows: into Python floats) per write:
# bounds the Python numbers and strings alive at once, whatever N is.
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
    if isinstance(k, bool) or isinstance(m, bool):
        raise ValidationError(f"parameter spec K and m must be integers, got K={k!r}, m={m!r}")
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


def save_table(path, head, rows) -> None:
    """CSV: the ``head`` lines, then one line per row of Python numbers
    in ``repr`` form, turned into text ``CSV_CHUNK_ROWS`` rows at a time."""
    rows = iter(rows)
    with open(path, "w") as fh:
        fh.writelines(f"{line}\n" for line in head)
        while chunk := list(islice(rows, CSV_CHUNK_ROWS)):
            fh.write("\n".join([",".join(map(repr, row)) for row in chunk]) + "\n")


def _load_csv(path, kind: str, skiprows: int) -> np.ndarray:
    """Numbers of a CSV file as a 2-D array; errors name the file ``kind``."""
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"{kind} file not found: {path}")
    try:
        return np.loadtxt(path, delimiter=",", skiprows=skiprows, ndmin=2)
    except ValueError as err:
        raise ValidationError(f"could not parse {kind} {path}: {err}") from err


def save_dataset(path, data: np.ndarray) -> None:
    """CSV, one sample per row, no header."""
    x = as_dataset(data)
    save_table(path, [], (row for start in range(0, x.shape[0], CSV_CHUNK_ROWS)
                          for row in x[start:start + CSV_CHUNK_ROWS].tolist()))


def load_dataset(path, header: bool = False) -> np.ndarray:
    return as_dataset(_load_csv(path, "dataset", 1 if header else 0))


def save_trace_csv(path, trace: RunTrace) -> None:
    """One row per record in TRACE_HEADER order; snapshots are not serialized."""
    save_table(path, [TRACE_HEADER],
               ((r.iteration, float(r.loglik), float(r.step_norm)) for r in trace.records))


def load_trace_csv(path) -> np.ndarray:
    """(n, 3) array in TRACE_HEADER column order, from a file headed by TRACE_HEADER."""
    arr = _load_csv(path, "trace", 1)
    if arr.shape[1] != TRACE_HEADER.count(",") + 1:
        raise ValidationError(f"trace {path} has {arr.shape[1]} columns, expected {TRACE_HEADER}")
    with open(path) as fh:
        head = fh.readline().rstrip("\r\n")
    if head != TRACE_HEADER:
        raise ValidationError(f"trace {path} has header {head!r}, expected {TRACE_HEADER}")
    return arr
