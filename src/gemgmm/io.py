"""File formats: parameter JSON, CSV tables, report JSON, and the binary
copy of a dataset.

All float output goes through ``repr``, the shortest round-tripping
decimal form, so identical inputs produce byte-identical files; every
CSV table is written by :func:`save_table`, which hashes its bytes as it
writes them and returns their SHA-256 hex digest.

:func:`save_dataset` also writes the samples with ``np.save`` to
``<csv>.<sha256>.npy``, where ``sha256`` is that digest of the CSV's
bytes, so it never reads the CSV back.  Because ``repr`` round-trips,
the copy holds bit for bit what parsing those bytes gives, so
:func:`load_dataset` reads it instead of parsing when the CSV's digest
names an existing copy, as hash-based ``.pyc`` files skip recompiling a
source whose hash they recorded.  Only the reader hashes a CSV file and
counts its lines, in one read; the copy's row count must match.  Any
other CSV (written elsewhere, edited, or read with a header) is parsed;
one with no copy beside it is not even hashed.
"""

from __future__ import annotations

import glob
import json
import os
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .core import GmmParams, as_dataset
from .dynamics import RunTrace
from .errors import NumericalError, ValidationError

TRACE_HEADER = "iter,loglik,step_norm"

PARAM_KEYS = ("K", "m", "alpha", "mu", "sigma")

# Rows turned into text (dataset rows: into Python floats) per write:
# bounds the Python numbers and strings alive at once, whatever N is.
CSV_CHUNK_ROWS = 4096

# Bytes read per block when hashing a dataset CSV, so the hash never
# holds the file in memory.
HASH_BLOCK = 1 << 20


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
    # Off-simplex weights or a covariance that is not positive definite
    # are bad input here, not a failure of a computation.
    try:
        return GmmParams(weights, means, covs)
    except NumericalError as err:
        raise ValidationError(f"invalid parameter values: {err}") from err


def save_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def load_json(path):
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"file not found: {path}")
    try:
        return json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise ValidationError(f"invalid JSON in {path}: {err}") from err


def save_params(path, params: GmmParams) -> None:
    save_json(path, params_to_dict(params))


def load_params(path) -> GmmParams:
    return params_from_dict(load_json(path))


def _chunks(path, rows):
    """The text of ``rows`` (see :func:`save_table`), ``CSV_CHUNK_ROWS``
    rows at a time."""
    if isinstance(rows, np.ndarray):
        template = ",".join(["%r"] * rows.shape[1]) + "\n"
        for start in range(0, rows.shape[0], CSV_CHUNK_ROWS):
            chunk = rows[start:start + CSV_CHUNK_ROWS]
            yield template * len(chunk) % tuple(chunk.ravel().tolist())
        return
    rows = iter(rows)
    width = None
    while chunk := list(islice(rows, CSV_CHUNK_ROWS)):
        if width is None:
            width = len(chunk[0])
            template = ",".join(["%r"] * width) + "\n"
        if set(map(len, chunk)) != {width}:
            raise ValidationError(f"table rows of {path} must all have {width} entries")
        yield template * len(chunk) % tuple(chain.from_iterable(chunk))


def save_table(path, head, rows) -> str:
    """CSV: the ``head`` lines, then one line per row of numbers in
    ``repr`` form, turned into text ``CSV_CHUNK_ROWS`` rows at a time;
    returns the SHA-256 hex digest of the bytes written, each chunk
    hashed as it is written.

    ``rows`` is a 2-D float array (a dataset) or an iterable of rows of
    Python numbers.  Each chunk is one ``%``-format of a ``%r`` row
    template repeated over the chunk's flattened entries: an array
    chunk's ``ravel().tolist()``, so no per-row lists are built.  Every
    row of an iterable must have as many entries as the first, since a
    row of another width would shift every entry after it; a ragged row
    raises ``ValidationError``.
    """
    import hashlib  # on first use: importing gemgmm does not need it

    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for text in chain(["".join(f"{line}\n" for line in head)], _chunks(path, rows)):
            data = text.encode()
            digest.update(data)
            fh.write(data)
    return digest.hexdigest()


def _load_csv(path, kind: str, skiprows: int) -> np.ndarray:
    """Numbers of a CSV file as a 2-D array; errors name the file ``kind``."""
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"{kind} file not found: {path}")
    try:
        return np.loadtxt(path, delimiter=",", skiprows=skiprows, ndmin=2)
    except ValueError as err:
        raise ValidationError(f"could not parse {kind} {path}: {err}") from err


def _copies(path: Path) -> list[Path]:
    """Every binary copy beside the CSV at ``path``, of whatever bytes:
    the files ``<path>.<64 hex digits>.npy``."""
    return list(path.parent.glob(f"{glob.escape(path.name)}.{'[0-9a-f]' * 64}.npy"))


def _copy_name(path: Path, digest: str) -> Path:
    """``<path>.<digest>.npy``: the binary copy of CSV bytes whose SHA-256
    hex digest is ``digest``."""
    return path.with_name(f"{path.name}.{digest}.npy")


def _binary_copy(path: Path) -> tuple[Path, int]:
    """The name of the binary copy of the CSV at ``path`` and the number
    of newlines in its bytes; the file is read in ``HASH_BLOCK`` blocks."""
    import hashlib  # on first use: importing gemgmm does not need it

    digest, newlines = hashlib.sha256(), 0
    with open(path, "rb") as fh:
        while block := fh.read(HASH_BLOCK):
            digest.update(block)
            newlines += int(np.count_nonzero(np.frombuffer(block, np.uint8) == ord("\n")))
    return _copy_name(path, digest.hexdigest()), newlines


def save_dataset(path, data: np.ndarray) -> None:
    """CSV, one sample per row, no header; then the binary copy of the
    samples that :func:`load_dataset` reads in place of these bytes,
    named by the digest :func:`save_table` returns, so the CSV is not
    read back.

    The copy is stored in Fortran order, so the loaded (N, m) array's
    transpose is the C-contiguous (m, N) layout that the E-pass reads
    (:func:`~gemgmm.core._feature_major` takes it without a copy).  It
    is written under a temporary name and moved into place, so a reader
    never sees half of it.  Saving over an existing CSV removes every
    copy beside it, so also those of bytes that were edited since.
    """
    path = Path(path)
    x = as_dataset(data)
    for stale in _copies(path):
        stale.unlink(missing_ok=True)
    copy = _copy_name(path, save_table(path, [], x))
    tmp = copy.with_name(f"{copy.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            np.save(fh, np.asfortranarray(x), allow_pickle=False)
        os.replace(tmp, copy)
    finally:
        tmp.unlink(missing_ok=True)


def load_dataset(path, header: bool = False) -> np.ndarray:
    """The samples of a CSV, one per row: from its binary copy when the
    CSV's digest names one (see :func:`save_dataset`), else parsed; each
    pass over them checks that they are finite (``core.as_dataset``).

    The CSV is hashed only when some copy lies beside it, so a CSV
    written elsewhere costs the parse alone.  A copy must be a 2-D
    float64 array with one row per line of the CSV; otherwise this
    raises ``ValidationError`` naming the copy.
    """
    path = Path(path)
    if not header and path.is_file() and _copies(path):
        copy, lines = _binary_copy(path)
        if copy.is_file():
            try:
                x = np.load(copy, allow_pickle=False)
            except (OSError, ValueError, EOFError) as err:
                raise ValidationError(f"could not read the binary copy {copy}: {err}") from err
            if x.dtype != np.float64 or x.ndim != 2 or x.shape[0] != lines:
                raise ValidationError(
                    f"binary copy {copy} holds a {x.dtype} array of shape {x.shape}, "
                    f"expected float64 with {lines} rows, one per line of {path.name}")
            return x
    return _load_csv(path, "dataset", 1 if header else 0)


def save_trace_csv(path, trace: RunTrace) -> None:
    """One row per record, its fields in TRACE_HEADER order."""
    save_table(path, [TRACE_HEADER],
               ((r.iteration, float(r.loglik), float(r.step_norm)) for r in trace.records))


def load_trace_csv(path) -> np.ndarray:
    """(n, 3) array in TRACE_HEADER column order, from a file headed by
    TRACE_HEADER whose entries are all finite."""
    arr = _load_csv(path, "trace", 1)
    if arr.shape[1] != TRACE_HEADER.count(",") + 1:
        raise ValidationError(f"trace {path} has {arr.shape[1]} columns, expected {TRACE_HEADER}")
    with open(path) as fh:
        head = fh.readline().rstrip("\r\n")
    if head != TRACE_HEADER:
        raise ValidationError(f"trace {path} has header {head!r}, expected {TRACE_HEADER}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"trace {path} holds non-finite values")
    return arr
