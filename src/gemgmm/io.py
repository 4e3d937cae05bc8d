"""File formats: parameter JSON, CSV tables, report JSON, and the binary
copy of a dataset.

All float output goes through ``repr``, the shortest round-tripping
decimal form, so identical inputs produce byte-identical files.  Every
CSV table is written by ``save_table(path, head, table, row)``: a 2-D
float array formatted through the ``%`` template ``row`` of one line
(``%r`` per float, ``%d`` for an integer column), its bytes hashed as
they are written and their SHA-256 hex digest returned.  A table large
enough to pay for a fork is formatted on every CPU the process may run
on: one forked child per contiguous share of whole chunks writes its
text to an unnamed temporary file, which the parent reads back in row
order through the same hash, so the bytes and the digest are those of
one process.

Every file is written one way (:func:`_replaced`): under the temporary
name ``<name>.<pid>.tmp`` beside it, moved onto its name with
``os.replace`` only once it is complete, and unlinked otherwise.  A
write that fails leaves the file as it was, or absent: never part of
a CSV that would load as a shorter dataset.

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
import warnings
from contextlib import contextmanager
from itertools import chain
from pathlib import Path

import numpy as np

from .core import GmmParams, as_dataset
from .dynamics import RunTrace
from .errors import NumericalError, ValidationError

TRACE_HEADER = "iter,loglik,step_norm"

PARAM_KEYS = ("K", "m", "alpha", "mu", "sigma")

# Rows of a save_table array turned into Python floats, then text, per
# write: bounds the Python numbers and strings alive at once, whatever N is.
CSV_CHUNK_ROWS = 4096

# Bytes read per block when hashing a dataset CSV or reading back a
# child's text, so neither holds a file in memory.
HASH_BLOCK = 1 << 20

# Fewest CSV_CHUNK_ROWS chunks in a share of an array, so an array of
# fewer than twice as many is formatted by this process alone.  Measured
# on a 2-CPU Xeon (medians of 15): two shares of one chunk each are
# slower than one process (5.5 -> 5.8 ms at m = 1, 11.1 -> 11.8 ms at
# m = 2), two shares of two chunks faster (10.8 -> 8.3 ms, 21.8 -> 18.0 ms);
# a fork, reap and read-back costs ~3 ms, about one chunk's formatting.
SHARE_MIN_CHUNKS = 2


@contextmanager
def _replaced(path):
    """A new binary file ``<path>.<pid>.tmp`` in the directory of ``path``,
    moved onto ``path`` with ``os.replace`` once the ``with`` body has
    completed; if it raises, the file is unlinked and ``path`` keeps
    what it held, or stays absent.  Every file this module writes goes
    through here, so a reader never sees part of one."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


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
    """``obj`` as JSON, keys sorted, indented by two spaces, one trailing
    newline; written into place by :func:`_replaced`."""
    with _replaced(path) as fh:
        fh.write((json.dumps(obj, indent=2, sort_keys=True) + "\n").encode())


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


def _chunks(table, row):
    """The text of ``table`` (see :func:`save_table`), ``CSV_CHUNK_ROWS``
    rows at a time."""
    template = row + "\n"
    for start in range(0, table.shape[0], CSV_CHUNK_ROWS):
        chunk = table[start:start + CSV_CHUNK_ROWS]
        yield template * len(chunk) % tuple(chunk.ravel().tolist())


def _cpus() -> int:
    """The CPUs this process may run on; 1 where ``os.fork`` does not exist."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _shares(table) -> list[tuple[int, np.ndarray]]:
    """``table`` cut into ``(first row, rows)`` shares, one per process
    that formats them: at most one contiguous share of whole chunks per
    CPU, each at least ``SHARE_MIN_CHUNKS`` chunks."""
    chunks = -(-table.shape[0] // CSV_CHUNK_ROWS)
    p = max(1, min(_cpus(), chunks // SHARE_MIN_CHUNKS))
    edges = [chunks * i // p * CSV_CHUNK_ROWS for i in range(p)] + [table.shape[0]]
    return [(lo, table[lo:hi]) for lo, hi in zip(edges, edges[1:])]


def _fork(path, table, row) -> tuple[int, object]:
    """Starts a child process that writes the text of ``table`` (from
    :func:`_chunks`) to an unnamed temporary file in the directory of
    ``path`` and leaves through ``os._exit``: status 0 once the text is
    flushed, 1 if anything raised.  Returns the child's pid and the file,
    which the caller closes."""
    import tempfile  # on first use: importing gemgmm does not need it

    spool = tempfile.TemporaryFile(dir=Path(path).parent)
    try:
        pid = os.fork()
    except OSError:
        spool.close()
        raise
    if pid:
        return pid, spool
    status = 1
    try:
        for text in _chunks(table, row):
            spool.write(text.encode())
        spool.flush()
        status = 0
    except BaseException:
        import traceback
        traceback.print_exc()
    finally:
        # Never return into the caller's stack, and run no exit handler
        # and flush no buffer of the parent's.
        os._exit(status)


def save_table(path, head, table, row) -> str:
    """CSV: the ``head`` lines, then one line per row of the 2-D float
    array ``table``, turned into text ``CSV_CHUNK_ROWS`` rows at a time;
    returns the SHA-256 hex digest of the bytes written, each chunk
    hashed as it is written.

    ``row`` is the ``%`` template of one line, without its newline:
    ``%r`` for a float in ``repr`` form, ``%d`` for a column of integral
    floats written as integers (an iteration count).  Each chunk is one
    ``%``-format of that template repeated over the chunk's
    ``ravel().tolist()``, so no per-row lists are built.

    A table of at least twice ``SHARE_MIN_CHUNKS`` chunks is formatted
    on every CPU this process may run on (:func:`_shares`): one child is
    forked per share after the first (:func:`_fork`) while this process
    formats, hashes and writes the first; then each child is reaped and
    its file read back, in row order, through the same hash into the
    CSV, so the bytes and the digest do not depend on the number of
    CPUs.  A child that fails raises ``OSError`` here.  If anything
    raises, every child not yet reaped is killed and reaped, so no
    process outlives this call, and ``path`` keeps what it held
    (:func:`_replaced`).  No thread is started on either side.
    """
    import hashlib  # on first use: importing gemgmm does not need it

    digest = hashlib.sha256()
    (_, own), *shares = _shares(table)
    children = []
    try:
        for start, share in shares:
            children.append((start, share.shape[0], *_fork(path, share, row)))
        with _replaced(path) as fh:
            def put(data):
                digest.update(data)
                fh.write(data)

            for text in chain(["".join(f"{line}\n" for line in head)], _chunks(own, row)):
                put(text.encode())
            while children:
                start, count, pid, spool = children[0]
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                del children[0]
                with spool:
                    if status:
                        raise OSError(f"the child process formatting rows {start} to "
                                      f"{start + count - 1} of {path} exited with status {status}")
                    spool.seek(0)
                    while block := spool.read(HASH_BLOCK):
                        put(block)
    finally:
        if children:
            import signal
            for _, _, pid, spool in children:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                spool.close()
    return digest.hexdigest()


def _load_csv(path, kind: str, skiprows: int) -> np.ndarray:
    """Numbers of a CSV file as a 2-D array of at least one row; errors
    name the file ``kind``."""
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"{kind} file not found: {path}")
    try:
        with warnings.catch_warnings():
            # the empty file is reported below, as an error
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            arr = np.loadtxt(path, delimiter=",", skiprows=skiprows, ndmin=2)
    except ValueError as err:
        raise ValidationError(f"could not parse {kind} {path}: {err}") from err
    if arr.shape[0] == 0:
        raise ValidationError(f"{kind} {path} holds no rows")
    return arr


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
    (:func:`~gemgmm.core._feature_major` takes it without a copy).
    Saving over an existing CSV first removes every copy beside it, so
    also those of bytes that were edited since.  The CSV and then the
    copy are each written into place (:func:`_replaced`): a save that
    fails while it writes the CSV leaves the previous CSV, or none, and
    no copy.
    """
    path = Path(path)
    x = as_dataset(data)
    for stale in _copies(path):
        stale.unlink(missing_ok=True)
    copy = _copy_name(path, save_table(path, [], x, ",".join(["%r"] * x.shape[1])))
    with _replaced(copy) as fh:
        np.save(fh, np.asfortranarray(x), allow_pickle=False)


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
               np.array([(r.iteration, r.loglik, r.step_norm) for r in trace.records]),
               "%d,%r,%r")


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
