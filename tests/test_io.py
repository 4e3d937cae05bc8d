import errno
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import gemgmm
from gemgmm import GmmParams, RunTrace, TraceRecord, ValidationError, core, io, run, sample
from gemgmm.io import (
    CSV_CHUNK_ROWS,
    TRACE_HEADER,
    load_dataset,
    load_params,
    load_trace_csv,
    params_from_dict,
    params_to_dict,
    save_dataset,
    save_params,
    save_trace_csv,
)

from conftest import make_params


@pytest.fixture
def params():
    return make_params(np.random.default_rng(301), 2, 2)


# -------------------------------------------------------------- parameters

def test_params_dict_schema(params):
    d = params_to_dict(params)
    assert set(d) == {"K", "m", "alpha", "mu", "sigma"}
    assert d["K"] == 2
    assert d["m"] == 2
    assert np.array_equal(d["alpha"], params.weights)
    assert np.array_equal(d["mu"], params.means)
    assert np.array_equal(d["sigma"], params.covs)


def test_params_json_round_trip(tmp_path, params):
    path = tmp_path / "params.json"
    save_params(path, params)
    back = load_params(path)
    assert np.array_equal(back.weights, params.weights)
    assert np.array_equal(back.means, params.means)
    assert np.array_equal(back.covs, params.covs)


def test_params_json_bytes_deterministic(tmp_path, params):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_params(a, params)
    save_params(b, params)
    assert a.read_bytes() == b.read_bytes()


def test_params_from_dict_missing_keys():
    with pytest.raises(ValidationError, match="missing"):
        params_from_dict({"K": 1, "m": 1, "alpha": [1.0]})


def test_params_from_dict_shape_mismatch():
    spec = {"K": 2, "m": 1, "alpha": [0.5, 0.5], "mu": [[0.0]],
            "sigma": [[[1.0]], [[1.0]]]}
    with pytest.raises(ValidationError, match="do not match"):
        params_from_dict(spec)


def test_params_from_dict_rejects_non_object():
    with pytest.raises(ValidationError):
        params_from_dict([1, 2, 3])


def test_params_from_dict_malformed_arrays():
    spec = {"K": 1, "m": 1, "alpha": [1.0], "mu": [["x"]], "sigma": [[[1.0]]]}
    with pytest.raises(ValidationError):
        params_from_dict(spec)
    # true == 1, but a boolean is not a component or feature count
    for sizes in ({"K": True, "m": True}, {"K": True}, {"m": True}):
        with pytest.raises(ValidationError, match="must be integers"):
            params_from_dict({**spec, "mu": [[0.0]], **sizes})


def test_load_params_missing_file(tmp_path):
    with pytest.raises(ValidationError, match="not found"):
        load_params(tmp_path / "nope.json")


def test_load_params_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError, match="invalid JSON"):
        load_params(path)


def test_params_validated_on_load(tmp_path):
    # invalid values in a file are bad input, not a numerical failure:
    # weights off the simplex, a covariance that is not positive definite
    path = tmp_path / "bad_params.json"
    for alpha, sigma in (([2.0], [[[1.0]]]), ([1.0], [[[-1.0]]])):
        path.write_text(json.dumps({"K": 1, "m": 1, "alpha": alpha, "mu": [[0.0]],
                                    "sigma": sigma}))
        with pytest.raises(ValidationError, match="invalid parameter values"):
            load_params(path)


# ----------------------------------------------------------------- dataset

def test_dataset_round_trip(tmp_path):
    x = np.random.default_rng(303).normal(size=(17, 3))
    path = tmp_path / "data.csv"
    save_dataset(path, x)
    back = load_dataset(path)
    assert np.array_equal(back, x)


def test_dataset_bytes_deterministic(tmp_path):
    x = np.random.default_rng(307).normal(size=(9, 2))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    save_dataset(a, x)
    save_dataset(b, x)
    assert a.read_bytes() == b.read_bytes()


def test_dataset_csv_bytes_for_awkward_values(tmp_path):
    x = np.array([[-0.0, 1e-300, 1e16], [0.1 + 0.2, 5e-324, -2.5]])
    path = tmp_path / "awkward.csv"
    save_dataset(path, x)
    assert path.read_text() == (
        "-0.0,1e-300,1e+16\n"
        "0.30000000000000004,5e-324,-2.5\n")
    assert np.array_equal(load_dataset(path), x)


def test_dataset_single_feature_round_trip(tmp_path):
    x = np.array([[1.5], [-2.25], [0.0]])
    path = tmp_path / "one.csv"
    save_dataset(path, x)
    assert np.array_equal(load_dataset(path), x)


def test_load_dataset_skips_header_on_request(tmp_path):
    path = tmp_path / "with_header.csv"
    path.write_text("x,y\n1.0,2.0\n3.0,4.0\n")
    got = load_dataset(path, header=True)
    assert np.array_equal(got, [[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValidationError):
        load_dataset(path)


def test_load_dataset_missing_file(tmp_path):
    with pytest.raises(ValidationError, match="not found"):
        load_dataset(tmp_path / "missing.csv")


def test_load_dataset_rejects_garbage(tmp_path):
    path = tmp_path / "garbage.csv"
    path.write_text("1.0,2.0\n3.0,oops\n")
    with pytest.raises(ValidationError):
        load_dataset(path)


@pytest.mark.parametrize("text, load", [
    ("", load_dataset),
    ("\n\n", load_dataset),
    ("x,y\n", lambda path: load_dataset(path, header=True)),
    (TRACE_HEADER + "\n", load_trace_csv),
], ids=["empty_dataset", "blank_dataset", "header_only_dataset", "header_only_trace"])
def test_a_csv_with_no_rows_is_rejected(tmp_path, text, load):
    path = tmp_path / "d.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        # numpy's "input contained no data" warning would raise here
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="holds no rows"):
            load(path)


# ------------------------------------------------------------- binary copy

def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def binary_copy(path):
    """The copy ``save_dataset`` writes next to the CSV at ``path``."""
    return path.with_name(f"{path.name}.{sha256(path)}.npy")


def never_parse(monkeypatch):
    def parse(*args):
        raise AssertionError("the CSV was parsed")
    monkeypatch.setattr(io, "_load_csv", parse)


@pytest.mark.parametrize("x", [
    np.array([[-0.0, 1e-300, 1e16], [0.1 + 0.2, 5e-324, -2.5]]),
    np.array([[1.5], [-2.25], [0.0]]),
    np.array([[3.25, -1e-7]]),
    np.random.default_rng(313).normal(size=(CSV_CHUNK_ROWS + 1, 2)),
], ids=["awkward", "m1", "n1", "chunk_plus_one"])
def test_binary_copy_holds_what_the_parse_gives(tmp_path, monkeypatch, x):
    path = tmp_path / "data.csv"
    save_dataset(path, x)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", binary_copy(path).name]
    parsed = io._load_csv(path, "dataset", 0)
    never_parse(monkeypatch)
    got = load_dataset(path)
    assert got.dtype == np.float64 and got.shape == x.shape
    assert got.tobytes() == parsed.tobytes() == x.tobytes()


def test_loaded_copy_is_feature_major_without_a_copy(tmp_path):
    # the copy is stored in Fortran order, so the E-pass's (m, N) layout
    # is a view of the loaded samples
    x = np.random.default_rng(319).normal(size=(50, 3))
    path = tmp_path / "d.csv"
    save_dataset(path, x)
    loaded = load_dataset(path)
    xt = core._feature_major(loaded, 3)
    assert np.shares_memory(xt, loaded)
    assert xt.flags.c_contiguous and not xt.flags.writeable
    assert np.array_equal(xt, x.T)
    # the copy keeps its dtype, shape and C-order bytes
    stored = np.load(binary_copy(path), allow_pickle=False)
    assert stored.shape == x.shape and stored.tobytes() == x.tobytes()


@pytest.mark.parametrize("text", [
    b"1.0,2.0\n3.0,4.0\n5.0,6.0\n",      # a newline on each edge of 4-byte blocks
    b"1.0,2.0\n3.0,4.0\n5.0,6.0",        # no newline at the end
    b"1.0,2.0\r\n3.0,4.0\r\n5.0,6.0\r\n",  # CRLF line ends
    b"\n\n\n\n\n",
    b"",
], ids=["block_edges", "no_trailing_newline", "crlf", "only_newlines", "empty"])
@pytest.mark.parametrize("block", [1, 4, 7, 1 << 20])
def test_binary_copy_counts_the_newlines_it_hashes(tmp_path, monkeypatch, text, block):
    path = tmp_path / "d.csv"
    path.write_bytes(text)
    monkeypatch.setattr(io, "HASH_BLOCK", block)
    copy, newlines = io._binary_copy(path)
    assert newlines == text.count(b"\n")
    assert copy == binary_copy(path)


def test_binary_copy_bytes_deterministic(tmp_path):
    x = np.random.default_rng(317).normal(size=(9, 2))
    a, b = tmp_path / "a" / "d.csv", tmp_path / "b" / "d.csv"
    for path in (a, b):
        path.parent.mkdir()
        save_dataset(path, x)
    assert binary_copy(a).read_bytes() == binary_copy(b).read_bytes()
    # and a second save over the same file writes the same copy again
    first = binary_copy(a).read_bytes()
    save_dataset(a, np.asfortranarray(x))
    assert [p.name for p in a.parent.iterdir() if p.suffix == ".npy"] == [binary_copy(a).name]
    assert binary_copy(a).read_bytes() == first


def test_saving_different_data_removes_the_old_copy(tmp_path):
    # glob metacharacters in the name match only themselves
    path = tmp_path / "d[1]*.csv"
    save_dataset(path, np.array([[1.0, 2.0], [3.0, 4.0]]))
    old = binary_copy(path)
    save_dataset(path, np.array([[1.0, 2.0], [3.0, 5.0]]))
    assert not old.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d[1]*.csv", binary_copy(path).name]
    assert np.array_equal(load_dataset(path), [[1.0, 2.0], [3.0, 5.0]])


def test_edited_csv_is_parsed(tmp_path):
    path = tmp_path / "d.csv"
    save_dataset(path, np.array([[1.25, 2.0], [3.0, 4.0]]))
    copy = binary_copy(path)
    path.write_text(path.read_text().replace("1.25", "1.75"))
    assert np.array_equal(load_dataset(path), [[1.75, 2.0], [3.0, 4.0]])
    # the next save removes the copy of the bytes from before the edit,
    # and leaves other files alone
    other = tmp_path / "d.csv.notes.npy"
    np.save(other, np.zeros(1))
    save_dataset(path, np.array([[5.0, 6.0]]))
    assert not copy.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["d.csv", binary_copy(path).name, other.name])


def test_csv_with_no_copy_beside_it_is_parsed_unhashed(tmp_path, monkeypatch):
    # a CSV written elsewhere costs the parse alone
    path = tmp_path / "d.csv"
    path.write_text("1.5,2.0\n3.0,4.0\n")
    np.save(tmp_path / "e.csv.npy", np.zeros(1))

    def digest(*args):
        raise AssertionError("the CSV was hashed")
    monkeypatch.setattr(io, "_binary_copy", digest)
    assert np.array_equal(load_dataset(path), [[1.5, 2.0], [3.0, 4.0]])


def test_header_flag_parses_the_csv(tmp_path):
    path = tmp_path / "d.csv"
    save_dataset(path, np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
    assert np.array_equal(load_dataset(path, header=True), [[3.0, 4.0], [5.0, 6.0]])


def test_binary_copy_of_the_wrong_shape_is_rejected(tmp_path):
    path = tmp_path / "d.csv"
    save_dataset(path, np.array([[1.0, 2.0], [3.0, 4.0]]))
    copy = binary_copy(path)
    for wrong in (np.zeros((3, 2)), np.zeros(2), np.zeros((2, 2), dtype=np.float32)):
        np.save(copy, wrong)
        with pytest.raises(ValidationError, match="binary copy") as err:
            load_dataset(path)
        assert copy.name in str(err.value)
    copy.write_bytes(b"not an npy file")
    with pytest.raises(ValidationError, match="binary copy") as err:
        load_dataset(path)
    assert copy.name in str(err.value)


def test_missing_dataset_with_a_copy_beside_it_is_not_found(tmp_path):
    path = tmp_path / "d.csv"
    save_dataset(path, np.array([[1.0, 2.0]]))
    path.unlink()
    with pytest.raises(ValidationError, match="dataset file not found"):
        load_dataset(path)


# ------------------------------------------------------------------- table

def test_table_bytes_are_the_repr_of_each_entry(tmp_path):
    rows = [(0, 1.5, float("nan")), (1, -0.0, 1e-300), (2, 0.1 + 0.2, float("-inf"))]
    path = tmp_path / "t.csv"
    io.save_table(path, ["# note", "a,b,c"], np.array(rows), "%d,%r,%r")
    assert path.read_text() == "# note\na,b,c\n" + "".join(
        ",".join(map(repr, row)) + "\n" for row in rows)


def test_table_returns_the_digest_of_the_bytes_it_wrote(tmp_path):
    path = tmp_path / "t.csv"
    rows = [(0, 1.5, float("nan")), (1, -0.0, 1e-300), (2, 0.1 + 0.2, float("-inf"))]
    assert io.save_table(path, ["# note", "a,b,c"], np.array(rows), "%d,%r,%r") == sha256(path)
    # an array spanning two chunk edges
    x = np.random.default_rng(317).normal(size=(2 * CSV_CHUNK_ROWS + 3, 2))
    assert io.save_table(path, [], x, "%r,%r") == sha256(path)


def test_save_dataset_names_the_copy_without_reading_the_csv_back(tmp_path, monkeypatch):
    def read_back(*args):
        raise AssertionError("the CSV was read back")
    monkeypatch.setattr(io, "_binary_copy", read_back)
    path = tmp_path / "d.csv"
    x = np.random.default_rng(331).normal(size=(CSV_CHUNK_ROWS + 1, 2))
    save_dataset(path, x)
    assert np.load(binary_copy(path)).tobytes() == x.tobytes()


AWKWARD = [-0.0, 1e-300, 1e16, 0.1 + 0.2, 5e-324, -2.5]

# Six chunks: split into three shares of two chunks on three CPUs.
SHARED_N = 5 * CSV_CHUNK_ROWS + 7


def counted_forks(monkeypatch):
    """The row counts of the shares ``save_table`` forks a child for."""
    forked, fork = [], io._fork

    def counting(path, table, row):
        forked.append(table.shape[0])
        return fork(path, table, row)
    monkeypatch.setattr(io, "_fork", counting)
    return forked


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n", [1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1, 2 * CSV_CHUNK_ROWS + 3,
                               SHARED_N])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_array_and_row_input_give_the_same_bytes(tmp_path, monkeypatch, m, n, order):
    rng = np.random.default_rng(337 + n + m)
    values = rng.normal(size=n * m) * 10.0 ** rng.integers(-30, 30, size=n * m)
    values[::2] = np.resize(AWKWARD, values[::2].size)   # every awkward value where they fit
    x = np.asarray(values.reshape(n, m), order=order)
    # the oracle: each row of Python floats joined by hand
    text = "".join(",".join(map(repr, r)) + "\n" for r in x.tolist()).encode()
    digest = hashlib.sha256(text).hexdigest()
    forked = counted_forks(monkeypatch)
    for cpus in (1, 2, 3):
        monkeypatch.setattr(io, "_cpus", lambda: cpus)
        forked.clear()
        as_array = tmp_path / f"array-{cpus}.csv"
        assert io.save_table(as_array, [], x, ",".join(["%r"] * m)) == digest
        assert as_array.read_bytes() == text
        assert_no_child_left()
        if n <= CSV_CHUNK_ROWS or cpus == 1:
            assert not forked
        if n == SHARED_N:
            assert len(forked) == cpus - 1


def shared_data(marked_row=None):
    x = np.random.default_rng(341).normal(size=(SHARED_N, 2))
    if marked_row is not None:
        x[marked_row, 0] = 123.0
    return x


def failing_on_the_mark(monkeypatch, then_in_a_child=None):
    """Makes the formatter raise on a share that holds the entry 123.0;
    ``then_in_a_child`` runs in each child before it formats."""
    chunks, parent = io._chunks, os.getpid()

    def failing(table, row):
        if (table == 123.0).any():
            raise RuntimeError("the marked row")
        if then_in_a_child is not None and os.getpid() != parent:
            then_in_a_child()
        yield from chunks(table, row)
    monkeypatch.setattr(io, "_chunks", failing)


def test_no_child_outlives_a_dataset_save(tmp_path, monkeypatch):
    monkeypatch.setattr(io, "_cpus", lambda: 3)
    forked = counted_forks(monkeypatch)
    path, x = tmp_path / "d.csv", shared_data()
    save_dataset(path, x)
    assert forked
    assert_no_child_left()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", binary_copy(path).name]
    assert np.load(binary_copy(path)).tobytes() == x.tobytes()


def test_a_failing_child_raises_and_no_copy_is_written(tmp_path, monkeypatch):
    path = tmp_path / "d.csv"
    save_dataset(path, shared_data())      # a copy that the failed save must remove
    monkeypatch.setattr(io, "_cpus", lambda: 3)
    failing_on_the_mark(monkeypatch)
    # row 5 * 4096 lies in the last share, rows 16384 to 20486
    with pytest.raises(OSError, match="rows 16384 to 20486 .* exited with status 1"):
        save_dataset(path, shared_data(marked_row=5 * CSV_CHUNK_ROWS))
    assert_no_child_left()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv"]


def test_a_failed_save_leaves_the_old_file_or_none(tmp_path, monkeypatch):
    old, fresh, table = (tmp_path / name / "d.csv" for name in ("old", "fresh", "table"))
    for path in (old, fresh, table):
        path.parent.mkdir()
    save_dataset(old, np.array([[1.0, 2.0], [3.0, 4.0]]))
    before = old.read_bytes()
    monkeypatch.setattr(io, "_cpus", lambda: 3)
    failing_on_the_mark(monkeypatch)
    # row 5 * 4096 lies in the last share, rows 16384 to 20486, which is
    # read back after the first two shares are written
    for path in (old, fresh):
        with pytest.raises(OSError, match="rows 16384 to 20486"):
            save_dataset(path, shared_data(marked_row=5 * CSV_CHUNK_ROWS))
        assert_no_child_left()
    assert old.read_bytes() == before
    assert [p.name for p in old.parent.iterdir()] == ["d.csv"]
    assert not any(fresh.parent.iterdir())
    # this process's own share raises
    with pytest.raises(RuntimeError, match="the marked row"):
        io.save_table(table, [], shared_data(marked_row=7), "%r,%r")
    assert_no_child_left()
    assert not any(table.parent.iterdir())
    assert not list(tmp_path.rglob("*.tmp"))


def test_a_failed_fork_kills_the_child_forked_before_it(tmp_path, monkeypatch):
    monkeypatch.setattr(io, "_cpus", lambda: 3)
    forks, fork = [], os.fork

    def second_fails():
        forks.append(None)
        if len(forks) == 2:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()
    monkeypatch.setattr(os, "fork", second_fails)
    spools, temporary_file = [], tempfile.TemporaryFile

    def kept(*args, **kwargs):
        spools.append(temporary_file(*args, **kwargs))
        return spools[-1]
    monkeypatch.setattr(tempfile, "TemporaryFile", kept)
    with pytest.raises(OSError) as err:
        save_dataset(tmp_path / "d.csv", shared_data())
    assert err.value.errno == errno.EAGAIN
    assert len(forks) == 2
    assert_no_child_left()
    assert len(spools) == 2 and all(spool.closed for spool in spools)
    assert not any(tmp_path.iterdir())


def test_a_failure_in_this_process_kills_and_reaps_every_child(tmp_path, monkeypatch):
    monkeypatch.setattr(io, "_cpus", lambda: 3)
    # each child would format for a minute unless it is killed
    failing_on_the_mark(monkeypatch, then_in_a_child=lambda: time.sleep(60.0))
    t0 = time.monotonic()
    with pytest.raises(RuntimeError, match="the marked row"):
        io.save_table(tmp_path / "t.csv", [], shared_data(marked_row=7), "%r,%r")
    assert time.monotonic() - t0 < 30.0
    assert_no_child_left()


def test_importing_gemgmm_loads_no_hashing_or_process_module():
    # What gemgmm adds to what numpy loads: the interpreter's site hooks or
    # numpy itself (importlib.resources, numpy 2) may import tempfile.
    code = ("import sys, numpy; before = set(sys.modules); import gemgmm; "
            "print(sorted({'hashlib', 'multiprocessing', 'tempfile', 'concurrent.futures'}"
            " & (set(sys.modules) - before)))")
    package_root = str(Path(gemgmm.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=package_root + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ------------------------------------------------------------------- trace

@pytest.fixture
def trace():
    truth = GmmParams([0.5, 0.5], [[1.0, 1.0], [-1.0, -1.0]],
                      [np.eye(2), np.eye(2)])
    data = sample(truth, 120, 311)
    return run(truth, data, "em", max_iters=50)


def test_trace_csv_round_trip(tmp_path, trace):
    path = tmp_path / "trace.csv"
    save_trace_csv(path, trace)
    text = path.read_text()
    assert text.splitlines()[0] == TRACE_HEADER
    arr = load_trace_csv(path)
    assert arr.shape == (len(trace.records), 3)
    assert np.array_equal(arr[:, 0], [r.iteration for r in trace.records])
    assert np.array_equal(arr[:, 1], trace.logliks)
    assert np.array_equal(arr[:, 2], [r.step_norm for r in trace.records])


def test_trace_csv_bytes_deterministic(tmp_path, trace):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    save_trace_csv(a, trace)
    save_trace_csv(b, trace)
    assert a.read_bytes() == b.read_bytes()


def hand_built_trace(iterations, logliks, step_norms):
    records = [TraceRecord(*r) for r in zip(iterations, logliks, step_norms)]
    return RunTrace(records, "max_iters", GmmParams([1.0], [[0.0]], [[[1.0]]]), "em")


def trace_text(trace):
    """The oracle: iterations as ``repr(int)``, the other fields as ``repr(float)``."""
    return TRACE_HEADER + "\n" + "".join(
        f"{r.iteration},{r.loglik!r},{r.step_norm!r}\n" for r in trace.records)


def test_trace_csv_bytes_are_integer_iterations_and_float_reprs(tmp_path):
    # loadtxt parses "3" and "3.0" alike, so only the text shows the %d
    trace = hand_built_trace([0, 1, 10**6, 2**53 - 1],
                             [-0.0, 5e-324, 1e16, float("nan")],
                             [0.1 + 0.2, float("inf"), -2.5, 1e-300])
    path = tmp_path / "trace.csv"
    save_trace_csv(path, trace)
    assert path.read_text() == trace_text(trace)
    assert path.read_text().splitlines()[-1] == "9007199254740991,nan,1e-300"


def test_a_long_trace_is_formatted_on_every_cpu(tmp_path, monkeypatch):
    rng = np.random.default_rng(347)
    trace = hand_built_trace(range(SHARED_N), np.resize(AWKWARD + [float("nan"), float("inf")],
                                                        SHARED_N).tolist(),
                             rng.normal(size=SHARED_N).tolist())
    text = trace_text(trace).encode()
    digests, save_table = [], io.save_table

    def keeping_the_digest(*args):
        digests.append(save_table(*args))
        return digests[-1]
    monkeypatch.setattr(io, "save_table", keeping_the_digest)
    forked = counted_forks(monkeypatch)
    for cpus in (1, 3):
        monkeypatch.setattr(io, "_cpus", lambda: cpus)
        forked.clear()
        path = tmp_path / f"trace-{cpus}.csv"
        save_trace_csv(path, trace)
        assert len(forked) == cpus - 1
        assert_no_child_left()
        # digests, not texts: a failing assertion then prints no 600 kB diff
        assert digests[-1] == sha256(path) == hashlib.sha256(text).hexdigest()


def test_load_trace_checks_column_count(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("iter,loglik\n0,1.0\n")
    with pytest.raises(ValidationError, match="columns"):
        load_trace_csv(path)
    # the five-column layout that carried constraint residuals
    old = tmp_path / "old.csv"
    old.write_text("iter,loglik,step_norm,alpha_residual,sym_residual\n"
                   "0,-10.0,0.0,0.0,0.0\n1,-9.0,0.5,1e-16,0.0\n")
    with pytest.raises(ValidationError, match="has 5 columns") as err:
        load_trace_csv(old)
    assert TRACE_HEADER in str(err.value)


def test_load_trace_requires_the_header(tmp_path):
    # a three-column file without the header is not a trace, even though
    # its column count matches
    for first in ("0.5,-1.0,2.0", "a,b,c"):
        path = tmp_path / "headless.csv"
        path.write_text(f"{first}\n1.0,-0.5,0.25\n2.0,-0.25,0.125\n")
        with pytest.raises(ValidationError, match="header") as err:
            load_trace_csv(path)
        assert TRACE_HEADER in str(err.value)


@pytest.mark.parametrize("row", ["1,inf,0.5", "1,-9.0,nan", "1,-inf,0.5"])
def test_load_trace_rejects_non_finite_values(tmp_path, row):
    path = tmp_path / "trace.csv"
    path.write_text(f"{TRACE_HEADER}\n0,-10.0,0.0\n{row}\n")
    with pytest.raises(ValidationError, match="non-finite"):
        load_trace_csv(path)


def test_load_trace_missing_file(tmp_path):
    with pytest.raises(ValidationError, match="not found"):
        load_trace_csv(tmp_path / "none.csv")
