import hashlib
import json

import numpy as np
import pytest

from gemgmm import GmmParams, ValidationError, core, io, run, sample
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
    io.save_table(path, ["# note", "a,b,c"], iter(rows))
    assert path.read_text() == "# note\na,b,c\n" + "".join(
        ",".join(map(repr, row)) + "\n" for row in rows)


def test_table_returns_the_digest_of_the_bytes_it_wrote(tmp_path):
    path = tmp_path / "t.csv"
    rows = [(0, 1.5, float("nan")), (1, -0.0, 1e-300), (2, 0.1 + 0.2, float("-inf"))]
    assert io.save_table(path, ["# note", "a,b,c"], rows) == sha256(path)
    # an array spanning two chunk edges
    x = np.random.default_rng(317).normal(size=(2 * CSV_CHUNK_ROWS + 3, 2))
    assert io.save_table(path, [], x) == sha256(path)


def test_save_dataset_names_the_copy_without_reading_the_csv_back(tmp_path, monkeypatch):
    def read_back(*args):
        raise AssertionError("the CSV was read back")
    monkeypatch.setattr(io, "_binary_copy", read_back)
    path = tmp_path / "d.csv"
    x = np.random.default_rng(331).normal(size=(CSV_CHUNK_ROWS + 1, 2))
    save_dataset(path, x)
    assert np.load(binary_copy(path)).tobytes() == x.tobytes()


AWKWARD = [-0.0, 1e-300, 1e16, 0.1 + 0.2, 5e-324, -2.5]


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n", [1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1, 2 * CSV_CHUNK_ROWS + 3])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_array_and_row_input_give_the_same_bytes(tmp_path, m, n, order):
    rng = np.random.default_rng(337 + n + m)
    values = rng.normal(size=n * m) * 10.0 ** rng.integers(-30, 30, size=n * m)
    values[::2] = np.resize(AWKWARD, values[::2].size)   # every awkward value where they fit
    x = np.asarray(values.reshape(n, m), order=order)
    as_array, as_rows = tmp_path / "array.csv", tmp_path / "rows.csv"
    assert io.save_table(as_array, [], x) == io.save_table(as_rows, [], x.tolist())
    assert as_array.read_bytes() == as_rows.read_bytes()


@pytest.mark.parametrize("rows", [
    [(1.0, 2.0), (3.0,), (4.0, 5.0, 6.0)],      # the widths add up to whole rows
    [(1.0, 2.0)] * CSV_CHUNK_ROWS + [(3.0,)],     # the ragged row opens a later chunk
], ids=["same_chunk", "next_chunk"])
def test_ragged_table_raises(tmp_path, rows):
    with pytest.raises(ValidationError, match="2 entries"):
        io.save_table(tmp_path / "t.csv", [], rows)


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
