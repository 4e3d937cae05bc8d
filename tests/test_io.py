import numpy as np
import pytest

from gemgmm import GmmParams, ValidationError, run, sample
from gemgmm.io import (
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
    path = tmp_path / "bad_params.json"
    path.write_text('{"K": 1, "m": 1, "alpha": [2.0], "mu": [[0.0]], "sigma": [[[1.0]]]}')
    with pytest.raises(Exception):
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


def test_load_trace_missing_file(tmp_path):
    with pytest.raises(ValidationError, match="not found"):
        load_trace_csv(tmp_path / "none.csv")
