import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gemgmm
from gemgmm import GmmParams, ValidationError, analysis, experiments, io
from gemgmm.cli import _build_config, build_parser, main
from gemgmm.experiments import ExperimentConfig, orthogonal_line_init
from gemgmm.io import load_dataset, load_params, load_trace_csv, save_dataset, save_params

from conftest import make_dataset

TRUE_MODEL = {
    "K": 2, "m": 2,
    "alpha": [0.5, 0.5],
    "mu": [[1.0, 1.0], [-1.0, -1.0]],
    "sigma": [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]],
}

ORTHO_INIT = {"kind": "orthogonal-line", "distance": 3.0 * math.sqrt(2.0)}


def write_config(path, **fields):
    path.write_text(json.dumps(fields))
    return str(path)


def make_dataset_file(tmp_path, n=150, seed=11):
    cfg = write_config(tmp_path / "gen.json", true_model=TRUE_MODEL,
                       n_samples=n, seed=seed, out=str(tmp_path / "gen"))
    assert main(["generate", "--config", cfg]) == 0
    return str(tmp_path / "gen" / "dataset.csv")


# ------------------------------------------------------------------ config

def test_config_rejects_unknown_keys():
    with pytest.raises(ValidationError, match="unknown config keys"):
        ExperimentConfig.from_mapping({"n_samples": 10, "typo_key": 1})
    # the finite-difference step and the LMI grid spacing are constants
    for name in ("fd_step", "grid_resolution"):
        with pytest.raises(ValidationError, match=rf"unknown config keys: \['{name}'\]"):
            ExperimentConfig.from_mapping({name: 1e-3})


def test_config_coercion_and_algorithm_normalization():
    cfg = ExperimentConfig.from_mapping(
        {"n_samples": "250", "seed": 3.0, "algorithm": "w-pb-gem",
         "beta": ["0.5", 1], "tol": "1e-8"})
    assert cfg.n_samples == 250
    assert cfg.seed == 3
    assert cfg.algorithm == "w_pb_gem"
    assert cfg.beta == [0.5, 1.0]
    assert cfg.tol == 1e-8


@pytest.mark.parametrize("name", ["n_samples", "max_iters", "seed", "instances",
                                  "seed_stride"])
def test_config_integer_fields_coerce(name):
    for raw, want in (("12", 12), (3.0, 3)):
        value = getattr(ExperimentConfig.from_mapping({name: raw}), name)
        assert type(value) is int and value == want
    for bad in ("1e3", "many", None, [1], 7.9, True):
        with pytest.raises(ValidationError, match=f"^config field '{name}' must be an integer$"):
            ExperimentConfig.from_mapping({name: bad})


@pytest.mark.parametrize("name", ["tol"])
def test_config_number_fields_coerce(name):
    for raw, want in (("1e-3", 1e-3), (2, 2.0), (" 0.5 ", 0.5)):
        value = getattr(ExperimentConfig.from_mapping({name: raw}), name)
        assert type(value) is float and value == want
    for bad in ("tight", None, [1.0], True, "inf", "-inf", "nan", math.inf, math.nan):
        with pytest.raises(ValidationError, match=f"^config field '{name}' must be a number$"):
            ExperimentConfig.from_mapping({name: bad})


def test_config_leaves_other_fields_uncoerced():
    cfg = ExperimentConfig.from_mapping({"n_samples": "12", "tol": "1e-3", "seed": 3.0,
                                         "out": "runs", "plot": 1, "header": 0})
    assert (cfg.n_samples, cfg.tol, cfg.seed) == (12, 1e-3, 3)
    assert type(cfg.seed) is int
    assert cfg.out == "runs" and cfg.plot == 1 and cfg.header == 0
    assert type(cfg.plot) is int and type(cfg.header) is int


@pytest.mark.parametrize("mapping", [
    {"algorithm": "newton"},
    {"n_samples": "many"},
    {"tol": "tight"},
    {"beta": "not-a-list"},
    {"inset": [1.0]},
])
def test_config_validation_failures(mapping):
    with pytest.raises(ValidationError):
        ExperimentConfig.from_mapping(mapping)


# Each flag with the JSON form of its value: both go through from_mapping.
_FLAG_FORMS = {
    "seed": (["generate", "--seed", "8"], {"seed": 8}),
    "tol": (["fit", "--tol", "1e-8"], {"tol": 1e-8}),
    "max-iters": (["replicate", "--max-iters", "200"], {"max_iters": 200}),
    "instances": (["replicate", "--instances", "3"], {"instances": 3}),
    "beta": (["analyze", "--beta", "0.9,0.8"], {"beta": [0.9, 0.8]}),
    "inset": (["fit", "--inset", "0:40"], {"inset": [0, 40]}),
    "plot": (["replicate", "--plot"], {"plot": True}),
    "algo": (["analyze", "--algo", "w-pb-gem"], {"algorithm": "w-pb-gem"}),
    "dataset": (["fit", "--dataset", "d.csv"], {"dataset": "d.csv"}),
    "trace": (["analyze", "--trace", "t.csv"], {"trace": "t.csv"}),
    "params-file": (["analyze", "fitted.json"], {"params_file": "fitted.json"}),
    "out": (["generate", "--out", "runs"], {"out": "runs"}),
}


@pytest.mark.parametrize("argv, fields", _FLAG_FORMS.values(), ids=_FLAG_FORMS)
def test_flag_reaches_its_config_field_as_json_does(argv, fields):
    from_flags = _build_config(build_parser().parse_args(argv))
    from_json = ExperimentConfig.from_mapping(json.loads(json.dumps(fields)))
    default = ExperimentConfig()
    for name in ExperimentConfig.__dataclass_fields__:
        flag_value, json_value = getattr(from_flags, name), getattr(from_json, name)
        assert flag_value == json_value and type(flag_value) is type(json_value), name
        assert (json_value != getattr(default, name)) == (name in fields), name


@pytest.mark.parametrize("argv, field", [
    (["fit", "--beta", "a,b"], "beta"),
    (["replicate", "--inset", "1:2:3"], "inset"),
    (["generate", "--seed", "x"], "seed"),
    (["fit", "--tol", "tight"], "tol"),
    (["replicate", "--max-iters", "2.5"], "max_iters"),
    (["fit", "--tol", "inf"], "tol"),
    (["fit", "--plot", "--inset", "40:0"], "inset"),
])
def test_malformed_flag_value_exits_2(argv, field, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: config field {field!r} must be")


# ------------------------------------------------------------ line init

def test_orthogonal_line_init_reproduces_reference_points():
    truth = GmmParams([0.5, 0.5], [[1.0, 1.0], [-1.0, -1.0]],
                      [np.eye(2), np.eye(2)])
    init = orthogonal_line_init(truth, 3.0 * math.sqrt(2.0))
    assert np.allclose(init.means, [[-3.0, 3.0], [3.0, -3.0]], rtol=0, atol=1e-12)
    assert np.array_equal(init.weights, [0.5, 0.5])
    assert np.array_equal(init.covs[0], np.eye(2))
    assert np.array_equal(init.covs[1], np.eye(2))


def test_orthogonal_line_init_higher_dimensions():
    truth = GmmParams([0.5, 0.5], [[1.0, 0.0, 2.0], [-1.0, 0.5, 0.0]],
                      [np.eye(3), np.eye(3)])
    init = orthogonal_line_init(truth, 2.0)
    u = truth.means[0] - truth.means[1]
    v = init.means[0]
    assert abs(v @ u) < 1e-12
    assert np.linalg.norm(v) == pytest.approx(2.0, rel=1e-12)
    assert np.allclose(init.means[1], -v, rtol=0, atol=1e-15)


def test_orthogonal_line_init_validation():
    one = GmmParams([1.0], [[0.0, 0.0]], [np.eye(2)])
    with pytest.raises(ValidationError):
        orthogonal_line_init(one, 1.0)
    scalar = GmmParams([0.5, 0.5], [[1.0], [-1.0]], [np.eye(1), np.eye(1)])
    with pytest.raises(ValidationError):
        orthogonal_line_init(scalar, 1.0)
    truth = GmmParams([0.5, 0.5], [[1.0, 1.0], [-1.0, -1.0]],
                      [np.eye(2), np.eye(2)])
    with pytest.raises(ValidationError):
        orthogonal_line_init(truth, 0.0)
    coincident = GmmParams([0.5, 0.5], [[1.0, 1.0], [1.0, 1.0]],
                           [np.eye(2), np.eye(2)])
    with pytest.raises(ValidationError):
        orthogonal_line_init(coincident, 1.0)


# ---------------------------------------------------------------- generate

def test_generate_writes_dataset_and_truth(tmp_path):
    cfg = write_config(tmp_path / "c.json", true_model=TRUE_MODEL,
                       n_samples=50, seed=7, out=str(tmp_path / "out"))
    assert main(["generate", "--config", cfg]) == 0
    data = load_dataset(tmp_path / "out" / "dataset.csv")
    assert data.shape == (50, 2)
    truth = load_params(tmp_path / "out" / "truth.json")
    assert truth.n_components == 2
    # mixture mean is the weighted component mean, here the origin
    big = write_config(tmp_path / "big.json", true_model=TRUE_MODEL,
                       n_samples=1000, seed=7, out=str(tmp_path / "big"))
    assert main(["generate", "--config", big]) == 0
    x = load_dataset(tmp_path / "big" / "dataset.csv")
    assert np.all(np.abs(x.mean(axis=0)) < 0.15)


def test_generate_is_deterministic_per_seed(tmp_path):
    a = write_config(tmp_path / "a.json", true_model=TRUE_MODEL,
                     n_samples=40, seed=7, out=str(tmp_path / "a"))
    b = write_config(tmp_path / "b.json", true_model=TRUE_MODEL,
                     n_samples=40, seed=7, out=str(tmp_path / "b"))
    assert main(["generate", "--config", a]) == 0
    assert main(["generate", "--config", b]) == 0
    assert (tmp_path / "a" / "dataset.csv").read_bytes() == \
        (tmp_path / "b" / "dataset.csv").read_bytes()
    c = write_config(tmp_path / "c.json", true_model=TRUE_MODEL,
                     n_samples=40, seed=8, out=str(tmp_path / "c"))
    assert main(["generate", "--config", c]) == 0
    assert (tmp_path / "a" / "dataset.csv").read_bytes() != \
        (tmp_path / "c" / "dataset.csv").read_bytes()


def test_generate_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path / "c.json", true_model=TRUE_MODEL,
                       n_samples=40, seed=7, out=str(tmp_path / "x"))
    assert main(["generate", "--config", cfg, "--seed", "8",
                 "--out", str(tmp_path / "y")]) == 0
    base = write_config(tmp_path / "d.json", true_model=TRUE_MODEL,
                        n_samples=40, seed=8, out=str(tmp_path / "z"))
    assert main(["generate", "--config", base]) == 0
    assert (tmp_path / "y" / "dataset.csv").read_bytes() == \
        (tmp_path / "z" / "dataset.csv").read_bytes()


def test_generate_rejects_bad_counts(tmp_path):
    cfg = write_config(tmp_path / "c.json", true_model=TRUE_MODEL,
                       n_samples=0, out=str(tmp_path / "out"))
    assert main(["generate", "--config", cfg]) == 2


def test_generate_rejects_negative_seed(tmp_path):
    cfg = write_config(tmp_path / "c.json", true_model=TRUE_MODEL,
                       n_samples=10, out=str(tmp_path / "out"))
    assert main(["generate", "--config", cfg, "--seed", "-3"]) == 2


def test_generate_requires_true_model(tmp_path):
    cfg = write_config(tmp_path / "c.json", n_samples=10, out=str(tmp_path / "out"))
    assert main(["generate", "--config", cfg]) == 2


# --------------------------------------------------------------------- fit

def test_fit_writes_trace_and_summary(tmp_path):
    dataset = make_dataset_file(tmp_path)
    cfg = write_config(tmp_path / "fit.json", true_model=TRUE_MODEL,
                       dataset=dataset, init=ORTHO_INIT,
                       algorithm="pb-gem", out=str(tmp_path / "fit"),
                       max_iters=2000)
    assert main(["fit", "--config", cfg]) == 0
    arr = load_trace_csv(tmp_path / "fit" / "trace.csv")
    assert arr.shape[1] == 3
    assert np.all(np.diff(arr[:, 1]) >= -1e-10 * np.abs(arr[:-1, 1]))
    summary = json.loads((tmp_path / "fit" / "summary.json").read_text())
    assert summary["algorithm"] == "pb_gem"
    assert summary["converged"] is True
    assert summary["termination_reason"] == "tolerance"
    assert summary["iterations"] == arr.shape[0] - 1
    fitted = summary["final_params"]
    means = np.array(fitted["mu"])
    direct = np.abs(means - np.array(TRUE_MODEL["mu"])).max()
    swapped = np.abs(means - np.array(TRUE_MODEL["mu"])[::-1]).max()
    # loose recovery check; at N=150 the ML estimate itself fluctuates
    assert min(direct, swapped) < 0.4


def test_fit_trace_bytes_deterministic(tmp_path):
    dataset = make_dataset_file(tmp_path)
    results = []
    for name in ("r1", "r2"):
        cfg = write_config(tmp_path / f"{name}.json", true_model=TRUE_MODEL,
                           dataset=dataset, init=ORTHO_INIT,
                           algorithm="w-pb-gem", beta=[0.996, 0.996],
                           out=str(tmp_path / name), max_iters=2000)
        assert main(["fit", "--config", cfg]) == 0
        results.append((tmp_path / name / "trace.csv").read_bytes())
    assert results[0] == results[1]


def test_fit_weighted_records_betas(tmp_path):
    dataset = make_dataset_file(tmp_path, n=100)
    cfg = write_config(tmp_path / "fit.json", true_model=TRUE_MODEL,
                       dataset=dataset, init=ORTHO_INIT, out=str(tmp_path / "w"),
                       max_iters=2000)
    assert main(["fit", "--config", cfg, "--algo", "w-pb-gem",
                 "--beta", "0.9,0.8"]) == 0
    summary = json.loads((tmp_path / "w" / "summary.json").read_text())
    assert summary["algorithm"] == "w_pb_gem"
    assert summary["beta"] == [0.9, 0.8]


def test_fit_exit_code_on_max_iters(tmp_path):
    dataset = make_dataset_file(tmp_path)
    cfg = write_config(tmp_path / "fit.json", true_model=TRUE_MODEL,
                       dataset=dataset, init=ORTHO_INIT,
                       out=str(tmp_path / "fit"), max_iters=5)
    assert main(["fit", "--config", cfg]) == 4
    summary = json.loads((tmp_path / "fit" / "summary.json").read_text())
    assert summary["termination_reason"] == "max_iters"
    assert summary["converged"] is False


def test_fit_exit_code_on_numerical_failure(tmp_path):
    dataset = make_dataset_file(tmp_path, n=80)
    bad_init = {"kind": "explicit", "params": {
        "K": 2, "m": 2, "alpha": [0.5, 0.5],
        "mu": [[0.0, 0.0], [1000.0, 1000.0]],
        "sigma": TRUE_MODEL["sigma"]}}
    cfg = write_config(tmp_path / "fit.json", dataset=dataset, init=bad_init,
                       algorithm="em", out=str(tmp_path / "fit"))
    assert main(["fit", "--config", cfg]) == 3
    # the partial trace and an error-bearing summary are still written
    arr = load_trace_csv(tmp_path / "fit" / "trace.csv")
    assert arr.shape[0] == 1
    summary = json.loads((tmp_path / "fit" / "summary.json").read_text())
    assert "error" in summary


def test_fit_explicit_init_from_file(tmp_path):
    dataset = make_dataset_file(tmp_path, n=100)
    start = tmp_path / "start.json"
    start.write_text(json.dumps({
        "K": 2, "m": 2, "alpha": [0.5, 0.5],
        "mu": [[0.5, 0.5], [-0.5, -0.5]], "sigma": TRUE_MODEL["sigma"]}))
    cfg = write_config(tmp_path / "fit.json", dataset=dataset,
                       init={"kind": "explicit", "params": str(start)},
                       out=str(tmp_path / "fit"), max_iters=2000)
    assert main(["fit", "--config", cfg]) == 0


def test_fit_plot_output(tmp_path):
    dataset = make_dataset_file(tmp_path, n=100)
    cfg = write_config(tmp_path / "fit.json", true_model=TRUE_MODEL,
                       dataset=dataset, init=ORTHO_INIT, plot=True,
                       inset=[10, 20], out=str(tmp_path / "fit"),
                       max_iters=2000)
    assert main(["fit", "--config", cfg]) == 0
    svg = (tmp_path / "fit" / "loglik.svg").read_text()
    assert svg.startswith("<svg")
    assert "polyline" in svg


def test_fit_plot_rejects_an_inset_past_the_last_iteration(tmp_path, capsys):
    dataset = make_dataset_file(tmp_path, n=100)
    cfg = write_config(tmp_path / "fit.json", true_model=TRUE_MODEL,
                       dataset=dataset, init=ORTHO_INIT, plot=True,
                       inset=[5000, 6000], out=str(tmp_path / "fit"), max_iters=50)
    assert main(["fit", "--config", cfg]) == 2
    # the trace and the summary are written before the plot, and stay
    summary = json.loads((tmp_path / "fit" / "summary.json").read_text())
    assert load_trace_csv(tmp_path / "fit" / "trace.csv").shape[0] == summary["iterations"] + 1
    assert not (tmp_path / "fit" / "loglik.svg").exists()
    err = capsys.readouterr().err
    assert "inset window 5000:6000" in err
    assert f"the last iteration is {summary['iterations']}\n" in err


def test_failed_fit_with_an_inset_past_its_partial_trace_exits_3(tmp_path):
    # the step failure is what the fit reports, not the plot's window
    dataset = make_dataset_file(tmp_path, n=80)
    bad_init = {"kind": "explicit", "params": {
        "K": 2, "m": 2, "alpha": [0.5, 0.5],
        "mu": [[0.0, 0.0], [1000.0, 1000.0]],
        "sigma": TRUE_MODEL["sigma"]}}
    cfg = write_config(tmp_path / "fit.json", dataset=dataset, init=bad_init, algorithm="em",
                       plot=True, inset=[0, 40], out=str(tmp_path / "fit"))
    assert main(["fit", "--config", cfg]) == 3
    assert "error" in json.loads((tmp_path / "fit" / "summary.json").read_text())
    assert not (tmp_path / "fit" / "loglik.svg").exists()


@pytest.mark.parametrize("command", ["fit", "replicate", "analyze"])
def test_beta_of_the_wrong_length_exits_2(tmp_path, capsys, monkeypatch, command):
    # the design is checked against K before any fit or probe
    dataset = make_dataset_file(tmp_path, n=60)
    runs = []
    monkeypatch.setattr(experiments, "run", lambda *args, **kwargs: runs.append(args))
    cfg = write_config(tmp_path / "c.json", true_model=TRUE_MODEL, dataset=dataset,
                       init=ORTHO_INIT, n_samples=60, instances=2, max_iters=50,
                       out=str(tmp_path / "out"))
    argv = [command, "--config", cfg, "--beta", "0.9,0.9,0.9"]
    if command != "replicate":
        argv += ["--algo", "w-pb-gem"]
    if command == "analyze":
        argv.append(str(tmp_path / "gen" / "truth.json"))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "need one beta per component (2), got 3" in err
    assert "perturbation" not in err
    assert runs == []


@pytest.mark.parametrize("argv", [["fit"], ["fit", "--algo", "em"], ["analyze"],
                                  ["analyze", "--algo", "em"]])
def test_beta_with_an_algorithm_that_takes_none_exits_2(tmp_path, capsys, monkeypatch, argv):
    # beta applies only to w-pb-gem; the rule is checked before any fit or Jacobian
    dataset = make_dataset_file(tmp_path, n=60)
    calls = []
    monkeypatch.setattr(experiments, "run", lambda *args, **kwargs: calls.append(args))
    monkeypatch.setattr(experiments, "update_map_jacobian",
                        lambda *args, **kwargs: calls.append(args))
    cfg = write_config(tmp_path / "c.json", true_model=TRUE_MODEL, dataset=dataset,
                       init=ORTHO_INIT, max_iters=50, out=str(tmp_path / "out"))
    argv = [*argv, "--config", cfg, "--beta", "0.9,0.9"]
    if argv[0] == "analyze":
        argv.append(str(tmp_path / "gen" / "truth.json"))
    assert main(argv) == 2
    assert "takes no design; beta applies only to w_pb_gem" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv_extra, missing", [
    ([], "dataset"),
])
def test_fit_requires_dataset(tmp_path, argv_extra, missing):
    cfg = write_config(tmp_path / "fit.json", true_model=TRUE_MODEL,
                       init=ORTHO_INIT, out=str(tmp_path / "fit"))
    assert main(["fit", "--config", cfg] + argv_extra) == 2


def test_fit_rejects_missing_dataset_file(tmp_path):
    cfg = write_config(tmp_path / "fit.json", true_model=TRUE_MODEL,
                       dataset=str(tmp_path / "nope.csv"), init=ORTHO_INIT,
                       out=str(tmp_path / "fit"))
    assert main(["fit", "--config", cfg]) == 2


def test_fit_requires_init(tmp_path):
    dataset = make_dataset_file(tmp_path, n=30)
    cfg = write_config(tmp_path / "fit.json", dataset=dataset,
                       out=str(tmp_path / "fit"))
    assert main(["fit", "--config", cfg]) == 2


# --------------------------------------------------------------- replicate

def test_replicate_zero_std_with_frozen_seeds(tmp_path):
    cfg = write_config(tmp_path / "rep.json", true_model=TRUE_MODEL,
                       n_samples=60, init=ORTHO_INIT, instances=2,
                       seed_stride=0, tol=1e-8, max_iters=800,
                       out=str(tmp_path / "rep"))
    assert main(["replicate", "--config", cfg]) == 0
    lines = (tmp_path / "rep" / "replicate.csv").read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1].startswith("#")
    assert lines[2] == "iter,mean_negll_pb,std_negll_pb,mean_negll_wpb,std_negll_wpb"
    arr = np.array([[float(v) for v in line.split(",")] for line in lines[3:]])
    assert np.all(arr[:, 2] == 0.0)
    assert np.all(arr[:, 4] == 0.0)
    summary = json.loads((tmp_path / "rep" / "replicate_summary.json").read_text())
    assert summary["instances"] == 2
    assert summary["failure_count"] == 0
    assert summary["pb_gem"]["runs"] == 2
    assert summary["beta"] == [0.996, 0.996]
    assert summary["weighted_mean_iterations_below_plain"] in (True, False)


def test_replicate_aggregate_row_count_padding(tmp_path):
    cfg = write_config(tmp_path / "rep.json", true_model=TRUE_MODEL,
                       n_samples=60, init=ORTHO_INIT, instances=3,
                       seed=5, tol=1e-8, max_iters=800,
                       out=str(tmp_path / "rep"))
    assert main(["replicate", "--config", cfg]) == 0
    summary = json.loads((tmp_path / "rep" / "replicate_summary.json").read_text())
    longest = max(summary["pb_gem"]["max_iterations"],
                  summary["w_pb_gem"]["max_iterations"])
    lines = (tmp_path / "rep" / "replicate.csv").read_text().splitlines()
    assert len(lines) - 3 == longest + 1


def test_replicate_plot_leaves_out_an_algorithm_without_runs(tmp_path):
    # beta 3 overshoots the mean steps, so every w_pb_gem run fails
    cfg = write_config(tmp_path / "rep.json", true_model=TRUE_MODEL,
                       n_samples=60, init={"kind": "orthogonal-line", "distance": 3.0},
                       instances=2, beta=[3.0, 3.0], max_iters=200, plot=True,
                       out=str(tmp_path / "rep"))
    assert main(["replicate", "--config", cfg]) == 0
    summary = json.loads((tmp_path / "rep" / "replicate_summary.json").read_text())
    assert summary["pb_gem"]["runs"] == 2
    assert summary["w_pb_gem"]["runs"] == 0
    rows = (tmp_path / "rep" / "replicate.csv").read_text().splitlines()[3:]
    assert all(row.endswith(",nan,nan") for row in rows)
    svg = (tmp_path / "rep" / "replicate.svg").read_text()
    assert "nan" not in svg
    assert ">pb-gem</text>" in svg
    assert "w-pb-gem" not in svg
    assert svg.count("<polyline") == 1


def test_replicate_plot_rejects_an_inset_past_the_last_iteration(tmp_path, capsys):
    cfg = write_config(tmp_path / "rep.json", true_model=TRUE_MODEL,
                       n_samples=60, init=ORTHO_INIT, instances=2, max_iters=200,
                       plot=True, inset=[5000, 6000], out=str(tmp_path / "rep"))
    assert main(["replicate", "--config", cfg]) == 2
    # the aggregate and the summary are written before the plot, and stay
    summary = json.loads((tmp_path / "rep" / "replicate_summary.json").read_text())
    longest = max(summary["pb_gem"]["max_iterations"], summary["w_pb_gem"]["max_iterations"])
    assert (tmp_path / "rep" / "replicate.csv").exists()
    assert not (tmp_path / "rep" / "replicate.svg").exists()
    err = capsys.readouterr().err
    assert "inset window 5000:6000" in err
    assert f"the last iteration is {longest}\n" in err


def test_replicate_rejects_negative_seed_stride(tmp_path, monkeypatch):
    # the seeds are checked before any fit: instance 0 (seed 0) is not run
    fits = []
    original = experiments.run

    def counted(*args, **kwargs):
        fits.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(experiments, "run", counted)
    cfg = write_config(tmp_path / "rep.json", true_model=TRUE_MODEL,
                       n_samples=60, init=ORTHO_INIT, instances=2,
                       seed_stride=-1, tol=1e-8, max_iters=800,
                       out=str(tmp_path / "rep"))
    assert main(["replicate", "--config", cfg]) == 2
    assert len(fits) == 0


def test_replicate_in_which_every_run_fails_exits_3_and_keeps_its_summary(tmp_path, capsys):
    # the second mean starts so far out that component 1 gets no mass
    start = dict(TRUE_MODEL, mu=[[0.0, 0.0], [1000.0, 1000.0]])
    cfg = write_config(tmp_path / "rep.json", true_model=TRUE_MODEL, n_samples=200,
                       instances=2, init={"kind": "explicit", "params": start},
                       plot=True, out=str(tmp_path / "rep"))
    assert main(["replicate", "--config", cfg]) == 3
    assert "every replicate run failed" in capsys.readouterr().err
    summary = json.loads((tmp_path / "rep" / "replicate_summary.json").read_text())
    assert summary["failure_count"] == 4
    error = ("component 1 holds responsibility mass 0.000e+00 over 200 samples "
             "(threshold 1e-12 * N)")
    assert summary["failures"] == [
        {"instance": i, "algorithm": algorithm, "iteration": 1, "error": error}
        for i in range(2) for algorithm in ("pb_gem", "w_pb_gem")]
    assert summary["pb_gem"] == summary["w_pb_gem"] == {"runs": 0}
    assert summary["weighted_mean_iterations_below_plain"] is None
    assert sorted(p.name for p in (tmp_path / "rep").iterdir()) == ["replicate_summary.json"]


def test_replicate_requires_two_instances(tmp_path):
    cfg = write_config(tmp_path / "rep.json", true_model=TRUE_MODEL,
                       init=ORTHO_INIT, instances=1, out=str(tmp_path / "rep"))
    assert main(["replicate", "--config", cfg]) == 2


# ----------------------------------------------------------------- analyze

def test_analyze_sector_report(tmp_path):
    dataset = make_dataset_file(tmp_path, n=60)
    cfg = write_config(tmp_path / "a.json",
                       sector={"m_lo": 0.5, "L_hi": 1.5},
                       out=str(tmp_path / "a"))
    assert main(["analyze", "--config", cfg, str(tmp_path / "gen" / "truth.json"),
                 "--dataset", dataset]) == 0
    report = json.loads((tmp_path / "a" / "analysis.json").read_text())
    rate = report["rate"]
    assert rate["rate_bound"] == 0.5
    assert rate["certificate"]["feasible"] is True
    assert abs(rate["certificate"]["mu_bound"] - 0.5) <= 1e-3 + 1e-9
    # the grid spacing and the probe step are constants, recorded in the report
    assert rate["grid_resolution"] == analysis.GRID_RESOLUTION == 1e-3
    assert report["jacobian"]["fd_step"] == analysis.FD_STEP == 1e-6


def test_analyze_jacobian_and_trace(tmp_path):
    dataset = make_dataset_file(tmp_path, n=120)
    fit_cfg = write_config(tmp_path / "fit.json", true_model=TRUE_MODEL,
                           dataset=dataset, init=ORTHO_INIT,
                           out=str(tmp_path / "fit"), max_iters=2000)
    assert main(["fit", "--config", fit_cfg]) == 0
    summary = json.loads((tmp_path / "fit" / "summary.json").read_text())
    fitted = tmp_path / "fitted.json"
    fitted.write_text(json.dumps(summary["final_params"]))
    cfg = write_config(tmp_path / "a.json", out=str(tmp_path / "a"))
    assert main(["analyze", "--config", cfg, str(fitted),
                 "--dataset", dataset,
                 "--trace", str(tmp_path / "fit" / "trace.csv")]) == 0
    report = json.loads((tmp_path / "a" / "analysis.json").read_text())
    assert report["jacobian"]["max_modulus"] < 1.0
    assert report["jacobian"]["classification"] in ("newton_like", "first_order", "mixed")
    assert len(report["jacobian"]["moduli"]) == 14
    rate = report["empirical_rate"]
    assert rate is None or 0.0 < rate < 1.0


def test_fit_and_analyze_read_the_binary_copy_of_a_generated_dataset(tmp_path, monkeypatch):
    dataset = make_dataset_file(tmp_path, n=120)
    fit_cfg = write_config(tmp_path / "fit.json", true_model=TRUE_MODEL, dataset=dataset,
                           init=ORTHO_INIT, max_iters=50)
    parse = io._load_csv

    def never(*args):
        raise AssertionError("the dataset CSV was parsed")

    monkeypatch.setattr(io, "_load_csv", never)
    assert main(["fit", "--config", fit_cfg, "--out", str(tmp_path / "fit")]) == 4  # max_iters
    assert main(["analyze", str(tmp_path / "gen" / "truth.json"), "--dataset", dataset,
                 "--out", str(tmp_path / "copy")]) == 0
    # the parse path writes the same bytes
    monkeypatch.setattr(io, "_load_csv", parse)
    for copy in Path(dataset).parent.glob("dataset.csv.*.npy"):
        copy.unlink()
    assert main(["analyze", str(tmp_path / "gen" / "truth.json"), "--dataset", dataset,
                 "--out", str(tmp_path / "parsed")]) == 0
    assert (tmp_path / "copy" / "analysis.json").read_bytes() == \
        (tmp_path / "parsed" / "analysis.json").read_bytes()


@pytest.mark.parametrize("command", ["fit", "analyze"])
def test_a_loaded_dataset_is_scanned_once(tmp_path, dataset_scans, command):
    dataset = make_dataset_file(tmp_path, n=120)
    dataset_scans.clear()  # the scan of generate's own samples
    fit_cfg = write_config(tmp_path / "fit.json", true_model=TRUE_MODEL, dataset=dataset,
                           init=ORTHO_INIT, max_iters=5)
    argv = {"fit": ["fit", "--config", fit_cfg],
            "analyze": ["analyze", str(tmp_path / "gen" / "truth.json"), "--dataset", dataset]}
    assert main(argv[command] + ["--out", str(tmp_path / "out")]) in (0, 4)
    assert len(dataset_scans) == 1


@pytest.mark.parametrize("where", ["csv", "binary copy"])
@pytest.mark.parametrize("command", ["fit", "analyze"])
def test_a_non_finite_sample_exits_2(tmp_path, capsys, command, where):
    dataset = Path(make_dataset_file(tmp_path, n=120))
    if where == "csv":
        rows = dataset.read_text().splitlines()
        rows[7] = "inf," + rows[7].split(",")[1]
        dataset.write_text("\n".join(rows) + "\n")
    else:
        copy, = dataset.parent.glob("dataset.csv.*.npy")
        x = np.load(copy)
        x[7, 1] = np.nan
        np.save(copy, np.asfortranarray(x))
    fit_cfg = write_config(tmp_path / "fit.json", true_model=TRUE_MODEL, dataset=str(dataset),
                           init=ORTHO_INIT, max_iters=5)
    argv = {"fit": ["fit", "--config", fit_cfg],
            "analyze": ["analyze", str(tmp_path / "gen" / "truth.json"),
                        "--dataset", str(dataset)]}
    capsys.readouterr()
    assert main(argv[command] + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: dataset contains non-finite entries\n"


def test_analyze_em_jacobian(tmp_path):
    # EM's update-map Jacobian is its rate matrix; analyze accepts every algorithm
    dataset = make_dataset_file(tmp_path, n=120)
    cfg = write_config(tmp_path / "a.json", out=str(tmp_path / "a"))
    assert main(["analyze", "--config", cfg, str(tmp_path / "gen" / "truth.json"),
                 "--dataset", dataset, "--algo", "em"]) == 0
    report = json.loads((tmp_path / "a" / "analysis.json").read_text())
    assert report["jacobian"]["algorithm"] == "em"
    assert len(report["jacobian"]["moduli"]) == 14


def test_analyze_exit_code_on_numerical_failure(tmp_path, capsys):
    # one weight sits closer to zero than the probe step, so the minus
    # probe leaves the simplex
    rng = np.random.default_rng(229)
    save_dataset(tmp_path / "x.csv", make_dataset(rng, 20, 1))
    params = tmp_path / "p.json"
    save_params(params, GmmParams([1e-7, 1.0 - 1e-7], [[-2.0], [2.0]],
                                  [np.eye(1), np.eye(1)]))
    cfg = write_config(tmp_path / "a.json", out=str(tmp_path / "a"))
    assert main(["analyze", "--config", cfg, str(params),
                 "--dataset", str(tmp_path / "x.csv"), "--algo", "pb-gem"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and "perturbation" in err
    assert not (tmp_path / "a" / "analysis.json").exists()


def test_analyze_rejects_bad_sector(tmp_path):
    cfg = write_config(tmp_path / "a.json", sector={"m": 0.5},
                       out=str(tmp_path / "a"))
    assert main(["analyze", "--config", cfg]) == 2


def test_analyze_requires_some_section(tmp_path):
    cfg = write_config(tmp_path / "a.json", out=str(tmp_path / "a"))
    assert main(["analyze", "--config", cfg]) == 2


def test_analyze_missing_params_file(tmp_path):
    cfg = write_config(tmp_path / "a.json", out=str(tmp_path / "a"),
                       dataset=make_dataset_file(tmp_path, n=30))
    assert main(["analyze", "--config", cfg, str(tmp_path / "ghost.json")]) == 2


def test_analyze_jacobian_requires_dataset(tmp_path):
    fitted = tmp_path / "p.json"
    fitted.write_text(json.dumps(TRUE_MODEL))
    cfg = write_config(tmp_path / "a.json", out=str(tmp_path / "a"))
    assert main(["analyze", "--config", cfg, str(fitted)]) == 2


# A malformed value in any of these fields is a config problem: exit 2,
# never a traceback, and never a string read as a list of its digits.
_BAD_RUN_FIELDS = {
    "inset-number": {"inset": 5},
    "inset-non-numeric": {"inset": ["a", 1]},
    "inset-string": {"inset": "05"},
    "init-string": {"init": "foo"},
    "out-number": {"out": 5},
    "distance-string": {"init": {"kind": "orthogonal-line", "distance": "abc"}},
    "beta-string": {"algorithm": "w-pb-gem", "beta": "12"},
    "beta-bool": {"algorithm": "w-pb-gem", "beta": [True, 1]},
    "inset-bool": {"inset": [0, True]},
    "distance-bool": {"init": {"kind": "orthogonal-line", "distance": True}},
    "header-string": {"header": "false"},
    "plot-string": {"plot": "no"},
    "header-null": {"header": None},
    "seed-infinite": {"seed": math.inf},
    "tol-infinite": {"tol": math.inf},
    "inset-nan": {"inset": [math.nan, 40]},
    "inset-reversed": {"plot": True, "inset": [40, 0]},
    "init-unknown-kind": {"init": {"kind": "bogus"}},
    "init-explicit-without-params": {"init": {"kind": "explicit"}},
    "init-explicit-params-number": {"init": {"kind": "explicit", "params": 5}},
    "init-without-distance": {"init": {"kind": "orthogonal-line"}},
}
_BAD_SECTORS = {
    "sector-non-numeric": {"m_lo": "x", "L_hi": 1},
    "sector-null": {"m_lo": None, "L_hi": 1},
    "sector-list": ["m_lo", "L_hi"],
    "sector-bool": {"m_lo": True, "L_hi": 1.5},
    "sector-infinite": {"m_lo": 0.5, "L_hi": math.inf},
}
_MALFORMED = ([pytest.param(command, fields, id=f"{command}-{name}")
               for command in ("fit", "replicate") for name, fields in _BAD_RUN_FIELDS.items()]
              + [pytest.param("analyze", {"sector": sector}, id=f"analyze-{name}")
                 for name, sector in _BAD_SECTORS.items()])


@pytest.mark.parametrize("command, fields", _MALFORMED)
def test_malformed_config_value_exits_2(tmp_path, command, fields):
    mapping = {"out": str(tmp_path / "out")}
    if command != "analyze":
        mapping.update(true_model=TRUE_MODEL, init=ORTHO_INIT, n_samples=60, instances=2,
                       tol=1e-6)
    if command == "fit":
        mapping["dataset"] = make_dataset_file(tmp_path, n=60)
    cfg = write_config(tmp_path / "c.json", **{**mapping, **fields})
    assert main([command, "--config", cfg]) == 2


@pytest.mark.parametrize("command, message", [
    ("fit", "orthogonal-line init needs the true model (config key 'true_model')"),
    ("replicate", "replicate requires a true model (config key 'true_model')"),
])
def test_missing_true_model_exits_2(tmp_path, capsys, command, message):
    mapping = {"init": ORTHO_INIT, "n_samples": 60, "instances": 2, "out": str(tmp_path / "out")}
    if command == "fit":
        mapping["dataset"] = make_dataset_file(tmp_path, n=60)
    capsys.readouterr()
    assert main([command, "--config", write_config(tmp_path / "c.json", **mapping)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_fit_on_a_directory_as_dataset_exits_2(tmp_path, capsys):
    (tmp_path / "data").mkdir()
    cfg = write_config(tmp_path / "c.json", dataset=str(tmp_path / "data"), true_model=TRUE_MODEL,
                       init=ORTHO_INIT, out=str(tmp_path / "out"))
    assert main(["fit", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Is a directory" in err


def test_analyze_rejects_a_dataset_as_trace(tmp_path):
    # three columns like a trace, but no trace header: its first sample
    # must not be skipped as one
    cfg = write_config(tmp_path / "gen.json", true_model={
        "K": 1, "m": 3, "alpha": [1.0], "mu": [[0.0, 0.0, 0.0]],
        "sigma": [np.eye(3).tolist()]}, n_samples=30, seed=5, out=str(tmp_path / "gen"))
    assert main(["generate", "--config", cfg]) == 0
    assert main(["analyze", "--trace", str(tmp_path / "gen" / "dataset.csv"),
                 "--out", str(tmp_path / "a")]) == 2
    assert not (tmp_path / "a" / "analysis.json").exists()


def test_analyze_rejects_a_non_finite_trace(tmp_path):
    trace = tmp_path / "trace.csv"
    rows = "\n".join(f"{k},{-10.0 + 2.0 ** -k!r},0.5" for k in range(20))
    trace.write_text(f"iter,loglik,step_norm\n{rows}\n20,inf,0.5\n")
    assert main(["analyze", "--trace", str(trace), "--out", str(tmp_path / "a")]) == 2
    assert not (tmp_path / "a" / "analysis.json").exists()


@pytest.mark.parametrize("command, model", [
    ("generate", {**TRUE_MODEL, "alpha": [0.6, 0.6]}),
    ("analyze", {**TRUE_MODEL, "sigma": [[[1.0, 2.0], [2.0, 1.0]], TRUE_MODEL["sigma"][1]]}),
])
def test_invalid_model_values_exit_2(tmp_path, capsys, command, model):
    # values that no GmmParams can hold are bad input, not a numerical failure
    if command == "generate":
        cfg = write_config(tmp_path / "gen.json", true_model=model, n_samples=20,
                           out=str(tmp_path / "out"))
        argv = ["generate", "--config", cfg]
    else:
        params = tmp_path / "p.json"
        params.write_text(json.dumps(model))
        argv = ["analyze", str(params), "--dataset", make_dataset_file(tmp_path, n=30),
                "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid parameter values: ")
    if command == "generate":
        assert err.endswith("got sum 1.2\n")
    assert not any((tmp_path / "out").glob("*"))


# ---------------------------------------------------------------- plumbing

def test_bad_arguments_exit_code():
    assert main([]) == 2
    assert main(["fit", "--algo", "bogus"]) == 2


def test_analyze_has_no_seed_flag(capsys):
    # nothing in analyze or fit reads a seed; generate and replicate keep the flag
    assert main(["analyze", "--seed", "5", "--trace", "t.csv"]) == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err
    assert main(["fit", "--seed", "5", "--dataset", "d.csv"]) == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err
    for command in ("generate", "replicate"):
        assert build_parser().parse_args([command, "--seed", "5"]).seed == "5"


def test_bad_config_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    assert main(["generate", "--config", str(path)]) == 2
    assert main(["generate", "--config", str(tmp_path / "missing.json")]) == 2


def test_json_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe\x00x")
    dataset = make_dataset_file(tmp_path)
    capsys.readouterr()
    assert main(["analyze", "--config", str(bad)]) == 2                 # the config
    assert main(["analyze", str(bad), "--dataset", dataset]) == 2       # the parameters
    assert capsys.readouterr().err.count(f"error: invalid JSON in {bad}: ") == 2


def test_config_must_be_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert main(["generate", "--config", str(path)]) == 2


def test_module_entry_point(tmp_path):
    cfg = write_config(tmp_path / "c.json", true_model=TRUE_MODEL,
                       n_samples=20, seed=1, out=str(tmp_path / "out"))
    # the child imports the same gemgmm as this process, installed or not
    package_root = str(Path(gemgmm.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=package_root + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-m", "gemgmm", "generate",
                           "--config", cfg],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "dataset.csv" in proc.stdout
