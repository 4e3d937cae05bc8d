"""Tests of the benchmark itself, at smoke size.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import gemgmm  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], capture_output=True,
                          text=True, timeout=300, cwd=cwd)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_checks_and_reports_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}


def test_benchmark_json_lists_the_harness_layers():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in tracing.PER_LAYER]


def test_without_package_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "analyze-2d", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _small_trace():
    truth = gemgmm.io.params_from_dict(workloads.PAPER_TRUTH)
    data = gemgmm.sample(truth, 200, seed=5)
    start = gemgmm.experiments.orthogonal_line_init(truth, 1.0)
    return gemgmm.run(start, data, "pb_gem", max_iters=20), data


def test_trace_check_passes_a_real_run_and_rejects_broken_ones():
    trace, data = _small_trace()
    assert workloads.trace_failure(trace, data, {}) is None

    falling = list(trace.records)
    falling[3] = dataclasses.replace(falling[3], loglik=falling[2].loglik - 1.0)
    bad = dataclasses.replace(trace, records=falling)
    assert "fell at iteration 3" in workloads.trace_failure(bad, data, {})

    shifted = list(trace.records)
    shifted[-1] = dataclasses.replace(shifted[-1], loglik=shifted[-1].loglik * (1 + 1e-9))
    bad = dataclasses.replace(trace, records=shifted)
    assert "recomputed" in workloads.trace_failure(bad, data, {})


def test_analysis_check_rejects_a_wrong_rate_bound(tmp_path):
    w = workloads.Analyze2D(smoke=True)
    w.setup(3, tmp_path)
    (tmp_path / "pass").mkdir()
    ops = w.check(w.execute(tmp_path / "pass"), tmp_path / "pass")
    assert [op.failure for op in ops] == [None, None, None]
    path = tmp_path / "pass" / "pb-gem" / "analysis.json"
    report = json.loads(path.read_text())
    report["rate"]["rate_bound"] += 1e-3
    path.write_text(json.dumps(report))
    assert "closed form" in w._analysis_problem("pb-gem", path)


def test_changed_output_bytes_are_reported(tmp_path):
    digests = workloads._Digests()
    path = tmp_path / "out.csv"
    path.write_text("1,2\n")
    assert digests.mismatch("out.csv", path) is None
    path.write_text("1,3\n")
    assert "differs" in digests.mismatch("out.csv", path)


def test_tracer_restores_bindings_and_reports_missing_targets(monkeypatch):
    original = gemgmm.dynamics.responsibilities
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (("core.gone", "core", "_gone"),))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert gemgmm.dynamics.responsibilities is not original
        assert gemgmm.engine.responsibilities is gemgmm.dynamics.responsibilities
        trace, _ = _small_trace()
    finally:
        tracer.uninstall()
    assert gemgmm.dynamics.responsibilities is original
    assert tracer.absent == ["core.gone"]
    per_pass = tracing.pass_metrics(tracer.spans, tracer.counters)
    assert per_pass["dynamics.run.iterations"] == trace.iterations
    assert per_pass["core.log_weighted_densities.calls"] == 2 * trace.iterations + 1
    metrics = tracing.layer_metrics([per_pass], ["core.as_dataset"], 0.0)
    assert "core.as_dataset.calls" not in metrics and "core.as_dataset_per_step" not in metrics
    assert np.isfinite(metrics["core.epass_per_step"]["value"])
