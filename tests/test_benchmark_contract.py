"""The package surface that the benchmark's tracer relies on.

``perfbench/tracing.py`` wraps named functions in the ``gemgmm`` modules
and derives per-step ratios from the spans of the update-map steps.  A
target that is renamed or moved, or a step that is called through a
reference the tracer cannot rebind, silently drops metrics from a traced
benchmark run.  These checks load the tracer read-only and fail instead.
"""

import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

import gemgmm
from gemgmm import GmmParams, MeanStepWeights

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def traced(tracing):
    """An installed tracer, uninstalled afterwards.

    The tracer only patches modules already imported, as the benchmark's
    workloads import them.
    """
    for _, module, _ in tracing.TARGETS:
        importlib.import_module("gemgmm." + module)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


TRUTH = GmmParams([0.5, 0.5], [[1.0, 1.0], [-1.0, -1.0]], [np.eye(2), np.eye(2)])
START = GmmParams([0.5, 0.5], [[-2.0, 2.0], [2.0, -2.0]], [np.eye(2), np.eye(2)])


def test_every_trace_target_resolves(traced):
    assert traced.absent == []


@pytest.mark.parametrize("algorithm, design", [
    ("pb_gem", None), ("w_pb_gem", MeanStepWeights([0.9, 0.9]))])
def test_traced_run_reports_per_step_ratios(tracing, traced, algorithm, design):
    data = gemgmm.core.sample(TRUTH, 200, 5)
    trace = gemgmm.dynamics.run(START, data, algorithm, design=design,
                                rel_ll_tol=1e-300, max_iters=6)
    metrics = tracing.pass_metrics(traced.spans, traced.counters)
    assert metrics["dynamics.step.calls"] == trace.iterations == 6
    assert metrics["dynamics.run.iterations"] == 6
    for key in tracing.PER_STEP:
        assert key in metrics and math.isfinite(metrics[key]), key


@pytest.mark.parametrize("algorithm, design", [
    ("pb_gem", None), ("w_pb_gem", MeanStepWeights([0.9, 0.9]))])
def test_traced_jacobian_reports_per_step_ratios(tracing, traced, algorithm, design):
    data = gemgmm.core.sample(TRUTH, 200, 5)
    gemgmm.analysis.update_map_jacobian(TRUTH, data, algorithm, design=design)
    metrics = tracing.pass_metrics(traced.spans, traced.counters)
    assert metrics["dynamics.step.calls"] == 2 * TRUTH.layout.size
    for key in tracing.PER_STEP:
        assert key in metrics and math.isfinite(metrics[key]), key
