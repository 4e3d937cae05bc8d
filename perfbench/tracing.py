"""Span tracing for the traced benchmark run, and the per-layer metrics.

Every function in ``TARGETS`` is wrapped in each ``gemgmm`` module that
binds it: the package imports names with ``from .core import ...``, so
patching only the defining module would miss most calls.  A span is
``(name, start, end, parent index)``; spans stay in memory and are
written out when the run ends.  A target that no longer exists is
reported as absent, never as zero.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from collections import Counter, defaultdict

# (span name, gemgmm module that defines it, attribute path there).
# Two targets may share a span name: both projected steps are
# "dynamics.step".
TARGETS = (
    ("core.log_weighted_densities", "core", "_log_weighted_densities"),
    ("core.responsibilities", "core", "responsibilities"),
    ("core.log_likelihood", "core", "log_likelihood"),
    ("core.as_dataset", "core", "as_dataset"),
    ("core.GmmParams.validate", "core", "GmmParams.__post_init__"),
    ("core.sample", "core", "sample"),
    ("engine.grad_log_likelihood", "engine", "grad_log_likelihood"),
    ("dynamics.build_preconditioner", "dynamics", "build_preconditioner"),
    ("dynamics.Preconditioner.apply", "dynamics", "Preconditioner.apply"),
    ("dynamics.apply_projection", "dynamics", "apply_projection"),
    ("dynamics.step", "dynamics", "pb_gem_step"),
    ("dynamics.step", "dynamics", "w_pb_gem_step"),
    ("dynamics.run", "dynamics", "run"),
    ("analysis.update_map_jacobian", "analysis", "update_map_jacobian"),
    ("analysis.rate_certificate", "analysis", "rate_certificate"),
    ("experiments.cmd_generate", "experiments", "cmd_generate"),
    ("experiments.cmd_analyze", "experiments", "cmd_analyze"),
    ("experiments.cmd_replicate", "experiments", "cmd_replicate"),
    ("cli.main", "cli", "main"),
    ("io.save_dataset", "io", "save_dataset"),
    ("io.load_dataset", "io", "load_dataset"),
    ("io.save_json", "io", "save_json"),
)

# Spans that evaluate the update map once, and the spans that iterate it.
STEP_SPANS = frozenset({"dynamics.step"})
LOOP_SPANS = frozenset({"dynamics.run", "analysis.update_map_jacobian"})

# Per-step ratios: calls of the span per update-map evaluation, counted
# over the intervals between consecutive step starts inside one loop
# span, so a loop's one-off prologue (the initial log-likelihood of a
# run) is not spread over its steps.
PER_STEP = {
    "core.epass_per_step": "core.log_weighted_densities",
    "core.as_dataset_per_step": "core.as_dataset",
    "core.validate_per_step": "core.GmmParams.validate",
}

_EPASS = "sample_steps_per_s and wall_ms_per_step, on analyze-2d (N=2e5), then replicate-small"
_OVERHEAD = "wall_ms_per_step on replicate-small; little change expected on analyze-2d"
_GRAD = "sample_steps_per_s on analyze-2d and replicate-small"
_STEP = "wall_ms_per_step on replicate-small and on analyze-2d"
_RUN = "wall_ms_per_step on replicate-small"
_ANALYZE = "wall_ms_per_step on analyze-2d"
_IO = "wall_ms_per_step and peak_rss_mb on analyze-2d"

# (metric, unit, better, the end-to-end metric and workload it should move)
PER_LAYER = (
    ("core.log_weighted_densities.calls", "count", "lower", _EPASS),
    ("core.log_weighted_densities.self_s", "s", "lower", _EPASS),
    ("core.responsibilities.calls", "count", "lower", _EPASS),
    ("core.responsibilities.self_s", "s", "lower", _EPASS),
    ("core.log_likelihood.calls", "count", "lower", _EPASS),
    ("core.log_likelihood.self_s", "s", "lower", _EPASS),
    ("core.epass_per_step", "count/step", "lower", _EPASS),
    ("core.as_dataset.calls", "count", "lower", _OVERHEAD),
    ("core.as_dataset.self_s", "s", "lower", _OVERHEAD),
    ("core.GmmParams.validate.calls", "count", "lower", _OVERHEAD),
    ("core.GmmParams.validate.self_s", "s", "lower", _OVERHEAD),
    ("core.as_dataset_per_step", "count/step", "lower", _OVERHEAD),
    ("core.validate_per_step", "count/step", "lower", _OVERHEAD),
    ("core.sample.self_s", "s", "lower", _OVERHEAD),
    ("engine.grad_log_likelihood.calls", "count", "lower", _GRAD),
    ("engine.grad_log_likelihood.self_s", "s", "lower", _GRAD),
    ("dynamics.build_preconditioner.calls", "count", "lower", _STEP),
    ("dynamics.build_preconditioner.self_s", "s", "lower", _STEP),
    ("dynamics.Preconditioner.apply.calls", "count", "lower", _STEP),
    ("dynamics.Preconditioner.apply.self_s", "s", "lower", _STEP),
    ("dynamics.apply_projection.calls", "count", "lower", _STEP),
    ("dynamics.apply_projection.self_s", "s", "lower", _STEP),
    ("dynamics.step.calls", "count", "lower", _STEP),
    ("dynamics.step.self_s", "s", "lower", _STEP),
    ("dynamics.run.calls", "count", "lower", _RUN),
    ("dynamics.run.self_s", "s", "lower", _RUN),
    ("dynamics.run.iterations", "count", "lower", _RUN),
    ("dynamics.run.max_iters", "count", "lower", _RUN),
    ("dynamics.run.errors", "count", "lower", _RUN),
    ("experiments.cmd_replicate.self_s", "s", "lower", _RUN),
    ("analysis.update_map_jacobian.calls", "count", "lower", _ANALYZE),
    ("analysis.update_map_jacobian.self_s", "s", "lower", _ANALYZE),
    ("analysis.rate_certificate.self_s", "s", "lower", _ANALYZE),
    ("experiments.cmd_generate.self_s", "s", "lower", _ANALYZE),
    ("experiments.cmd_analyze.self_s", "s", "lower", _ANALYZE),
    ("cli.main.self_s", "s", "lower", _ANALYZE),
    ("io.save_dataset.self_s", "s", "lower", _IO),
    ("io.save_dataset.bytes", "B", "lower", _IO),
    ("io.load_dataset.self_s", "s", "lower", _IO),
    ("io.load_dataset.bytes", "B", "lower", _IO),
    ("io.save_json.calls", "count", "lower", _IO),
    ("io.save_json.bytes", "B", "lower", _IO),
    ("tracing_overhead_s", "s", "lower", "nothing: traced minus untraced median pass time"),
)


def _count_run(counters, args, kwargs, result, error):
    if error is not None:
        counters["dynamics.run.errors"] += 1
        return
    counters["dynamics.run.iterations"] += result.iterations
    counters["dynamics.run.max_iters"] += result.reason == "max_iters"


def _count_bytes(metric):
    def count(counters, args, kwargs, result, error):
        path = args[0] if args else kwargs.get("path")
        if error is None:
            counters[metric] += os.path.getsize(path)
    return count


COUNTERS = ("dynamics.run.iterations", "dynamics.run.max_iters", "dynamics.run.errors",
            "io.save_dataset.bytes", "io.load_dataset.bytes", "io.save_json.bytes")

HOOKS = {
    "dynamics.run": _count_run,
    "io.save_dataset": _count_bytes("io.save_dataset.bytes"),
    "io.load_dataset": _count_bytes("io.load_dataset.bytes"),
    "io.save_json": _count_bytes("io.save_json.bytes"),
}


class Tracer:
    """Wraps the ``TARGETS`` while installed and records their spans."""

    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list = []
        self.absent: list[str] = []

    def reset(self):
        self.spans = []
        self.counters = Counter()
        self._stack = []

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result, error = None, None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()
                if hook is not None:
                    hook(tracer.counters, args, kwargs, result, error)

        return traced

    def install(self):
        package = [m for n, m in list(sys.modules.items())
                   if n == "gemgmm" or n.startswith("gemgmm.")]
        present = set()
        for name, module, path in TARGETS:
            owner = sys.modules.get("gemgmm." + module)
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                continue
            present.add(name)
            wrapper = self._wrap(name, original)
            holders = [owner] if classes else package
            for holder in holders:
                keys = [k for k, v in vars(holder).items() if v is original]
                for key in keys:
                    setattr(holder, key, wrapper)
                    self._patches.append((holder, key, original))
        self.absent = sorted({name for name, _, _ in TARGETS} - present)

    def uninstall(self):
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)


def pass_metrics(spans, counters) -> dict:
    """Per-layer numbers for one traced pass."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: Counter = Counter()
    self_s: dict = defaultdict(float)
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - child[i]

    per_step = Counter()
    intervals = 0
    for d, (name, _, d_end, _) in enumerate(spans):
        if name not in LOOP_SPANS:
            continue
        stop = d + 1
        while stop < len(spans) and spans[stop][1] < d_end:
            stop += 1
        steps = [i for i in range(d + 1, stop) if spans[i][0] in STEP_SPANS]
        if len(steps) < 2:
            continue
        intervals += len(steps) - 1
        per_step.update(spans[i][0] for i in range(steps[0], steps[-1]))

    out = {}
    for name in {name for name, _, _ in TARGETS}:
        out[name + ".calls"] = calls[name]
        out[name + ".self_s"] = self_s[name]
    out.update({key: counters[key] for key in COUNTERS})
    if intervals:
        for metric, span in PER_STEP.items():
            out[metric] = per_step[span] / intervals
    return out


def layer_metrics(passes: list[dict], absent: list[str], overhead_s: float) -> dict:
    """Median over traced passes of every ``PER_LAYER`` metric.

    Metrics of absent targets are left out rather than reported as 0.
    """
    out = {}
    for metric, unit, _, _ in PER_LAYER:
        if metric == "tracing_overhead_s":
            out[metric] = {"value": overhead_s, "unit": unit}
            continue
        if any(metric.startswith(name + ".") for name in absent):
            continue
        if metric in PER_STEP and PER_STEP[metric] in absent:
            continue
        values = [p[metric] for p in passes if metric in p]
        if values:
            out[metric] = {"value": statistics.median(values), "unit": unit}
    return out


def write_spans(path, spans) -> None:
    with open(path, "w") as fh:
        fh.write("index,name,start_s,end_s,parent\n")
        for i, (name, start, end, parent) in enumerate(spans):
            fh.write(f"{i},{name},{start!r},{end!r},{parent}\n")
