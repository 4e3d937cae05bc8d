"""gemgmm benchmark: one workload, timed end to end or traced by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads are defined in ``workloads.py``.  The run builds the inputs
from ``--seed``, repeats passes of the workload until ``--seconds`` of
pass time have been measured, checks every operation's output outside
the timed region, and prints its metrics; the last line of standard
output is one JSON object.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics of ``tracing.PER_LAYER``.  ``--smoke``
shrinks every workload so that all of it, checks included, runs in
seconds.

The package is imported from ``src/`` of the checkout, in one process,
with BLAS pinned to one thread.  Scratch files go to ``.perfbench_work/``
and are removed; the result, its provenance and (traced) the spans of
the last traced pass are written to ``.perfbench_out/``.  The exit code
is 0 when every check passed, 1 when one failed, 2 when the package
sources are missing.
"""

import os

# Pinned before numpy is imported anywhere in the process.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import ctypes
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 9

# (metric, unit); the gated set, printed in the final JSON line.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_ms_per_step", "ms"),
    ("sample_steps_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("replicate-small", "analyze-2d"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    return ap.parse_args(argv)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def provenance(seed: int, np) -> dict:
    sources = hashlib.sha256()
    for path in sorted((SRC / "gemgmm").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": BLAS_THREADS,
        "git_sha": _git_sha(),
        "src_sha256": sources.hexdigest(),
        "seed": seed,
    }


def _median(values):
    return statistics.median(values) if values else None


def _time_setup(workload, seed: int, setup_dir: Path) -> list[float]:
    """Set-up, repeated: a fresh interpreter importing the package, then
    building the workload's inputs in this process.

    The child reports when its import finished on the system-wide
    monotonic clock: a wait with a timeout polls at up to 50 ms
    intervals, which would round the measured time to that step.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import gemgmm, time; print(repr(time.monotonic()))"
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        child = subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120,
                               capture_output=True, text=True)
        imported = float(child.stdout) - t0
        t1 = time.monotonic()
        workload.setup(seed, setup_dir)
        times.append(imported + time.monotonic() - t1)
    return times


def end_to_end(passes, setup_times, n_samples) -> tuple[dict, list[str]]:
    """Gated metrics plus the human-readable report lines."""
    timed = [p for p in passes if not p["traced"]]
    ops = [op for p in timed for op in p["ops"]]
    per_step, rates = [], []
    for p in timed:
        steps = sum(op.steps for op in p["ops"])
        busy = sum(op.seconds for op in p["ops"] if op.steps and op.seconds is not None)
        if steps:
            per_step.append(1e3 * p["seconds"] / steps)
            rates.append(n_samples * steps / busy)
    values = {
        "setup_s": _median(setup_times),
        "wall_ms_per_step": _median(per_step),
        "sample_steps_per_s": _median(rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END if values[name] is not None}
    op_times = [op.seconds for op in ops if op.seconds is not None]
    failed = sum(op.failure is not None for op in ops)
    runs = [op for op in ops if op.name in ("em", "pb_gem", "w_pb_gem")]
    rows = [
        ("setup_s", values["setup_s"], "s", f"median of {len(setup_times)} set-ups"),
        ("wall_ms_per_step", values["wall_ms_per_step"], "ms",
         f"median of {len(per_step)} passes: pass time / update-map evaluations"),
        ("sample_steps_per_s", values["sample_steps_per_s"], "1/s",
         f"median of {len(rates)} passes: N x evaluations / time in the operations"),
        ("peak_rss_mb", values["peak_rss_mb"], "MB", "peak resident set of this process"),
        ("wall_s", _median([p["seconds"] for p in timed]), "s",
         f"median of {len(timed)} passes; not gated, on replicate-small it follows the seed"),
        ("op_s_p50", _median(op_times), "s",
         f"median of {len(op_times)} operations; not gated, as wall_s"),
        ("failed_frac", failed / len(ops) if ops else None, "1",
         f"{failed} of {len(ops)} operations failed"),
    ]
    if runs:
        at_max = sum(op.at_max_iters for op in runs)
        rows.append(("runs_at_max_iters", at_max, "count", f"of {len(runs)} run calls"))
    lines = [f"{name:<20} {'-' if v is None else f'{v:.6g}':>12} {unit:<6} {note}"
             for name, v, unit, note in rows]
    return metrics, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gemgmm" / "__init__.py").is_file():
        print(f"error: gemgmm sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import gemgmm
    if Path(gemgmm.__file__).resolve().parent != (SRC / "gemgmm").resolve():
        print(f"error: imported gemgmm from {gemgmm.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    WORK.mkdir(exist_ok=True)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload = workloads.WORKLOADS[args.workload](smoke=args.smoke)
        (work / "setup").mkdir()
        setup_times = _time_setup(workload, args.seed, work / "setup")
        if not args.smoke:
            # Warm-up at smoke size: first calls and lazy imports finish
            # before timing.  Its outputs are not measured.
            warm = workloads.WORKLOADS[args.workload](smoke=True)
            (work / "warm").mkdir()
            warm.setup(args.seed, work / "warm")
            warm.execute(work / "warm")

        tracer = tracing.Tracer() if args.trace else None
        passes, layer_passes, last_spans = [], [], []
        measured = 0.0
        while measured < args.seconds or (args.trace and len(passes) < 2):
            traced = bool(args.trace) and len(passes) % 2 == 1
            outdir = work / f"pass-{len(passes)}"
            outdir.mkdir()
            if traced:
                tracer.reset()
                tracer.install()
            t0 = time.perf_counter()
            try:
                raw = workload.execute(outdir)
            finally:
                seconds = time.perf_counter() - t0
                if traced:
                    tracer.uninstall()
            passes.append({"traced": traced, "seconds": seconds, "ops": workload.check(raw, outdir)})
            shutil.rmtree(outdir)
            if traced:
                last_spans = tracer.spans
                layer_passes.append(tracing.pass_metrics(tracer.spans, tracer.counters))
            measured += seconds

        ops = [op for p in passes for op in p["ops"]]
        failures = [f"{op.name}: {op.failure}" for op in ops if op.failure is not None]
        if args.trace:
            overhead = (statistics.median(p["seconds"] for p in passes if p["traced"])
                        - statistics.median(p["seconds"] for p in passes if not p["traced"]))
            metrics = tracing.layer_metrics(layer_passes, tracer.absent, overhead)
            lines = [f"{name:<42} {metrics[name]['value']:>14.6g} {unit:<10} -> {moves}"
                     for name, unit, _, moves in tracing.PER_LAYER if name in metrics]
            if tracer.absent:
                lines.append(f"absent (target no longer exists): {', '.join(tracer.absent)}")
        else:
            metrics, lines = end_to_end(passes, setup_times, workload.n)

        prov = provenance(args.seed, np)
        result = {"correct": not failures, "attempted": len(ops), "failed": len(failures),
                  "metrics": metrics}
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        with open(OUT / f"{stem}.json", "w") as fh:
            json.dump({"provenance": prov, "passes": len(passes), "report": lines,
                       "failures": failures[:50], **result}, fh, indent=2)
        if args.trace:
            tracing.write_spans(OUT / f"{stem}-spans.csv", last_spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} smoke={args.smoke} passes={len(passes)}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for line in lines:
        print(line)
    for failure in failures[:10]:
        print("FAILED " + failure)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
