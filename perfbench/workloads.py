"""The benchmark workloads: inputs, the timed pass, and the output checks.

Each workload builds its inputs from the workload seed in ``setup`` and
runs one pass through public gemgmm entry points in ``execute``, the
timed part.  ``check`` runs afterwards, outside the timed region, and
turns the pass's outputs into one ``Op`` per operation (a ``run`` call
or a CLI command).  Entry points are looked up on their module at call
time so that the traced run sees the benchmark's own calls.

Why each workload exists:

- replicate-small: the paper's headline study at N=1000.  Per-call
  overhead (dataset scans, parameter validation, vector round trips)
  dominates; the E-pass is about a third of the time.  About a quarter
  of the fits end at max_iters, so stopping-rule changes show here.
- analyze-2d: the CLI in-process.  ``generate`` writes N=2e5 samples to
  CSV, then ``analyze`` (pb-gem and w-pb-gem) evaluates the update map
  at perturbed points with no ``run`` loop.  The only workload where the
  io layer has weight.

A third workload, fit-large (``run`` with em then pb_gem at N=1e5, K=8,
m=16, E-pass bound), was dropped: its per-run timings moved with the
load of the shared host by up to 27% of the median between runs of the
same code, more than the bound of a gated metric allows.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import time
from dataclasses import dataclass
from io import StringIO
from pathlib import Path

import numpy as np

from gemgmm import cli, core, experiments, io

# The paper's model: weights 1/2, means +-(1, 1), identity covariances.
PAPER_TRUTH = {
    "K": 2, "m": 2, "alpha": [0.5, 0.5], "mu": [[1.0, 1.0], [-1.0, -1.0]],
    "sigma": [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]],
}

# The log-likelihood may fall between iterations by at most this share
# of its magnitude (the ascent property up to roundoff).
ASCENT_SLACK = 1e-10
# A run's final log-likelihood must equal core.log_likelihood of its final
# parameters to this relative precision.  They are bit-equal today; the
# slack admits a change of summation order, not a different value.
LOGLIK_REL_TOL = 1e-12


@dataclass
class Op:
    """One operation of a pass and the verdict of its output check."""

    name: str
    seconds: float | None      # None when the operation raised
    steps: int                 # update-map evaluations it made
    failure: str | None = None
    at_max_iters: bool = False


def derived_seeds(seed: int, count: int) -> list[int]:
    """Independent non-negative int32 seeds drawn from the workload seed."""
    state = np.random.SeedSequence(seed).generate_state(count)
    return [int(s) % 2**31 for s in state]


def trace_failure(trace, data, memo: dict) -> str | None:
    """Check one ``RunTrace``; None when it passes.

    ``memo`` caches the recomputed log-likelihood of identical final
    parameters, which repeated passes over the same inputs produce.
    """
    ll = trace.logliks
    if not np.all(np.isfinite(ll)):
        return f"{trace.algorithm}: non-finite log-likelihood in trace"
    drops = np.flatnonzero(ll[:-1] - ll[1:] > ASCENT_SLACK * np.abs(ll[:-1]))
    if drops.size:
        i = int(drops[0])
        return f"{trace.algorithm}: log-likelihood fell at iteration {i + 1}: {ll[i]!r} -> {ll[i + 1]!r}"
    p = trace.final_params
    alpha_res = abs(float(p.weights.sum()) - 1.0)
    sym_res = float(np.max(np.abs(p.covs - p.covs.transpose(0, 2, 1))))
    if alpha_res > core.WEIGHT_SUM_TOL:
        return f"{trace.algorithm}: final weights sum off 1 by {alpha_res:.3e}"
    if sym_res > core.SYMMETRY_TOL:
        return f"{trace.algorithm}: final covariance asymmetric by {sym_res:.3e}"
    key = (p.to_vector().tobytes(), id(data))
    if key not in memo:
        memo[key] = core.log_likelihood(p, data)
    ref = memo[key]
    if abs(ref - ll[-1]) > LOGLIK_REL_TOL * abs(ref):
        return f"{trace.algorithm}: final log-likelihood {ll[-1]!r} != recomputed {ref!r}"
    return None


class _Digests:
    """Remembers the first pass's file digests; later passes must match."""

    def __init__(self):
        self.first: dict[str, str] = {}

    def mismatch(self, key: str, path: Path) -> str | None:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if self.first.setdefault(key, digest) != digest:
            return f"{key} differs from the first pass"
        return None


class ReplicateSmall:
    name = "replicate-small"

    def __init__(self, smoke: bool):
        self.n = 300 if smoke else 1000
        self.instances = 2 if smoke else 4
        self.max_iters = 60 if smoke else 1500

    def setup(self, seed: int, workdir: Path) -> None:
        self.truth = io.params_from_dict(PAPER_TRUTH)
        self.config = experiments.ExperimentConfig.from_mapping({
            "true_model": PAPER_TRUTH, "n_samples": self.n,
            "init": {"kind": "orthogonal-line", "distance": 3.0 * math.sqrt(2.0)},
            "beta": [0.996, 0.996], "tol": 1e-10, "max_iters": self.max_iters,
            "seed": derived_seeds(seed, 1)[0], "instances": self.instances,
        })
        self._data = None
        self._memo: dict = {}
        self._digests = _Digests()

    def execute(self, outdir: Path):
        self.config.out = str(outdir)
        try:
            return experiments.cmd_replicate(self.config)
        except Exception as exc:
            return exc

    def check(self, raw, outdir: Path) -> list[Op]:
        algorithms = ("pb_gem", "w_pb_gem")
        if isinstance(raw, Exception):
            return [Op(a, None, 0, f"cmd_replicate raised {raw!r}")
                    for a in algorithms for _ in range(self.instances)]
        cfg = self.config
        if self._data is None:
            self._data = [core.sample(self.truth, cfg.n_samples, cfg.seed + i * cfg.seed_stride)
                          for i in range(self.instances)]
        summary = raw["summary"]
        failed = {(f["instance"], f["algorithm"]): f["error"] for f in summary["failures"]}
        ops = []
        for algorithm in algorithms:
            traces = iter(raw["traces"][algorithm])
            for i in range(self.instances):
                if (i, algorithm) in failed:
                    ops.append(Op(algorithm, None, 0, f"instance {i}: {failed[i, algorithm]}"))
                    continue
                trace = next(traces)
                ops.append(Op(algorithm, trace.wall_time, trace.iterations,
                              trace_failure(trace, self._data[i], self._memo),
                              trace.reason == "max_iters"))
        problem = self._files_problem(raw, outdir)
        for op in ops:
            op.failure = op.failure or problem
        return ops

    def _files_problem(self, raw, outdir: Path) -> str | None:
        summary = raw["summary"]
        if summary["instances"] != self.instances or summary["failure_count"] != len(summary["failures"]):
            return "replicate_summary.json counts disagree with the run"
        rows = max((tr.logliks.size for lst in raw["traces"].values() for tr in lst), default=0)
        csv = outdir / "replicate.csv"
        if csv.read_text().count("\n") != 3 + rows:
            return f"replicate.csv does not hold 3 header lines and {rows} rows"
        return (self._digests.mismatch("replicate.csv", csv)
                or self._digests.mismatch("replicate_summary.json", outdir / "replicate_summary.json"))


class Analyze2D:
    name = "analyze-2d"
    algorithms = ("pb-gem", "w-pb-gem")

    def __init__(self, smoke: bool):
        self.n = 2000 if smoke else 200_000
        # Central differences evaluate the update map twice per probe
        # direction, one direction per coordinate of the flat layout.
        self.steps_per_analyze = 2 * core.VectorLayout(2, 2).size

    def setup(self, seed: int, workdir: Path) -> None:
        data_seed, sector_seed = derived_seeds(seed, 2)
        rng = np.random.default_rng(sector_seed)
        self.sector = {"m_lo": round(float(rng.uniform(0.3, 0.9)), 3),
                       "L_hi": round(float(rng.uniform(1.05, 1.6)), 3)}
        self.seed = data_seed
        self.config_path = workdir / "analyze-2d.json"
        io.save_json(self.config_path, {"true_model": PAPER_TRUTH, "n_samples": self.n,
                                        "sector": self.sector})
        self._digests = _Digests()

    def _commands(self, outdir: Path):
        common = ["--config", str(self.config_path)]
        yield "generate", ["generate", *common, "--seed", str(self.seed), "--out", str(outdir)]
        for algo in self.algorithms:
            yield algo, ["analyze", str(outdir / "truth.json"), *common,
                         "--dataset", str(outdir / "dataset.csv"), "--algo", algo,
                         "--out", str(outdir / algo)]

    def execute(self, outdir: Path):
        results = []
        log = StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            for name, argv in self._commands(outdir):
                t0 = time.perf_counter()
                try:
                    code = cli.main(argv)
                except Exception as exc:
                    code = exc
                results.append((name, time.perf_counter() - t0, code))
        return results, log.getvalue()

    def check(self, raw, outdir: Path) -> list[Op]:
        results, log = raw
        ops = []
        for name, seconds, code in results:
            if code != 0:
                ops.append(Op(name, None, 0, f"{name} exited {code!r}: {log.strip()[-300:]}"))
                continue
            if name == "generate":
                ops.append(Op(name, seconds, 0, self._generate_problem(outdir)))
            else:
                ops.append(Op(name, seconds, self.steps_per_analyze,
                              self._analysis_problem(name, outdir / name / "analysis.json")))
        return ops

    def _generate_problem(self, outdir: Path) -> str | None:
        dataset = outdir / "dataset.csv"
        lines = dataset.read_bytes().count(b"\n")
        if lines != self.n:
            return f"dataset.csv has {lines} rows, expected {self.n}"
        return (self._digests.mismatch("dataset.csv", dataset)
                or self._digests.mismatch("truth.json", outdir / "truth.json"))

    def _analysis_problem(self, algo: str, path: Path) -> str | None:
        report = json.loads(path.read_text())
        if set(report) != {"rate", "jacobian"}:
            return f"{algo}: analysis.json holds {sorted(report)}, expected rate and jacobian"
        rate = report["rate"]
        m_lo, l_hi = self.sector["m_lo"], self.sector["L_hi"]
        if (rate["m_lo"], rate["L_hi"]) != (m_lo, l_hi):
            return f"{algo}: sector echoed as ({rate['m_lo']}, {rate['L_hi']})"
        closed_form = max(abs(1.0 - m_lo), abs(1.0 - l_hi))
        if rate["rate_bound"] != closed_form:
            return f"{algo}: rate_bound {rate['rate_bound']!r} != closed form {closed_form!r}"
        cert = rate["certificate"]
        if not cert["feasible"] or abs(cert["mu_bound"] - closed_form) > 2 * rate["grid_resolution"]:
            return f"{algo}: LMI certificate {cert} disagrees with the closed form {closed_form!r}"
        jac = report["jacobian"]
        moduli = np.asarray(jac["moduli"], dtype=float)
        if jac["algorithm"] != algo.replace("-", "_"):
            return f"{algo}: jacobian computed for {jac['algorithm']}"
        if moduli.shape != (self.steps_per_analyze // 2,) or not np.all(np.isfinite(moduli)):
            return f"{algo}: jacobian moduli malformed: {jac['moduli']}"
        if np.any(np.diff(moduli) > 0.0) or jac["max_modulus"] != moduli[0]:
            return f"{algo}: jacobian moduli not sorted with max_modulus first"
        if jac["classification"] not in ("newton_like", "first_order", "mixed"):
            return f"{algo}: unknown classification {jac['classification']!r}"
        return self._digests.mismatch(f"{algo}/analysis.json", path)


WORKLOADS = {w.name: w for w in (ReplicateSmall, Analyze2D)}
