"""Projected generalized EM steps and the iteration driver.

The paper's GEM step is the shifted-covariance EM increment.  Production
steps compute it in structured form from one set of responsibilities:

    d_w = counts / N - w   (centered, so the weights keep their sum),
    d_mean_j = beta_j * (new mean_j - mean_j),
    cov_j+ = responsibility-weighted second moment about mean_j,
             symmetrized,

with ``beta_j = 1`` for :func:`pb_gem_step` and the design's factors for
:func:`w_pb_gem_step`.  :func:`run` checks its data once, as a
:class:`~gemgmm.core.Dataset` that every step accepts without a second
scan, and makes one log-density pass per iteration: the pass that
scores the new iterate also yields the responsibilities that the next
step consumes.  The loop keeps only the current iterate, its
log-likelihood and its responsibilities; the flat vector is built only
when ``snapshot_stride`` asks for it (by default, never).

The same step written as a projected preconditioned gradient step,

    vec+ = vec + proj(P(vec) . grad(vec)),

where the block preconditioner P maps the raw gradient to the exact
shifted-covariance EM increment,

    flatten(shifted_em_step(p)) - flatten(p) = P(p) . grad(p),

is kept as :class:`Preconditioner`, :func:`build_preconditioner` and
:func:`apply_projection`.  These are identities checked by the tests;
they are not on the iteration path.  They and
:func:`~gemgmm.engine.grad_log_likelihood` stay in the package only
because the benchmark tracer (``perfbench/tracing.py``) names them.

:func:`_step_for` is the one place that turns an algorithm name (and a
design, for ``w_pb_gem``) or a custom map into its step; :func:`run` and
:func:`~gemgmm.analysis.update_map_jacobian` both go through it.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .core import Dataset, GmmParams, VectorLayout, _estep
from .engine import _e_inputs, _m_step, em_step, shifted_em_step, soft_counts
from .errors import NumericalError, StepFailure, ValidationError

ALGORITHMS = ("em", "shifted_em", "pb_gem", "w_pb_gem")


@dataclass(frozen=True, eq=False)
class Preconditioner:
    """Block-diagonal preconditioner evaluated at one parameter point.

    Blocks (with ``S_j`` the responsibility mass of component j):

    - weight block: ``(diag(w) - w w') / N`` -- symmetric PSD with zero
      row sums, so preconditioned weight increments already sum to 0;
    - mean block j: ``C_j / S_j`` -- symmetric PD;
    - covariance block j: ``2 (C_j (x) C_j) / S_j`` (Kronecker product)
      -- symmetric PD, applied structurally via
      ``(C (x) C) vec(V) = vec(C V C)`` so the m^2 x m^2 blocks are never
      materialized.
    """

    p_weights: np.ndarray
    covs: np.ndarray
    counts: np.ndarray
    layout: VectorLayout

    @property
    def p_means(self) -> np.ndarray:
        """(K, m, m) mean blocks ``C_j / S_j``."""
        return self.covs / self.counts[:, None, None]

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Matrix-vector product with the full preconditioner, block-wise."""
        w, mu, cv = self.layout.split(vec)
        out_w = self.p_weights @ w
        out_mu = np.einsum("kij,kj->ki", self.p_means, mu)
        out_cv = np.empty_like(cv)
        for j in range(self.layout.n_components):
            out_cv[j] = 2.0 * (self.covs[j] @ cv[j] @ self.covs[j]) / self.counts[j]
        return self.layout.join(out_w, out_mu, out_cv)


def build_preconditioner(params: GmmParams, data) -> Preconditioner:
    """Evaluate the preconditioner blocks at ``params``."""
    xt, rt = _e_inputs(params, data, None)
    counts = soft_counts(rt.T)
    n = xt.shape[1]
    w = params.weights
    p_weights = (np.diag(w) - np.outer(w, w)) / n
    return Preconditioner(p_weights, params.covs, counts, params.layout)


def apply_projection(vec: np.ndarray, layout: VectorLayout) -> np.ndarray:
    """Orthogonal projection onto feasible increment directions.

    Identity on mean and covariance blocks; the weight block is centered
    (``v - mean(v)``), i.e. projected onto the zero-sum subspace, so that
    updated weights keep their sum unchanged.
    """
    w, mu, cv = layout.split(vec)
    return layout.join(w - w.mean(), mu, cv)


@dataclass(frozen=True)
class MeanStepWeights:
    """Per-component scale factors for the mean increments: the mean
    increment of component j is multiplied by ``beta_j``, the weight and
    covariance increments are left as they are."""

    betas: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.betas, dtype=float)
        if b.ndim != 1 or b.size < 1 or not np.all(np.isfinite(b)) or np.any(b <= 0.0):
            raise ValidationError(f"betas must be a vector of positive reals, got {self.betas}")
        object.__setattr__(self, "betas", b)


def _gem_step(params: GmmParams, data, resp: np.ndarray | None,
              betas: np.ndarray | None) -> GmmParams:
    weights, means, covs = _m_step(params, *_e_inputs(params, data, resp), shifted=True)
    d_w = weights - params.weights
    d_w -= d_w.mean()
    d_mu = means - params.means
    if betas is not None:
        d_mu *= betas[:, None]
    # Full validation: weight positivity and covariance definiteness are
    # checked, not repaired.
    return GmmParams(params.weights + d_w, params.means + d_mu, covs)


def pb_gem_step(params: GmmParams, data,
                resp: np.ndarray | None = None) -> GmmParams:
    """One projected preconditioned gradient-ascent step.

    Coincides with :func:`engine.shifted_em_step` up to roundoff: the
    preconditioned gradient already equals the EM increment, whose weight
    block is zero-sum, so the projection (centering the weight increment)
    only removes roundoff drift.  ``data`` and ``resp`` work as in
    :func:`engine.em_step`.
    """
    return _gem_step(params, data, resp, betas=None)


def w_pb_gem_step(params: GmmParams, data, design: MeanStepWeights,
                  resp: np.ndarray | None = None) -> GmmParams:
    """Weighted variant: mean increments scale by ``design.betas``.

    With all betas equal to 1 this reproduces :func:`pb_gem_step`
    bit-exactly.  ``resp`` works as in :func:`pb_gem_step`.
    """
    if design.betas.size != params.n_components:
        raise ValidationError(
            f"need one beta per component ({params.n_components}), got {design.betas.size}")
    return _gem_step(params, data, resp, betas=design.betas)


def _step_for(algorithm: str | Callable[..., GmmParams],
              design: MeanStepWeights | None) -> Callable[..., GmmParams]:
    """The step that ``algorithm`` names, as ``(params, data, resp=None)
    -> GmmParams``.

    ``algorithm`` is a name in :data:`ALGORITHMS` or a custom map
    ``(params, samples) -> GmmParams``, which gets the samples as an
    (N, m) array.  The only place that checks the name and that a design
    is given exactly when the algorithm is ``w_pb_gem``.  Steps are
    looked up in this module when this is called, so a step rebound here
    (by a tracer, say) is the one that runs.
    """
    if callable(algorithm):
        if design is not None:
            raise ValidationError("a custom update map takes no design")
        return lambda p, d, resp=None: algorithm(p, d.x)
    if algorithm not in ALGORITHMS:
        raise ValidationError(f"unknown algorithm {algorithm!r}, expected one of {ALGORITHMS}")
    if algorithm == "w_pb_gem":
        if design is None:
            raise ValidationError("w_pb_gem requires a MeanStepWeights design")
        return lambda p, d, resp=None: w_pb_gem_step(p, d, design, resp=resp)
    if design is not None:
        raise ValidationError(f"algorithm {algorithm!r} takes no design")
    return {"em": em_step, "shifted_em": shifted_em_step, "pb_gem": pb_gem_step}[algorithm]


@dataclass(frozen=True)
class TraceRecord:
    """One iteration of a run (iteration 0 is the starting point).

    ``step_norm`` is the length of the change from the previous iterate
    in the flat layout; ``snapshot`` is the flat iterate or None.
    """

    iteration: int
    loglik: float
    step_norm: float
    snapshot: np.ndarray | None = None


@dataclass
class RunTrace:
    """Full record of one optimization run."""

    records: list[TraceRecord]
    reason: str                  # "tolerance" | "max_iters" | "error" (partial)
    final_params: GmmParams
    algorithm: str | Callable[..., GmmParams]
    wall_time: float = 0.0

    @property
    def iterations(self) -> int:
        return self.records[-1].iteration

    @property
    def logliks(self) -> np.ndarray:
        return np.array([r.loglik for r in self.records])


def _step_norm(new: GmmParams, cur: GmmParams) -> float:
    """Euclidean norm of ``new - cur`` in the flat layout, block by block."""
    sq = 0.0
    for a, b in ((new.weights, cur.weights), (new.means, cur.means), (new.covs, cur.covs)):
        d = (a - b).ravel()
        sq += float(d @ d)
    return math.sqrt(sq)


def run(params: GmmParams, data: np.ndarray, algorithm: str | Callable[..., GmmParams], *,
        design: MeanStepWeights | None = None, rel_ll_tol: float = 1e-10,
        max_iters: int = 10_000, snapshot_stride: int | None = None) -> RunTrace:
    """Iterate one of the update maps until the relative change of the
    log-likelihood drops below ``rel_ll_tol`` or ``max_iters`` is hit.

    Records of iterations that are multiples of ``snapshot_stride``
    (iteration 0 included) carry the flat iterate; with the default None
    no record does.  A :class:`~gemgmm.errors.NumericalError` in a step
    is raised as :class:`StepFailure`, carrying the partial trace and the
    failing iteration index.
    """
    step_fn = _step_for(algorithm, design)
    if not rel_ll_tol > 0.0:
        raise ValidationError(f"rel_ll_tol must be positive, got {rel_ll_tol}")
    if max_iters < 1:
        raise ValidationError(f"max_iters must be at least 1, got {max_iters}")
    if snapshot_stride is not None and snapshot_stride < 1:
        raise ValidationError(f"snapshot_stride must be at least 1, got {snapshot_stride}")

    samples = Dataset(data, params.n_features)
    t0 = time.perf_counter()
    cur = params
    # One log-density pass per iterate: it scores the iterate and gives
    # the responsibilities that the next step starts from.
    loglik, rt = _estep(cur, samples.xt)
    records = [TraceRecord(0, loglik, 0.0, cur.to_vector() if snapshot_stride else None)]
    reason = "max_iters"
    for k in range(1, max_iters + 1):
        try:
            new = step_fn(cur, samples, resp=rt.T)
            new_loglik, rt = _estep(new, samples.xt)
        except NumericalError as err:
            partial = RunTrace(records, "error", cur, algorithm, time.perf_counter() - t0)
            raise StepFailure(k, partial, err) from err
        snap = new.to_vector() if snapshot_stride and k % snapshot_stride == 0 else None
        records.append(TraceRecord(k, new_loglik, _step_norm(new, cur), snap))
        # Relative stopping rule; fall back to absolute change at L = 0.
        scale = abs(loglik) if loglik != 0.0 else 1.0
        converged = abs(new_loglik - loglik) < rel_ll_tol * scale
        cur, loglik = new, new_loglik
        if converged:
            reason = "tolerance"
            break
    return RunTrace(records, reason, cur, algorithm, time.perf_counter() - t0)
