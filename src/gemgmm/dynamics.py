"""Projected generalized EM steps and the iteration driver.

The paper's GEM step is the shifted-covariance EM increment.  Every
step is a K-sized map ``(params, moments) -> GmmParams`` of the
parameters and the E-step's sums (:class:`~gemgmm.core.Moments`, from
:func:`~gemgmm.core.e_step`), computed in structured form through the
one M-step (:func:`~gemgmm.engine._m_step`):

    d_w = counts / N - w   (centered, so the weights keep their sum),
    d_mean_j = beta_j * (new mean_j - mean_j),
    cov_j+ = responsibility-weighted second moment about mean_j,
             symmetrized,

with ``beta_j = 1`` for :func:`pb_gem_step` and the design's factors for
:func:`w_pb_gem_step`.  No step reads samples: :func:`run` checks its
data once, makes one E-pass per iterate, which scores it and gives the
next step its moments, and keeps only the current iterate, its
log-likelihood and its moments, recording one :class:`TraceRecord`
(one ``trace.csv`` row) per iteration.

The same step written as a projected preconditioned gradient step,

    vec+ = vec + proj(P(vec) . grad(vec)),

where the block preconditioner P maps the raw gradient to the exact
shifted-covariance EM increment,

    flatten(pb_gem_step(p, mo)) - flatten(p) = P(p, mo) . grad(p, mo)   (up to roundoff),

is kept as :class:`Preconditioner`, :func:`build_preconditioner` and
:func:`apply_projection` (proj).  These are identities checked by the
tests, not the iteration path; :func:`apply_projection` is also the
projection that :func:`~gemgmm.analysis.update_map_jacobian` probes
along.  The preconditioner and :func:`~gemgmm.engine.grad_log_likelihood`
stay in the package only because the benchmark tracer
(``perfbench/tracing.py``) names them.

:func:`_step_for` is the one place that turns an algorithm name (and a
design, for ``w_pb_gem``) into its step; :func:`run` and
:func:`~gemgmm.analysis.update_map_jacobian` both go through it.  The
Jacobian feeds the step the moments of one tangent pass
(:func:`~gemgmm.core._epass_tangent`) moved along their exact
derivative, so it differentiates the same K-sized step that :func:`run`
iterates without a pass over the samples per probe.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .core import GmmParams, Moments, VectorLayout, _epass, _feature_major
from .engine import _checked_counts, _m_step, em_step
from .errors import NumericalError, StepFailure, ValidationError

ALGORITHMS = ("em", "pb_gem", "w_pb_gem")


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


def build_preconditioner(params: GmmParams, moments: Moments) -> Preconditioner:
    """Evaluate the preconditioner blocks at ``params`` from its moments."""
    w = params.weights
    p_weights = (np.diag(w) - np.outer(w, w)) / moments.n
    return Preconditioner(p_weights, params.covs, _checked_counts(moments), params.layout)


def apply_projection(vec: np.ndarray, layout: VectorLayout) -> np.ndarray:
    """Orthogonal projection onto the tangent space of the constraint set.

    The weight block is centered (``v - mean(v)``), onto the zero-sum
    subspace, so updated weights keep their sum; each covariance block
    ``V`` maps to ``0.5 * (V + V')``, onto the symmetric matrices; mean
    blocks are unconstrained and pass unchanged.
    """
    w, mu, cv = layout.split(vec)
    return layout.join(w - w.mean(), mu, 0.5 * (cv + cv.transpose(0, 2, 1)))


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

    def check(self, n_components: int) -> None:
        """Raise unless there is one beta per component."""
        if self.betas.size != n_components:
            raise ValidationError(
                f"need one beta per component ({n_components}), got {self.betas.size}")


def _gem_step(params: GmmParams, moments: Moments, betas: np.ndarray | None) -> GmmParams:
    weights, means, covs = _m_step(moments)
    d_w = weights - params.weights
    d_w -= d_w.sum() / d_w.size  # mean()'s own arithmetic, without its overhead
    d_mu = means - params.means
    if betas is not None:
        d_mu *= betas[:, None]
    # Full validation: weight positivity and covariance definiteness are
    # checked, not repaired.
    return GmmParams(params.weights + d_w, params.means + d_mu, covs)


def pb_gem_step(params: GmmParams, moments: Moments) -> GmmParams:
    """One projected preconditioned gradient-ascent step.

    Coincides with the shifted-covariance EM step up to roundoff: the
    preconditioned gradient already equals the EM increment, whose weight
    block is zero-sum, so the projection (centering the weight increment)
    only removes roundoff drift.
    """
    return _gem_step(params, moments, betas=None)


def w_pb_gem_step(params: GmmParams, moments: Moments, design: MeanStepWeights) -> GmmParams:
    """Weighted variant: mean increments scale by ``design.betas``.

    With all betas equal to 1 this reproduces :func:`pb_gem_step`
    bit-exactly.
    """
    design.check(params.n_components)
    return _gem_step(params, moments, betas=design.betas)


def _step_for(algorithm: str, design: MeanStepWeights | None, n_components: int):
    """The step that the name ``algorithm`` (one of :data:`ALGORITHMS`)
    stands for, as ``(params, moments) -> GmmParams``.

    The only place that checks the name and that a design is given
    exactly when the algorithm is ``w_pb_gem``; it also checks the design
    against the start point's ``n_components``, before any step.  Steps
    are looked up in this module when this is called, so a step rebound
    here (by a tracer or a test, say) is the one that runs.
    """
    if algorithm not in ALGORITHMS:
        raise ValidationError(f"unknown algorithm {algorithm!r}, expected one of {ALGORITHMS}")
    if algorithm == "w_pb_gem":
        if design is None:
            raise ValidationError("w_pb_gem requires a MeanStepWeights design")
        design.check(n_components)
        return lambda p, moments: w_pb_gem_step(p, moments, design)
    if design is not None:
        raise ValidationError(f"algorithm {algorithm!r} takes no design; "
                              "beta applies only to w_pb_gem")
    return {"em": em_step, "pb_gem": pb_gem_step}[algorithm]


@dataclass(frozen=True)
class TraceRecord:
    """One iteration of a run (iteration 0 is the starting point).

    ``step_norm`` is the length of the change from the previous iterate
    in the flat layout.
    """

    iteration: int
    loglik: float
    step_norm: float


@dataclass
class RunTrace:
    """Full record of one optimization run."""

    records: list[TraceRecord]
    reason: str                  # "tolerance" | "max_iters" | "error" (partial)
    final_params: GmmParams
    algorithm: str
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
        d = a - b
        sq += np.vdot(d, d)
    return math.sqrt(sq)


def run(params: GmmParams, data: np.ndarray, algorithm: str, *,
        design: MeanStepWeights | None = None, rel_ll_tol: float = 1e-10,
        max_iters: int = 10_000) -> RunTrace:
    """Iterate one of the update maps until the relative change of the
    log-likelihood drops below ``rel_ll_tol`` or ``max_iters`` is hit.

    A :class:`~gemgmm.errors.NumericalError` in a step is raised as
    :class:`StepFailure`, carrying the partial trace and the failing
    iteration index.
    """
    step_fn = _step_for(algorithm, design, params.n_components)
    if not rel_ll_tol > 0.0:
        raise ValidationError(f"rel_ll_tol must be positive, got {rel_ll_tol}")
    if max_iters < 1:
        raise ValidationError(f"max_iters must be at least 1, got {max_iters}")

    xt = _feature_major(data, params.n_features)
    t0 = time.perf_counter()
    cur = params
    # One E-pass per iterate: it scores the iterate and gives the
    # moments that the next step starts from.
    loglik, moments = _epass(cur, xt)
    records = [TraceRecord(0, loglik, 0.0)]
    reason = "max_iters"
    for k in range(1, max_iters + 1):
        try:
            new = step_fn(cur, moments)
            new_loglik, moments = _epass(new, xt)
        except NumericalError as err:
            partial = RunTrace(records, "error", cur, algorithm, time.perf_counter() - t0)
            raise StepFailure(k, partial, err) from err
        records.append(TraceRecord(k, new_loglik, _step_norm(new, cur)))
        # Relative stopping rule; fall back to absolute change at L = 0.
        scale = abs(loglik) if loglik != 0.0 else 1.0
        converged = abs(new_loglik - loglik) < rel_ll_tol * scale
        cur, loglik = new, new_loglik
        if converged:
            reason = "tolerance"
            break
    return RunTrace(records, reason, cur, algorithm, time.perf_counter() - t0)
