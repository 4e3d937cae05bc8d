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
step consumes.

The same step written as a projected preconditioned gradient step,

    vec+ = vec + proj(P(vec) . grad(vec)),

where the block preconditioner P maps the raw gradient to the exact
shifted-covariance EM increment,

    flatten(shifted_em_step(p)) - flatten(p) = P(p) . grad(p),

is kept as :class:`Preconditioner`, :func:`build_preconditioner` and
:func:`apply_projection`.  These are identities checked by the tests and
used by analysis code; they are not on the iteration path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import Dataset, GmmParams, VectorLayout, _estep
from .engine import _e_inputs, _m_step, em_step, shifted_em_step, soft_counts
from .errors import (
    DegenerateComponentError,
    InvalidCovarianceError,
    NumericUnderflowError,
    SimplexViolationError,
    StepFailure,
    ValidationError,
)

ALGORITHMS = ("em", "shifted_em", "pb_gem", "w_pb_gem")

# Traces keep a parameter snapshot every iteration while the parameter
# count stays small, every 10th beyond that.
SNAPSHOT_STRIDE_CUTOFF = 10_000


@dataclass(frozen=True, eq=False)
class Preconditioner:
    """Block-diagonal preconditioner evaluated at one parameter point.

    Blocks (with ``S_j`` the responsibility mass of component j):

    - weight block: ``(diag(w) - w w') / N`` -- symmetric PSD with zero
      row sums, so preconditioned weight increments already sum to 0;
    - mean block j: ``C_j / S_j`` -- symmetric PD;
    - covariance block j: ``2 (C_j (x) C_j) / S_j`` (Kronecker product)
      -- symmetric PD, applied structurally via
      ``(C (x) C) vec(V) = vec(C V C)`` so the m^2 x m^2 blocks are only
      materialized on demand for analysis.
    """

    p_weights: np.ndarray
    covs: np.ndarray
    counts: np.ndarray
    layout: VectorLayout

    @property
    def p_means(self) -> np.ndarray:
        """(K, m, m) mean blocks ``C_j / S_j``."""
        return self.covs / self.counts[:, None, None]

    def p_cov(self, j: int) -> np.ndarray:
        """Dense m^2 x m^2 covariance block for component ``j``."""
        return 2.0 * np.kron(self.covs[j], self.covs[j]) / self.counts[j]

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Matrix-vector product with the full preconditioner, block-wise."""
        w, mu, cv = self.layout.split(vec)
        out_w = self.p_weights @ w
        out_mu = np.einsum("kij,kj->ki", self.p_means, mu)
        out_cv = np.empty_like(cv)
        for j in range(self.layout.n_components):
            out_cv[j] = 2.0 * (self.covs[j] @ cv[j] @ self.covs[j]) / self.counts[j]
        return self.layout.join(out_w, out_mu, out_cv)

    @cached_property
    def assembled(self) -> np.ndarray:
        """Full dense matrix; only needed by analysis code."""
        lay = self.layout
        full = np.zeros((lay.size, lay.size))
        full[lay.weight_block, lay.weight_block] = self.p_weights
        for j in range(lay.n_components):
            s = lay.mean_slice(j)
            full[s, s] = self.p_means[j]
            s = lay.cov_slice(j)
            full[s, s] = self.p_cov(j)
        return full


def build_preconditioner(params: GmmParams, data,
                         resp: np.ndarray | None = None) -> Preconditioner:
    """Evaluate the preconditioner blocks at ``params``."""
    xt, rt = _e_inputs(params, data, resp)
    counts = soft_counts(rt.T)
    n = xt.shape[1]
    w = params.weights
    p_weights = (np.diag(w) - np.outer(w, w)) / n
    return Preconditioner(p_weights, params.covs, counts, params.layout)


@dataclass(frozen=True)
class ZeroSumProjection:
    """Orthogonal projector onto feasible increment directions.

    Identity on mean and covariance blocks; the weight block is centered
    (``v - mean(v)``), i.e. projected onto the zero-sum subspace, so that
    updated weights keep their sum unchanged.
    """

    layout: VectorLayout

    def apply(self, vec: np.ndarray) -> np.ndarray:
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.layout.size,):
            raise ValidationError(
                f"expected vector of shape ({self.layout.size},), got {vec.shape}")
        out = vec.copy()
        wb = self.layout.weight_block
        out[wb] -= out[wb].mean()
        return out

    def as_matrix(self) -> np.ndarray:
        """Dense form (for operator-level tests): symmetric, idempotent."""
        k = self.layout.n_components
        full = np.eye(self.layout.size)
        full[self.layout.weight_block, self.layout.weight_block] = (
            np.eye(k) - np.full((k, k), 1.0 / k))
        return full


def apply_projection(vec: np.ndarray, layout: VectorLayout) -> np.ndarray:
    """Center the weight block of ``vec``; leave the rest unchanged."""
    return ZeroSumProjection(layout).apply(vec)


@dataclass(frozen=True)
class MeanStepWeights:
    """Per-component scale factors for the mean increments.

    Expands to a diagonal matrix that is identity on the weight and
    covariance blocks and ``beta_j`` on each coordinate of mean block j.
    """

    betas: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.betas, dtype=float)
        if b.ndim != 1 or b.size < 1 or not np.all(np.isfinite(b)) or np.any(b <= 0.0):
            raise ValidationError(f"betas must be a vector of positive reals, got {self.betas}")
        object.__setattr__(self, "betas", b)

    def diagonal(self, layout: VectorLayout) -> np.ndarray:
        if self.betas.size != layout.n_components:
            raise ValidationError(
                f"need one beta per component ({layout.n_components}), got {self.betas.size}")
        d = np.ones(layout.size)
        for j in range(layout.n_components):
            d[layout.mean_slice(j)] = self.betas[j]
        return d


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


@dataclass(frozen=True)
class TraceRecord:
    """One iteration of a run (iteration 0 is the starting point)."""

    iteration: int
    loglik: float
    step_norm: float
    alpha_residual: float
    sym_residual: float
    snapshot: np.ndarray | None = None


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


def _residuals(params: GmmParams) -> tuple[float, float]:
    alpha_res = abs(float(params.weights.sum()) - 1.0)
    sym_res = float(np.max(np.abs(params.covs - params.covs.transpose(0, 2, 1))))
    return alpha_res, sym_res


def run(params: GmmParams, data: np.ndarray, algorithm: str, *,
        design: MeanStepWeights | None = None, rel_ll_tol: float = 1e-10,
        max_iters: int = 10_000, snapshot_stride: int | None = None) -> RunTrace:
    """Iterate one of the update maps until the relative change of the
    log-likelihood drops below ``rel_ll_tol`` or ``max_iters`` is hit.

    Numerical failures raise :class:`StepFailure` carrying the partial
    trace and the failing iteration index.
    """
    if algorithm not in ALGORITHMS:
        raise ValidationError(f"unknown algorithm {algorithm!r}, expected one of {ALGORITHMS}")
    if algorithm == "w_pb_gem":
        if design is None:
            raise ValidationError("w_pb_gem requires a MeanStepWeights design")
    elif design is not None:
        raise ValidationError(f"algorithm {algorithm!r} takes no design")
    if not rel_ll_tol > 0.0:
        raise ValidationError(f"rel_ll_tol must be positive, got {rel_ll_tol}")
    if max_iters < 1:
        raise ValidationError(f"max_iters must be at least 1, got {max_iters}")

    samples = Dataset(data, params.n_features)
    if algorithm == "em":
        step_fn = em_step
    elif algorithm == "shifted_em":
        step_fn = shifted_em_step
    elif algorithm == "pb_gem":
        step_fn = pb_gem_step
    else:
        step_fn = lambda p, d, resp: w_pb_gem_step(p, d, design, resp=resp)

    stride = snapshot_stride
    if stride is None:
        stride = 1 if params.layout.size <= SNAPSHOT_STRIDE_CUTOFF else 10

    t0 = time.perf_counter()
    cur = params
    cur_vec = params.to_vector()
    # One log-density pass per iterate: it scores the iterate and gives
    # the responsibilities that the next step starts from.
    loglik, rt = _estep(cur, samples.xt)
    a_res, s_res = _residuals(cur)
    records = [TraceRecord(0, loglik, 0.0, a_res, s_res, cur_vec.copy())]
    reason = "max_iters"
    for k in range(1, max_iters + 1):
        try:
            new = step_fn(cur, samples, resp=rt.T)
            new_loglik, rt = _estep(new, samples.xt)
        except (SimplexViolationError, InvalidCovarianceError,
                DegenerateComponentError, NumericUnderflowError) as err:
            partial = RunTrace(records, "error", cur, algorithm, time.perf_counter() - t0)
            raise StepFailure(k, partial, err) from err
        new_vec = new.to_vector()
        a_res, s_res = _residuals(new)
        snap = new_vec.copy() if k % stride == 0 else None
        records.append(TraceRecord(k, new_loglik, float(np.linalg.norm(new_vec - cur_vec)),
                                   a_res, s_res, snap))
        # Relative stopping rule; fall back to absolute change at L = 0.
        scale = abs(loglik) if loglik != 0.0 else 1.0
        converged = abs(new_loglik - loglik) < rel_ll_tol * scale
        cur, cur_vec, loglik = new, new_vec, new_loglik
        if converged:
            reason = "tolerance"
            break
    return RunTrace(records, reason, cur, algorithm, time.perf_counter() - t0)
