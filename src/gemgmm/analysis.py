"""Convergence-rate certificates and update-map Jacobian analysis.

The rate machinery treats the update as a fixed-step ascent whose step
field is sector bounded between ``m_lo`` (strong monotonicity) and
``L_hi`` (Lipschitz).  A per-iteration contraction factor ``mu`` is
certified by a 2x2 linear matrix inequality; its closed-form optimum is
``max(|1 - m_lo|, |1 - L_hi|)``, and :func:`rate_certificate`
cross-checks that closed form through the LMI route rather than reusing
it, on a grid of spacing ``GRID_RESOLUTION``.  :func:`update_map_jacobian`
differentiates an update map at any point, fixed or not: one tangent
pass over the samples gives the E-step's moments and their exact
derivative, and central differences of step ``FD_STEP`` run through the
K-sized step alone, so the finite-difference noise floor is that of the
step's arithmetic, not of a sum over N samples.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .core import GmmParams, Moments, _epass_tangent, _feature_major
from .dynamics import MeanStepWeights, RunTrace, _step_for
from .errors import GemGmmError, ValidationError

# Negative semidefiniteness is decided by an eigenvalue test with this
# much slack; the matrix is 2x2, so no external solver is involved.
LMI_TOL = 1e-10

# The LMI grid spacing and the central-difference step of the K-sized
# step are fixed; analysis.json records both next to the results they
# produced.
GRID_RESOLUTION = 1e-3
FD_STEP = 1e-6

# Reporting conventions for the spectral classification; the thresholds
# are package conventions, not derived quantities.
NEWTON_LIKE_MAX_MODULUS = 0.1
FIRST_ORDER_MIN_MODULUS = 0.9


@dataclass(frozen=True)
class SectorBounds:
    """Sector bounds on the step field: 0 < m_lo <= L_hi, both finite."""

    m_lo: float
    L_hi: float

    def __post_init__(self):
        if not (0.0 < self.m_lo <= self.L_hi < math.inf):
            raise ValidationError(
                f"sector bounds need finite 0 < m_lo <= L_hi, got ({self.m_lo}, {self.L_hi})")


@dataclass(frozen=True)
class RateCertificate:
    """Outcome of the LMI grid search.

    When ``feasible``, the LMI matrix at (mu_bound, multiplier) is
    negative semidefinite within ``LMI_TOL``; otherwise ``mu_bound`` and
    ``multiplier`` are NaN.
    """

    mu_bound: float
    multiplier: float
    feasible: bool


@dataclass(frozen=True)
class JacobianReport:
    """Jacobian of an update map (see :func:`update_map_jacobian`) plus its spectrum."""

    jacobian: np.ndarray
    moduli: np.ndarray          # eigenvalue moduli, sorted descending
    classification: str         # newton_like | first_order | mixed


def rate_bound(bounds: SectorBounds) -> float:
    """Closed-form contraction bound ``max(|1 - m_lo|, |1 - L_hi|)``."""
    return max(abs(1.0 - bounds.m_lo), abs(1.0 - bounds.L_hi))


def lmi_matrix(mu: float, lam: float, bounds: SectorBounds) -> np.ndarray:
    """The rate LMI's 2x2 matrix; an array ``lam`` gives each entry over its grid."""
    m, L = bounds.m_lo, bounds.L_hi
    return np.array([
        [1.0 - mu * mu - 2.0 * m * L * lam, -1.0 + lam * (L + m)],
        [-1.0 + lam * (L + m), 1.0 - 2.0 * lam],
    ])


def rate_certificate(bounds: SectorBounds) -> RateCertificate:
    """Grid search for the smallest mu that some multiplier certifies.

    Takes the first (mu, lam) grid point passing the LMI (top eigenvalue
    at most ``LMI_TOL``), mu over ``[0, 1)`` before lam over ``[0.5, 5]``,
    both in steps of ``GRID_RESOLUTION``; infeasible when no grid point
    does (the bounds lie outside the contractive regime).  Only the
    (1,1) entry holds mu, and it falls as mu grows, so the rows of mu
    that some lam certifies are a tail of the grid: bisection finds its
    first row in about 10 row evaluations, where a scan made up to 1000.
    """
    mus = np.arange(0.0, 1.0, GRID_RESOLUTION)
    lams = np.arange(0.5, 5.0 + 0.5 * GRID_RESOLUTION, GRID_RESOLUTION)
    # Batched top eigenvalue of [[a, b], [b, d]] across the lambda grid.
    (a0, b), (_, d) = lmi_matrix(0.0, lams, bounds)

    def certified(row):
        a = a0 - mus[row] * mus[row]
        top = 0.5 * (a + d) + np.sqrt((0.5 * (a - d)) ** 2 + b * b)
        return np.flatnonzero(top <= LMI_TOL)

    row = bisect_left(range(mus.size), True, key=lambda i: certified(i).size > 0)
    if row == mus.size:
        return RateCertificate(math.nan, math.nan, False)
    return RateCertificate(float(mus[row]), float(lams[certified(row)[0]]), True)


def _probe_directions(layout):
    """Yield feasible-layout perturbation directions, one per coordinate.

    Each raw basis vector is projected orthogonally onto the constraint
    set's tangent space: the weight block onto the zero-sum subspace, each
    covariance block onto the symmetric matrices.  Every probe point thus
    stays on the constraint set; mean coordinates are unconstrained.
    """
    for idx in range(layout.size):
        unit = np.zeros(layout.size)
        unit[idx] = 1.0
        w, mu, cv = layout.split(unit)
        yield layout.join(w - w.mean(), mu, 0.5 * (cv + cv.transpose(0, 2, 1)))


def update_map_jacobian(params: GmmParams, data: np.ndarray, algorithm: str,
                        design: MeanStepWeights | None = None) -> JacobianReport:
    """Jacobian of an update map at ``params``: central differences of
    step ``FD_STEP`` through the K-sized step, fed the exact derivative of
    the E-step's moments.

    ``algorithm`` is one of :data:`~gemgmm.dynamics.ALGORITHMS`
    (``"w_pb_gem"`` with ``design``).  ``data`` is checked once, and one
    tangent pass over it (:func:`~gemgmm.core._epass_tangent`) gives the
    moments M at ``params`` and their derivative T, at any point, fixed
    or not.  A probe along direction v then maps ``params +- h v`` to
    ``step(params +- h v, M +- h T v)``: no probe makes a pass over the
    samples, and every algorithm goes through this one route.  Columns
    follow the flat layout; probes along constrained coordinates stay on
    the constraint set (see :func:`_probe_directions`), so directions
    orthogonal to it contribute zero columns (for K=1 the weight
    direction is trivial).  Eigenvalue moduli near 0 mean the map
    forgets its input like a Newton step; moduli near 1 mean first-order
    behavior.
    """
    step = _step_for(algorithm, design, params.n_components)
    moments, tangent = _epass_tangent(params, _feature_major(data, params.n_features))
    layout = params.layout
    base = params.to_vector()
    k, m = layout.n_components, layout.n_features
    columns = np.zeros((layout.size, layout.size))

    def probe(direction, moved, sign):
        dc, df, ds = layout.split(sign * FD_STEP * moved)
        p = GmmParams.from_vector(base + sign * FD_STEP * direction, k, m)
        mo = Moments(moments.n, moments.counts + dc, moments.first + df, moments.second + ds)
        return step(p, mo).to_vector()

    for idx, direction in enumerate(_probe_directions(layout)):
        # At most K nonzeros (a weight probe), so T v reads that many
        # columns of T.
        nonzero = np.flatnonzero(direction)
        if not nonzero.size:
            continue
        moved = tangent[:, nonzero] @ direction[nonzero]
        try:
            plus, minus = probe(direction, moved, 1.0), probe(direction, moved, -1.0)
        except GemGmmError as err:
            err.args = (f"update step failed at perturbation {idx}: {err}",)
            raise
        columns[idx] = (plus - minus) / (2.0 * FD_STEP)
    del tangent  # before eigvals copies the Jacobian: one D x D array fewer at the peak
    jac = columns.T
    moduli = np.sort(np.abs(np.linalg.eigvals(jac)))[::-1]
    top = moduli[0]
    if top < NEWTON_LIKE_MAX_MODULUS:
        classification = "newton_like"
    elif top > FIRST_ORDER_MIN_MODULUS:
        classification = "first_order"
    else:
        classification = "mixed"
    return JacobianReport(jac, moduli, classification)


def empirical_rate(trace, l_star: float | None = None) -> float | None:
    """Per-iteration contraction factor of the log-likelihood gap,
    fitted from a trace tail.

    Fits a least-squares line to ``log(l_star - loglik)`` over the final
    third of the iterations and returns ``exp(slope)``.  The gap shrinks
    like the square of the parameter error, so the estimate is
    comparable to rho**2, not to the spectral radius rho of the update
    map: on the paper model (N=1000, seed 13001, ``pb_gem`` from the
    orthogonal-line start at 3*sqrt(2), tol 1e-10, 212 iterations) it is
    0.8759, where the Jacobian at the fitted point has rho = 0.9414
    (rho**2 = 0.8863).  ``trace`` is a
    :class:`RunTrace` or an array-like of ``(iteration, loglik)`` rows.
    ``l_star`` defaults to the last recorded log-likelihood (whose own
    zero residual is then excluded from the fit).

    Returns None (undefined rate) when the trace is shorter than 10
    iterations, the tail is not monotone, or too few positive residuals
    remain to fit.
    """
    if isinstance(trace, RunTrace):
        iters = np.array([r.iteration for r in trace.records], dtype=float)
        logliks = trace.logliks
    else:
        arr = np.asarray(trace, dtype=float)
        if arr.ndim != 2 or arr.shape[1] < 2:
            raise ValidationError("trace must be a RunTrace or an (n, >=2) array")
        iters, logliks = arr[:, 0], arr[:, 1]
    if iters.size < 10:
        return None
    if l_star is None:
        l_star = float(logliks[-1])
    start = (2 * iters.size) // 3
    tail_it, tail_ll = iters[start:], logliks[start:]
    slack = 1e-10 * max(1.0, abs(l_star))
    if np.any(np.diff(tail_ll) < -slack):
        return None
    resid = l_star - tail_ll
    keep = resid > 0.0
    if np.count_nonzero(keep) < 3:
        return None
    slope = np.polyfit(tail_it[keep], np.log(resid[keep]), 1)[0]
    return float(np.exp(slope))
