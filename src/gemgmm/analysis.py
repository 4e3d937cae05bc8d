"""Convergence-rate certificates and update-map Jacobian analysis.

The rate machinery treats the update as a fixed-step ascent whose step
field is sector bounded between ``m_lo`` (strong monotonicity) and
``L_hi`` (Lipschitz).  A per-iteration contraction factor ``mu`` is
certified by a 2x2 linear matrix inequality; its closed-form optimum is
``max(|1 - m_lo|, |1 - L_hi|)``, and the grid search here cross-checks
that closed form through the LMI route rather than reusing it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, GmmParams
from .dynamics import MeanStepWeights, RunTrace, pb_gem_step, w_pb_gem_step
from .errors import GemGmmError, ValidationError

# Negative semidefiniteness is decided by an eigenvalue test with this
# much slack; the matrix is 2x2, so no external solver is involved.
LMI_TOL = 1e-10

# Reporting conventions for the spectral classification; the thresholds
# are package conventions, not derived quantities.
NEWTON_LIKE_MAX_MODULUS = 0.1
FIRST_ORDER_MIN_MODULUS = 0.9


@dataclass(frozen=True)
class SectorBounds:
    """Sector bounds on the step field: 0 < m_lo <= L_hi."""

    m_lo: float
    L_hi: float

    def __post_init__(self):
        if not (0.0 < self.m_lo <= self.L_hi):
            raise ValidationError(
                f"sector bounds need 0 < m_lo <= L_hi, got ({self.m_lo}, {self.L_hi})")


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
    """Finite-difference Jacobian of an update map plus its spectrum."""

    jacobian: np.ndarray
    moduli: np.ndarray          # eigenvalue moduli, sorted descending
    classification: str         # newton_like | first_order | mixed


def rate_bound(bounds: SectorBounds) -> float:
    """Closed-form contraction bound ``max(|1 - m_lo|, |1 - L_hi|)``."""
    return max(abs(1.0 - bounds.m_lo), abs(1.0 - bounds.L_hi))


def lmi_matrix(mu: float, lam: float, bounds: SectorBounds) -> np.ndarray:
    m, L = bounds.m_lo, bounds.L_hi
    return np.array([
        [1.0 - mu * mu - 2.0 * m * L * lam, -1.0 + lam * (L + m)],
        [-1.0 + lam * (L + m), 1.0 - 2.0 * lam],
    ])


def lmi_check(mu: float, lam: float, bounds: SectorBounds) -> bool:
    """True iff the rate LMI holds at (mu, lam): matrix NSD within LMI_TOL.

    Equivalent to the scalar conditions ``lam >= 1/2`` together with
    ``mu^2 >= 1 - 2*m*L*lam - (lam*(L+m) - 1)^2 / (1 - 2*lam)``.
    """
    if not 0.0 <= mu < 1.0:
        raise ValidationError(f"mu must lie in [0, 1), got {mu}")
    top = float(np.linalg.eigvalsh(lmi_matrix(mu, lam, bounds))[-1])
    return top <= LMI_TOL


def _grid_search(bounds: SectorBounds, resolution: float,
                 lambda_range: tuple[float, float]) -> tuple[float, float] | None:
    """First (mu, lam) grid point, in ascending mu, passing the LMI."""
    if not resolution > 0.0:
        raise ValidationError(f"grid resolution must be positive, got {resolution}")
    m, L = bounds.m_lo, bounds.L_hi
    mus = np.arange(0.0, 1.0, resolution)
    lams = np.arange(lambda_range[0], lambda_range[1] + 0.5 * resolution, resolution)
    # Batched top eigenvalue of [[a, b], [b, d]] across the lambda grid.
    b = lams * (L + m) - 1.0
    d = 1.0 - 2.0 * lams
    a0 = 1.0 - 2.0 * m * L * lams
    for mu in mus:
        a = a0 - mu * mu
        top = 0.5 * (a + d) + np.sqrt((0.5 * (a - d)) ** 2 + b * b)
        hits = np.flatnonzero(top <= LMI_TOL)
        if hits.size:
            return float(mu), float(lams[hits[0]])
    return None


def min_feasible_rate(bounds: SectorBounds, resolution: float = 1e-3,
                      lambda_range: tuple[float, float] = (0.5, 5.0)) -> float | None:
    """Smallest grid mu certified by some grid lam, or None if no grid
    point is feasible (the bounds lie outside the contractive regime)."""
    found = _grid_search(bounds, resolution, lambda_range)
    return None if found is None else found[0]


def rate_certificate(bounds: SectorBounds, resolution: float = 1e-3,
                     lambda_range: tuple[float, float] = (0.5, 5.0)) -> RateCertificate:
    """Run the grid search and package the result."""
    found = _grid_search(bounds, resolution, lambda_range)
    if found is None:
        return RateCertificate(math.nan, math.nan, False)
    return RateCertificate(found[0], found[1], True)


def _probe_directions(layout) -> list[np.ndarray]:
    """Feasible-layout perturbation directions, one per coordinate.

    Weight coordinates are probed inside the zero-sum subspace and
    covariance coordinates inside the symmetric subspace (the orthogonal
    projections of the raw basis vectors), so every probe point stays on
    the constraint set.  Mean coordinates are unconstrained.
    """
    k, m = layout.n_components, layout.n_features
    dirs = []
    for j in range(k):
        d = np.zeros(layout.size)
        d[j] = 1.0
        d[layout.weight_block] -= 1.0 / k
        dirs.append(d)
    for i in range(k * m):
        d = np.zeros(layout.size)
        d[layout.mean_block.start + i] = 1.0
        dirs.append(d)
    for j in range(k):
        base = layout.cov_slice(j).start
        for q in range(m * m):
            a, b = q % m, q // m       # column-stacked: q encodes entry (a, b)
            d = np.zeros(layout.size)
            if a == b:
                d[base + q] = 1.0
            else:
                d[base + a + b * m] = 0.5
                d[base + b + a * m] = 0.5
            dirs.append(d)
    return dirs


def update_map_jacobian(params: GmmParams, data: np.ndarray, algorithm,
                        fd_step: float = 1e-6,
                        design: MeanStepWeights | None = None) -> JacobianReport:
    """Central finite-difference Jacobian of an update map at ``params``.

    ``algorithm`` is ``"pb_gem"``, ``"w_pb_gem"`` (with ``design``), or a
    callable ``(params, data) -> GmmParams`` for custom maps, which gets
    the validated samples as an (N, m) array.  ``data`` is checked once
    for all probes.  Columns
    follow the flat layout; probes along constrained coordinates stay on
    the constraint set (see :func:`_probe_directions`), so directions
    orthogonal to it contribute zero columns (for K=1 the weight
    direction is trivial).  Eigenvalue moduli near 0 mean the map forgets
    its input like a Newton step; moduli near 1 mean first-order
    behavior.
    """
    if not fd_step > 0.0:
        raise ValidationError(f"fd_step must be positive, got {fd_step}")
    samples = Dataset(data, params.n_features)
    if callable(algorithm):
        step = lambda p: algorithm(p, samples.x)
    elif algorithm == "pb_gem":
        step = lambda p: pb_gem_step(p, samples)
    elif algorithm == "w_pb_gem":
        if design is None:
            raise ValidationError("w_pb_gem requires a MeanStepWeights design")
        step = lambda p: w_pb_gem_step(p, samples, design)
    else:
        raise ValidationError(
            f"jacobian analysis supports 'pb_gem', 'w_pb_gem', or a callable, got {algorithm!r}")
    layout = params.layout
    base = params.to_vector()
    k, m = layout.n_components, layout.n_features
    jac = np.empty((layout.size, layout.size))
    for idx, direction in enumerate(_probe_directions(layout)):
        if not direction.any():
            jac[:, idx] = 0.0
            continue
        try:
            plus = step(GmmParams.from_vector(base + fd_step * direction, k, m)).to_vector()
            minus = step(GmmParams.from_vector(base - fd_step * direction, k, m)).to_vector()
        except GemGmmError as err:
            raise type(err)(f"update step failed at perturbation {idx}: {err}") from err
        jac[:, idx] = (plus - minus) / (2.0 * fd_step)
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
    """Per-iteration contraction factor fitted from a trace tail.

    Fits a least-squares line to ``log(l_star - loglik)`` over the final
    third of the iterations and returns ``exp(slope)``.  ``trace`` is a
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
