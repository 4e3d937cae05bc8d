"""Closed-form EM updates and analytic gradients of the log-likelihood.

Two M-step flavors are provided.  The classic step builds each new
covariance from deviations about the *new* mean; the shifted step uses
deviations about the *current* mean.  The shifted step is the one that
coincides exactly with a preconditioned gradient step (see dynamics.py),
which is the central identity this package is organized around.
"""

from __future__ import annotations

import numpy as np

from .core import GmmParams, _estep, as_dataset
from .errors import DegenerateComponentError, ValidationError

# A component whose responsibility mass falls below this fraction of N is
# numerically empty; the closed-form updates would divide by ~0.
DEGENERATE_FRACTION = 1e-12


def soft_counts(resp: np.ndarray) -> np.ndarray:
    """Per-component responsibility mass, checked for degeneracy."""
    counts = resp.sum(axis=0)
    n = resp.shape[0]
    if np.any(counts < DEGENERATE_FRACTION * n):
        j = int(np.argmin(counts))
        raise DegenerateComponentError(
            f"component {j} holds responsibility mass {counts[j]:.3e} "
            f"over {n} samples (threshold {DEGENERATE_FRACTION:g} * N)")
    return counts


def _m_step(params: GmmParams, x: np.ndarray, resp: np.ndarray,
            shifted: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form (weights, means, covs) of the EM update, unvalidated."""
    n = x.shape[0]
    counts = soft_counts(resp)
    weights = counts / n
    means = (resp.T @ x) / counts[:, None]
    centers = params.means if shifted else means
    covs = np.empty_like(params.covs)
    for j in range(params.n_components):
        d = x - centers[j]
        c = (resp[:, j, None] * d).T @ d / counts[j]
        covs[j] = 0.5 * (c + c.T)
    return weights, means, covs


def em_step(params: GmmParams, data: np.ndarray, resp: np.ndarray | None = None) -> GmmParams:
    """One classic EM iteration (covariances centered on the new means).

    ``resp`` may carry precomputed responsibilities at ``params`` to
    avoid a redundant E-step.
    """
    x = as_dataset(data, params.n_features)
    if resp is None:
        resp = _estep(params, x)[1]
    return GmmParams(*_m_step(params, x, resp, shifted=False))


def shifted_em_step(params: GmmParams, data: np.ndarray, resp: np.ndarray | None = None) -> GmmParams:
    """One EM iteration with the shifted covariance update.

    Weights and means update as in :func:`em_step`; each covariance is
    the responsibility-weighted second moment about the *current* mean.
    ``resp`` works as in :func:`em_step`.
    """
    x = as_dataset(data, params.n_features)
    if resp is None:
        resp = _estep(params, x)[1]
    return GmmParams(*_m_step(params, x, resp, shifted=True))


def grad_log_likelihood(params: GmmParams, data: np.ndarray,
                        resp: np.ndarray | None = None) -> np.ndarray:
    """Gradient of the log-likelihood in the flat parameter layout.

    The weight block holds the unconstrained partials (sum constraint is
    handled downstream by the preconditioner and projection):

    - d/dw_j      = sum_t h_j(t) / w_j
    - d/dmean_j   = inv(C_j) sum_t h_j(t) (x_t - mean_j)
    - d/dvec(C_j) = 0.5 vec(inv(C_j) M_j inv(C_j) - (sum_t h_j(t)) inv(C_j)),
      M_j = sum_t h_j(t) (x_t - mean_j)(x_t - mean_j)'
    """
    x = as_dataset(data, params.n_features)
    if resp is None:
        resp = _estep(params, x)[1]
    k, m = params.n_components, params.n_features
    counts = resp.sum(axis=0)
    g_w = counts / params.weights
    g_mu = np.empty((k, m))
    g_cv = np.empty((k, m, m))
    for j in range(k):
        d = x - params.means[j]
        hd = resp[:, j, None] * d
        inv = np.linalg.inv(params.covs[j])
        g_mu[j] = inv @ hd.sum(axis=0)
        mj = hd.T @ d
        mj = 0.5 * (mj + mj.T)
        g_cv[j] = 0.5 * (inv @ mj @ inv - counts[j] * inv)
    return params.layout.join(g_w, g_mu, g_cv)


def grad_ascent_gem_step(params: GmmParams, data: np.ndarray, eta: float) -> np.ndarray:
    """Plain gradient-ascent update ``vec + eta * grad``, returned raw.

    No constraint is enforced: the weight block drifts off the simplex
    by exactly ``eta`` times the summed weight gradient.  This is the
    naive baseline the preconditioned/projected steps improve on.
    """
    if not eta > 0.0:
        raise ValidationError(f"step size must be positive, got {eta}")
    return params.to_vector() + eta * grad_log_likelihood(params, data)
