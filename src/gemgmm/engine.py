"""Closed-form EM updates and analytic gradients of the log-likelihood.

Two M-step flavors are provided.  The classic step builds each new
covariance from deviations about the *new* mean; the shifted step uses
deviations about the *current* mean.  The shifted step is the one that
coincides exactly with a preconditioned gradient step (see dynamics.py),
which is the central identity this package is organized around.
"""

from __future__ import annotations

import numpy as np

from .core import GmmParams, _estep, _feature_major
from .errors import DegenerateComponentError

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


def _e_inputs(params: GmmParams, data, resp: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Validated (m, N) samples and (K, N) responsibilities at ``params``.

    ``resp`` is the public (N, K) form, or None to run the E-pass.  When
    it is the transpose view that :func:`~gemgmm.core.responsibilities`
    returns, turning it back into (K, N) copies nothing.
    """
    xt = _feature_major(data, params.n_features)
    if resp is None:
        return xt, _estep(params, xt)[1]
    return xt, np.ascontiguousarray(np.asarray(resp, dtype=float).T)


def _m_step(params: GmmParams, xt: np.ndarray, rt: np.ndarray,
            shifted: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form (weights, means, covs) of the EM update, unvalidated,
    from (m, N) samples and (K, N) responsibilities."""
    n = xt.shape[1]
    counts = soft_counts(rt.T)
    weights = counts / n
    means = (rt @ xt.T) / counts[:, None]
    centers = params.means if shifted else means
    covs = np.empty_like(params.covs)
    d, rd = np.empty_like(xt), np.empty_like(xt)
    for j in range(params.n_components):
        np.subtract(xt, centers[j][:, None], out=d)
        np.multiply(rt[j], d, out=rd)
        c = rd @ d.T / counts[j]
        covs[j] = 0.5 * (c + c.T)
    return weights, means, covs


def em_step(params: GmmParams, data, resp: np.ndarray | None = None) -> GmmParams:
    """One classic EM iteration (covariances centered on the new means).

    ``data`` is an (N, m) array or a :class:`~gemgmm.core.Dataset`.
    ``resp`` may carry precomputed (N, K) responsibilities at ``params``
    to avoid a redundant E-step.
    """
    return GmmParams(*_m_step(params, *_e_inputs(params, data, resp), shifted=False))


def shifted_em_step(params: GmmParams, data, resp: np.ndarray | None = None) -> GmmParams:
    """One EM iteration with the shifted covariance update.

    Weights and means update as in :func:`em_step`; each covariance is
    the responsibility-weighted second moment about the *current* mean.
    ``data`` and ``resp`` work as in :func:`em_step`.
    """
    return GmmParams(*_m_step(params, *_e_inputs(params, data, resp), shifted=True))


def grad_log_likelihood(params: GmmParams, data,
                        resp: np.ndarray | None = None) -> np.ndarray:
    """Gradient of the log-likelihood in the flat parameter layout.

    The weight block holds the unconstrained partials (sum constraint is
    handled downstream by the preconditioner and projection):

    - d/dw_j      = sum_t h_j(t) / w_j
    - d/dmean_j   = inv(C_j) sum_t h_j(t) (x_t - mean_j)
    - d/dvec(C_j) = 0.5 vec(inv(C_j) M_j inv(C_j) - (sum_t h_j(t)) inv(C_j)),
      M_j = sum_t h_j(t) (x_t - mean_j)(x_t - mean_j)'
    """
    xt, rt = _e_inputs(params, data, resp)
    k, m = params.n_components, params.n_features
    counts = rt.sum(axis=1)
    g_w = counts / params.weights
    g_mu = np.empty((k, m))
    g_cv = np.empty((k, m, m))
    for j in range(k):
        d = xt - params.means[j][:, None]
        hd = rt[j] * d
        inv = np.linalg.inv(params.covs[j])
        g_mu[j] = inv @ hd.sum(axis=1)
        mj = hd @ d.T
        mj = 0.5 * (mj + mj.T)
        g_cv[j] = 0.5 * (inv @ mj @ inv - counts[j] * inv)
    return params.layout.join(g_w, g_mu, g_cv)

