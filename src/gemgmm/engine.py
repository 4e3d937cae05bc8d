"""The EM M-step, the classic EM step and the analytic log-likelihood
gradient: K-sized maps of the E-step's sums (:class:`~gemgmm.core.Moments`).

:func:`_m_step` gives the shifted update, each new covariance being the
second moment about the *current* mean: the GEM step of
:mod:`gemgmm.dynamics`, which equals a preconditioned gradient step.
:func:`em_step` re-centres the covariances on the new means.
"""

from __future__ import annotations

import numpy as np

from .core import GmmParams, Moments
from .errors import DegenerateComponentError

# A component whose responsibility mass falls below this fraction of N is
# numerically empty; the closed-form updates would divide by ~0.
DEGENERATE_FRACTION = 1e-12


def _checked_counts(moments: Moments) -> np.ndarray:
    """Per-component responsibility mass, checked for degeneracy."""
    counts, n = moments.counts, moments.n
    if (counts < DEGENERATE_FRACTION * n).any():
        j = int(np.argmin(counts))
        raise DegenerateComponentError(
            f"component {j} holds responsibility mass {counts[j]:.3e} "
            f"over {n} samples (threshold {DEGENERATE_FRACTION:g} * N)")
    return counts


def _m_step(moments: Moments) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(weights, means, covs) of the shifted EM update, unvalidated: the
    covariances are the second moments about the current means,
    symmetrized."""
    counts = _checked_counts(moments)
    c = moments.second / counts[:, None, None]
    return counts / moments.n, moments.first / counts[:, None], 0.5 * (c + c.transpose(0, 2, 1))


def em_step(params: GmmParams, moments: Moments) -> GmmParams:
    """One classic EM iteration (covariances centered on the new means).

    The covariance is the shifted one minus delta delta' (delta the mean
    increment), whose relative roundoff grows like eps |delta|^2 / lambda_min(C+).
    """
    weights, means, covs = _m_step(moments)
    delta = means - params.means
    covs -= delta[:, :, None] * delta[:, None, :]
    return GmmParams(weights, means, covs)


def grad_log_likelihood(params: GmmParams, moments: Moments) -> np.ndarray:
    """Gradient of the log-likelihood in the flat parameter layout.

    The weight block holds the unconstrained partials (sum constraint is
    handled downstream by the preconditioner and projection):

    - d/dw_j      = S_j / w_j
    - d/dmean_j   = inv(C_j) (sum_t h_j(t) x_t - S_j mean_j)
    - d/dvec(C_j) = 0.5 vec(inv(C_j) M_j inv(C_j) - S_j inv(C_j)),

    with ``S_j`` the responsibility mass and ``M_j`` the second moment
    about mean_j, symmetrized.
    """
    counts, second = moments.counts, moments.second
    inv = np.linalg.inv(params.covs)
    g_mu = np.einsum("kij,kj->ki", inv, moments.first - counts[:, None] * params.means)
    m2 = 0.5 * (second + second.transpose(0, 2, 1))
    g_cv = 0.5 * (inv @ m2 @ inv - counts[:, None, None] * inv)
    return params.layout.join(counts / params.weights, g_mu, g_cv)
