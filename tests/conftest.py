"""Shared builders and independent oracles.

The oracle functions below re-derive the density, log-likelihood, and
flat parameter layout from scratch (plain loops, inv/det instead of
Cholesky plus log-sum-exp) so tests do not lean on the code under test.
``reference_estep`` and ``reference_m_step`` are the per-component
kernels written over sample-major (N, m) data, the reference for the
package's feature-major (m, N) kernels.  ``q_function`` (the EM
surrogate that a GEM step increases) and ``lmi_check`` (the rate LMI at
one grid point) are oracles for the steps and the rate certificate.
"""

import math

import numpy as np
import pytest

from gemgmm import GmmParams, NumericUnderflowError, ValidationError, core
from gemgmm.analysis import LMI_TOL, SectorBounds, lmi_matrix


def make_params(rng, k, m, spread=2.0):
    """Random valid mixture parameters."""
    w = rng.uniform(0.2, 1.0, size=k)
    w = w / w.sum()
    means = rng.normal(0.0, spread, size=(k, m))
    covs = np.empty((k, m, m))
    for j in range(k):
        a = rng.normal(0.0, 1.0, size=(m, m))
        covs[j] = a @ a.T + m * np.eye(m)
    return GmmParams(w, means, covs)


def make_dataset(rng, n, m, spread=2.0):
    return rng.normal(0.0, spread, size=(n, m))


def naive_component_density(weight, mean, cov, x):
    d = np.asarray(x, dtype=float) - np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    quad = d @ np.linalg.inv(cov) @ d
    norm = np.sqrt(np.linalg.det(2.0 * np.pi * cov))
    return float(weight) * np.exp(-0.5 * quad) / norm


def naive_loglik(weights, means, covs, x):
    """Brute-force sum of logs of weighted component densities.

    Covariances are not assumed symmetric, so this also serves as the
    reference for raw-coordinate finite differences.
    """
    total = 0.0
    for row in np.atleast_2d(np.asarray(x, dtype=float)):
        mix = 0.0
        for j in range(len(weights)):
            mix += naive_component_density(weights[j], means[j], covs[j], row)
        total += np.log(mix)
    return total


def naive_responsibilities(params, x):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    k = params.n_components
    h = np.empty((x.shape[0], k))
    for t, row in enumerate(x):
        vals = [naive_component_density(params.weights[j], params.means[j],
                                        params.covs[j], row) for j in range(k)]
        h[t] = np.array(vals) / sum(vals)
    return h


def theta_split(theta, k, m):
    """Unpack a flat vector: weights, means, column-stacked covariances.

    Deliberately re-derives the layout instead of calling the package.
    """
    theta = np.asarray(theta, dtype=float)
    w = theta[:k]
    means = theta[k:k + k * m].reshape(k, m)
    covs = np.empty((k, m, m))
    for j in range(k):
        start = k + k * m + j * m * m
        block = theta[start:start + m * m]
        for q in range(m * m):
            covs[j, q % m, q // m] = block[q]
    return w, means, covs


def fd_loglik_gradient(params, x, step=1e-6):
    """Central finite differences of the raw-coordinate log-likelihood."""
    k, m = params.n_components, params.n_features
    theta = params.to_vector()
    grad = np.empty(theta.size)
    for i in range(theta.size):
        up, dn = theta.copy(), theta.copy()
        up[i] += step
        dn[i] -= step
        grad[i] = (naive_loglik(*theta_split(up, k, m), x)
                   - naive_loglik(*theta_split(dn, k, m), x)) / (2.0 * step)
    return grad


def dense(op, size):
    """Matrix of the linear map ``op`` on R^size, one column per
    standard basis vector."""
    return np.column_stack([op(e) for e in np.eye(size)])


def align_means(means, target):
    """Max per-coordinate error of ``means`` against ``target`` up to
    swapping the two rows."""
    direct = np.abs(means - target).max()
    swapped = np.abs(means - target[::-1]).max()
    return min(direct, swapped)


# (K, m, N) shapes on which the package kernels are checked against the
# references below.
ORACLE_SHAPES = [(1, 1, 7), (2, 2, 40), (3, 3, 25), (8, 16, 500)]


def reference_estep(params, x):
    """Log-likelihood and (N, K) responsibilities from (N, m) samples,
    one component at a time through the inverse Cholesky factor."""
    k, m = params.n_components, params.n_features
    chol = np.linalg.cholesky(params.covs)
    inv_chol = np.linalg.inv(chol)
    lw = np.empty((k, x.shape[0]))
    for j in range(k):
        y = inv_chol[j] @ (x - params.means[j]).T
        maha = np.einsum("ij,ij->j", y, y)
        logdet = 2.0 * np.sum(np.log(np.diag(chol[j])))
        lw[j] = np.log(params.weights[j]) - 0.5 * (m * math.log(2.0 * math.pi) + logdet + maha)
    amax = lw.max(axis=0)
    dens = np.exp(lw - amax)
    total = dens.sum(axis=0)
    return float((np.log(total) + amax).sum()), (dens / total).T


def reference_m_step(params, x, resp, shifted):
    """(weights, means, covs) of the EM update from (N, m) samples and
    (N, K) responsibilities, one covariance at a time."""
    counts = resp.sum(axis=0)
    means = (resp.T @ x) / counts[:, None]
    centers = params.means if shifted else means
    covs = np.empty_like(params.covs)
    for j in range(params.n_components):
        d = x - centers[j]
        c = (resp[:, j, None] * d).T @ d / counts[j]
        covs[j] = 0.5 * (c + c.T)
    return counts / x.shape[0], means, covs


def q_function(params, params_prev, data):
    """Expected complete-data log-likelihood.

    Membership posteriors are taken at ``params_prev``, the weighted
    log-densities at ``params``.  One update step that increases this
    value (a generalized M-step) cannot decrease the log-likelihood.
    """
    xt = core._feature_major(data, params.n_features)
    h = core._estep(params_prev, xt)[1]
    lw = core._log_weighted_densities(params, xt)
    with np.errstate(invalid="ignore"):
        terms = np.where(h > 0.0, h * lw, 0.0)
    total = float(terms.sum())
    if not np.isfinite(total):
        raise NumericUnderflowError("expected complete-data log-likelihood is not finite")
    return total


def lmi_check(mu: float, lam: float, bounds: SectorBounds) -> bool:
    """True iff the rate LMI holds at (mu, lam): matrix NSD within LMI_TOL.

    Equivalent to the scalar conditions ``lam >= 1/2`` together with
    ``mu^2 >= 1 - 2*m*L*lam - (lam*(L+m) - 1)^2 / (1 - 2*lam)``.
    """
    if not 0.0 <= mu < 1.0:
        raise ValidationError(f"mu must lie in [0, 1), got {mu}")
    top = float(np.linalg.eigvalsh(lmi_matrix(mu, lam, bounds))[-1])
    return top <= LMI_TOL


@pytest.fixture
def dataset_scans(monkeypatch):
    """A list that grows by one entry each time ``core.as_dataset`` runs."""
    scans = []
    original = core.as_dataset

    def counted(*args, **kwargs):
        scans.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(core, "as_dataset", counted)
    return scans
