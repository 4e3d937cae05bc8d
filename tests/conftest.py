"""Shared builders and independent oracles.

The oracle functions below re-derive the density, log-likelihood, and
flat parameter layout from scratch (plain loops, inv/det instead of
Cholesky plus log-sum-exp) so tests do not lean on the code under test.
``reference_estep`` and ``reference_m_step`` are the per-component
kernels written over sample-major (N, m) data, the reference for the
package's feature-major (m, N) kernels; ``reference_shifted_em_step``
is the shifted EM route built from them.  ``q_function`` (the EM
surrogate that a GEM step increases), ``lmi_check`` (the rate LMI at
one grid point) and ``scan_rate_certificate`` (the certificate by a scan
of every row of mu) are oracles for the steps and the rate certificate;
``fd_update_map_jacobian`` (central differences with a full E-pass at
every probe point, along ``probe_directions``, the projection
``dynamics.apply_projection`` of each basis vector) is the oracle for
the update-map Jacobian, and
``vec_epass_tangent`` (the tangent pass on g = (1, d, vec(d d'))) the
oracle for the package's tangent pass on vech(d d').
``recorded_iterates`` collects the iterates of a run, and
``pb_gem_step_as`` puts a fake step in place of ``pb_gem_step``.
"""

import contextlib
import math

import numpy as np
import pytest

from gemgmm import GmmParams, NumericUnderflowError, ValidationError, core, dynamics, e_step, io
from gemgmm.analysis import (FD_STEP, GRID_RESOLUTION, LMI_TOL, RateCertificate, SectorBounds,
                             lmi_matrix)


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


def probe_directions(layout):
    """The probe directions of ``update_map_jacobian``, one per row: the
    projection ``dynamics.apply_projection`` of each basis vector."""
    return dense(lambda v: dynamics.apply_projection(v, layout), layout.size).T


# (K, m, N) shapes on which the package kernels are checked against the
# references below.
ORACLE_SHAPES = [(1, 1, 7), (2, 2, 40), (3, 3, 25), (8, 16, 500)]

# (K, m) on which the tangent pass and the update-map Jacobian are checked
# against differences of full E-passes.
JACOBIAN_SHAPES = [(1, 1), (2, 2), (3, 3), (2, 5)]


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


def reference_shifted_em_step(params, x):
    """The shifted-covariance EM step from the references above: the map
    that ``pb_gem_step`` computes, up to roundoff."""
    x = np.asarray(x, dtype=float)
    return GmmParams(*reference_m_step(params, x, reference_estep(params, x)[1], shifted=True))


def q_function(params, params_prev, data):
    """Expected complete-data log-likelihood.

    Membership posteriors are taken at ``params_prev``, the weighted
    log-densities at ``params``.  One update step that increases this
    value (a generalized M-step) cannot decrease the log-likelihood.
    """
    h = core.responsibilities(params_prev, data).T
    xt = core._feature_major(data, params.n_features)
    d = xt - params.means[:, :, None]
    lw = core._log_weighted_densities(d, *core._factors(params), np.empty_like(d))
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


def scan_rate_certificate(bounds: SectorBounds) -> RateCertificate:
    """``rate_certificate`` by a scan: mu upward over ``[0, 1)``, the
    first (mu, lam) grid point whose top eigenvalue is at most
    ``LMI_TOL``, lam over ``[0.5, 5]``; up to 1000 rows of mu."""
    mus = np.arange(0.0, 1.0, GRID_RESOLUTION)
    lams = np.arange(0.5, 5.0 + 0.5 * GRID_RESOLUTION, GRID_RESOLUTION)
    (a0, b), (_, d) = lmi_matrix(0.0, lams, bounds)
    for mu in mus:
        a = a0 - mu * mu
        top = 0.5 * (a + d) + np.sqrt((0.5 * (a - d)) ** 2 + b * b)
        hits = np.flatnonzero(top <= LMI_TOL)
        if hits.size:
            return RateCertificate(float(mu), float(lams[hits[0]]), True)
    return RateCertificate(math.nan, math.nan, False)


def fd_update_map_jacobian(params, data, algorithm, design=None):
    """Central differences of step ``FD_STEP`` of ``p -> step(p,
    e_step(p, data))`` along each probe direction of
    ``update_map_jacobian``: a full E-pass over the samples at each of
    the 2 D probe points, so the Jacobian of the whole map, E-step
    included, without its derivative."""
    step = dynamics._step_for(algorithm, design, params.n_components)
    k, m = params.n_components, params.n_features
    base = params.to_vector()

    def mapped(vec):
        q = GmmParams.from_vector(vec, k, m)
        return step(q, e_step(q, data)).to_vector()

    return np.column_stack([
        (mapped(base + FD_STEP * v) - mapped(base - FD_STEP * v)) / (2.0 * FD_STEP)
        for v in probe_directions(params.layout)])


def vec_epass_tangent(params, xt):
    """``core._epass_tangent`` summed on g = (1, d, vec(d d')),
    p = 1 + m + m^2 entries, with the counts and the second moment summed
    on their own, and its Grams mapped through the Kronecker score
    (P_j kron P_j) / 2 in the vec layout: the moments and their (D, D)
    derivative in the flat layout from (m, N) samples ``xt``."""
    k, m = params.n_components, params.n_features
    p = 1 + m + m * m
    counts, first, second = np.zeros(k), np.zeros((k, m)), np.zeros((k, m, m))
    own, tangent = np.zeros((k, p, p)), np.zeros((k * p, k * p))
    size = k * p * min(xt.shape[1], core.EPASS_BLOCK)
    g_buf, hg_buf = np.empty(size), np.empty(size)
    for start, d, work, h, _ in core._blocks(params, xt):
        b = h.shape[1]
        counts += h.sum(axis=1)
        first += h @ xt[:, start:start + b].T
        second += np.matmul(np.multiply(h[:, None, :], d, out=work), d.transpose(0, 2, 1))
        g = g_buf[:k * p * b].reshape(k, p, b)
        g[:, 0] = 1.0
        g[:, 1:1 + m] = d
        np.multiply(d[:, :, None, :], d[:, None, :, :], out=g[:, 1 + m:].reshape(k, m, m, b))
        hg = np.multiply(h[:, None, :], g, out=hg_buf[:k * p * b].reshape(k, p, b))
        own += np.matmul(hg, g.transpose(0, 2, 1))
        stacked = hg.reshape(k * p, b)
        tangent -= stacked @ stacked.T

    inv_chol = core._factors(params)[0]
    prec = inv_chol.transpose(0, 2, 1) @ inv_chol
    score = np.zeros((k, p, p))
    score[:, 0, 0] = 1.0 / params.weights
    score[:, 0, 1 + m:] = -0.5 * prec.reshape(k, m * m)
    score[:, 1:1 + m, 1:1 + m] = prec
    score[:, 1 + m:, 1 + m:] = 0.5 * (prec[:, :, None, :, None]
                                      * prec[:, None, :, None, :]).reshape(k, m * m, m * m)
    r = own[:, 1:1 + m, 0]
    eye = np.eye(m)
    centring = (eye[None, :, None, :] * r[:, None, :, None]
                + r[:, :, None, None] * eye[None, None, :, :]).reshape(k, m * m, m)
    rows = tangent.reshape(k, p, k * p)
    for j in range(k):
        cols = slice(j * p, (j + 1) * p)
        rows[j, :, cols] += own[j]
        tangent[:, cols] = tangent[:, cols] @ score[j]
        rows[j, 1 + m:, j * p + 1:j * p + 1 + m] -= centring[j]
    rows[:, 1:1 + m] += params.means[:, :, None] * rows[:, :1]
    idx = np.arange(k * p).reshape(k, p)
    order = params.layout.join(idx[:, 0], idx[:, 1:1 + m], idx[:, 1 + m:].reshape(k, m, m)).astype(np.intp)
    return core.Moments(xt.shape[1], counts, first, second), tangent[np.ix_(order, order)]


@contextlib.contextmanager
def recorded_iterates(algorithm):
    """A list that gets every iterate the step of ``algorithm`` (a name
    in ``ALGORITHMS``) returns while the block runs.

    ``run`` looks its step up in ``gemgmm.dynamics`` on each call, so the
    step name is rebound there to a wrapper, and restored on exit.  The
    list holds iterates 1, 2, ...; iteration 0 is the starting point.
    """
    name = f"{algorithm}_step"
    step = getattr(dynamics, name)
    iterates = []

    def recording(*args, **kwargs):
        new = step(*args, **kwargs)
        iterates.append(new)
        return new

    setattr(dynamics, name, recording)
    try:
        yield iterates
    finally:
        setattr(dynamics, name, step)


@pytest.fixture
def dataset_scans(monkeypatch):
    """A list that grows by one entry each time ``as_dataset`` runs,
    through the binding in ``core`` or the one in ``io``."""
    scans = []
    original = core.as_dataset

    def counted(*args, **kwargs):
        scans.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(core, "as_dataset", counted)
    monkeypatch.setattr(io, "as_dataset", counted)
    return scans


@pytest.fixture
def pb_gem_step_as(monkeypatch):
    """Rebinds ``gemgmm.dynamics.pb_gem_step``, the step that ``run`` and
    ``update_map_jacobian`` take for ``"pb_gem"``, to a given ``(params,
    moments) -> GmmParams`` map for the rest of the test."""
    return lambda step: monkeypatch.setattr(dynamics, "pb_gem_step", step)
