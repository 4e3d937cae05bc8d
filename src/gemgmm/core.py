"""Gaussian mixture model parameters, the E-pass, and seeded sampling.

Parameters are held both structured (:class:`GmmParams`) and as a flat
vector whose block order is ``[weights; means; vec(covs)]`` with ``vec``
stacking matrix *columns*.  The flat layout is a public contract shared
by the gradient, preconditioner, and projection code: for ``K``
components in ``m`` dimensions the vector has length ``K + m*K + m*m*K``.

All densities are evaluated in log space and combined with log-sum-exp,
so likelihoods stay finite even for points far from every component.
One log-density pass gives the log-likelihood and the responsibilities
together; the E-step (:func:`e_step`) reduces them to the K-sized
:class:`Moments` that every update map reads, so the E-step is the only
code on the update path that reads samples.

Data layout.  The public functions take samples as an (N, m) array, one
sample per row (:func:`as_dataset` checks that form), and give
responsibilities as an (N, K) array.  Internally the kernels hold the
validated samples feature-major, as one read-only C-contiguous (m, N)
array (:func:`_feature_major`).  A pass factors the parameters once and
then walks the samples in blocks of ``EPASS_BLOCK`` columns: per block
it forms the centred stack x - mean_j (K, m, b) once, gets the (K, b)
log-densities and responsibilities from it, and adds the block's part
to the log-likelihood and the moments.  Its temporaries are O(K*m*B)
for any N, not O(K*N).  The block width is fixed, so the summation
order is too; it differs from one sum over all N at roundoff.
:func:`log_likelihood` streams: it adds up the blocks' parts and holds
no (K, N) array.  Only :func:`responsibilities` returns an O(K*N) array,
the (N, K) transpose view of a (K, N) array filled block by block.

Tangent pass.  :func:`_epass_tangent` walks the same blocks and gives
the moments together with their exact derivative in the parameters, at
any point: the derivative of the responsibilities is the complete-data
score about its posterior mean, so one pass sums K Gram matrices of
g = (1, d, vech(d d')) and one Gram matrix of their h-weighted stack,
and stays on vech until one gather maps the result to the flat layout.
The update-map Jacobian reads it (:mod:`gemgmm.analysis`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidCovarianceError,
    NumericUnderflowError,
    SimplexViolationError,
    ValidationError,
)

# Tolerances of the constraint checks that every GmmParams passes, so
# every iterate of dynamics.run as well.
WEIGHT_SUM_TOL = 1e-12
SYMMETRY_TOL = 1e-12

_LOG_2PI = math.log(2.0 * math.pi)

# Samples per block of the E-pass: the pass holds O(K * m * EPASS_BLOCK)
# temporaries, whatever N.  Fixed, so the summation order is too.
EPASS_BLOCK = 8192


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def _raise_first_invalid_covariance(cv: np.ndarray) -> None:
    """Raise for the first component that fails the covariance checks,
    taking each component's symmetry check before its factorization.
    The checks run batched over the whole (K, m, m) stack; this loop only
    runs once they have failed, to name the component."""
    for j in range(cv.shape[0]):
        asym = np.max(np.abs(cv[j] - cv[j].T))
        if asym > SYMMETRY_TOL:
            raise InvalidCovarianceError(f"covariance {j} asymmetric by {asym:.3e} (tol {SYMMETRY_TOL})")
        try:
            np.linalg.cholesky(cv[j])
        except np.linalg.LinAlgError as err:
            raise InvalidCovarianceError(f"covariance {j} is not positive definite: {err}") from err
    raise InvalidCovarianceError("covariance stack failed its batched check, but no component did")


@dataclass(frozen=True, eq=False)
class GmmParams:
    """Validated mixture parameters (immutable).

    Parameters
    ----------
    weights : (K,) array
        Mixture weights.  Each must be strictly positive and the sum must
        equal 1 within ``WEIGHT_SUM_TOL``.
    means : (K, m) array
        Component means.
    covs : (K, m, m) array
        Component covariances.  Each must be symmetric within
        ``SYMMETRY_TOL`` (max elementwise asymmetry) and positive
        definite: the Cholesky factorization must succeed.  Failure
        raises instead of regularizing, so constraint violations surface
        rather than being silently repaired.
    """

    weights: np.ndarray
    means: np.ndarray
    covs: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        mu = np.asarray(self.means, dtype=float)
        cv = np.asarray(self.covs, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ValidationError(f"weights must be a nonempty vector, got shape {w.shape}")
        k = w.size
        if mu.ndim != 2 or mu.shape[0] != k:
            raise ValidationError(f"means must have shape ({k}, m), got {mu.shape}")
        m = mu.shape[1]
        if m < 1:
            raise ValidationError("feature dimension must be at least 1")
        if cv.shape != (k, m, m):
            raise ValidationError(f"covs must have shape ({k}, {m}, {m}), got {cv.shape}")
        if not (np.isfinite(w).all() and np.isfinite(mu).all() and np.isfinite(cv).all()):
            raise ValidationError("parameters must be finite")
        if w.min() <= 0.0:
            raise SimplexViolationError(f"weights must be strictly positive, got {w}")
        if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise SimplexViolationError(f"weights must sum to 1 within {WEIGHT_SUM_TOL}, got sum {float(w.sum())}")
        chol = None
        if np.abs(cv - cv.transpose(0, 2, 1)).max() <= SYMMETRY_TOL:
            try:
                chol = np.linalg.cholesky(cv)
            except np.linalg.LinAlgError:
                pass
        if chol is None:
            _raise_first_invalid_covariance(cv)
        chol.setflags(write=False)  # fresh from the factorization
        object.__setattr__(self, "weights", _frozen(w))
        object.__setattr__(self, "means", _frozen(mu))
        object.__setattr__(self, "covs", _frozen(cv))
        object.__setattr__(self, "_chol", chol)

    @property
    def n_components(self) -> int:
        return self.weights.size

    @property
    def n_features(self) -> int:
        return self.means.shape[1]

    @property
    def layout(self) -> "VectorLayout":
        return VectorLayout(self.n_components, self.n_features)

    def to_vector(self) -> np.ndarray:
        """Flatten to the ``[weights; means; vec(covs)]`` layout."""
        return self.layout.join(self.weights, self.means, self.covs)

    @classmethod
    def from_vector(cls, vec: np.ndarray, n_components: int, n_features: int) -> "GmmParams":
        """Rebuild validated parameters from a flat vector."""
        return cls(*VectorLayout(n_components, n_features).split(np.asarray(vec, dtype=float)))


@dataclass(frozen=True)
class VectorLayout:
    """Block layout of the flat parameter vector for (K, m).

    Order is ``[weights (K); means (m per component, components stacked);
    vec(cov_j) (m*m per component, columns stacked)]``.
    """

    n_components: int
    n_features: int

    @property
    def size(self) -> int:
        k, m = self.n_components, self.n_features
        return k + k * m + k * m * m

    def split(self, vec: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Split a flat vector into (weights, means, covs) blocks.

        Covariance blocks are un-vec'd column-wise; no validation is
        performed, so this also applies to gradients and raw updates.
        """
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.size,):
            raise ValidationError(f"expected vector of shape ({self.size},), got {vec.shape}")
        k, m = self.n_components, self.n_features
        w, mu, cv = np.split(vec, [k, k + k * m])
        # Each cov block is column-stacked, so the C-order reshape is the
        # transpose of the matrix it encodes.
        return w.copy(), mu.reshape(k, m).copy(), cv.reshape(k, m, m).transpose(0, 2, 1).copy()

    def join(self, weights: np.ndarray, means: np.ndarray, covs: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`split`; exact (copies, no arithmetic)."""
        k, m = self.n_components, self.n_features
        weights = np.asarray(weights, dtype=float).reshape(k)
        means = np.asarray(means, dtype=float).reshape(k, m)
        covs = np.asarray(covs, dtype=float).reshape(k, m, m)
        return np.concatenate([weights, means.ravel(), covs.transpose(0, 2, 1).reshape(-1)])


def as_dataset(data: np.ndarray, n_features: int | None = None) -> np.ndarray:
    """Validate a dataset: 2-D float array, one sample per row, all finite.

    A 1-D array is accepted as single-feature data.
    """
    x = np.asarray(data, dtype=float)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValidationError(f"dataset must be a nonempty N x m matrix, got shape {x.shape}")
    if n_features is not None and x.shape[1] != n_features:
        raise ValidationError(f"dataset has {x.shape[1]} columns, expected {n_features}")
    if not np.all(np.isfinite(x)):
        raise ValidationError("dataset contains non-finite entries")
    return x


def _feature_major(data: np.ndarray, n_features: int) -> np.ndarray:
    """Validated (N, m) samples as a read-only C-contiguous (m, N) array:
    a view of samples stored in Fortran order (as a loaded binary copy
    of a dataset is), a copy of any others."""
    xt = np.ascontiguousarray(as_dataset(data, n_features).T)
    xt.flags.writeable = False
    return xt


def _factors(params: GmmParams) -> tuple[np.ndarray, np.ndarray]:
    """The per-pass factors of the log-density kernel: the (K, m, m)
    inverse Cholesky factors and the K-vector log w_j minus the sum of
    the halves of m log 2pi and log det cov_j (halving is exact)."""
    half_logdet = np.log(params._chol.diagonal(axis1=1, axis2=2)).sum(axis=1)
    half_logdet += 0.5 * params.n_features * _LOG_2PI
    return np.linalg.inv(params._chol), np.log(params.weights) - half_logdet


def _log_weighted_densities(d: np.ndarray, inv_chol: np.ndarray, log_norm: np.ndarray,
                            work: np.ndarray) -> np.ndarray:
    """(K, b) matrix of log(w_j * N(x | mean_j, cov_j)), one row per component.

    ``d`` is the centred stack x - mean_j of b samples, (K, m, b);
    ``inv_chol`` and ``log_norm`` are the factors of :func:`_factors`.
    The triangular solve with each Cholesky factor is one batched product
    with its inverse, written into ``work``, a (K, m, b) scratch array.
    """
    y = np.matmul(inv_chol, d, out=work)
    out = np.einsum("kib,kib->kb", y, y)
    out *= -0.5
    out += log_norm[:, None]
    return out


def _blocks(params: GmmParams, xt: np.ndarray):
    """One E-pass over validated (m, N) samples ``xt``, block by block.

    The parameters are factored once, and two (K, m, b) buffers are
    allocated once.  For each block of b <= ``EPASS_BLOCK`` samples this
    yields ``(start, d, work, h, loglik)``: the index of its first
    sample, its centred stack d (K, m, b), a (K, m, b) scratch array the
    caller may overwrite, its (K, b) responsibilities and its part of
    the log-likelihood.  First it raises at the first sample whose
    largest log-density is not finite (its mixture density underflowed);
    then each shifted column holds a 0, its sum is at least 1, and the
    log-sum-exp and the normalization reduce over the component axis in
    place: the log-density buffer becomes the responsibilities.
    """
    k, n = params.n_components, xt.shape[1]
    inv_chol, log_norm = _factors(params)
    centres = params.means[:, :, None]
    size = k * params.n_features * min(n, EPASS_BLOCK)
    d_buf, work_buf = np.empty(size), np.empty(size)
    for start in range(0, n, EPASS_BLOCK):
        xb = xt[:, start:start + EPASS_BLOCK]
        shape = (k,) + xb.shape
        d = np.subtract(xb, centres, out=d_buf[:xb.size * k].reshape(shape))
        work = work_buf[:xb.size * k].reshape(shape)
        h = _log_weighted_densities(d, inv_chol, log_norm, work)
        shift = h.max(axis=0)
        if not np.isfinite(shift).all():
            bad = start + int(np.flatnonzero(~np.isfinite(shift))[0])
            raise NumericUnderflowError(f"mixture density underflowed at sample {bad}")
        h -= shift
        np.exp(h, out=h)
        total = h.sum(axis=0)
        h /= total
        lse = np.log(total, out=total)
        lse += shift
        yield start, d, work, h, float(lse.sum())


@dataclass(frozen=True, eq=False)
class Moments:
    """K-sized sums of one E-pass over ``n`` samples: ``counts`` (K,) is
    sum_t h_j(t), ``first`` (K, m) is sum_t h_j(t) x_t, and ``second``
    (K, m, m) is sum_t h_j(t) (x_t - mu_j)(x_t - mu_j)' about the means
    mu_j of the pass.  Nothing is divided, so a pass at a degenerate
    iterate neither raises nor warns; the M-step checks the counts."""

    n: int
    counts: np.ndarray
    first: np.ndarray
    second: np.ndarray


def _epass(params: GmmParams, xt: np.ndarray) -> tuple[float, Moments]:
    """The log-likelihood and the :class:`Moments` at ``params`` for
    validated (m, N) samples ``xt``: one blocked pass that adds each
    block's part to the sums, the second moment from the block's
    centred stack."""
    k, m = params.n_components, params.n_features
    loglik = 0.0
    counts, first, second = np.zeros(k), np.zeros((k, m)), np.zeros((k, m, m))
    for start, d, work, h, part in _blocks(params, xt):
        loglik += part
        counts += h.sum(axis=1)
        first += h @ xt[:, start:start + h.shape[1]].T
        second += np.matmul(np.multiply(h[:, None, :], d, out=work), d.transpose(0, 2, 1))
    return loglik, Moments(xt.shape[1], counts, first, second)


def _tangent_grams(params: GmmParams, xt: np.ndarray) -> tuple[Moments, np.ndarray, np.ndarray]:
    """The blocked pass of :func:`_epass_tangent`: the :class:`Moments`,
    summed as :func:`_epass` sums them, and the Gram matrices
    W (K, q, q) and C (K q, K q) of g = (1, d, vech(d d')),
    q = 1 + m + m (m + 1) / 2, vech taking the rows i <= j of d d' in
    order.  Its two (K, q, b) buffers are freed when it returns."""
    k, m = params.n_components, params.n_features
    q = 1 + m + m * (m + 1) // 2
    counts, first, second = np.zeros(k), np.zeros((k, m)), np.zeros((k, m, m))
    own, cross = np.zeros((k, q, q)), np.zeros((k * q, k * q))
    size = k * q * min(xt.shape[1], EPASS_BLOCK)
    g_buf, hg_buf = np.empty(size), np.empty(size)
    for start, d, work, h, _ in _blocks(params, xt):
        b = h.shape[1]
        counts += h.sum(axis=1)
        first += h @ xt[:, start:start + b].T
        second += np.matmul(np.multiply(h[:, None, :], d, out=work), d.transpose(0, 2, 1))
        g = g_buf[:k * q * b].reshape(k, q, b)
        g[:, 0] = 1.0
        g[:, 1:1 + m] = d
        at = 1 + m
        for i in range(m):
            np.multiply(d[:, i:i + 1], d[:, i:], out=g[:, at:at + m - i])
            at += m - i
        hg = np.multiply(h[:, None, :], g, out=hg_buf[:k * q * b].reshape(k, q, b))
        own += np.matmul(hg, g.transpose(0, 2, 1))
        stacked = hg.reshape(k * q, b)
        cross += stacked @ stacked.T
    return Moments(xt.shape[1], counts, first, second), own, cross


def _epass_tangent(params: GmmParams, xt: np.ndarray) -> tuple[Moments, np.ndarray]:
    """The :class:`Moments` at ``params`` for validated (m, N) samples
    ``xt`` and their exact derivative in the parameters, from one blocked
    pass.

    The derivative is a (D, D) matrix in the flat layout: column i is the
    change of ``layout.join(counts, first, second)`` per unit change of
    parameter coordinate i.  Per component j and sample t the pass
    (:func:`_tangent_grams`) forms g_tj = (1, d_tj, vech(d_tj d_tj')),
    d_tj = x_t - mu_j, q = 1 + m + m (m + 1) / 2 entries, and sums the
    Grams W_j = sum_t h_tj g_tj g_tj' and C = G G', G stacking h_tj g_tj
    over j.  A direction v_j = (dw_j, dmu_j, vec dC_j) changes
    log(w_j N_j(x_t)) by S_j v_j . g_tj (the complete-data score), so the
    responsibilities move by h_tj (S_j v_j . g_tj - sum_k h_tk S_k v_k . g_tk)
    and the sums of h g by (blockdiag_j W_j - C) blockdiag_j S_j v.  S_j
    is q x p, p = 1 + m + m^2: (1/w_j, 0, -vec(P_j) / 2) for the 1, with
    P_j = cov_j^-1; P_j on dmu_j for d; and for d_a d_b, which stands for
    both entries of d d', (P_ar P_bc + P_ac P_br) / 2 on dC_rc, or
    P_ar P_ac / 2 for a = b.  The first moment sums h (d + mu_j); the
    second, about mu_j, also moves with mu_j itself, by
    -(dmu_j r_j' + r_j dmu_j'), r_j = sum_t h_tj d_tj.  This is the
    missing-information term of Louis (1982).  The rows stay on vech until
    one gather maps them and the columns to the flat layout; no
    vec-layout copy of the Grams is made.

    W_j's entry [0, 0] and d d' block sum the counts and the second
    moment too, but in another order than :func:`_epass`; the moments
    are summed as there, so they equal its own bit for bit, and the
    update-map Jacobian, which differences steps taken from them, does
    not move with the summation order.  The pass costs O(N (K q)^2) and
    holds two (K, q, b) buffers; the result is (K p)^2.
    """
    k, m = params.n_components, params.n_features
    p, q = 1 + m + m * m, 1 + m + m * (m + 1) // 2
    moments, own, cross = _tangent_grams(params, xt)
    ia, ib = np.triu_indices(m)

    inv_chol = _factors(params)[0]
    prec = inv_chol.transpose(0, 2, 1) @ inv_chol
    score = np.zeros((k, q, p))
    score[:, 0, 0] = 1.0 / params.weights
    score[:, 0, 1 + m:] = -0.5 * prec.reshape(k, m * m)
    score[:, 1:1 + m, 1:1 + m] = prec
    outer = prec[:, ia, :, None] * prec[:, ib, None, :]
    half = np.where(ia == ib, 0.25, 0.5)[:, None, None]
    score[:, 1 + m:, 1 + m:] = (half * (outer + outer.transpose(0, 1, 3, 2))).reshape(k, -1, m * m)
    r = own[:, 1:1 + m, 0]
    eye = np.eye(m)
    centring = eye[ia] * r[:, ib, None] + r[:, ia, None] * eye[ib]
    np.negative(cross, out=cross)  # -C until the loop adds each W_j
    tangent = np.empty((k * q, k * p))
    rows = tangent.reshape(k, q, k * p)
    for j in range(k):
        block = slice(j * q, (j + 1) * q)
        cross[block, block] += own[j]
        tangent[:, j * p:(j + 1) * p] = cross[:, block] @ score[j]
        rows[j, 1 + m:, j * p + 1:j * p + 1 + m] -= centring[j]
    rows[:, 1:1 + m] += params.means[:, :, None] * rows[:, :1]
    # d_a d_b is vech entry upper[a, b]; one gather maps both axes to the flat layout.
    upper = np.zeros((m, m), dtype=np.intp)
    upper[ia, ib] = upper[ib, ia] = np.arange(1 + m, q)
    vech = np.r_[:1 + m, upper.ravel()]
    order = [params.layout.join(s[:, 0], s[:, 1:1 + m], s[:, 1 + m:].reshape(k, m, m)).astype(np.intp)
             for s in (q * np.arange(k)[:, None] + vech, np.arange(k * p).reshape(k, p))]
    return moments, tangent[np.ix_(*order)]


def e_step(params: GmmParams, data: np.ndarray) -> Moments:
    """The :class:`Moments` of one E-pass at ``params`` over (N, m) samples."""
    return _epass(params, _feature_major(data, params.n_features))[1]


def log_likelihood(params: GmmParams, data: np.ndarray) -> float:
    """Sum over samples of the log mixture density: the blocks' parts,
    added as :func:`_epass` adds them, with no (K, N) array held."""
    loglik = 0.0
    for *_, part in _blocks(params, _feature_major(data, params.n_features)):
        loglik += part
    return loglik


def responsibilities(params: GmmParams, data: np.ndarray) -> np.ndarray:
    """(N, K) posterior membership probabilities; rows sum to 1.

    The result is the transpose view of a (K, N) array filled block by
    block.
    """
    xt = _feature_major(data, params.n_features)
    resp = np.empty((params.n_components, xt.shape[1]))
    for start, _, _, h, _ in _blocks(params, xt):
        resp[:, start:start + h.shape[1]] = h
    return resp.T


def sample(params: GmmParams, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` i.i.d. samples from the mixture.

    Uses ``numpy.random.default_rng(seed)`` (PCG64), so a given seed
    yields the same stream on every platform: component labels are drawn
    first, then one standard-normal block mapped through the Cholesky
    factors.  Same seed, same bytes.
    """
    if n < 1:
        raise ValidationError(f"sample count must be at least 1, got {n}")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    k, m = params.n_components, params.n_features
    rng = np.random.default_rng(seed)
    labels = rng.choice(k, size=n, p=params.weights)
    z = rng.standard_normal((n, m))
    x = np.empty((n, m))
    for j in range(k):
        idx = np.flatnonzero(labels == j)
        x[idx] = params.means[j] + z[idx] @ params._chol[j].T
    return x
