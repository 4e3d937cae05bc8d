"""Gaussian mixture model parameters, densities, and seeded sampling.

Parameters are held both structured (:class:`GmmParams`) and as a flat
vector whose block order is ``[weights; means; vec(covs)]`` with ``vec``
stacking matrix *columns*.  The flat layout is a public contract shared
by the gradient, preconditioner, and projection code: for ``K``
components in ``m`` dimensions the vector has length ``K + m*K + m*m*K``.

All densities are evaluated in log space and combined with log-sum-exp,
so likelihoods stay finite even for points far from every component.
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

# Tolerances used by the constraint checks (also re-checked after every
# preconditioned step, see dynamics.py).
WEIGHT_SUM_TOL = 1e-12
SYMMETRY_TOL = 1e-12

_LOG_2PI = math.log(2.0 * math.pi)


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


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
        if not np.all(np.isfinite(w)) or not np.all(np.isfinite(mu)) or not np.all(np.isfinite(cv)):
            raise ValidationError("parameters must be finite")
        if np.any(w <= 0.0):
            raise SimplexViolationError(f"weights must be strictly positive, got {w}")
        if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise SimplexViolationError(f"weights must sum to 1 within {WEIGHT_SUM_TOL}, got sum {w.sum()!r}")
        chol = np.empty_like(cv)
        for j in range(k):
            asym = np.max(np.abs(cv[j] - cv[j].T))
            if asym > SYMMETRY_TOL:
                raise InvalidCovarianceError(f"covariance {j} asymmetric by {asym:.3e} (tol {SYMMETRY_TOL})")
            try:
                chol[j] = np.linalg.cholesky(cv[j])
            except np.linalg.LinAlgError as err:
                raise InvalidCovarianceError(f"covariance {j} is not positive definite: {err}") from err
        object.__setattr__(self, "weights", _frozen(w))
        object.__setattr__(self, "means", _frozen(mu))
        object.__setattr__(self, "covs", _frozen(cv))
        object.__setattr__(self, "_chol", _frozen(chol))

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
    def from_vector(cls, vec: np.ndarray, n_components: int, n_features: int,
                    symmetrize: bool = False) -> "GmmParams":
        """Rebuild validated parameters from a flat vector.

        With ``symmetrize=True`` each covariance block is replaced by
        ``(C + C.T) / 2`` before validation; preconditioned vector-space
        updates can break symmetry at roundoff level.
        """
        w, mu, cv = VectorLayout(n_components, n_features).split(np.asarray(vec, dtype=float))
        if symmetrize:
            cv = 0.5 * (cv + cv.transpose(0, 2, 1))
        return cls(w, mu, cv)


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

    @property
    def weight_block(self) -> slice:
        return slice(0, self.n_components)

    @property
    def mean_block(self) -> slice:
        k, m = self.n_components, self.n_features
        return slice(k, k + k * m)

    @property
    def cov_block(self) -> slice:
        k, m = self.n_components, self.n_features
        return slice(k + k * m, k + k * m + k * m * m)

    def mean_slice(self, j: int) -> slice:
        k, m = self.n_components, self.n_features
        return slice(k + j * m, k + (j + 1) * m)

    def cov_slice(self, j: int) -> slice:
        k, m = self.n_components, self.n_features
        base = k + k * m
        return slice(base + j * m * m, base + (j + 1) * m * m)

    def split(self, vec: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Split a flat vector into (weights, means, covs) blocks.

        Covariance blocks are un-vec'd column-wise; no validation is
        performed, so this also applies to gradients and raw updates.
        """
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.size,):
            raise ValidationError(f"expected vector of shape ({self.size},), got {vec.shape}")
        k, m = self.n_components, self.n_features
        w = vec[self.weight_block].copy()
        mu = vec[self.mean_block].reshape(k, m).copy()
        # Each cov block is column-stacked, so the C-order reshape is the
        # transpose of the matrix it encodes.
        cv = vec[self.cov_block].reshape(k, m, m).transpose(0, 2, 1).copy()
        return w, mu, cv

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


def _log_weighted_densities(params: GmmParams, x: np.ndarray) -> np.ndarray:
    """(K, N) matrix of log(w_j * N(x | mean_j, cov_j)), one row per component.

    ``x`` must already be validated.  The triangular solve with each
    Cholesky factor is a product with its inverse, factored once per
    call; the loop over components keeps temporaries at N x m.
    """
    k, m = params.n_components, params.n_features
    inv_chol = np.linalg.inv(params._chol)
    out = np.empty((k, x.shape[0]))
    for j in range(k):
        y = inv_chol[j] @ (x - params.means[j]).T
        maha = np.einsum("ij,ij->j", y, y)
        logdet = 2.0 * np.sum(np.log(np.diag(params._chol[j])))
        out[j] = np.log(params.weights[j]) - 0.5 * (m * _LOG_2PI + logdet + maha)
    return out


def _estep(params: GmmParams, x: np.ndarray) -> tuple[float, np.ndarray]:
    """One log-density pass: the log-likelihood and the (N, K)
    responsibilities at ``params`` for validated data ``x``.

    The log-sum-exp and the normalization reduce over the component axis
    of the (K, N) log-densities, i.e. over contiguous rows.
    """
    lw = _log_weighted_densities(params, x)
    amax = lw.max(axis=0)
    shift = np.where(np.isfinite(amax), amax, 0.0)
    dens = np.exp(lw - shift)
    total = dens.sum(axis=0)
    with np.errstate(divide="ignore"):
        lse = np.log(total) + shift
    if not np.all(np.isfinite(lse)):
        bad = int(np.flatnonzero(~np.isfinite(lse))[0])
        raise NumericUnderflowError(f"mixture density underflowed at sample {bad}")
    dens /= total
    return float(lse.sum()), dens.T


def component_density(params: GmmParams, j: int, x: np.ndarray) -> float:
    """Weighted density of component ``j`` at a single point:
    ``w_j * det(2*pi*cov_j)**-0.5 * exp(-0.5 * d' inv(cov_j) d)``.
    """
    if not 0 <= j < params.n_components:
        raise ValidationError(f"component index {j} out of range for K={params.n_components}")
    x = as_dataset(np.asarray(x, dtype=float).reshape(1, -1), params.n_features)
    return float(np.exp(_log_weighted_densities(params, x)[j, 0]))


def log_likelihood(params: GmmParams, data: np.ndarray) -> float:
    """Sum over samples of the log mixture density."""
    return _estep(params, as_dataset(data, params.n_features))[0]


def responsibilities(params: GmmParams, data: np.ndarray) -> np.ndarray:
    """(N, K) posterior membership probabilities; rows sum to 1."""
    return _estep(params, as_dataset(data, params.n_features))[1]


def q_function(params: GmmParams, params_prev: GmmParams, data: np.ndarray) -> float:
    """Expected complete-data log-likelihood.

    Membership posteriors are taken at ``params_prev``, the weighted
    log-densities at ``params``.  One update step that increases this
    value (a generalized M-step) cannot decrease the log-likelihood.
    """
    x = as_dataset(data, params.n_features)
    h = _estep(params_prev, x)[1]
    lw = _log_weighted_densities(params, x).T
    with np.errstate(invalid="ignore"):
        terms = np.where(h > 0.0, h * lw, 0.0)
    total = float(terms.sum())
    if not np.isfinite(total):
        raise NumericUnderflowError("expected complete-data log-likelihood is not finite")
    return total


def sample(params: GmmParams, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` i.i.d. samples from the mixture.

    Uses ``numpy.random.default_rng(seed)`` (PCG64), so a given seed
    yields the same stream on every platform: component labels are drawn
    first, then one standard-normal block mapped through the Cholesky
    factors.  Same seed, same bytes.
    """
    if n < 1:
        raise ValidationError(f"sample count must be at least 1, got {n}")
    k, m = params.n_components, params.n_features
    rng = np.random.default_rng(seed)
    labels = rng.choice(k, size=n, p=params.weights)
    z = rng.standard_normal((n, m))
    x = np.empty((n, m))
    for j in range(k):
        idx = labels == j
        x[idx] = params.means[j] + z[idx] @ params._chol[j].T
    return x
