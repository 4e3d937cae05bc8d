"""Gaussian mixture model parameters, the E-pass, and seeded sampling.

Parameters are held both structured (:class:`GmmParams`) and as a flat
vector whose block order is ``[weights; means; vec(covs)]`` with ``vec``
stacking matrix *columns*.  The flat layout is a public contract shared
by the gradient, preconditioner, and projection code: for ``K``
components in ``m`` dimensions the vector has length ``K + m*K + m*m*K``.

All densities are evaluated in log space and combined with log-sum-exp,
so likelihoods stay finite even for points far from every component.
One log-density pass, the E-pass, gives the log-likelihood and the
responsibilities together.

Data layout.  The public functions take samples as an (N, m) array, one
sample per row (:func:`as_dataset` returns that form), and give
responsibilities as an (N, K) array.  Internally the kernels hold the
validated samples feature-major, as one C-contiguous (m, N) array, and
the responsibilities as (K, N), so every broadcast and reduction over
the samples runs along a contiguous row of length N.  The public (N, K)
responsibilities are the transpose view of the internal array, and a
:class:`Dataset` carries validated (m, N) samples through repeated steps
without scanning them again.
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


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


def _raise_first_invalid_covariance(cv: np.ndarray) -> None:
    """Raise for the first component that fails the covariance checks,
    taking each component's symmetry check before its factorization.

    The checks themselves run batched over the whole (K, m, m) stack;
    this loop only runs once they have failed, to name the component.
    """
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
        if (w <= 0.0).any():
            raise SimplexViolationError(f"weights must be strictly positive, got {w}")
        if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise SimplexViolationError(f"weights must sum to 1 within {WEIGHT_SUM_TOL}, got sum {w.sum()!r}")
        chol = None
        if np.abs(cv - cv.transpose(0, 2, 1)).max() <= SYMMETRY_TOL:
            try:
                chol = np.linalg.cholesky(cv)
            except np.linalg.LinAlgError:
                pass
        if chol is None:
            _raise_first_invalid_covariance(cv)
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


class Dataset:
    """Validated samples, held feature-major.

    ``Dataset(data, n_features)`` checks ``data`` once with
    :func:`as_dataset` and keeps it as the C-contiguous (m, N) array
    ``xt``.  The step functions and the E-pass accept a ``Dataset``
    wherever they accept an (N, m) array and then skip their own check,
    so a driver that steps many times over the same samples scans them
    once.
    """

    __slots__ = ("xt",)

    def __init__(self, data, n_features: int | None = None):
        xt = np.ascontiguousarray(as_dataset(data, n_features).T)
        xt.flags.writeable = False
        self.xt = xt

    @property
    def n_features(self) -> int:
        return self.xt.shape[0]

    @property
    def x(self) -> np.ndarray:
        """The (N, m) view, one sample per row."""
        return self.xt.T


def _feature_major(data, n_features: int) -> np.ndarray:
    """Validated (m, N) samples from an (N, m) array or a :class:`Dataset`."""
    if not isinstance(data, Dataset):
        return Dataset(data, n_features).xt
    if data.n_features != n_features:
        raise ValidationError(f"dataset has {data.n_features} columns, expected {n_features}")
    return data.xt


def _log_weighted_densities(params: GmmParams, xt: np.ndarray) -> np.ndarray:
    """(K, N) matrix of log(w_j * N(x | mean_j, cov_j)), one row per component.

    ``xt`` holds validated samples feature-major, (m, N).  The triangular
    solve with each Cholesky factor is a product with its inverse,
    factored once per call; the log-determinants and constants are
    K-vectors; the loop over components reuses two m x N buffers.
    """
    k, m = params.n_components, params.n_features
    inv_chol = np.linalg.inv(params._chol)
    logdet = 2.0 * np.sum(np.log(np.diagonal(params._chol, axis1=1, axis2=2)), axis=1)
    const = m * _LOG_2PI + logdet
    maha = np.empty((k, xt.shape[1]))
    d, y = np.empty_like(xt), np.empty_like(xt)
    for j in range(k):
        np.subtract(xt, params.means[j][:, None], out=d)
        np.matmul(inv_chol[j], d, out=y)
        np.einsum("ij,ij->j", y, y, out=maha[j])
    maha += const[:, None]
    maha *= -0.5
    maha += np.log(params.weights)[:, None]
    return maha


def _estep(params: GmmParams, xt: np.ndarray) -> tuple[float, np.ndarray]:
    """One log-density pass: the log-likelihood and the (K, N)
    responsibilities at ``params`` for validated (m, N) samples ``xt``.

    The log-sum-exp and the normalization reduce over the component axis
    of the (K, N) log-densities, i.e. over contiguous rows, and run in
    place: the log-density buffer becomes the responsibilities.
    """
    dens = _log_weighted_densities(params, xt)
    shift = dens.max(axis=0)
    shift[~np.isfinite(shift)] = 0.0
    dens -= shift
    np.exp(dens, out=dens)
    total = dens.sum(axis=0)
    with np.errstate(divide="ignore"):
        lse = np.log(total)
    lse += shift
    if not np.all(np.isfinite(lse)):
        bad = int(np.flatnonzero(~np.isfinite(lse))[0])
        raise NumericUnderflowError(f"mixture density underflowed at sample {bad}")
    dens /= total
    return float(lse.sum()), dens


def log_likelihood(params: GmmParams, data) -> float:
    """Sum over samples of the log mixture density."""
    return _estep(params, _feature_major(data, params.n_features))[0]


def responsibilities(params: GmmParams, data) -> np.ndarray:
    """(N, K) posterior membership probabilities; rows sum to 1.

    The result is the transpose view of the internal (K, N) array.
    """
    return _estep(params, _feature_major(data, params.n_features))[1].T


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
        idx = labels == j
        x[idx] = params.means[j] + z[idx] @ params._chol[j].T
    return x
