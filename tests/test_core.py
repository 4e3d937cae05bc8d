import math
import tracemalloc
import warnings

import numpy as np
import pytest

from gemgmm import (
    GmmParams,
    InvalidCovarianceError,
    NumericUnderflowError,
    SimplexViolationError,
    ValidationError,
    VectorLayout,
    log_likelihood,
    responsibilities,
    sample,
)
from gemgmm.core import (
    EPASS_BLOCK,
    _blocks,
    _epass,
    _epass_tangent,
    _factors,
    _feature_major,
    _log_weighted_densities,
    as_dataset,
    e_step,
)
from gemgmm.engine import em_step

from conftest import (
    JACOBIAN_SHAPES,
    ORACLE_SHAPES,
    make_dataset,
    make_params,
    mask_sample,
    naive_component_density,
    naive_loglik,
    naive_responsibilities,
    probe_directions,
    q_function,
    reference_estep,
    reference_m_step,
    theta_split,
    vec_epass_tangent,
)


# ---------------------------------------------------------------- params

def test_params_valid_construction_freezes_arrays():
    p = GmmParams([0.3, 0.7], [[0.0], [1.0]], [np.eye(1), 2 * np.eye(1)])
    assert p.n_components == 2
    assert p.n_features == 1
    with pytest.raises(ValueError):
        p.weights[0] = 0.5


@pytest.mark.parametrize("weights, means, covs", [
    ([0.5, 0.5], [[0.0]], [np.eye(1), np.eye(1)]),          # means row count
    ([1.0], [[0.0, 0.0]], [np.eye(1)]),                     # cov dim mismatch
    ([0.5, 0.5], [[0.0], [1.0]], [np.eye(1)]),              # missing cov
    ([], [], []),                                           # no component
    ([1.0], [[]], np.zeros((1, 0, 0))),                     # no feature
])
def test_params_shape_validation(weights, means, covs):
    with pytest.raises(ValidationError):
        GmmParams(weights, means, np.asarray(covs))


def test_params_rejects_nonpositive_weight():
    with pytest.raises(SimplexViolationError):
        GmmParams([1.0, 0.0], [[0.0], [1.0]], [np.eye(1), np.eye(1)])


def test_params_rejects_bad_weight_sum():
    with pytest.raises(SimplexViolationError):
        GmmParams([0.6, 0.5], [[0.0], [1.0]], [np.eye(1), np.eye(1)])


def test_params_weight_sum_tolerance_is_tight():
    GmmParams([0.5 + 4e-13, 0.5 - 4e-13], [[0.0], [1.0]], [np.eye(1), np.eye(1)])
    with pytest.raises(SimplexViolationError):
        GmmParams([0.5 + 1e-11, 0.5], [[0.0], [1.0]], [np.eye(1), np.eye(1)])


def test_params_rejects_asymmetric_covariance():
    cov = np.array([[1.0, 0.2], [0.1, 1.0]])
    with pytest.raises(InvalidCovarianceError):
        GmmParams([1.0], [[0.0, 0.0]], [cov])


def test_params_rejects_indefinite_covariance():
    cov = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    with pytest.raises(InvalidCovarianceError):
        GmmParams([1.0], [[0.0, 0.0]], [cov])


@pytest.mark.parametrize("covs, message", [
    ([np.eye(2), 2.0 * np.eye(2), [[1.0, 0.2], [0.1, 1.0]]],
     r"covariance 2 asymmetric by 1\.000e-01"),
    ([np.eye(2), 2.0 * np.eye(2), [[1.0, 2.0], [2.0, 1.0]]],
     "covariance 2 is not positive definite"),
    # each component's symmetry check comes before its factorization
    ([np.eye(2), [[1.0, 2.0], [2.0, 1.0]], [[1.0, 0.2], [0.1, 1.0]]],
     "covariance 1 is not positive definite"),
])
def test_params_error_names_first_bad_component_of_stack(covs, message):
    with pytest.raises(InvalidCovarianceError, match=message):
        GmmParams([0.25, 0.25, 0.5], np.zeros((3, 2)), covs)


def test_params_rejects_nonfinite():
    with pytest.raises(ValidationError):
        GmmParams([1.0], [[np.nan]], [np.eye(1)])


_ASYM = [[1.0, 0.2], [0.1, 1.0]]


# With several violations at once, the first in the order finiteness,
# weight positivity, weight sum, covariances is the one reported.
@pytest.mark.parametrize("weights, means, covs, error, message", [
    ([np.nan, 0.5], np.zeros((2, 2)), [np.eye(2), _ASYM], ValidationError, "finite"),
    ([np.inf, 0.5], np.zeros((2, 2)), [np.eye(2), np.eye(2)], ValidationError, "finite"),
    ([-0.5, 1.5], [[0.0, np.inf], [0.0, 0.0]], [np.eye(2), np.eye(2)], ValidationError, "finite"),
    ([-0.5, 1.5], np.zeros((2, 2)), [np.eye(2), [[np.nan, 0.0], [0.0, 1.0]]],
     ValidationError, "finite"),
    ([0.5, 0.5], np.zeros((2, 2)), [np.eye(2), [[np.inf, 0.0], [0.0, 1.0]]],
     ValidationError, "finite"),
    ([-0.5, 1.5], np.zeros((2, 2)), [np.eye(2), _ASYM], SimplexViolationError, "positive"),
    ([0.6, 0.6], np.zeros((2, 2)), [np.eye(2), _ASYM], SimplexViolationError, "sum to 1"),
    ([0.5, 0.5], np.zeros((2, 2)), [-np.eye(2), _ASYM], InvalidCovarianceError,
     "covariance 0 is not positive definite"),
])
def test_params_report_the_first_violated_check(weights, means, covs, error, message):
    with pytest.raises(error, match=message):
        GmmParams(weights, means, covs)


# ---------------------------------------------------------------- layout

def test_layout_sizes_and_blocks():
    lay = VectorLayout(2, 3)
    assert lay.size == 2 + 6 + 18
    # blocks of the coordinate indices: weights 0-1, means 2-7 (component
    # 1 at 5-7), column-stacked covariances 8-25 (component 1 at 17-25)
    w, mu, cv = lay.split(np.arange(26.0))
    assert w.tolist() == [0.0, 1.0]
    assert mu.ravel().tolist() == list(range(2, 8))
    assert mu[1].tolist() == [5.0, 6.0, 7.0]
    assert cv.transpose(0, 2, 1).ravel().tolist() == list(range(8, 26))
    assert cv[1].T.ravel().tolist() == list(range(17, 26))


def test_vector_encodes_covariances_column_stacked():
    cov = np.array([[1.0, 2.0], [2.0, 5.0]])
    p = GmmParams([1.0], [[0.0, 0.0]], [cov])
    vec = p.to_vector()
    # vec(C) stacks columns: (C00, C10, C01, C11)
    assert vec[3:].tolist() == [1.0, 2.0, 2.0, 5.0]
    asym = np.array([[1.0, 7.0], [2.0, 5.0]])
    joined = p.layout.join(p.weights, p.means, asym[None])
    assert joined[3:].tolist() == [1.0, 2.0, 7.0, 5.0]


@pytest.mark.parametrize("k, m", [(1, 1), (1, 3), (2, 2), (3, 1), (3, 3)])
def test_flatten_unflatten_round_trip_exact(k, m):
    rng = np.random.default_rng(1000 + 10 * k + m)
    p = make_params(rng, k, m)
    vec = p.to_vector()
    assert vec.shape == (k + k * m + k * m * m,)
    back = GmmParams.from_vector(vec, k, m)
    assert np.array_equal(back.weights, p.weights)
    assert np.array_equal(back.means, p.means)
    assert np.array_equal(back.covs, p.covs)
    assert np.array_equal(back.to_vector(), vec)
    # the independent unpacking in the test oracle agrees
    w, mu, cv = theta_split(vec, k, m)
    assert np.array_equal(w, p.weights)
    assert np.array_equal(mu, p.means)
    assert np.array_equal(cv, p.covs)


def test_split_rejects_wrong_length():
    with pytest.raises(ValidationError):
        VectorLayout(2, 2).split(np.zeros(5))


def test_from_vector_symmetrize_repairs_roundoff():
    p = make_params(np.random.default_rng(3), 2, 2)
    w, mu, cv = p.layout.split(p.to_vector())
    cv[0, 1, 0] += 1e-9  # perturb one off-diagonal
    vec = p.layout.join(w, mu, cv)
    with pytest.raises(InvalidCovarianceError):
        GmmParams.from_vector(vec, 2, 2)
    # the caller repairs it: symmetrize the covariance blocks, then rebuild
    w, mu, cv = p.layout.split(vec)
    vec = p.layout.join(w, mu, 0.5 * (cv + cv.transpose(0, 2, 1)))
    fixed = GmmParams.from_vector(vec, 2, 2)
    assert np.array_equal(fixed.covs[0], fixed.covs[0].T)


# ---------------------------------------------------------------- dataset

def test_as_dataset_promotes_1d():
    x = as_dataset([1.0, 2.0, 3.0])
    assert x.shape == (3, 1)


def test_as_dataset_rejects_nonfinite_and_empty():
    with pytest.raises(ValidationError):
        as_dataset([[np.inf]])
    with pytest.raises(ValidationError):
        as_dataset(np.empty((0, 2)))


def test_as_dataset_checks_feature_count():
    with pytest.raises(ValidationError):
        as_dataset(np.zeros((4, 3)), n_features=2)


# ---------------------------------------------------------------- density

def component_density(params, j, x):
    """Weighted density of component ``j`` at the point ``x``, from the
    log-density kernel."""
    xt = _feature_major(np.reshape(x, (1, -1)), params.n_features)
    d = xt - params.means[:, :, None]
    return float(np.exp(_log_weighted_densities(d, *_factors(params), np.empty_like(d))[j, 0]))


def test_component_density_standard_bivariate_peak():
    p = GmmParams([1.0], [[0.0, 0.0]], [np.eye(2)])
    val = component_density(p, 0, [0.0, 0.0])
    assert val == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)


def test_component_density_symmetric_two_component():
    p = GmmParams([0.5, 0.5], [[1.0, 1.0], [-1.0, -1.0]],
                  [np.eye(2), np.eye(2)])
    v0 = component_density(p, 0, [0.0, 0.0])
    v1 = component_density(p, 1, [0.0, 0.0])
    expected = 0.5 / (2.0 * math.pi) * math.exp(-1.0)
    assert v0 == pytest.approx(expected, rel=1e-14)
    assert v1 == pytest.approx(expected, rel=1e-14)


def test_component_density_matches_direct_formula():
    rng = np.random.default_rng(7)
    p = make_params(rng, 3, 2)
    x = rng.normal(0.0, 2.0, size=2)
    for j in range(3):
        ref = float(p.weights[j]) * math.exp(
            -0.5 * (x - p.means[j]) @ np.linalg.inv(p.covs[j]) @ (x - p.means[j])
        ) / math.sqrt(np.linalg.det(2.0 * math.pi * p.covs[j]))
        assert component_density(p, j, x) == pytest.approx(ref, rel=1e-12)


# ----------------------------------------------------------- log-likelihood

def test_log_likelihood_single_point_at_mean():
    p = GmmParams([1.0], [[0.0, 0.0]], [np.eye(2)])
    ll = log_likelihood(p, [[0.0, 0.0]])
    assert ll == pytest.approx(math.log(1.0 / (2.0 * math.pi)), rel=1e-14)


def test_log_likelihood_additive_over_duplicated_rows():
    rng = np.random.default_rng(11)
    p = make_params(rng, 2, 2)
    x = make_dataset(rng, 5, 2)
    single = log_likelihood(p, x)
    doubled = log_likelihood(p, np.vstack([x, x]))
    assert doubled == pytest.approx(2.0 * single, rel=1e-14)


@pytest.mark.parametrize("k, m, n", [(1, 1, 6), (2, 2, 10), (3, 3, 8)])
def test_log_likelihood_matches_brute_force(k, m, n):
    rng = np.random.default_rng(100 * k + m)
    p = make_params(rng, k, m)
    x = make_dataset(rng, n, m)
    ref = naive_loglik(p.weights, p.means, p.covs, x)
    assert log_likelihood(p, x) == pytest.approx(ref, rel=1e-10)


def test_log_likelihood_component_permutation_invariant():
    rng = np.random.default_rng(13)
    p = make_params(rng, 3, 2)
    x = make_dataset(rng, 12, 2)
    perm = [2, 0, 1]
    q = GmmParams(p.weights[perm], p.means[perm], p.covs[perm])
    assert log_likelihood(q, x) == pytest.approx(log_likelihood(p, x), rel=1e-14)


def test_log_likelihood_survives_distant_points():
    # far tails would underflow a linear-space evaluation
    p = GmmParams([1.0], [[0.0]], [np.eye(1)])
    ll = log_likelihood(p, [[60.0]])
    assert ll == pytest.approx(-0.5 * 60.0**2 - 0.5 * math.log(2.0 * math.pi), rel=1e-12)


def test_log_likelihood_accurate_for_ill_conditioned_covariance():
    # condition number 1e8, eigenvectors off the axes; points from the
    # mean out to 30 standard deviations along either axis.  Backward-
    # stable evaluations of the quadratic form differ by about
    # cond(C) * eps relative, so the oracle (inv/det) is matched to
    # 10 * 1e8 * eps; against a triangular-solve evaluation the Cholesky
    # inverse may lose only cond(L) = 1e4 times eps, so 10 * 1e4 * eps.
    eps = np.finfo(float).eps
    rot = np.array([[0.6, -0.8], [0.8, 0.6]])
    lam = np.array([1.0, 1e-8])
    cov = rot @ np.diag(lam) @ rot.T
    cov = 0.5 * (cov + cov.T)
    assert np.linalg.cond(cov) == pytest.approx(1e8, rel=1e-3)
    mean = np.array([0.3, -1.2])
    p = GmmParams([1.0], [mean], [cov])
    z = np.array([[0.0, 0.0], [0.5, -0.3], [-1.0, 1.0], [3.0, 0.0], [0.0, -3.0],
                  [25.0, 0.0], [0.0, 25.0], [-20.0, 15.0], [10.0, -30.0]])
    x = mean + (z * np.sqrt(lam)) @ rot.T
    chol = np.linalg.cholesky(cov)
    for row in x:
        ll = log_likelihood(p, row[None])
        ref = naive_loglik(p.weights, p.means, p.covs, row[None])
        assert abs(ll - ref) <= 10 * 1e8 * eps * max(1.0, abs(ref))
        y = np.linalg.solve(chol, row - mean)
        solved = -0.5 * (2 * math.log(2 * math.pi)
                         + 2 * np.sum(np.log(np.diag(chol))) + y @ y)
        assert abs(ll - solved) <= 10 * 1e4 * eps * max(1.0, abs(solved))
    total = naive_loglik(p.weights, p.means, p.covs, x)
    assert log_likelihood(p, x) == pytest.approx(total, rel=10 * 1e8 * eps)


# ------------------------------------------------------------------ E-pass

@pytest.mark.parametrize("k, m, n", [(1, 1, 7), (2, 2, 40), (3, 3, 25)])
def test_estep_returns_exactly_loglik_and_responsibilities(k, m, n):
    rng = np.random.default_rng(300 + 10 * k + m)
    p = make_params(rng, k, m)
    x = make_dataset(rng, n, m)
    xt = np.ascontiguousarray(as_dataset(x).T)
    h = responsibilities(p, x).T
    assert log_likelihood(p, x) == _epass(p, xt)[0]
    assert h.shape == (k, n) and h.flags.c_contiguous
    assert np.array_equal(h, np.concatenate([blk[3].copy() for blk in _blocks(p, xt)], axis=1))


@pytest.mark.parametrize("k, m, n", ORACLE_SHAPES)
def test_estep_matches_sample_major_reference(k, m, n):
    rng = np.random.default_rng(500 + 10 * k + m)
    p = make_params(rng, k, m)
    x = make_dataset(rng, n, m)
    ll, h = log_likelihood(p, x), responsibilities(p, x)
    ref_ll, ref_h = reference_estep(p, x)
    assert abs(ll - ref_ll) <= 1e-12 * abs(ref_ll)
    assert np.max(np.abs(h - ref_h)) <= 1e-14


def test_estep_reports_underflow():
    p = GmmParams([0.5, 0.5], [[0.0], [1.0]], [np.eye(1), np.eye(1)])
    for epass in (log_likelihood, responsibilities):
        with pytest.raises(NumericUnderflowError):
            epass(p, np.array([[0.0], [1e300]]))


# Sample counts at and across the edges of the E-pass blocks, and two
# (K, m) of ORACLE_SHAPES.  The blocked sums differ from the references
# only in summation order, so they agree to 1e-12 relative; a sample
# lost or counted twice at a block edge moves the counts by ~1e-4.
BLOCK_EDGE_NS = [EPASS_BLOCK, EPASS_BLOCK + 1, 2 * EPASS_BLOCK + 17]
BLOCK_EDGE_TOL = 1e-12


def _max_rel_err(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize("n", BLOCK_EDGE_NS)
@pytest.mark.parametrize("k, m", [(2, 2), (8, 16)])
def test_epass_across_block_edges_matches_references(k, m, n):
    rng = np.random.default_rng(700 + 10 * k + m)
    p = make_params(rng, k, m)
    x = make_dataset(rng, n, m)
    loglik, moments = _epass(p, _feature_major(x, m))
    ref_ll, ref_h = reference_estep(p, x)
    weights, means, covs = reference_m_step(p, x, ref_h, shifted=True)
    counts = moments.counts
    assert moments.n == n
    assert abs(loglik - ref_ll) <= BLOCK_EDGE_TOL * abs(ref_ll)
    assert _max_rel_err(counts, ref_h.sum(axis=0)) <= BLOCK_EDGE_TOL
    assert _max_rel_err(counts / n, weights) <= BLOCK_EDGE_TOL
    assert _max_rel_err(moments.first / counts[:, None], means) <= BLOCK_EDGE_TOL
    assert _max_rel_err(moments.second / counts[:, None, None], covs) <= BLOCK_EDGE_TOL
    assert log_likelihood(p, x) == loglik
    assert np.max(np.abs(responsibilities(p, x) - ref_h)) <= 1e-14


@pytest.mark.parametrize("n, at", [(5, 3), (EPASS_BLOCK + 9, EPASS_BLOCK + 4)])
def test_one_component_overflowing_leaves_the_sample_to_the_other(n, at):
    # at sample `at` the narrow component's squared distance overflows,
    # so its log-density is -inf, while the wide one's stays finite; in
    # the first block and in a later one
    p = GmmParams([0.5, 0.5], [[0.0], [0.0]], [[[1.0]], [[1e-10]]])
    x = np.zeros((n, 1))
    x[at] = 1e150
    xt = _feature_major(x, 1)
    d = xt[None] - p.means[:, :, None]
    log_densities = _log_weighted_densities(d, *_factors(p), np.empty_like(d))
    assert np.isfinite(log_densities[0, at]) and log_densities[1, at] == -np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ll, h = log_likelihood(p, x), responsibilities(p, x)
        loglik, moments = _epass(p, xt)
    assert h[at].tolist() == [1.0, 0.0]
    assert math.isfinite(ll) and loglik == ll
    assert np.isfinite(moments.counts).all() and moments.counts[0] >= 1.0


def test_underflow_names_the_global_sample_index():
    p = GmmParams([0.5, 0.5], [[0.0], [1.0]], [np.eye(1), np.eye(1)])
    x = np.zeros((2 * EPASS_BLOCK + 17, 1))
    bad = 2 * EPASS_BLOCK + 5
    x[bad] = 1e300
    for epass, data in ((_epass, _feature_major(x, 1)), (log_likelihood, x), (responsibilities, x)):
        with pytest.raises(NumericUnderflowError, match=rf"at sample {bad}$"):
            epass(p, data)


def test_log_likelihood_streams_the_epass_blocks():
    # Over eight full blocks and a part, the streamed sum equals the
    # E-pass's bit for bit, and the pass holds no (K, N) array: its peak
    # stays below the K * N * 8 bytes of one.
    k, n = 4, 8 * EPASS_BLOCK + 17
    rng = np.random.default_rng(900)
    p = make_params(rng, k, 1)
    x = make_dataset(rng, n, 1)
    tracemalloc.start()
    try:
        ll = log_likelihood(p, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ll == _epass(p, _feature_major(x, 1))[0]
    assert peak < k * n * 8


# The tangent pass on the Jacobian shapes, and across block edges: its
# moments are the E-pass's own sums, and its derivative matches central
# differences of full E-passes (step 1e-5, error O(h^2) plus roundoff / h)
# to 1e-6 of the largest entry.
TANGENT_CASES = [(k, m, 60) for k, m in JACOBIAN_SHAPES] + [(2, 2, 2 * EPASS_BLOCK + 17)]
TANGENT_STEP = 1e-5


@pytest.mark.parametrize("k, m, n", TANGENT_CASES)
def test_epass_tangent_moments_equal_the_epass(k, m, n):
    rng = np.random.default_rng(800 + 10 * k + m)
    p = make_params(rng, k, m)
    xt = _feature_major(make_dataset(rng, n, m), m)
    moments, _ = _epass_tangent(p, xt)
    ref = _epass(p, xt)[1]
    assert moments.n == ref.n == n
    for got, want in ((moments.counts, ref.counts), (moments.first, ref.first),
                      (moments.second, ref.second)):
        assert np.array_equal(got, want)


# The tangent pass sums its Grams and applies the score on vech(d d'),
# and only its final gather maps rows to the vec layout; the pass on
# vec(d d') with the Kronecker score is the reference.  Only the order of
# the sums differs, so 1e-13 of the largest entry bounds it; also at
# K=8, m=16, where vech has 136 entries in place of 256.
@pytest.mark.parametrize("k, m, n", TANGENT_CASES + [(8, 16, 500), (3, 3, 2 * EPASS_BLOCK + 17)])
def test_epass_tangent_matches_the_vec_pass(k, m, n):
    rng = np.random.default_rng(900 + 10 * k + m)
    p = make_params(rng, k, m)
    xt = _feature_major(make_dataset(rng, n, m), m)
    moments, tangent = _epass_tangent(p, xt)
    ref_moments, ref_tangent = vec_epass_tangent(p, xt)
    assert tangent.shape == ref_tangent.shape == (p.layout.size, p.layout.size)
    assert _max_rel_err(tangent, ref_tangent) <= 1e-13
    for name in ("counts", "first", "second"):
        assert _max_rel_err(getattr(moments, name), getattr(ref_moments, name)) <= 1e-13


@pytest.mark.parametrize("k, m, n", TANGENT_CASES)
def test_epass_tangent_matches_differences_of_epass(k, m, n):
    rng = np.random.default_rng(800 + 10 * k + m)
    p = make_params(rng, k, m)
    xt = _feature_major(make_dataset(rng, n, m), m)
    layout, base = p.layout, p.to_vector()
    tangent = _epass_tangent(p, xt)[1]
    assert tangent.shape == (layout.size, layout.size)

    def moments_at(vec):
        mo = _epass(GmmParams.from_vector(vec, k, m), xt)[1]
        return layout.join(mo.counts, mo.first, mo.second)

    directions = probe_directions(layout)
    fd = np.array([(moments_at(base + TANGENT_STEP * v) - moments_at(base - TANGENT_STEP * v))
                   / (2.0 * TANGENT_STEP) for v in directions])
    assert _max_rel_err(directions @ tangent.T, fd) <= 1e-6


# ---------------------------------------------------------- responsibilities

def test_responsibilities_single_component_all_one():
    p = GmmParams([1.0], [[0.0]], [np.eye(1)])
    h = responsibilities(p, [[0.5], [3.0]])
    assert np.array_equal(h, np.ones((2, 1)))


def test_responsibilities_equidistant_point_splits_evenly():
    p = GmmParams([0.5, 0.5], [[1.0, 1.0], [-1.0, -1.0]],
                  [np.eye(2), np.eye(2)])
    h = responsibilities(p, [[0.0, 0.0]])
    assert h[0] == pytest.approx([0.5, 0.5], abs=1e-15)


def test_responsibilities_match_direct_evaluation():
    p = GmmParams([0.5, 0.5], [[1.0, 1.0], [-1.0, -1.0]],
                  [np.eye(2), np.eye(2)])
    h = responsibilities(p, [[1.0, 1.0]])
    ref = naive_responsibilities(p, [[1.0, 1.0]])
    assert np.max(np.abs(h - ref)) < 1e-12


@pytest.mark.parametrize("seed", range(8))
def test_responsibilities_rows_on_simplex(seed):
    rng = np.random.default_rng(2000 + seed)
    k = int(rng.integers(1, 4))
    m = int(rng.integers(1, 4))
    p = make_params(rng, k, m)
    x = make_dataset(rng, int(rng.integers(2, 30)), m)
    h = responsibilities(p, x)
    assert np.all(h >= 0.0)
    assert np.all(h <= 1.0)
    assert np.max(np.abs(h.sum(axis=1) - 1.0)) <= 1e-12


# ---------------------------------------------------------------- q-function

def test_q_function_single_component_equals_loglik():
    rng = np.random.default_rng(17)
    p = make_params(rng, 1, 2)
    x = make_dataset(rng, 9, 2)
    assert q_function(p, p, x) == pytest.approx(log_likelihood(p, x), rel=1e-13)


def test_q_function_matches_double_sum():
    rng = np.random.default_rng(19)
    p = make_params(rng, 2, 1)
    q = make_params(rng, 2, 1)
    x = make_dataset(rng, 3, 1)
    h = naive_responsibilities(q, x)
    ref = 0.0
    for t, row in enumerate(np.atleast_2d(x)):
        for j in range(2):
            ref += h[t, j] * math.log(
                naive_component_density(p.weights[j], p.means[j], p.covs[j], row))
    assert q_function(p, q, x) == pytest.approx(ref, rel=1e-12)


def test_q_function_increases_after_em_step():
    rng = np.random.default_rng(23)
    p = make_params(rng, 2, 2)
    x = make_dataset(rng, 40, 2)
    stepped = em_step(p, e_step(p, x))
    assert q_function(stepped, p, x) > q_function(p, p, x)


# ---------------------------------------------------------------- sampling

def test_sample_deterministic_per_seed():
    p = GmmParams([0.5, 0.5], [[1.0, 1.0], [-1.0, -1.0]],
                  [np.eye(2), np.eye(2)])
    a = sample(p, 100, 42)
    b = sample(p, 100, 42)
    c = sample(p, 100, 43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize(("weights", "empty"), [
    ([1.0], []), ([0.3, 0.7], []), ([0.2, 0.5, 0.3], []),
    ([0.5, 1e-12, 0.5 - 1e-12], [1]),
], ids=["K1", "K2", "K3", "K3_one_draws_none"])
def test_sample_equals_the_boolean_mask_scatter(weights, empty):
    k = len(weights)
    p = make_params(np.random.default_rng(1291 + k), k, 3)
    p = GmmParams(weights, p.means, p.covs)
    n, seed = 1000, 8317
    labels = np.random.default_rng(seed).choice(k, size=n, p=p.weights)
    assert np.flatnonzero(np.bincount(labels, minlength=k) == 0).tolist() == empty
    assert sample(p, n, seed).tobytes() == mask_sample(p, n, seed).tobytes()


def test_sample_mixture_mean_near_zero():
    p = GmmParams([0.5, 0.5], [[1.0, 1.0], [-1.0, -1.0]],
                  [np.eye(2), np.eye(2)])
    x = sample(p, 1000, 5)
    # mixture mean is (0,0); 0.15 is a generous multiple of the standard error
    assert np.all(np.abs(x.mean(axis=0)) < 0.15)


def test_sample_covariance_near_identity():
    p = GmmParams([1.0], [[0.0, 0.0]], [np.eye(2)])
    x = sample(p, 10_000, 9)
    emp = np.cov(x.T)
    assert np.max(np.abs(emp - np.eye(2))) < 0.1


def test_sample_applies_component_covariances():
    cov = np.array([[4.0, 1.5], [1.5, 1.0]])
    p = GmmParams([1.0], [[2.0, -1.0]], [cov])
    x = sample(p, 20_000, 21)
    assert np.max(np.abs(np.cov(x.T) - cov)) < 0.15
    assert np.max(np.abs(x.mean(axis=0) - [2.0, -1.0])) < 0.05


def test_sample_rejects_nonpositive_count():
    p = GmmParams([1.0], [[0.0]], [np.eye(1)])
    with pytest.raises(ValidationError):
        sample(p, 0, 1)


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_sample_rejects_seed_that_is_not_a_nonnegative_integer(seed):
    p = GmmParams([1.0], [[0.0]], [np.eye(1)])
    with pytest.raises(ValidationError, match="seed"):
        sample(p, 5, seed)


def test_underflow_is_reported_not_silent():
    # a point 1e6 sigma away drives even the log-space mixture to -inf
    # responsibilities cannot be normalized there
    p = GmmParams([0.5, 0.5], [[0.0], [1.0]], [np.eye(1), np.eye(1)])
    with pytest.raises(NumericUnderflowError):
        responsibilities(p, [[1e300]])
