import numpy as np
import pytest

from gemgmm import (
    DegenerateComponentError,
    GmmParams,
    ValidationError,
    em_step,
    grad_ascent_gem_step,
    grad_log_likelihood,
    log_likelihood,
    responsibilities,
    shifted_em_step,
)
from gemgmm.engine import _m_step, soft_counts

from conftest import (
    ORACLE_SHAPES,
    fd_loglik_gradient,
    make_dataset,
    make_params,
    naive_responsibilities,
    reference_estep,
    reference_m_step,
)


# ---------------------------------------------------------------- em_step

def test_em_step_single_component_hits_sample_moments():
    rng = np.random.default_rng(31)
    x = make_dataset(rng, 25, 2)
    p = GmmParams([1.0], [[5.0, -3.0]], [4.0 * np.eye(2)])
    stepped = em_step(p, x)
    xbar = x.mean(axis=0)
    s = (x - xbar).T @ (x - xbar) / x.shape[0]
    assert np.allclose(stepped.means[0], xbar, rtol=0, atol=1e-14)
    assert np.allclose(stepped.covs[0], s, rtol=0, atol=1e-14)
    assert stepped.weights[0] == 1.0
    # the single-component optimum is reached in one step
    again = em_step(stepped, x)
    assert np.allclose(again.means, stepped.means, rtol=0, atol=1e-14)
    assert np.allclose(again.covs, stepped.covs, rtol=0, atol=1e-13)


def test_em_step_fixed_point_on_two_points_is_exact():
    # data {0, 2}: sample mean 1, sample variance 1; the update reproduces
    # both without roundoff
    x = np.array([[0.0], [2.0]])
    p = GmmParams([1.0], [[1.0]], [np.eye(1)])
    out = em_step(p, x)
    assert out.means[0, 0] == 1.0
    assert out.covs[0, 0, 0] == 1.0


def test_shifted_equals_classic_when_mean_stationary():
    rng = np.random.default_rng(29)
    x = make_dataset(rng, 20, 2)
    p = GmmParams([1.0], [x.mean(axis=0)], [3.0 * np.eye(2)])
    a = em_step(p, x)
    b = shifted_em_step(p, x)
    assert np.max(np.abs(a.to_vector() - b.to_vector())) < 1e-13


def test_classic_vs_shifted_covariance_on_two_points():
    # data {0, 2}, start at mean 0: both steps move the mean to 1, but the
    # classic covariance is the spread about the new mean (1) while the
    # shifted covariance is the second moment about the old mean (2)
    x = np.array([[0.0], [2.0]])
    p = GmmParams([1.0], [[0.0]], [np.eye(1)])
    classic = em_step(p, x)
    shifted = shifted_em_step(p, x)
    assert classic.means[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert shifted.means[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert classic.covs[0, 0, 0] == pytest.approx(1.0, abs=1e-15)
    assert shifted.covs[0, 0, 0] == pytest.approx(2.0, abs=1e-15)


def test_steps_share_weight_and_mean_updates():
    rng = np.random.default_rng(37)
    p = make_params(rng, 3, 2)
    x = make_dataset(rng, 60, 2)
    a = em_step(p, x)
    b = shifted_em_step(p, x)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.means, b.means)
    assert not np.allclose(a.covs, b.covs)


def test_m_step_matches_hand_rolled_formulas():
    # N=4, K=2, m=1, worked with explicit loops against the oracle posteriors
    x = np.array([[-1.5], [-0.5], [0.8], [2.0]])
    p = GmmParams([0.4, 0.6], [[-1.0], [1.0]], [np.eye(1), 2.0 * np.eye(1)])
    h = naive_responsibilities(p, x)
    counts = h.sum(axis=0)
    w_ref = counts / 4.0
    mu_ref = np.array([[(h[:, j] * x[:, 0]).sum() / counts[j]] for j in range(2)])
    cv_classic = np.array([
        [[(h[:, j] * (x[:, 0] - mu_ref[j, 0]) ** 2).sum() / counts[j]]]
        for j in range(2)])
    cv_shifted = np.array([
        [[(h[:, j] * (x[:, 0] - p.means[j, 0]) ** 2).sum() / counts[j]]]
        for j in range(2)])
    classic = em_step(p, x)
    shifted = shifted_em_step(p, x)
    assert np.allclose(classic.weights, w_ref, rtol=0, atol=1e-14)
    assert np.allclose(classic.means, mu_ref, rtol=0, atol=1e-14)
    assert np.allclose(classic.covs, cv_classic, rtol=0, atol=1e-14)
    assert np.allclose(shifted.covs, cv_shifted, rtol=0, atol=1e-14)


@pytest.mark.parametrize("shifted", [False, True])
@pytest.mark.parametrize("k, m, n", ORACLE_SHAPES)
def test_m_step_matches_sample_major_reference(k, m, n, shifted):
    rng = np.random.default_rng(600 + 10 * k + m)
    p = make_params(rng, k, m)
    x = make_dataset(rng, n, m)
    h = reference_estep(p, x)[1]
    got = _m_step(p, np.ascontiguousarray(x.T), np.ascontiguousarray(h.T), shifted)
    for block, ref in zip(got, reference_m_step(p, x, h, shifted)):
        assert block.shape == ref.shape
        assert np.max(np.abs(block - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_precomputed_responsibilities_give_identical_step():
    rng = np.random.default_rng(41)
    p = make_params(rng, 2, 2)
    x = make_dataset(rng, 30, 2)
    h = responsibilities(p, x)
    a = em_step(p, x)
    b = em_step(p, x, resp=h)
    assert np.array_equal(a.to_vector(), b.to_vector())


@pytest.mark.parametrize("step", [em_step, shifted_em_step])
def test_both_steps_increase_log_likelihood(step):
    rng = np.random.default_rng(43)
    p = make_params(rng, 2, 2)
    x = make_dataset(rng, 80, 2)
    ll = log_likelihood(p, x)
    for _ in range(10):
        p = step(p, x)
        ll_new = log_likelihood(p, x)
        assert ll_new >= ll - 1e-10
        ll = ll_new


def test_em_step_reports_starved_component():
    # the second component sits 1000 sigma away from all the data, so its
    # posterior mass underflows to zero and the closed form would divide by it
    rng = np.random.default_rng(47)
    x = rng.normal(0.0, 1.0, size=(50, 1))
    p = GmmParams([0.5, 0.5], [[0.0], [1000.0]], [np.eye(1), np.eye(1)])
    with pytest.raises(DegenerateComponentError):
        em_step(p, x)


def test_soft_counts_threshold():
    ok = np.array([[0.9, 0.1], [0.8, 0.2]])
    assert np.allclose(soft_counts(ok), [1.7, 0.3])
    starved = np.array([[1.0, 1e-15], [1.0, 1e-16]])
    with pytest.raises(DegenerateComponentError):
        soft_counts(starved)


# ---------------------------------------------------------------- gradient

@pytest.mark.parametrize("k, m, n, seed", [
    (1, 1, 12, 0), (1, 2, 15, 1), (2, 1, 20, 2), (2, 2, 25, 3), (3, 2, 18, 4),
])
def test_gradient_matches_central_differences(k, m, n, seed):
    rng = np.random.default_rng(5000 + seed)
    p = make_params(rng, k, m)
    x = make_dataset(rng, n, m)
    g = grad_log_likelihood(p, x)
    g_fd = fd_loglik_gradient(p, x)
    assert np.linalg.norm(g - g_fd) <= 1e-5 * np.linalg.norm(g_fd)


def test_gradient_weight_block_is_mass_over_weight():
    rng = np.random.default_rng(53)
    p = make_params(rng, 3, 1)
    x = make_dataset(rng, 40, 1)
    h = naive_responsibilities(p, x)
    g = grad_log_likelihood(p, x)
    assert np.allclose(g[:3], h.sum(axis=0) / p.weights, rtol=1e-12, atol=0)


def test_gradient_vanishes_at_single_component_optimum():
    rng = np.random.default_rng(59)
    x = make_dataset(rng, 30, 2)
    p = em_step(GmmParams([1.0], [[0.0, 0.0]], [np.eye(2)]), x)
    g = grad_log_likelihood(p, x)
    lay = p.layout
    # the weight partial is N (mass over a weight of 1), not zero; the
    # constrained directions are killed downstream by the projection
    assert g[lay.weight_block][0] == pytest.approx(30.0, rel=1e-12)
    assert np.max(np.abs(g[lay.mean_block])) < 1e-9
    assert np.max(np.abs(g[lay.cov_block])) < 1e-9


def test_gradient_weight_block_equal_under_mirror_symmetry():
    # uniform weights, mirrored means, mirror-symmetric data: both
    # components carry the same posterior mass
    x = np.array([[-2.0], [-1.0], [1.0], [2.0]])
    p = GmmParams([0.5, 0.5], [[-1.0], [1.0]], [np.eye(1), np.eye(1)])
    g = grad_log_likelihood(p, x)
    assert g[0] == pytest.approx(g[1], rel=1e-14)


def test_gradient_cov_block_is_symmetric():
    rng = np.random.default_rng(61)
    p = make_params(rng, 2, 3)
    x = make_dataset(rng, 35, 3)
    _, _, g_cv = p.layout.split(grad_log_likelihood(p, x))
    for j in range(2):
        scale = np.max(np.abs(g_cv[j]))
        assert np.max(np.abs(g_cv[j] - g_cv[j].T)) <= 1e-13 * scale


# ------------------------------------------------------------- grad ascent

def test_grad_ascent_returns_raw_vector_update():
    rng = np.random.default_rng(67)
    p = make_params(rng, 2, 2)
    x = make_dataset(rng, 30, 2)
    eta = 1e-3
    out = grad_ascent_gem_step(p, x, eta)
    expected = p.to_vector() + eta * grad_log_likelihood(p, x)
    assert np.array_equal(out, expected)


def test_grad_ascent_weight_drift_is_eta_times_summed_partials():
    rng = np.random.default_rng(71)
    p = make_params(rng, 2, 1)
    x = make_dataset(rng, 25, 1)
    eta = 1e-4
    out = grad_ascent_gem_step(p, x, eta)
    h = naive_responsibilities(p, x)
    drift = eta * float((h.sum(axis=0) / p.weights).sum())
    assert out[:2].sum() - 1.0 == pytest.approx(drift, rel=1e-10)


def test_grad_ascent_small_step_increases_log_likelihood():
    rng = np.random.default_rng(73)
    p = make_params(rng, 2, 2)
    x = make_dataset(rng, 50, 2)
    out = grad_ascent_gem_step(p, x, 1e-6)
    # renormalizing the weights keeps the comparison on the simplex
    vec = out.copy()
    vec[:2] = out[:2] / out[:2].sum()
    stepped = GmmParams.from_vector(vec, 2, 2, symmetrize=True)
    assert log_likelihood(stepped, x) > log_likelihood(p, x)


def test_grad_ascent_vanishing_step_limit():
    rng = np.random.default_rng(79)
    p = make_params(rng, 2, 2)
    x = make_dataset(rng, 20, 2)
    out = grad_ascent_gem_step(p, x, 1e-300)
    assert np.array_equal(out, p.to_vector())


def test_grad_ascent_leaves_stationary_blocks_in_place():
    # at the single-component optimum only the weight coordinate moves
    # (its partial is N there; the simplex constraint is handled by the
    # projected steps, not by this raw baseline)
    rng = np.random.default_rng(83)
    x = make_dataset(rng, 30, 2)
    p = em_step(GmmParams([1.0], [[0.0, 0.0]], [np.eye(2)]), x)
    eta = 0.5
    out = grad_ascent_gem_step(p, x, eta)
    vec = p.to_vector()
    lay = p.layout
    assert np.allclose(out[lay.mean_block], vec[lay.mean_block], rtol=0, atol=1e-10)
    assert np.allclose(out[lay.cov_block], vec[lay.cov_block], rtol=0, atol=1e-10)
    assert out[0] == pytest.approx(1.0 + eta * 30.0, rel=1e-12)


@pytest.mark.parametrize("eta", [0.0, -1.0])
def test_grad_ascent_rejects_nonpositive_step(eta):
    p = GmmParams([1.0], [[0.0]], [np.eye(1)])
    with pytest.raises(ValidationError):
        grad_ascent_gem_step(p, [[0.0]], eta)
