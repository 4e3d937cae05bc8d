import numpy as np
import pytest

from gemgmm import (
    DegenerateComponentError,
    GmmParams,
    MeanStepWeights,
    e_step,
    em_step,
    grad_log_likelihood,
    log_likelihood,
    pb_gem_step,
    run,
    sample,
    w_pb_gem_step,
)
from gemgmm import core
from gemgmm.core import _epass
from gemgmm.engine import _m_step

from conftest import (
    ORACLE_SHAPES,
    fd_loglik_gradient,
    make_dataset,
    make_params,
    naive_responsibilities,
    reference_estep,
    reference_m_step,
    reference_shifted_em_step,
)


# ---------------------------------------------------------------- em_step

def test_em_step_single_component_hits_sample_moments():
    rng = np.random.default_rng(31)
    x = make_dataset(rng, 25, 2)
    p = GmmParams([1.0], [[5.0, -3.0]], [4.0 * np.eye(2)])
    stepped = em_step(p, e_step(p, x))
    xbar = x.mean(axis=0)
    s = (x - xbar).T @ (x - xbar) / x.shape[0]
    assert np.allclose(stepped.means[0], xbar, rtol=0, atol=1e-14)
    assert np.allclose(stepped.covs[0], s, rtol=0, atol=1e-14)
    assert stepped.weights[0] == 1.0
    # the single-component optimum is reached in one step
    again = em_step(stepped, e_step(stepped, x))
    assert np.allclose(again.means, stepped.means, rtol=0, atol=1e-14)
    assert np.allclose(again.covs, stepped.covs, rtol=0, atol=1e-13)


def test_em_step_fixed_point_on_two_points_is_exact():
    # data {0, 2}: sample mean 1, sample variance 1; the update reproduces
    # both without roundoff
    x = np.array([[0.0], [2.0]])
    p = GmmParams([1.0], [[1.0]], [np.eye(1)])
    out = em_step(p, e_step(p, x))
    assert out.means[0, 0] == 1.0
    assert out.covs[0, 0, 0] == 1.0


def test_shifted_equals_classic_when_mean_stationary():
    rng = np.random.default_rng(29)
    x = make_dataset(rng, 20, 2)
    p = GmmParams([1.0], [x.mean(axis=0)], [3.0 * np.eye(2)])
    a = em_step(p, e_step(p, x))
    b = reference_shifted_em_step(p, x)
    assert np.max(np.abs(a.to_vector() - b.to_vector())) < 1e-13


def test_classic_vs_shifted_covariance_on_two_points():
    # data {0, 2}, start at mean 0: both steps move the mean to 1, but the
    # classic covariance is the spread about the new mean (1) while the
    # shifted covariance is the second moment about the old mean (2)
    x = np.array([[0.0], [2.0]])
    p = GmmParams([1.0], [[0.0]], [np.eye(1)])
    classic = em_step(p, e_step(p, x))
    shifted = reference_shifted_em_step(p, x)
    assert classic.means[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert shifted.means[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert classic.covs[0, 0, 0] == pytest.approx(1.0, abs=1e-15)
    assert shifted.covs[0, 0, 0] == pytest.approx(2.0, abs=1e-15)


def test_steps_share_weight_and_mean_updates():
    rng = np.random.default_rng(37)
    p = make_params(rng, 3, 2)
    x = make_dataset(rng, 60, 2)
    a = em_step(p, e_step(p, x))
    weights, means, covs = _m_step(e_step(p, x))
    assert np.array_equal(a.weights, weights)
    assert np.array_equal(a.means, means)
    assert not np.allclose(a.covs, covs)


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
    classic = em_step(p, e_step(p, x))
    shifted = pb_gem_step(p, e_step(p, x))
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
    # the shifted update is the M-step itself; EM re-centres it
    got = GmmParams(*_m_step(e_step(p, x))) if shifted else em_step(p, e_step(p, x))
    for block, ref in zip((got.weights, got.means, got.covs), reference_m_step(p, x, h, shifted)):
        assert block.shape == ref.shape
        assert np.max(np.abs(block - ref)) <= 1e-12 * np.max(np.abs(ref))


W_DESIGN = MeanStepWeights([0.9, 0.7])


@pytest.mark.parametrize("algorithm, step", [
    ("em", em_step), ("pb_gem", pb_gem_step),
    ("w_pb_gem", lambda p, moments: w_pb_gem_step(p, moments, W_DESIGN))],
    ids=["em_step", "pb_gem_step", "w_pb_gem_step"])
def test_precomputed_moments_give_identical_step(monkeypatch, algorithm, step):
    # a step reads only the E-step's moments: with the sample check and
    # the log-density pass made to raise, it still gives run's first
    # iterate bit for bit
    rng = np.random.default_rng(41)
    p = make_params(rng, 2, 2)
    x = make_dataset(rng, 30, 2)
    loglik, moments = _epass(p, core._feature_major(x, 2))
    assert loglik == log_likelihood(p, x)
    design = W_DESIGN if algorithm == "w_pb_gem" else None
    a = run(p, x, algorithm, design=design, max_iters=1).final_params

    def reads_samples(*args, **kwargs):
        raise AssertionError("a step read samples")

    monkeypatch.setattr(core, "_log_weighted_densities", reads_samples)
    monkeypatch.setattr(core, "as_dataset", reads_samples)
    with pytest.raises(AssertionError, match="read samples"):
        e_step(p, x)
    b = step(p, moments)
    assert np.array_equal(a.to_vector(), b.to_vector())


@pytest.mark.parametrize("step", [em_step, pb_gem_step])
def test_both_steps_increase_log_likelihood(step):
    rng = np.random.default_rng(43)
    p = make_params(rng, 2, 2)
    x = make_dataset(rng, 80, 2)
    ll = log_likelihood(p, x)
    for _ in range(10):
        p = step(p, e_step(p, x))
        ll_new = log_likelihood(p, x)
        assert ll_new >= ll - 1e-10
        ll = ll_new


@pytest.mark.parametrize("offset", [10.0, 100.0, 1000.0])
def test_em_step_covariances_from_a_far_start(offset):
    # the start sits offset*sqrt(2) standard deviations off the data, so
    # the means move that far in one step; the classic covariance then
    # carries the roundoff of a second moment of size |delta|^2, relative
    # to its smallest eigenvalue
    truth = GmmParams([0.5, 0.5], [[1.0, 1.0], [-1.0, -1.0]], [np.eye(2), np.eye(2)])
    x = sample(truth, 400, 191)
    p = GmmParams([0.5, 0.5], truth.means + [offset, -offset], [np.eye(2), np.eye(2)])
    _, ref_means, ref_covs = reference_m_step(p, x, reference_estep(p, x)[1], shifted=False)
    got = em_step(p, e_step(p, x))
    eps = np.finfo(float).eps
    for j in range(2):
        delta = ref_means[j] - p.means[j]
        tol = 8.0 * eps * (1.0 + delta @ delta / np.linalg.eigvalsh(ref_covs[j])[0])
        err = np.max(np.abs(got.covs[j] - ref_covs[j])) / np.max(np.abs(ref_covs[j]))
        assert err <= tol, (j, err, tol)


def test_em_step_reports_starved_component():
    # the second component sits 1000 sigma away from all the data, so its
    # posterior mass underflows to zero and the closed form would divide by it
    rng = np.random.default_rng(47)
    x = rng.normal(0.0, 1.0, size=(50, 1))
    p = GmmParams([0.5, 0.5], [[0.0], [1000.0]], [np.eye(1), np.eye(1)])
    with pytest.raises(DegenerateComponentError):
        em_step(p, e_step(p, x))


# ---------------------------------------------------------------- gradient

@pytest.mark.parametrize("k, m, n, seed", [
    (1, 1, 12, 0), (1, 2, 15, 1), (2, 1, 20, 2), (2, 2, 25, 3), (3, 2, 18, 4),
])
def test_gradient_matches_central_differences(k, m, n, seed):
    rng = np.random.default_rng(5000 + seed)
    p = make_params(rng, k, m)
    x = make_dataset(rng, n, m)
    g = grad_log_likelihood(p, e_step(p, x))
    g_fd = fd_loglik_gradient(p, x)
    assert np.linalg.norm(g - g_fd) <= 1e-5 * np.linalg.norm(g_fd)


def test_gradient_weight_block_is_mass_over_weight():
    rng = np.random.default_rng(53)
    p = make_params(rng, 3, 1)
    x = make_dataset(rng, 40, 1)
    h = naive_responsibilities(p, x)
    g = grad_log_likelihood(p, e_step(p, x))
    assert np.allclose(g[:3], h.sum(axis=0) / p.weights, rtol=1e-12, atol=0)


def test_gradient_vanishes_at_single_component_optimum():
    rng = np.random.default_rng(59)
    x = make_dataset(rng, 30, 2)
    start = GmmParams([1.0], [[0.0, 0.0]], [np.eye(2)])
    p = em_step(start, e_step(start, x))
    g_w, g_mu, g_cv = p.layout.split(grad_log_likelihood(p, e_step(p, x)))
    # the weight partial is N (mass over a weight of 1), not zero; the
    # constrained directions are killed downstream by the projection
    assert g_w[0] == pytest.approx(30.0, rel=1e-12)
    assert np.max(np.abs(g_mu)) < 2e-10
    assert np.max(np.abs(g_cv)) < 2e-10


def test_gradient_weight_block_equal_under_mirror_symmetry():
    # uniform weights, mirrored means, mirror-symmetric data: both
    # components carry the same posterior mass
    x = np.array([[-2.0], [-1.0], [1.0], [2.0]])
    p = GmmParams([0.5, 0.5], [[-1.0], [1.0]], [np.eye(1), np.eye(1)])
    g = grad_log_likelihood(p, e_step(p, x))
    assert g[0] == pytest.approx(g[1], rel=1e-14)


def test_gradient_cov_block_is_symmetric():
    rng = np.random.default_rng(61)
    p = make_params(rng, 2, 3)
    x = make_dataset(rng, 35, 3)
    _, _, g_cv = p.layout.split(grad_log_likelihood(p, e_step(p, x)))
    for j in range(2):
        scale = np.max(np.abs(g_cv[j]))
        assert np.max(np.abs(g_cv[j] - g_cv[j].T)) <= 1e-13 * scale


def test_gradient_small_step_increases_log_likelihood():
    rng = np.random.default_rng(73)
    p = make_params(rng, 2, 2)
    x = make_dataset(rng, 50, 2)
    vec = p.to_vector() + 1e-6 * grad_log_likelihood(p, e_step(p, x))
    # renormalizing the weights keeps the comparison on the simplex
    vec[:2] /= vec[:2].sum()
    w, mu, cv = p.layout.split(vec)
    stepped = GmmParams(w, mu, 0.5 * (cv + cv.transpose(0, 2, 1)))
    assert log_likelihood(stepped, x) > log_likelihood(p, x)


def test_grad_ascent_leaves_stationary_blocks_in_place():
    # at the single-component optimum a raw gradient step vec + eta * grad
    # moves only the weight coordinate (its partial is N there; the simplex
    # constraint is handled by the projected steps, not by this raw step)
    rng = np.random.default_rng(83)
    x = make_dataset(rng, 30, 2)
    start = GmmParams([1.0], [[0.0, 0.0]], [np.eye(2)])
    p = em_step(start, e_step(start, x))
    eta = 0.5
    vec = p.to_vector()
    out = vec + eta * grad_log_likelihood(p, e_step(p, x))
    _, out_mu, out_cv = p.layout.split(out)
    assert np.allclose(out_mu, p.means, rtol=0, atol=1e-10)
    assert np.allclose(out_cv, p.covs, rtol=0, atol=1e-10)
    assert out[0] == pytest.approx(1.0 + eta * 30.0, rel=1e-12)
