import math

import numpy as np
import pytest

from gemgmm import (
    DegenerateComponentError,
    GmmParams,
    MeanStepWeights,
    SectorBounds,
    SimplexViolationError,
    ValidationError,
    em_step,
    empirical_rate,
    lmi_matrix,
    rate_bound,
    rate_certificate,
    run,
    sample,
    update_map_jacobian,
)

from conftest import lmi_check, make_dataset, make_params


# -------------------------------------------------------------- rate bound

@pytest.mark.parametrize("m_lo, L_hi, expected", [
    (1.0, 1.0, 0.0),
    (0.5, 1.5, 0.5),
    (0.1, 1.2, 0.9),
    (0.9, 1.0, 0.1),
])
def test_rate_bound_closed_form(m_lo, L_hi, expected):
    assert rate_bound(SectorBounds(m_lo, L_hi)) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("m_lo, L_hi", [(0.0, 1.0), (-0.5, 1.0), (1.5, 0.5)])
def test_sector_bounds_validation(m_lo, L_hi):
    with pytest.raises(ValidationError):
        SectorBounds(m_lo, L_hi)


def test_sector_bounds_allow_equal_constants():
    b = SectorBounds(0.7, 0.7)
    assert rate_bound(b) == pytest.approx(0.3, abs=1e-15)


# --------------------------------------------------------------------- LMI

def test_lmi_matrix_entries():
    got = lmi_matrix(0.5, 1.0, SectorBounds(0.5, 1.5))
    assert np.allclose(got, [[-0.75, 1.0], [1.0, -1.0]], rtol=0, atol=1e-15)


def test_lmi_exactly_zero_at_unit_bounds():
    b = SectorBounds(1.0, 1.0)
    assert np.array_equal(lmi_matrix(0.0, 0.5, b), np.zeros((2, 2)))
    assert lmi_check(0.0, 0.5, b)


@pytest.mark.parametrize("mu", [0.0, 0.3, 0.6, 0.9, 0.99])
@pytest.mark.parametrize("m_lo, L_hi", [(1.0, 1.0), (0.5, 1.5), (0.2, 1.9)])
def test_small_multiplier_always_infeasible(mu, m_lo, L_hi):
    # the bottom-right entry 1 - 2*lam stays positive for lam < 1/2
    assert not lmi_check(mu, 0.4, SectorBounds(m_lo, L_hi))


def test_lmi_feasibility_boundary_at_half():
    b = SectorBounds(0.5, 1.5)
    assert lmi_check(0.5, 0.5, b)
    assert not lmi_check(0.49, 0.5, b)


def test_lmi_check_rejects_out_of_range_mu():
    b = SectorBounds(0.5, 1.5)
    with pytest.raises(ValidationError):
        lmi_check(1.0, 0.5, b)
    with pytest.raises(ValidationError):
        lmi_check(-0.01, 0.5, b)


@pytest.mark.parametrize("m_lo, L_hi", [(0.5, 1.5), (0.3, 1.2), (0.8, 1.1)])
def test_lmi_monotone_in_mu(m_lo, L_hi):
    b = SectorBounds(m_lo, L_hi)
    cert = rate_certificate(b)
    assert cert.feasible
    for mu in np.linspace(cert.mu_bound, 0.999, 7):
        assert lmi_check(float(mu), cert.multiplier, b)


# ------------------------------------------------------------- grid search

# The minimum feasible rate is the certificate's mu_bound: the smallest
# grid mu that some grid multiplier certifies.

def test_min_feasible_rate_at_unit_bounds_is_zero():
    assert rate_certificate(SectorBounds(1.0, 1.0)).mu_bound == 0.0


def test_min_feasible_rate_matches_closed_form():
    got = rate_certificate(SectorBounds(0.5, 1.5)).mu_bound
    assert got == pytest.approx(0.5, abs=1e-3 + 1e-9)


def test_min_feasible_rate_infeasible_outside_contractive_regime():
    # |1 - L| = 1.5 means no mu < 1 can be certified
    assert not rate_certificate(SectorBounds(0.1, 2.5)).feasible


def test_rate_certificate_feasible_packaging():
    cert = rate_certificate(SectorBounds(0.5, 1.5))
    assert cert.feasible
    assert cert.mu_bound == pytest.approx(0.5, abs=1e-3 + 1e-9)
    assert cert.multiplier >= 0.5
    assert lmi_check(cert.mu_bound, cert.multiplier, SectorBounds(0.5, 1.5))


def test_rate_certificate_infeasible_packaging():
    cert = rate_certificate(SectorBounds(0.1, 2.5))
    assert not cert.feasible
    assert math.isnan(cert.mu_bound)
    assert math.isnan(cert.multiplier)


@pytest.mark.parametrize("m_lo", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("L_hi", [1.0, 1.4, 1.8])
def test_grid_rate_within_one_cell_of_closed_form(m_lo, L_hi):
    cert = rate_certificate(SectorBounds(m_lo, L_hi))
    expected = rate_bound(SectorBounds(m_lo, L_hi))
    assert cert.feasible
    got = cert.mu_bound
    assert -1e-9 <= got - expected <= 1e-3 + 1e-9


# ----------------------------------------------------------- jacobian probes

def _feasible_vector(layout, rng):
    """Random vector with zero-sum weight block and symmetric cov blocks."""
    w, mu, cv = layout.split(rng.normal(size=layout.size))
    return layout.join(w - w.mean(), mu, 0.5 * (cv + cv.transpose(0, 2, 1)))


def _feasible_projector(k, m):
    """Dense orthogonal projector onto the feasible directions, in the
    flat layout: I - 11'/K on the weights, I on the means, and
    (I + commutation)/2 on each column-stacked covariance block."""
    commutation = np.zeros((m * m, m * m))
    for a in range(m):
        for b in range(m):
            commutation[b + a * m, a + b * m] = 1.0
    blocks = ([np.eye(k) - np.full((k, k), 1.0 / k), np.eye(k * m)]
              + [0.5 * (np.eye(m * m) + commutation)] * k)
    size = k + k * m + k * m * m
    proj = np.zeros((size, size))
    at = 0
    for block in blocks:
        n = block.shape[0]
        proj[at:at + n, at:at + n] = block
        at += n
    return proj


@pytest.mark.parametrize("k, m", [(1, 1), (2, 2), (3, 3), (2, 5)])
def test_identity_stub_jacobian_acts_as_identity_on_feasible_vectors(k, m):
    # K=1 has a zero weight direction; m=1 has no off-diagonal entries
    rng = np.random.default_rng(211)
    p = make_params(rng, k, m)
    x = make_dataset(rng, 20, m)
    rep = update_map_jacobian(p, x, lambda q, d: q)
    assert np.allclose(rep.jacobian, _feasible_projector(k, m), rtol=0, atol=1e-8)
    for seed in range(5):
        v = _feasible_vector(p.layout, np.random.default_rng(seed))
        assert np.linalg.norm(rep.jacobian @ v - v) <= 1e-8 * np.linalg.norm(v)
    # feasible directions carry eigenvalue 1, the rest collapse to 0
    assert rep.classification == "first_order"
    n_feasible = (k - 1) + k * m + k * (m * (m + 1) // 2)
    assert np.sum(rep.moduli > 0.5) == n_feasible


def test_identity_stub_weight_columns_are_centered_probes():
    rng = np.random.default_rng(213)
    p = make_params(rng, 3, 1)
    x = make_dataset(rng, 10, 1)
    rep = update_map_jacobian(p, x, lambda q, d: q)
    expected = np.eye(3) - np.full((3, 3), 1.0 / 3.0)
    assert np.allclose(rep.jacobian[:3, :3], expected, rtol=0, atol=1e-9)


def test_constant_map_jacobian_is_zero():
    rng = np.random.default_rng(217)
    p = make_params(rng, 2, 1)
    x = make_dataset(rng, 10, 1)
    rep = update_map_jacobian(p, x, lambda q, d: p)
    assert np.max(np.abs(rep.jacobian)) < 1e-9
    assert rep.classification == "newton_like"


def test_halfway_map_classifies_mixed():
    rng = np.random.default_rng(219)
    p = make_params(rng, 2, 1)
    x = make_dataset(rng, 10, 1)
    base = p.to_vector()

    def halfway(q, d):
        w, mu, cv = q.layout.split(base + 0.5 * (q.to_vector() - base))
        return GmmParams(w, mu, 0.5 * (cv + cv.transpose(0, 2, 1)))

    rep = update_map_jacobian(p, x, halfway)
    assert rep.moduli[0] == pytest.approx(0.5, abs=1e-8)
    assert rep.classification == "mixed"


@pytest.mark.parametrize("algorithm", ["em", "pb_gem"])
def test_single_gaussian_fixed_point_is_newton_like(algorithm):
    rng = np.random.default_rng(223)
    x = rng.normal(1.0, 2.0, size=(60, 1))
    p = em_step(GmmParams([1.0], [[0.0]], [np.eye(1)]), x)
    rep = update_map_jacobian(p, x, algorithm)
    # the weight direction is trivial for K=1: the probe is identically zero
    assert np.array_equal(rep.jacobian[:, 0], np.zeros(3))
    assert rep.classification == "newton_like"
    assert np.all(rep.moduli < 0.1)


def test_overlapping_components_far_from_optimum_are_first_order():
    rng = np.random.default_rng(201)
    x = rng.normal(0.0, 1.0, size=(200, 1))
    p = GmmParams([0.5, 0.5], [[-0.1], [0.1]], [np.eye(1), np.eye(1)])
    rep = update_map_jacobian(p, x, "pb_gem")
    assert rep.moduli[0] > 0.9
    assert rep.classification == "first_order"


def test_weighted_jacobian_with_unit_betas_matches_plain():
    rng = np.random.default_rng(227)
    p = make_params(rng, 2, 1)
    x = make_dataset(rng, 30, 1)
    a = update_map_jacobian(p, x, "pb_gem")
    b = update_map_jacobian(p, x, "w_pb_gem", design=MeanStepWeights([1.0, 1.0]))
    assert np.allclose(a.jacobian, b.jacobian, rtol=0, atol=1e-12)


@pytest.mark.parametrize("algorithm, design", [
    ("pb_gem", None), ("w_pb_gem", MeanStepWeights([0.9, 0.7]))])
def test_jacobian_checks_its_data_once(dataset_scans, algorithm, design):
    rng = np.random.default_rng(231)
    p = make_params(rng, 2, 2)
    x = make_dataset(rng, 30, 2)
    update_map_jacobian(p, x, algorithm, design=design)
    assert len(dataset_scans) == 1


def test_jacobian_custom_map_gets_validated_samples():
    p = GmmParams([1.0], [[0.0]], [np.eye(1)])
    seen = []

    def identity(q, d):
        seen.append(d)
        return q

    update_map_jacobian(p, [[0.0], [1.0], [3.0]], identity)
    assert all(isinstance(d, np.ndarray) and d.tolist() == [[0.0], [1.0], [3.0]] for d in seen)


def test_jacobian_argument_validation():
    p = GmmParams([1.0], [[0.0]], [np.eye(1)])
    x = [[0.0], [1.0]]
    with pytest.raises(ValidationError):
        update_map_jacobian(p, x, "newton")
    with pytest.raises(ValidationError):
        update_map_jacobian(p, x, "w_pb_gem")
    with pytest.raises(ValidationError):
        update_map_jacobian(p, x, "pb_gem", design=MeanStepWeights([1.0]))
    with pytest.raises(ValidationError):
        update_map_jacobian(p, x, lambda q, d: q, design=MeanStepWeights([1.0]))


def test_jacobian_probe_failure_reports_perturbation_index():
    # one weight sits closer to zero than the probe step, so the minus
    # probe leaves the simplex
    rng = np.random.default_rng(229)
    x = make_dataset(rng, 20, 1)
    p = GmmParams([1e-7, 1.0 - 1e-7], [[-2.0], [2.0]], [np.eye(1), np.eye(1)])
    with pytest.raises(SimplexViolationError, match="perturbation"):
        update_map_jacobian(p, x, "pb_gem")


def _em_once(q, d):
    return run(q, d, "em", max_iters=1).final_params


@pytest.mark.parametrize("custom_map", [
    _em_once, lambda q, d: run(q, d, _em_once, max_iters=1).final_params],
    ids=["run", "run_of_run"])
def test_jacobian_probe_failure_inside_run_reports_its_cause(custom_map):
    # a custom map that calls run fails as StepFailure (nested, when the
    # map run iterates calls run too); the probe error takes the class of
    # the root cause and names the perturbation
    x = np.random.default_rng(0).normal(size=(50, 1))
    p = GmmParams([0.5, 0.5], [[0.0], [1000.0]], [np.eye(1), np.eye(1)])
    with pytest.raises(DegenerateComponentError, match="perturbation 0: iteration 1"):
        update_map_jacobian(p, x, custom_map)


# ------------------------------------------------------------ empirical rate

def test_empirical_rate_recovers_exact_geometric_decay():
    ks = np.arange(60.0)
    arr = np.column_stack([ks, 100.0 - 0.9 ** ks])
    got = empirical_rate(arr, l_star=100.0)
    assert got == pytest.approx(0.9, abs=1e-6)


def test_empirical_rate_requires_ten_iterations():
    ks = np.arange(9.0)
    arr = np.column_stack([ks, 100.0 - 0.9 ** ks])
    assert empirical_rate(arr, l_star=100.0) is None


def test_empirical_rate_rejects_nonmonotone_tail():
    ks = np.arange(30.0)
    ll = 100.0 - 0.9 ** ks
    ll[-2] -= 1.0
    assert empirical_rate(np.column_stack([ks, ll]), l_star=100.0) is None


def test_empirical_rate_undefined_for_constant_trace():
    arr = np.column_stack([np.arange(20.0), np.full(20, -5.0)])
    assert empirical_rate(arr) is None


def test_empirical_rate_input_validation():
    with pytest.raises(ValidationError):
        empirical_rate(np.zeros(15))
    with pytest.raises(ValidationError):
        empirical_rate(np.zeros((15, 1)))


def test_empirical_rate_on_real_run_trace():
    truth = GmmParams([0.5, 0.5], [[1.0, 1.0], [-1.0, -1.0]],
                      [np.eye(2), np.eye(2)])
    data = sample(truth, 300, 233)
    start = GmmParams([0.5, 0.5], [[0.5, 0.0], [-0.5, 0.0]],
                      [np.eye(2), np.eye(2)])
    trace = run(start, data, "pb_gem", max_iters=2000)
    assert trace.reason == "tolerance"
    rate = empirical_rate(trace)
    assert rate is not None
    assert 0.0 < rate < 1.0
