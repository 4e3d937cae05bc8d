import itertools
import math

import numpy as np
import pytest

from gemgmm import (
    GmmParams,
    MeanStepWeights,
    SectorBounds,
    SimplexViolationError,
    ValidationError,
    e_step,
    em_step,
    empirical_rate,
    lmi_matrix,
    rate_bound,
    rate_certificate,
    run,
    sample,
    update_map_jacobian,
)

from gemgmm.analysis import FD_STEP, _probe_directions
from gemgmm.core import _epass_tangent, _feature_major

from conftest import (JACOBIAN_SHAPES, fd_update_map_jacobian, lmi_check, make_dataset, make_params,
                      scan_rate_certificate)


# -------------------------------------------------------------- rate bound

@pytest.mark.parametrize("m_lo, L_hi, expected", [
    (1.0, 1.0, 0.0),
    (0.5, 1.5, 0.5),
    (0.1, 1.2, 0.9),
    (0.9, 1.0, 0.1),
])
def test_rate_bound_closed_form(m_lo, L_hi, expected):
    assert rate_bound(SectorBounds(m_lo, L_hi)) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("m_lo, L_hi", [(0.0, 1.0), (-0.5, 1.0), (1.5, 0.5),
                                         (0.5, math.inf), (math.inf, math.inf)])
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


def _certificate_sectors():
    """300 seeded sectors, about half of them outside the contractive regime
    of the lam grid, plus the edge cases: unit bounds, bounds on the mu
    grid, a tiny m_lo, and L_hi on either side of 2."""
    rng = np.random.default_rng(2401)
    sectors = []
    for _ in range(300):
        m_lo = float(rng.uniform(1e-3, 1.2))
        sectors.append((m_lo, float(rng.uniform(m_lo, 3.0))))
    sectors += [(1.0, 1.0), (0.5, 1.5), (0.25, 1.75), (0.999, 1.001), (1e-9, 1.0),
                (0.5, 2.0 - 1e-12), (0.5, 2.0), (0.5, 2.0 + 1e-12), (0.1, 1.999), (0.1, 2.001),
                (1.5, 1.5), (2.0, 2.0)]
    return sectors


def test_rate_certificate_equals_the_scan():
    # Bisection over the rows of mu gives exactly the scan's first
    # feasible (mu, lam), and NaNs where the scan finds none.
    sectors = _certificate_sectors()
    infeasible = 0
    for m_lo, L_hi in sectors:
        bounds = SectorBounds(m_lo, L_hi)
        got, want = rate_certificate(bounds), scan_rate_certificate(bounds)
        assert got.feasible == want.feasible, (m_lo, L_hi)
        for name in ("mu_bound", "multiplier"):
            g, w = getattr(got, name), getattr(want, name)
            assert g == w or (math.isnan(g) and math.isnan(w)), (m_lo, L_hi, name, g, w)
        infeasible += not want.feasible
    assert 0 < infeasible < len(sectors)


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
def test_identity_stub_jacobian_acts_as_identity_on_feasible_vectors(pb_gem_step_as, k, m):
    # K=1 has a zero weight direction; m=1 has no off-diagonal entries
    rng = np.random.default_rng(211)
    p = make_params(rng, k, m)
    x = make_dataset(rng, 20, m)
    pb_gem_step_as(lambda q, d: q)
    rep = update_map_jacobian(p, x, "pb_gem")
    assert np.allclose(rep.jacobian, _feasible_projector(k, m), rtol=0, atol=1e-8)
    for seed in range(5):
        v = _feasible_vector(p.layout, np.random.default_rng(seed))
        assert np.linalg.norm(rep.jacobian @ v - v) <= 1e-8 * np.linalg.norm(v)
    # feasible directions carry eigenvalue 1, the rest collapse to 0
    assert rep.classification == "first_order"
    n_feasible = (k - 1) + k * m + k * (m * (m + 1) // 2)
    assert np.sum(rep.moduli > 0.5) == n_feasible


def test_identity_stub_weight_columns_are_centered_probes(pb_gem_step_as):
    rng = np.random.default_rng(213)
    p = make_params(rng, 3, 1)
    x = make_dataset(rng, 10, 1)
    pb_gem_step_as(lambda q, d: q)
    rep = update_map_jacobian(p, x, "pb_gem")
    expected = np.eye(3) - np.full((3, 3), 1.0 / 3.0)
    assert np.allclose(rep.jacobian[:3, :3], expected, rtol=0, atol=1e-9)


def test_constant_map_jacobian_is_zero(pb_gem_step_as):
    rng = np.random.default_rng(217)
    p = make_params(rng, 2, 1)
    x = make_dataset(rng, 10, 1)
    pb_gem_step_as(lambda q, d: p)
    rep = update_map_jacobian(p, x, "pb_gem")
    assert np.max(np.abs(rep.jacobian)) < 1e-9
    assert rep.classification == "newton_like"


def test_halfway_map_classifies_mixed(pb_gem_step_as):
    rng = np.random.default_rng(219)
    p = make_params(rng, 2, 1)
    x = make_dataset(rng, 10, 1)
    base = p.to_vector()

    def halfway(q, d):
        w, mu, cv = q.layout.split(base + 0.5 * (q.to_vector() - base))
        return GmmParams(w, mu, 0.5 * (cv + cv.transpose(0, 2, 1)))

    pb_gem_step_as(halfway)
    rep = update_map_jacobian(p, x, "pb_gem")
    assert rep.moduli[0] == pytest.approx(0.5, abs=1e-8)
    assert rep.classification == "mixed"


@pytest.mark.parametrize("algorithm", ["em", "pb_gem"])
def test_single_gaussian_fixed_point_is_newton_like(algorithm):
    rng = np.random.default_rng(223)
    x = rng.normal(1.0, 2.0, size=(60, 1))
    start = GmmParams([1.0], [[0.0]], [np.eye(1)])
    p = em_step(start, e_step(start, x))
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


def test_jacobian_custom_map_gets_the_probe_moments(pb_gem_step_as):
    # each probe gets the moments at p moved along their exact tangent,
    # M +- h T v, which a fresh E-pass at the probe point matches to O(h^2)
    p = GmmParams([0.4, 0.6], [[-1.0], [1.0]], [np.eye(1), np.eye(1)])
    x = [[0.0], [1.0], [3.0]]
    seen = []

    def identity(q, moments):
        seen.append((q, moments))
        return q

    pb_gem_step_as(identity)
    update_map_jacobian(p, x, "pb_gem")
    layout = p.layout
    base, tangent = _epass_tangent(p, _feature_major(x, 1))
    directions = np.array(list(_probe_directions(layout)))
    moved = directions @ tangent.T
    assert len(seen) == 2 * layout.size
    probes = itertools.product(range(layout.size), (1.0, -1.0))
    for (q, moments), (idx, sign) in zip(seen, probes):
        assert np.array_equal(q.to_vector(), p.to_vector() + sign * FD_STEP * directions[idx])
        d_counts, d_first, d_second = layout.split(sign * FD_STEP * moved[idx])
        ref = e_step(q, x)
        assert moments.n == ref.n == 3
        for got, at_base, change, want in (
                (moments.counts, base.counts, d_counts, ref.counts),
                (moments.first, base.first, d_first, ref.first),
                (moments.second, base.second, d_second, ref.second)):
            assert np.array_equal(got, at_base + change)
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


# The Jacobian from the tangent pass against central differences with a
# full E-pass at every probe point; the bound was fixed before the
# tangent route was written.
@pytest.mark.parametrize("algorithm, betas", [("em", None), ("pb_gem", None),
                                              ("w_pb_gem", (0.9, 0.7))])
@pytest.mark.parametrize("k, m", JACOBIAN_SHAPES)
def test_jacobian_matches_differences_over_full_epasses(k, m, algorithm, betas):
    rng = np.random.default_rng(900 + 10 * k + m)
    p = make_params(rng, k, m)
    x = make_dataset(rng, 200, m)
    design = None if betas is None else MeanStepWeights(np.resize(betas, k))
    got = update_map_jacobian(p, x, algorithm, design=design).jacobian
    want = fd_update_map_jacobian(p, x, algorithm, design)
    assert np.max(np.abs(got - want)) <= 1e-7 * max(1.0, np.max(np.abs(want)))


@pytest.mark.xfail(strict=True, reason=(
    "central differences of step FD_STEP through the K-sized step leave ~1e-10 of noise "
    "in J; J has a defective zero eigenvalue here, which that noise splits into a pair "
    "near 1e-7 (7.9e-8 forward, 1.8e-7 reversed); the chain-rule J in float64 puts it "
    "near 1e-9, below the threshold"))
def test_jacobian_moduli_do_not_move_with_the_sample_order():
    # paper model at N=2e5: reversing the samples changes the E-pass sums
    # at roundoff, which must not show in any modulus above 1e-8
    truth = GmmParams([0.5, 0.5], [[1.0, 1.0], [-1.0, -1.0]], [np.eye(2), np.eye(2)])
    x = sample(truth, 200_000, 921)
    forward = update_map_jacobian(truth, x, "pb_gem").moduli
    backward = update_map_jacobian(truth, x[::-1], "pb_gem").moduli
    keep = forward >= 1e-8
    assert np.all(np.abs(backward[keep] - forward[keep]) <= 1e-4 * forward[keep])


def test_jacobian_argument_validation():
    p = GmmParams([1.0], [[0.0]], [np.eye(1)])
    x = [[0.0], [1.0]]
    with pytest.raises(ValidationError):
        update_map_jacobian(p, x, "newton")
    with pytest.raises(ValidationError):
        update_map_jacobian(p, x, "w_pb_gem")
    with pytest.raises(ValidationError):
        update_map_jacobian(p, x, "pb_gem", design=MeanStepWeights([1.0]))
    with pytest.raises(ValidationError, match="^unknown algorithm"):
        update_map_jacobian(p, x, lambda q, d: q)
    with pytest.raises(ValidationError, match="^need one beta per component"):
        update_map_jacobian(p, x, "w_pb_gem", design=MeanStepWeights([1.0, 1.0]))


def test_jacobian_probe_failure_reports_perturbation_index():
    # one weight sits closer to zero than the probe step, so the minus
    # probe leaves the simplex
    rng = np.random.default_rng(229)
    x = make_dataset(rng, 20, 1)
    p = GmmParams([1e-7, 1.0 - 1e-7], [[-2.0], [2.0]], [np.eye(1), np.eye(1)])
    with pytest.raises(SimplexViolationError, match=r"^update step failed at perturbation \d+: "):
        update_map_jacobian(p, x, "pb_gem")


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
