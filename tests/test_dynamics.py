import math

import numpy as np
import pytest

from gemgmm import (
    GmmParams,
    MeanStepWeights,
    StepFailure,
    ValidationError,
    VectorLayout,
    apply_projection,
    build_preconditioner,
    e_step,
    em_step,
    grad_log_likelihood,
    log_likelihood,
    pb_gem_step,
    run,
    sample,
    w_pb_gem_step,
)
from gemgmm import core, dynamics
from gemgmm.dynamics import ALGORITHMS
from gemgmm.errors import (
    DegenerateComponentError,
    InvalidCovarianceError,
    NumericalError,
    NumericUnderflowError,
    SimplexViolationError,
)

from conftest import (dense, make_dataset, make_params, recorded_iterates,
                      reference_shifted_em_step)


# ------------------------------------------------------------ preconditioner

def test_weight_block_at_uniform_two_component():
    # (diag(a) - a a') / N at a = (1/2, 1/2), N = 1
    p = GmmParams([0.5, 0.5], [[1.0], [-1.0]], [np.eye(1), np.eye(1)])
    pre = build_preconditioner(p, e_step(p, [[0.0]]))
    assert np.allclose(pre.p_weights, [[0.25, -0.25], [-0.25, 0.25]], rtol=0, atol=1e-15)


def test_scalar_blocks_hand_evaluated():
    # K=1, m=1, variance 2, four points: mass 4, so the mean block is
    # 2/4 = 0.5 and the covariance block is 2 * (2*2) / 4 = 2
    p = GmmParams([1.0], [[0.0]], [2.0 * np.eye(1)])
    pre = build_preconditioner(p, e_step(p, [[0.1], [-0.2], [0.3], [0.4]]))
    assert pre.counts[0] == pytest.approx(4.0, abs=0)
    assert pre.p_means[0, 0, 0] == pytest.approx(0.5, abs=1e-15)
    assert dense(pre.apply, p.layout.size)[-1, -1] == pytest.approx(2.0, abs=1e-15)


def test_weight_block_rows_sum_to_zero():
    rng = np.random.default_rng(79)
    p = make_params(rng, 3, 2)
    x = make_dataset(rng, 20, 2)
    pre = build_preconditioner(p, e_step(p, x))
    assert np.max(np.abs(pre.p_weights @ np.ones(3))) < 1e-15
    assert np.array_equal(pre.p_weights, pre.p_weights.T)
    assert np.all(np.linalg.eigvalsh(pre.p_weights) >= -1e-15)


def test_mean_and_cov_blocks_positive_definite():
    rng = np.random.default_rng(83)
    p = make_params(rng, 2, 3)
    x = make_dataset(rng, 25, 3)
    pre = build_preconditioner(p, e_step(p, x))
    full = dense(pre.apply, p.layout.size)
    for j in range(2):
        assert np.all(np.linalg.eigvalsh(pre.p_means[j]) > 0)
        start = 2 + 2 * 3 + j * 3 * 3  # covariance j in the flat layout, K=2, m=3
        pc = full[start:start + 9, start:start + 9]
        assert np.allclose(pc, pc.T, rtol=0, atol=1e-12)
        assert np.all(np.linalg.eigvalsh(pc) > 0)


def test_structural_apply_matches_assembled_matrix():
    rng = np.random.default_rng(89)
    p = make_params(rng, 2, 2)
    x = make_dataset(rng, 15, 2)
    pre = build_preconditioner(p, e_step(p, x))
    # the block formulas: weights, C_j / S_j, 2 (C_j (x) C_j) / S_j, at
    # the flat offsets for K=2, m=2: weights 0-1, mean j at 2+2j,
    # covariance j at 6+4j
    full = np.zeros((p.layout.size, p.layout.size))
    full[:2, :2] = pre.p_weights
    for j in range(2):
        c, s_j = pre.covs[j], pre.counts[j]
        mean, cov = slice(2 + 2 * j, 4 + 2 * j), slice(6 + 4 * j, 10 + 4 * j)
        full[mean, mean] = c / s_j
        full[cov, cov] = 2.0 * np.kron(c, c) / s_j
    assert np.allclose(full, full.T, rtol=0, atol=1e-12)
    for seed in range(3):
        v = np.random.default_rng(seed).normal(size=p.layout.size)
        assert np.allclose(pre.apply(v), full @ v, rtol=1e-12, atol=1e-12)


def test_cov_block_kronecker_identity():
    # (C (x) C) vec(V) = vec(C V C) is what lets apply() skip the dense block
    rng = np.random.default_rng(97)
    p = make_params(rng, 1, 3)
    x = make_dataset(rng, 12, 3)
    pre = build_preconditioner(p, e_step(p, x))
    v = rng.normal(size=(3, 3))
    vec = p.layout.join(np.zeros(1), np.zeros((1, 3)), v[None])
    out = pre.apply(vec)
    _, _, out_cv = p.layout.split(out)
    c = pre.covs[0]
    kron = 2.0 * np.kron(c, c) / pre.counts[0] @ v.T.reshape(-1)  # column-stacked vec(V)
    assert np.allclose(out_cv[0].T.reshape(-1), kron, rtol=1e-12, atol=1e-12)


def test_preconditioner_rejects_starved_component():
    rng = np.random.default_rng(101)
    x = rng.normal(0.0, 1.0, size=(40, 1))
    p = GmmParams([0.5, 0.5], [[0.0], [1000.0]], [np.eye(1), np.eye(1)])
    with pytest.raises(DegenerateComponentError):
        build_preconditioner(p, e_step(p, x))


# ---------------------------------------------------------------- projection

def test_projection_keeps_zero_sum_weight_block():
    lay = VectorLayout(2, 1)
    v = np.zeros(lay.size)
    v[:2] = [0.3, -0.3]
    assert np.array_equal(apply_projection(v, lay), v)


def test_projection_centers_weight_block():
    lay = VectorLayout(2, 1)
    v = np.arange(float(lay.size))
    v[:2] = [1.0, 0.0]
    out = apply_projection(v, lay)
    assert out[0] == 0.5
    assert out[1] == -0.5
    assert np.array_equal(out[2:], v[2:])


def test_projection_idempotent():
    # the second pass can only move the weight block by the roundoff in
    # its (near-zero) mean, a few ulps at most
    lay = VectorLayout(3, 2)
    v = np.random.default_rng(103).normal(size=lay.size)
    once = apply_projection(v, lay)
    twice = apply_projection(once, lay)
    assert np.max(np.abs(once - twice)) < 1e-15


def test_projection_matrix_symmetric_idempotent():
    lay = VectorLayout(3, 2)
    mat = dense(lambda v: apply_projection(v, lay), lay.size)
    expected = np.eye(lay.size)
    expected[:3, :3] = np.eye(3) - np.full((3, 3), 1.0 / 3.0)  # the weight block
    assert np.allclose(mat, expected, rtol=0, atol=1e-15)
    assert np.array_equal(mat, mat.T)
    assert np.allclose(mat @ mat, mat, rtol=0, atol=1e-12)


def test_projection_rejects_wrong_length():
    with pytest.raises(ValidationError):
        apply_projection(np.zeros(4), VectorLayout(2, 2))


# ------------------------------------------------------------------ pb steps

def test_pb_step_is_identity_at_fixed_point():
    rng = np.random.default_rng(31)
    x = make_dataset(rng, 25, 2)
    start = GmmParams([1.0], [[5.0, -3.0]], [4.0 * np.eye(2)])
    p = em_step(start, e_step(start, x))
    out = pb_gem_step(p, e_step(p, x))
    assert np.max(np.abs(out.to_vector() - p.to_vector())) < 1e-12


@pytest.mark.parametrize("k, m, n, seed", [
    (1, 2, 20, 0), (2, 1, 30, 1), (2, 2, 40, 2), (3, 3, 50, 3),
])
def test_preconditioned_gradient_equals_shifted_increment(k, m, n, seed):
    rng = np.random.default_rng(7000 + seed)
    p = make_params(rng, k, m)
    x = make_dataset(rng, n, m)
    increment = reference_shifted_em_step(p, x).to_vector() - p.to_vector()
    pre_grad = build_preconditioner(p, e_step(p, x)).apply(grad_log_likelihood(p, e_step(p, x)))
    assert np.linalg.norm(pre_grad - increment) <= 1e-8 * np.linalg.norm(increment)


@pytest.mark.parametrize("k, m, n, seed", [
    (1, 1, 15, 4), (2, 2, 35, 5), (3, 2, 45, 6),
])
def test_pb_step_matches_shifted_em(k, m, n, seed):
    rng = np.random.default_rng(7100 + seed)
    p = make_params(rng, k, m)
    x = make_dataset(rng, n, m)
    a = pb_gem_step(p, e_step(p, x)).to_vector()
    b = reference_shifted_em_step(p, x).to_vector()
    assert np.linalg.norm(a - b) <= 1e-8 * np.linalg.norm(b)


def test_pb_step_weight_sum_and_likelihood():
    from gemgmm import log_likelihood
    rng = np.random.default_rng(107)
    p = make_params(rng, 3, 2)
    x = make_dataset(rng, 60, 2)
    out = pb_gem_step(p, e_step(p, x))
    assert abs(out.weights.sum() - 1.0) < 1e-12
    assert log_likelihood(out, x) > log_likelihood(p, x) - 1e-12


def test_weighted_step_with_unit_betas_is_bit_exact():
    rng = np.random.default_rng(109)
    p = make_params(rng, 2, 2)
    x = make_dataset(rng, 30, 2)
    a = pb_gem_step(p, e_step(p, x))
    b = w_pb_gem_step(p, e_step(p, x), MeanStepWeights([1.0, 1.0]))
    assert np.array_equal(a.to_vector(), b.to_vector())


def test_weighted_step_scales_only_mean_increments():
    rng = np.random.default_rng(113)
    p = make_params(rng, 2, 2)
    x = make_dataset(rng, 30, 2)
    pb = pb_gem_step(p, e_step(p, x))
    w = w_pb_gem_step(p, e_step(p, x), MeanStepWeights([0.996, 0.996]))
    pb_step = pb.means - p.means
    w_step = w.means - p.means
    assert np.allclose(w_step, 0.996 * pb_step, rtol=1e-12, atol=1e-12)
    assert np.array_equal(w.weights, pb.weights)
    assert np.array_equal(w.covs, pb.covs)


def test_weighted_step_per_component_scaling():
    rng = np.random.default_rng(127)
    p = make_params(rng, 2, 2)
    x = make_dataset(rng, 30, 2)
    pb = pb_gem_step(p, e_step(p, x))
    w = w_pb_gem_step(p, e_step(p, x), MeanStepWeights([0.5, 1.0]))
    assert np.allclose(w.means[0] - p.means[0], 0.5 * (pb.means[0] - p.means[0]),
                       rtol=1e-12, atol=1e-14)
    assert np.allclose(w.means[1], pb.means[1], rtol=0, atol=1e-14)


def test_design_validation():
    with pytest.raises(ValidationError):
        MeanStepWeights([0.5, 0.0])
    with pytest.raises(ValidationError):
        MeanStepWeights([-1.0])
    with pytest.raises(ValidationError):
        MeanStepWeights([[0.5, 0.5]])
    rng = np.random.default_rng(131)
    p = make_params(rng, 2, 1)
    with pytest.raises(ValidationError):
        w_pb_gem_step(p, e_step(p, make_dataset(rng, 10, 1)), MeanStepWeights([0.9]))


# ----------------------------------------------------------------- run loop

TRUTH = GmmParams([0.5, 0.5], [[1.0, 1.0], [-1.0, -1.0]], [np.eye(2), np.eye(2)])


def test_run_from_fixed_point_stops_after_one_iteration():
    rng = np.random.default_rng(137)
    x = make_dataset(rng, 25, 2)
    start = GmmParams([1.0], [[0.0, 0.0]], [np.eye(2)])
    p = em_step(start, e_step(start, x))
    trace = run(p, x, "pb_gem")
    assert trace.iterations == 1
    assert trace.reason == "tolerance"


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_run_log_likelihood_monotone(algorithm):
    data = sample(TRUTH, 300, 139)
    start = GmmParams([0.5, 0.5], [[0.5, 0.0], [-0.5, 0.0]],
                      [np.eye(2), np.eye(2)])
    design = MeanStepWeights([0.996, 0.996]) if algorithm == "w_pb_gem" else None
    trace = run(start, data, algorithm, design=design, max_iters=400)
    assert trace.reason == "tolerance"
    ll = trace.logliks
    assert np.all(np.diff(ll) >= -1e-10 * np.abs(ll[:-1]))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_run_trace_shape_and_step_norms(algorithm):
    data = sample(TRUTH, 200, 149)
    design = MeanStepWeights([0.996, 0.996]) if algorithm == "w_pb_gem" else None
    with recorded_iterates(algorithm) as iterates:
        trace = run(TRUTH, data, algorithm, design=design, max_iters=200)
    vecs = [p.to_vector() for p in (TRUTH, *iterates)]
    assert len(vecs) == len(trace.records)
    iters = [r.iteration for r in trace.records]
    assert iters == list(range(len(iters)))
    assert trace.iterations == iters[-1]
    assert trace.records[0].step_norm == 0.0
    assert trace.records[0].loglik == pytest.approx(trace.logliks[0], abs=0)
    # the block-wise step norm is the norm of the flat-vector difference
    for prev, vec, r in zip(vecs, vecs[1:], trace.records[1:]):
        diff = np.linalg.norm(vec - prev)
        assert r.step_norm == pytest.approx(diff, rel=1e-14, abs=0)
    assert trace.wall_time > 0.0
    v = trace.final_params.to_vector()
    assert np.array_equal(vecs[-1], v)


def test_run_hits_max_iters():
    data = sample(TRUTH, 200, 151)
    start = GmmParams([0.5, 0.5], [[0.0, 3.0], [0.0, -3.0]],
                      [np.eye(2), np.eye(2)])
    trace = run(start, data, "em", max_iters=3)
    assert trace.reason == "max_iters"
    assert trace.iterations == 3
    assert len(trace.records) == 4


def test_run_argument_validation():
    data = [[0.0, 0.0]]
    with pytest.raises(ValidationError):
        run(TRUTH, data, "newton")
    with pytest.raises(ValidationError):
        run(TRUTH, data, "w_pb_gem")  # missing design
    with pytest.raises(ValidationError):
        run(TRUTH, data, "em", design=MeanStepWeights([1.0, 1.0]))
    with pytest.raises(ValidationError, match="need one beta per component"):
        run(TRUTH, data, "w_pb_gem", design=MeanStepWeights([1.0]))
    with pytest.raises(ValidationError):
        run(TRUTH, data, "em", rel_ll_tol=0.0)
    with pytest.raises(ValidationError):
        run(TRUTH, data, "em", max_iters=0)


START = GmmParams([0.4, 0.6], [[0.5, 0.2], [-0.5, 0.0]], [np.eye(2), 2.0 * np.eye(2)])
W_DESIGN = MeanStepWeights([0.9, 0.7])
HAND_STEPS = {
    "em": em_step,
    "pb_gem": pb_gem_step,
    "w_pb_gem": lambda p, moments: w_pb_gem_step(p, moments, W_DESIGN),
}


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_run_is_bit_equal_to_hand_loop(algorithm):
    # run carries each iterate's moments into the next step; a step fed
    # those of any other iterate would not reproduce this loop
    data = sample(TRUTH, 200, 167)
    design = W_DESIGN if algorithm == "w_pb_gem" else None
    trace = run(START, data, algorithm, design=design, max_iters=5, rel_ll_tol=1e-300)
    p = START
    logliks = [log_likelihood(p, data)]
    for _ in range(5):
        p = HAND_STEPS[algorithm](p, e_step(p, data))
        logliks.append(log_likelihood(p, data))
    assert trace.reason == "max_iters"
    assert trace.logliks.tolist() == logliks
    assert np.array_equal(trace.final_params.to_vector(), p.to_vector())


def test_run_rejects_a_callable_map():
    # a fake or instrumented step is rebound in gemgmm.dynamics instead
    with pytest.raises(ValidationError, match="^unknown algorithm"):
        run(START, sample(TRUTH, 50, 13001), em_step)


@pytest.fixture
def density_calls(monkeypatch):
    """A list that gets one entry per call of the log-density kernel."""
    calls = []
    original = core._log_weighted_densities

    def counted(*args):
        calls.append(len(args))
        return original(*args)

    monkeypatch.setattr(core, "_log_weighted_densities", counted)
    return calls


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_run_makes_one_density_pass_per_iterate(density_calls, algorithm):
    data = sample(TRUTH, 200, 173)
    design = W_DESIGN if algorithm == "w_pb_gem" else None
    trace = run(TRUTH, data, algorithm, design=design, max_iters=400)
    assert trace.reason == "tolerance"
    assert len(density_calls) == trace.iterations + 1


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_run_makes_one_density_call_per_block_at_large_n(density_calls, algorithm):
    # two full blocks and a partial one: each pass calls the kernel once
    # per block
    n = 2 * core.EPASS_BLOCK + 17
    data = sample(TRUTH, n, 173)
    design = W_DESIGN if algorithm == "w_pb_gem" else None
    trace = run(TRUTH, data, algorithm, design=design, max_iters=400)
    assert trace.reason == "tolerance"
    assert len(density_calls) == (trace.iterations + 1) * math.ceil(n / core.EPASS_BLOCK)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_run_makes_one_epass_per_iterate(monkeypatch, algorithm):
    passes = []
    original = dynamics._epass

    def counted(params, xt):
        passes.append(params)
        return original(params, xt)

    monkeypatch.setattr(dynamics, "_epass", counted)
    data = sample(TRUTH, 200, 191)
    design = W_DESIGN if algorithm == "w_pb_gem" else None
    trace = run(START, data, algorithm, design=design, max_iters=7, rel_ll_tol=1e-300)
    assert trace.iterations == 7
    assert len(passes) == trace.iterations + 1
    assert passes[0] is START and passes[-1] is trace.final_params


def test_run_takes_the_w_pb_gem_step_bound_in_dynamics(monkeypatch):
    # the tracer and recorded_iterates rebind the step there; a rebound
    # step that returns its point unchanged ends the run at iteration 1
    calls = []

    def fixed(params, moments, design):
        calls.append(design)
        return params

    monkeypatch.setattr(dynamics, "w_pb_gem_step", fixed)
    trace = run(START, sample(TRUTH, 200, 193), "w_pb_gem", design=W_DESIGN)
    assert calls == [W_DESIGN]
    assert trace.reason == "tolerance" and trace.iterations == 1
    assert trace.records[1].step_norm == 0.0 and trace.final_params is START


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_run_checks_its_data_once(dataset_scans, algorithm):
    data = sample(TRUTH, 200, 179)
    design = W_DESIGN if algorithm == "w_pb_gem" else None
    trace = run(START, data, algorithm, design=design, max_iters=5, rel_ll_tol=1e-300)
    assert trace.iterations == 5
    assert len(dataset_scans) == 1


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_steps_take_arrays_lists_and_datasets_alike(dataset_scans, algorithm):
    # samples reach a step only through the E-step, which scans them once
    # in whichever form they come; the step itself scans nothing
    data = sample(TRUTH, 60, 181)
    step = HAND_STEPS[algorithm]
    moments = e_step(START, data)
    assert len(dataset_scans) == 1
    ref = step(START, moments).to_vector()
    assert np.array_equal(step(START, e_step(START, data.tolist())).to_vector(), ref)
    assert len(dataset_scans) == 2
    assert np.array_equal(step(START, moments).to_vector(), ref)
    assert len(dataset_scans) == 2


def test_dataset_rejects_feature_mismatch():
    with pytest.raises(ValidationError):
        e_step(START, np.zeros((4, 3)))


def test_run_wraps_step_failures_with_partial_trace():
    rng = np.random.default_rng(163)
    x = rng.normal(0.0, 1.0, size=(50, 1))
    start = GmmParams([0.5, 0.5], [[0.0], [1000.0]], [np.eye(1), np.eye(1)])
    with pytest.raises(StepFailure) as exc_info:
        run(start, x, "em")
    err = exc_info.value
    assert err.iteration == 1
    assert isinstance(err.cause, DegenerateComponentError)
    assert err.trace.reason == "error"
    assert len(err.trace.records) == 1
    assert np.array_equal(err.trace.final_params.to_vector(), start.to_vector())


@pytest.mark.parametrize("error_type", [SimplexViolationError, InvalidCovarianceError,
                                        NumericUnderflowError, DegenerateComponentError,
                                        StepFailure])
def test_numerical_failures_share_one_base(error_type):
    # run and the CLI catch numerical failures through this one base
    assert issubclass(error_type, NumericalError)
    assert not issubclass(ValidationError, NumericalError)
