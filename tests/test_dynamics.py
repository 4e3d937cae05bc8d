import numpy as np
import pytest

from gemgmm import (
    Dataset,
    GmmParams,
    MeanStepWeights,
    StepFailure,
    ValidationError,
    VectorLayout,
    ZeroSumProjection,
    apply_projection,
    build_preconditioner,
    em_step,
    grad_log_likelihood,
    log_likelihood,
    pb_gem_step,
    run,
    sample,
    shifted_em_step,
    w_pb_gem_step,
)
from gemgmm import core
from gemgmm.dynamics import ALGORITHMS
from gemgmm.errors import DegenerateComponentError

from conftest import make_dataset, make_params


# ------------------------------------------------------------ preconditioner

def test_weight_block_at_uniform_two_component():
    # (diag(a) - a a') / N at a = (1/2, 1/2), N = 1
    p = GmmParams([0.5, 0.5], [[1.0], [-1.0]], [np.eye(1), np.eye(1)])
    pre = build_preconditioner(p, [[0.0]])
    assert np.allclose(pre.p_weights, [[0.25, -0.25], [-0.25, 0.25]], rtol=0, atol=1e-15)


def test_scalar_blocks_hand_evaluated():
    # K=1, m=1, variance 2, four points: mass 4, so the mean block is
    # 2/4 = 0.5 and the covariance block is 2 * (2*2) / 4 = 2
    p = GmmParams([1.0], [[0.0]], [2.0 * np.eye(1)])
    pre = build_preconditioner(p, [[0.1], [-0.2], [0.3], [0.4]])
    assert pre.counts[0] == pytest.approx(4.0, abs=0)
    assert pre.p_means[0, 0, 0] == pytest.approx(0.5, abs=1e-15)
    assert pre.p_cov(0)[0, 0] == pytest.approx(2.0, abs=1e-15)


def test_weight_block_rows_sum_to_zero():
    rng = np.random.default_rng(79)
    p = make_params(rng, 3, 2)
    x = make_dataset(rng, 20, 2)
    pre = build_preconditioner(p, x)
    assert np.max(np.abs(pre.p_weights @ np.ones(3))) < 1e-15
    assert np.array_equal(pre.p_weights, pre.p_weights.T)
    assert np.all(np.linalg.eigvalsh(pre.p_weights) >= -1e-15)


def test_mean_and_cov_blocks_positive_definite():
    rng = np.random.default_rng(83)
    p = make_params(rng, 2, 3)
    x = make_dataset(rng, 25, 3)
    pre = build_preconditioner(p, x)
    for j in range(2):
        assert np.all(np.linalg.eigvalsh(pre.p_means[j]) > 0)
        pc = pre.p_cov(j)
        assert np.allclose(pc, pc.T, rtol=0, atol=1e-12)
        assert np.all(np.linalg.eigvalsh(pc) > 0)


def test_structural_apply_matches_assembled_matrix():
    rng = np.random.default_rng(89)
    p = make_params(rng, 2, 2)
    x = make_dataset(rng, 15, 2)
    pre = build_preconditioner(p, x)
    full = pre.assembled
    assert np.allclose(full, full.T, rtol=0, atol=1e-12)
    for seed in range(3):
        v = np.random.default_rng(seed).normal(size=p.layout.size)
        assert np.allclose(pre.apply(v), full @ v, rtol=1e-12, atol=1e-12)


def test_cov_block_kronecker_identity():
    # (C (x) C) vec(V) = vec(C V C) is what lets apply() skip the dense block
    rng = np.random.default_rng(97)
    p = make_params(rng, 1, 3)
    x = make_dataset(rng, 12, 3)
    pre = build_preconditioner(p, x)
    v = rng.normal(size=(3, 3))
    vec = p.layout.join(np.zeros(1), np.zeros((1, 3)), v[None])
    out = pre.apply(vec)
    _, _, out_cv = p.layout.split(out)
    dense = pre.p_cov(0) @ v.T.reshape(-1)  # column-stacked vec(V)
    assert np.allclose(out_cv[0].T.reshape(-1), dense, rtol=1e-12, atol=1e-12)


def test_preconditioner_rejects_starved_component():
    rng = np.random.default_rng(101)
    x = rng.normal(0.0, 1.0, size=(40, 1))
    p = GmmParams([0.5, 0.5], [[0.0], [1000.0]], [np.eye(1), np.eye(1)])
    with pytest.raises(DegenerateComponentError):
        build_preconditioner(p, x)


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
    mat = ZeroSumProjection(lay).as_matrix()
    assert np.array_equal(mat, mat.T)
    assert np.allclose(mat @ mat, mat, rtol=0, atol=1e-12)
    # action agrees with the structural form on every canonical basis vector
    for i in range(lay.size):
        e = np.zeros(lay.size)
        e[i] = 1.0
        assert np.allclose(mat @ e, apply_projection(e, lay), rtol=0, atol=1e-15)


def test_projection_rejects_wrong_length():
    with pytest.raises(ValidationError):
        apply_projection(np.zeros(4), VectorLayout(2, 2))


# ------------------------------------------------------------------ pb steps

def test_pb_step_is_identity_at_fixed_point():
    rng = np.random.default_rng(31)
    x = make_dataset(rng, 25, 2)
    p = em_step(GmmParams([1.0], [[5.0, -3.0]], [4.0 * np.eye(2)]), x)
    out = pb_gem_step(p, x)
    assert np.max(np.abs(out.to_vector() - p.to_vector())) < 1e-12


@pytest.mark.parametrize("k, m, n, seed", [
    (1, 2, 20, 0), (2, 1, 30, 1), (2, 2, 40, 2), (3, 3, 50, 3),
])
def test_preconditioned_gradient_equals_shifted_increment(k, m, n, seed):
    rng = np.random.default_rng(7000 + seed)
    p = make_params(rng, k, m)
    x = make_dataset(rng, n, m)
    increment = shifted_em_step(p, x).to_vector() - p.to_vector()
    pre_grad = build_preconditioner(p, x).apply(grad_log_likelihood(p, x))
    assert np.linalg.norm(pre_grad - increment) <= 1e-8 * np.linalg.norm(increment)


@pytest.mark.parametrize("k, m, n, seed", [
    (1, 1, 15, 4), (2, 2, 35, 5), (3, 2, 45, 6),
])
def test_pb_step_matches_shifted_em(k, m, n, seed):
    rng = np.random.default_rng(7100 + seed)
    p = make_params(rng, k, m)
    x = make_dataset(rng, n, m)
    a = pb_gem_step(p, x).to_vector()
    b = shifted_em_step(p, x).to_vector()
    assert np.linalg.norm(a - b) <= 1e-8 * np.linalg.norm(b)


def test_pb_step_weight_sum_and_likelihood():
    from gemgmm import log_likelihood
    rng = np.random.default_rng(107)
    p = make_params(rng, 3, 2)
    x = make_dataset(rng, 60, 2)
    out = pb_gem_step(p, x)
    assert abs(out.weights.sum() - 1.0) < 1e-12
    assert log_likelihood(out, x) > log_likelihood(p, x) - 1e-12


def test_weighted_step_with_unit_betas_is_bit_exact():
    rng = np.random.default_rng(109)
    p = make_params(rng, 2, 2)
    x = make_dataset(rng, 30, 2)
    a = pb_gem_step(p, x)
    b = w_pb_gem_step(p, x, MeanStepWeights([1.0, 1.0]))
    assert np.array_equal(a.to_vector(), b.to_vector())


def test_weighted_step_scales_only_mean_increments():
    rng = np.random.default_rng(113)
    p = make_params(rng, 2, 2)
    x = make_dataset(rng, 30, 2)
    pb = pb_gem_step(p, x)
    w = w_pb_gem_step(p, x, MeanStepWeights([0.996, 0.996]))
    pb_step = pb.means - p.means
    w_step = w.means - p.means
    assert np.allclose(w_step, 0.996 * pb_step, rtol=1e-12, atol=1e-12)
    assert np.array_equal(w.weights, pb.weights)
    assert np.array_equal(w.covs, pb.covs)


def test_weighted_step_per_component_scaling():
    rng = np.random.default_rng(127)
    p = make_params(rng, 2, 2)
    x = make_dataset(rng, 30, 2)
    pb = pb_gem_step(p, x)
    w = w_pb_gem_step(p, x, MeanStepWeights([0.5, 1.0]))
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
        w_pb_gem_step(p, make_dataset(rng, 10, 1), MeanStepWeights([0.9]))


def test_design_diagonal_layout():
    lay = VectorLayout(2, 2)
    d = MeanStepWeights([0.3, 0.7]).diagonal(lay)
    assert d[lay.weight_block].tolist() == [1.0, 1.0]
    assert d[lay.mean_slice(0)].tolist() == [0.3, 0.3]
    assert d[lay.mean_slice(1)].tolist() == [0.7, 0.7]
    assert np.all(d[lay.cov_block] == 1.0)


# ----------------------------------------------------------------- run loop

TRUTH = GmmParams([0.5, 0.5], [[1.0, 1.0], [-1.0, -1.0]], [np.eye(2), np.eye(2)])


def test_run_from_fixed_point_stops_after_one_iteration():
    rng = np.random.default_rng(137)
    x = make_dataset(rng, 25, 2)
    p = em_step(GmmParams([1.0], [[0.0, 0.0]], [np.eye(2)]), x)
    trace = run(p, x, "pb_gem")
    assert trace.iterations == 1
    assert trace.reason == "tolerance"


@pytest.mark.parametrize("algorithm", ["em", "shifted_em", "pb_gem", "w_pb_gem"])
def test_run_log_likelihood_monotone(algorithm):
    data = sample(TRUTH, 300, 139)
    start = GmmParams([0.5, 0.5], [[0.5, 0.0], [-0.5, 0.0]],
                      [np.eye(2), np.eye(2)])
    design = MeanStepWeights([0.996, 0.996]) if algorithm == "w_pb_gem" else None
    trace = run(start, data, algorithm, design=design, max_iters=400)
    assert trace.reason == "tolerance"
    ll = trace.logliks
    assert np.all(np.diff(ll) >= -1e-10 * np.abs(ll[:-1]))


def test_run_trace_shape_and_residuals():
    data = sample(TRUTH, 200, 149)
    trace = run(TRUTH, data, "pb_gem", max_iters=200)
    iters = [r.iteration for r in trace.records]
    assert iters == list(range(len(iters)))
    assert trace.iterations == iters[-1]
    assert trace.records[0].step_norm == 0.0
    assert trace.records[0].loglik == pytest.approx(trace.logliks[0], abs=0)
    for r in trace.records:
        assert r.alpha_residual < 1e-12
        assert r.sym_residual < 1e-12
    assert trace.wall_time > 0.0
    v = trace.final_params.to_vector()
    assert np.array_equal(trace.records[-1].snapshot, v)


def test_run_hits_max_iters():
    data = sample(TRUTH, 200, 151)
    start = GmmParams([0.5, 0.5], [[0.0, 3.0], [0.0, -3.0]],
                      [np.eye(2), np.eye(2)])
    trace = run(start, data, "em", max_iters=3)
    assert trace.reason == "max_iters"
    assert trace.iterations == 3
    assert len(trace.records) == 4


def test_run_snapshot_stride():
    data = sample(TRUTH, 150, 157)
    trace = run(TRUTH, data, "em", max_iters=12, snapshot_stride=5,
                rel_ll_tol=1e-300)
    for r in trace.records:
        if r.iteration % 5 == 0:
            assert r.snapshot is not None
        else:
            assert r.snapshot is None
    dense = run(TRUTH, data, "em", max_iters=4, rel_ll_tol=1e-300)
    assert all(r.snapshot is not None for r in dense.records)


def test_run_argument_validation():
    data = [[0.0, 0.0]]
    with pytest.raises(ValidationError):
        run(TRUTH, data, "newton")
    with pytest.raises(ValidationError):
        run(TRUTH, data, "w_pb_gem")  # missing design
    with pytest.raises(ValidationError):
        run(TRUTH, data, "em", design=MeanStepWeights([1.0, 1.0]))
    with pytest.raises(ValidationError):
        run(TRUTH, data, "em", rel_ll_tol=0.0)
    with pytest.raises(ValidationError):
        run(TRUTH, data, "em", max_iters=0)


START = GmmParams([0.4, 0.6], [[0.5, 0.2], [-0.5, 0.0]], [np.eye(2), 2.0 * np.eye(2)])
W_DESIGN = MeanStepWeights([0.9, 0.7])
HAND_STEPS = {
    "em": em_step,
    "shifted_em": shifted_em_step,
    "pb_gem": pb_gem_step,
    "w_pb_gem": lambda p, x: w_pb_gem_step(p, x, W_DESIGN),
}


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_run_is_bit_equal_to_hand_loop(algorithm):
    # run carries each iterate's responsibilities into the next step; a
    # step fed those of any other iterate would not reproduce this loop
    data = sample(TRUTH, 200, 167)
    design = W_DESIGN if algorithm == "w_pb_gem" else None
    trace = run(START, data, algorithm, design=design, max_iters=5, rel_ll_tol=1e-300)
    p = START
    logliks = [log_likelihood(p, data)]
    for _ in range(5):
        p = HAND_STEPS[algorithm](p, data)
        logliks.append(log_likelihood(p, data))
    assert trace.reason == "max_iters"
    assert trace.logliks.tolist() == logliks
    assert np.array_equal(trace.final_params.to_vector(), p.to_vector())


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_run_makes_one_density_pass_per_iterate(monkeypatch, algorithm):
    passes = []
    original = core._log_weighted_densities

    def counted(params, x):
        passes.append(params)
        return original(params, x)

    monkeypatch.setattr(core, "_log_weighted_densities", counted)
    data = sample(TRUTH, 200, 173)
    design = W_DESIGN if algorithm == "w_pb_gem" else None
    trace = run(TRUTH, data, algorithm, design=design, max_iters=400)
    assert trace.reason == "tolerance"
    assert len(passes) == trace.iterations + 1


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_run_checks_its_data_once(dataset_scans, algorithm):
    data = sample(TRUTH, 200, 179)
    design = W_DESIGN if algorithm == "w_pb_gem" else None
    trace = run(START, data, algorithm, design=design, max_iters=5, rel_ll_tol=1e-300)
    assert trace.iterations == 5
    assert len(dataset_scans) == 1


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_steps_take_arrays_lists_and_datasets_alike(dataset_scans, algorithm):
    data = sample(TRUTH, 60, 181)
    step = HAND_STEPS[algorithm]
    ref = step(START, data).to_vector()
    assert len(dataset_scans) == 1
    assert np.array_equal(step(START, data.tolist()).to_vector(), ref)
    samples = Dataset(data, 2)
    assert len(dataset_scans) == 3
    assert np.array_equal(step(START, samples).to_vector(), ref)
    assert len(dataset_scans) == 3


def test_dataset_rejects_feature_mismatch():
    with pytest.raises(ValidationError):
        pb_gem_step(START, Dataset(np.zeros((4, 3))))


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
