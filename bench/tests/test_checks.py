"""Each benchmark check passes on the library's output and rejects a
corrupted one."""

import dataclasses

import numpy as np
import pytest

import checks
from tikhtv.admm import AdmmConfig, initial_state, update_model, update_noise, update_smooth_grad
from tikhtv.cli import write_image
from tikhtv.operators import GridDims, identity, make_derivative_operator, make_gaussian_sensing
from tikhtv.problems import TestProblem, add_noise, make_phantom, make_test_signal
from tracing import Tracer


def sensing_problem(n=48, m=20):
    truth = make_test_signal("mixed", n)
    op = make_gaussian_sensing(m, n, seed=1)
    problem = TestProblem(op, op.forward(truth), truth, None, 0.0, GridDims(n, 1), 1, "cs")
    return add_noise(problem, 0.01, "data_norm", 2)


def denoise_problem(nz=24, nx=20):
    dims = GridDims(nz, nx)
    truth = make_phantom("piecewise_smooth_2d", dims)
    problem = TestProblem(identity(dims.n), truth.copy(), truth, None, 0.0, dims, 3, "denoise")
    return add_noise(problem, 0.1, "model_norm", 4)


def random_state(problem, cfg, seed=5):
    rng = np.random.default_rng(seed)
    state = initial_state(problem, cfg)
    for name in ("model", "sparse_grad", "smooth_grad", "noise", "dual_split", "dual_data"):
        setattr(state, name, rng.standard_normal(getattr(state, name).size))
    state.dual_budget = 0.3
    state.balance = 2.0
    return state


def perturbed(x, scale=1e-3, seed=9):
    return x + scale * np.linalg.norm(x) / np.sqrt(x.size) * np.random.default_rng(seed).standard_normal(x.size)


# ---------------------------------------------------------------------------
# operators


@pytest.mark.parametrize("dims", [GridDims(30, 1), GridDims(12, 9)])
def test_adjoint_identity_accepts_grad_and_rejects_wrong_adjoints(dims):
    op = make_derivative_operator("grad", dims)
    assert checks.adjoint_identity(op.forward, op.adjoint, op.rows, op.cols, seed=0)[0]

    def scaled(y):
        return 1.001 * op.adjoint(y)

    def shifted(y):
        return np.roll(op.adjoint(y), 1)

    for wrong in (scaled, shifted):
        assert not checks.adjoint_identity(op.forward, wrong, op.rows, op.cols, seed=0)[0]


@pytest.mark.parametrize("nz, nx", [(17, 1), (7, 5)])
def test_gradient_matrix_is_the_library_gradient(nz, nx):
    op = make_derivative_operator("grad", GridDims(nz, nx))
    x = np.random.default_rng(0).standard_normal(nz * nx)
    assert checks.matches(op.forward(x), checks.gradient_matrix(nz, nx) @ x, "D", 1e-14)[0]
    if nx > 1:
        swapped = checks.gradient_matrix(nx, nz)
        assert not checks.matches(op.forward(x), swapped @ x, "D", 1e-3)[0]


# ---------------------------------------------------------------------------
# whole-run properties


def test_odd_symmetry_rejects_a_swapped_sign_and_a_perturbation():
    m = np.random.default_rng(0).standard_normal(40)
    assert checks.odd_symmetry(m, -m)[0]
    assert not checks.odd_symmetry(m, m)[0]
    assert not checks.odd_symmetry(m, -perturbed(m, 1e-9))[0]


def test_baseline_and_agreement_checks():
    assert checks.beats_baseline(0.1, 0.3)[0]
    assert not checks.beats_baseline(0.3, 0.3)[0]
    assert checks.agrees(0.25, 0.25, "x")[0]
    assert not checks.agrees(0.25 * (1 + 1e-9), 0.25, "x")[0]
    assert checks.at_most(1e-8, 1e-6, "r")[0]
    assert not checks.at_most(2e-6, 1e-6, "r")[0]


@pytest.mark.parametrize("dims", [GridDims(33, 1), GridDims(9, 7)])
def test_read_back_is_bitwise(tmp_path, dims):
    model = np.random.default_rng(1).standard_normal(dims.n) * 1e3
    path = tmp_path / "m_est.csv"
    write_image(model, dims, path, "csv")
    assert checks.read_back(path, model)[0]
    one_ulp = model.copy()
    one_ulp[3] = np.nextafter(one_ulp[3], np.inf)
    assert not checks.read_back(path, one_ulp)[0]


def test_lsqr_baseline_is_a_least_squares_fit():
    problem = sensing_problem(n=30, m=40)
    op = problem.operator
    estimate = checks.lsqr_baseline(op.forward, op.adjoint, op.rows, op.cols, problem.data, 200)
    assert checks.relative_error(estimate, problem.true_model) < 0.05


# ---------------------------------------------------------------------------
# block updates


@pytest.mark.parametrize("make", [sensing_problem, denoise_problem])
def test_smooth_grad_reference_matches_the_update(make):
    problem = make()
    cfg = AdmmConfig(noise_energy=problem.noise_energy)
    state = random_state(problem, cfg)
    dims = problem.dims
    grad_model = make_derivative_operator("grad", dims).forward(state.model)
    value = update_smooth_grad(state, cfg, dims, grad_model)
    target = grad_model - state.sparse_grad - state.dual_split
    c = state.balance / cfg.split_weight
    assert checks.matches(value, checks.smooth_grad_reference(target, c, dims.nz, dims.nx), "g2", 1e-12)[0]
    assert not checks.matches(perturbed(value, 1e-9), checks.smooth_grad_reference(target, c, dims.nz, dims.nx),
                              "g2", 1e-12)[0]
    if not dims.is_1d:
        # the two components exchanged
        n = dims.n
        swapped = np.concatenate([value[n:], value[:n]])
        assert not checks.matches(swapped, checks.smooth_grad_reference(target, c, dims.nz, dims.nx),
                                  "g2", 1e-12)[0]


@pytest.mark.parametrize("dual_budget", [0.0, 5.0, -3.0])
def test_noise_gain_reference_is_the_largest_root(dual_budget):
    problem = sensing_problem()
    cfg = AdmmConfig(noise_energy=problem.noise_energy, budget_weight=300.0)
    state = random_state(problem, cfg)
    state.dual_budget = dual_budget
    misfit = problem.data - problem.operator.forward(state.model)
    _, gain = update_noise(state, cfg, misfit)
    reference = checks.noise_gain_reference(misfit + state.dual_data, cfg.noise_energy, state.dual_budget,
                                            cfg.data_weight, cfg.budget_weight)
    assert checks.agrees(gain, reference, "gain", 1e-8)[0]
    assert not checks.agrees(gain * (1 + 1e-6), reference, "gain", 1e-8)[0]
    # a wrong sign of the budget multiplier moves the root
    wrong = checks.noise_gain_reference(misfit + state.dual_data, cfg.noise_energy, -state.dual_budget - 1.0,
                                        cfg.data_weight, cfg.budget_weight)
    assert not checks.agrees(gain, wrong, "gain", 1e-8)[0]


@pytest.mark.parametrize("make, dense_limit", [(sensing_problem, 4096), (denoise_problem, 0)])
def test_model_update_reference(monkeypatch, make, dense_limit):
    monkeypatch.setattr(checks, "DENSE_PROBE_LIMIT", dense_limit)
    problem = make()
    cfg = AdmmConfig(noise_energy=problem.noise_energy)
    state = random_state(problem, cfg)
    op, dims = problem.operator, problem.dims
    grad = checks.gradient_matrix(dims.nz, dims.nx)
    w1, w2 = cfg.split_weight, cfg.data_weight
    rhs = w1 * (grad.T @ (state.sparse_grad + state.smooth_grad + state.dual_split))
    rhs += w2 * op.adjoint(problem.data - state.noise + state.dual_data)
    model, _ = update_model(state, problem, cfg)

    reference, residual = checks.model_update_reference(grad, op.forward, op.adjoint, op.cols, rhs, w1, w2, model)
    assert checks.matches(model, reference, "m", 1e-3)[0]
    assert checks.at_most(residual, 10 * cfg.cg.rel_tol, "r")[0]

    bad = perturbed(model, 1e-2)
    _, bad_residual = checks.model_update_reference(grad, op.forward, op.adjoint, op.cols, rhs, w1, w2, bad)
    assert not checks.matches(bad, reference, "m", 1e-3)[0]
    assert not checks.at_most(bad_residual, 10 * cfg.cg.rel_tol, "r")[0]
    # a sign slip in the data term of the right-hand side
    flipped = w1 * (grad.T @ (state.sparse_grad + state.smooth_grad + state.dual_split))
    flipped -= w2 * op.adjoint(problem.data - state.noise + state.dual_data)
    other, _ = checks.model_update_reference(grad, op.forward, op.adjoint, op.cols, flipped, w1, w2, model)
    assert not checks.matches(model, other, "m", 1e-3)[0]


# ---------------------------------------------------------------------------
# tracer


def test_tracer_self_time_and_absent_functions():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
    assert tracer.calls == {"outer": 1, "inner": 1}
    outer = tracer.total_s["outer"]
    assert tracer.self_s["outer"] == pytest.approx(outer - tracer.total_s["inner"])
    assert tracer.spans[1][1] == 0 and tracer.spans[0][1] == -1

    tracer.patch("tikhtv.admm", "no_such_function", lambda fn: fn)
    tracer.patch("tikhtv.no_such_module", "f", lambda fn: fn)
    assert tracer.absent == ["tikhtv.admm.no_such_function", "tikhtv.no_such_module.f"]
    tracer.restore()


def test_operator_wrapping_keeps_results():
    tracer = Tracer()
    op = make_derivative_operator("grad", GridDims(6, 4))
    traced = tracer.wrap_operator(op, "operators.grad")
    x = np.arange(24.0)
    assert np.array_equal(traced.forward(x), op.forward(x))
    assert dataclasses.replace(traced, label="x").rows == op.rows
    assert tracer.calls["operators.grad.forward"] == 1



def test_paced_clock_scales_wall_time_by_the_reference(monkeypatch):
    import pace

    times = iter([pace.NOMINAL_S, 3 * pace.NOMINAL_S, pace.NOMINAL_S])
    monkeypatch.setattr(pace, "reference", lambda: next(times))
    clock = pace.PacedClock()
    clock.start()
    sum(range(10000))
    clock.mark()
    first = clock.wall_s
    sum(range(10000))
    clock.stop()
    # each segment is paced by the mean of the reference times around it
    assert clock.paced_s == pytest.approx(first / 2 + (clock.wall_s - first) / 2)
    assert 0 < clock.paced_s < clock.wall_s
