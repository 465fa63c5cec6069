import dataclasses

import numpy as np
import pytest

from tikhtv.admm import (
    AdmmConfig,
    AdmmState,
    DivergenceError,
    admm_run,
    first_stable_iteration,
    initial_state,
    soft_threshold,
    splitting_residual,
    update_model,
    update_noise,
    update_smooth_grad,
    update_sparse_grad,
)
from tikhtv.cli import admm_config_for, build_problems, parse_config_text
from tikhtv.kernels import CgSettings
from tikhtv.operators import (
    GridDims,
    compose,
    identity,
    make_causal_integration,
    make_derivative_operator,
    make_gaussian_sensing,
    make_subsampler,
    to_dense,
)
from tikhtv.problems import TestProblem, add_noise, make_phantom, make_test_signal


def small_problem(n=32, m=24, kind="mixed", noise=0.01, seed=0):
    truth = make_test_signal(kind, n)
    op = make_gaussian_sensing(m, n, seed=seed)
    problem = TestProblem(
        operator=op,
        data=op.forward(truth),
        true_model=truth,
        true_noise=None,
        noise_energy=0.0,
        dims=GridDims(n, 1),
        seed=seed,
        label="test",
    )
    if noise > 0:
        problem = add_noise(problem, noise, "data_norm", seed + 7)
    return problem


def denoise_problem(n=256, kind="blocky", noise=0.05, seed=3):
    truth = make_test_signal(kind, n)
    problem = TestProblem(
        operator=identity(n),
        data=truth.copy(),
        true_model=truth,
        true_noise=None,
        noise_energy=0.0,
        dims=GridDims(n, 1),
        seed=seed,
        label="denoise",
    )
    return add_noise(problem, noise, "model_norm", seed)


def random_state(problem, cfg, seed=5):
    rng = np.random.default_rng(seed)
    state = initial_state(problem, cfg)
    state.model = rng.standard_normal(state.model.shape)
    state.sparse_grad = rng.standard_normal(state.sparse_grad.shape)
    state.smooth_grad = rng.standard_normal(state.smooth_grad.shape)
    state.noise = rng.standard_normal(state.noise.shape)
    state.dual_split = rng.standard_normal(state.dual_split.shape)
    state.dual_data = rng.standard_normal(state.dual_data.shape)
    state.dual_budget = float(rng.standard_normal())
    state.balance = 7.0
    return state


# ---------------------------------------------------------------------------
# config validation


def test_config_validation():
    with pytest.raises(ValueError):
        AdmmConfig(noise_energy=-1.0)
    with pytest.raises(ValueError):
        AdmmConfig(noise_energy=1.0, mode="nope")
    with pytest.raises(ValueError):
        AdmmConfig(noise_energy=1.0, balance_policy="nope")
    with pytest.raises(ValueError):
        AdmmConfig(noise_energy=1.0, split_weight=1.0, data_weight=1.0)
    with pytest.raises(ValueError):
        AdmmConfig(noise_energy=1.0, zscore_threshold=0.0)
    with pytest.raises(ValueError):
        AdmmConfig(noise_energy=1.0, initial_balance=0.0)
    with pytest.raises(ValueError):
        AdmmConfig(noise_energy=1.0, max_iter=0)
    with pytest.raises(ValueError):
        AdmmConfig(noise_energy=1.0, rel_change_tol=0.0)
    # the split/data ordering only binds in combined mode
    AdmmConfig(noise_energy=1.0, mode="tv_only", split_weight=1.0, data_weight=1.0)


def test_initial_state_zeroes():
    problem = small_problem()
    cfg = AdmmConfig(noise_energy=problem.noise_energy, initial_balance=4.0)
    state = initial_state(problem, cfg)
    assert state.model.shape == (32,)
    assert state.noise.shape == (24,)
    assert state.sparse_grad.shape == (32,)
    assert not state.model.any()
    assert not state.dual_split.any()
    assert state.dual_budget == 0.0
    assert state.balance == 4.0
    assert state.iteration == 0


# ---------------------------------------------------------------------------
# block updates vs dense oracles


def test_soft_threshold_examples():
    v = np.array([3.0, -2.0, 0.5, 0.0])
    assert np.array_equal(soft_threshold(v, 1.0), [2.0, -1.0, 0.0, 0.0])
    assert np.array_equal(soft_threshold(v, 0.0), v)
    assert not soft_threshold(np.array([0.3, -0.2]), 0.5).any()


def dense_model_update(problem, state, cfg):
    """The model update by ``np.linalg.solve`` of the dense normal equations."""
    n = problem.dims.n
    D = make_derivative_operator("grad", problem.dims).forward(np.eye(n))
    G = problem.operator.forward(np.eye(n))
    w1, w2 = cfg.split_weight, cfg.data_weight
    rhs = w1 * D.T @ (state.sparse_grad + state.smooth_grad + state.dual_split)
    rhs += w2 * G.T @ (problem.data - state.noise + state.dual_data)
    return np.linalg.solve(w1 * D.T @ D + w2 * G.T @ G, rhs)


def operator_problem_and_state(op, dims, cfg_kwargs=None, seed=17):
    truth = np.random.default_rng(seed).standard_normal(dims.n)
    problem = TestProblem(
        operator=op,
        data=op.forward(truth),
        true_model=truth,
        true_noise=None,
        noise_energy=0.5,
        dims=dims,
        seed=seed,
        label="dense-oracle",
    )
    cfg = AdmmConfig(noise_energy=problem.noise_energy, **(cfg_kwargs or {}))
    return problem, cfg, random_state(problem, cfg)


def test_update_model_matches_dense_normal_equations():
    # Gaussian sensing takes the exact Woodbury path
    problem, cfg, state = operator_problem_and_state(make_gaussian_sensing(6, 8, seed=17), GridDims(8, 1))
    expected = dense_model_update(problem, state, cfg)
    model, iters = update_model(state, problem, cfg)
    assert iters == 0
    assert np.linalg.norm(model - expected) <= 1e-9 * np.linalg.norm(expected)


def test_update_model_cg_path_matches_dense_normal_equations():
    # a dix_1d-style operator has no structure hint and keeps the CG
    n = 8
    op = compose(make_subsampler([2, 3, 5, 8], n), make_causal_integration(n))
    problem, cfg, state = operator_problem_and_state(
        op, GridDims(n, 1), {"cg": CgSettings(rel_tol=1e-13, max_iter=500)})
    expected = dense_model_update(problem, state, cfg)
    model, cg_iters = update_model(state, problem, cfg)
    assert cg_iters >= 1
    assert np.linalg.norm(model - expected) <= 1e-6 * np.linalg.norm(expected)


@pytest.mark.parametrize(
    "m, dims, weights",
    [
        (250, GridDims(1024, 1), {}),
        (1, GridDims(5, 1), {}),
        (12, GridDims(8, 1), {}),
        (6, GridDims(8, 1), {"split_weight": 3.0, "data_weight": 0.25}),
        (20, GridDims(5, 6), {"split_weight": 40.0, "data_weight": 2.0}),
    ],
    ids=["250x1024", "1x5", "12x8-overdetermined", "6x8-weights", "20x30-grid"],
)
def test_woodbury_update_matches_dense_oracle(m, dims, weights):
    problem, cfg, state = operator_problem_and_state(make_gaussian_sensing(m, dims.n, seed=m), dims, weights)
    expected = dense_model_update(problem, state, cfg)
    model, iters = update_model(state, problem, cfg)
    assert iters == 0
    assert np.linalg.norm(model - expected) <= 1e-9 * np.linalg.norm(expected)


def counting_operator(op, batched_adjoints):
    """``op`` rebuilt the way a tracer wraps it, counting block adjoints."""

    def adjoint(y):
        if np.ndim(y) == 2:
            batched_adjoints.append(np.shape(y))
        return op.adjoint(y)

    return dataclasses.replace(op, forward=lambda x: op.forward(x), adjoint=adjoint)


def test_woodbury_survives_operator_rebuild():
    problem, cfg, state = operator_problem_and_state(make_gaussian_sensing(70, 40, seed=2), GridDims(40, 1))
    model, _ = update_model(state, problem, cfg)
    blocks = []
    wrapped = dataclasses.replace(problem, operator=counting_operator(problem.operator, blocks))
    rebuilt, iters = update_model(state, wrapped, cfg)
    assert iters == 0
    assert blocks == [(70, 32), (70, 32), (70, 6)]
    assert np.array_equal(rebuilt, model)


def test_admm_run_sets_up_the_model_solver_once():
    base = small_problem(n=32, m=24)
    counts = []
    for sweeps in (2, 7):
        blocks = []
        problem = dataclasses.replace(base, operator=counting_operator(base.operator, blocks))
        cfg = AdmmConfig(noise_energy=base.noise_energy, max_iter=sweeps, run_to_max_iter=True)
        _, history = admm_run(problem, cfg)
        assert len(history) == sweeps
        assert all(record.cg_iters == 0 for record in history)
        counts.append(len(blocks))
    assert counts == [1, 1]


def test_update_model_identity_operator_dense_oracle():
    n = 16
    truth = make_test_signal("smooth", n)
    problem = TestProblem(
        operator=identity(n),
        data=truth.copy(),
        true_model=truth,
        true_noise=None,
        noise_energy=0.0,
        dims=GridDims(n, 1),
        seed=0,
        label="id",
    )
    cfg = AdmmConfig(noise_energy=0.0, cg=CgSettings(rel_tol=1e-13, max_iter=500))
    state = initial_state(problem, cfg)
    D = to_dense(make_derivative_operator("grad", problem.dims))
    H = cfg.split_weight * D.T @ D + cfg.data_weight * np.eye(n)
    expected = np.linalg.solve(H, cfg.data_weight * problem.data)
    model, _ = update_model(state, problem, cfg)
    assert np.allclose(model, expected, rtol=0, atol=1e-8)


def identity_problem_and_state(dims, seed=11):
    truth = np.random.default_rng(seed).standard_normal(dims.n)
    problem = TestProblem(
        operator=identity(dims.n),
        data=truth.copy(),
        true_model=truth,
        true_noise=None,
        noise_energy=0.5,
        dims=dims,
        seed=seed,
        label="id",
    )
    cfg = AdmmConfig(noise_energy=problem.noise_energy)
    return problem, cfg, random_state(problem, cfg, seed=seed + 1)


@pytest.mark.parametrize("dims", [GridDims(5, 8), GridDims(7, 3), GridDims(2, 1), GridDims(17, 1)],
                         ids=["5x8", "7x3", "n2", "n17"])
def test_update_model_identity_is_exact(dims):
    problem, cfg, state = identity_problem_and_state(dims)
    D = to_dense(make_derivative_operator("grad", dims))
    w1, w2 = cfg.split_weight, cfg.data_weight
    rhs = w1 * D.T @ (state.sparse_grad + state.smooth_grad + state.dual_split)
    rhs += w2 * (problem.data - state.noise + state.dual_data)
    expected = np.linalg.solve(w1 * D.T @ D + w2 * np.eye(dims.n), rhs)
    model, iters = update_model(state, problem, cfg)
    assert iters == 0
    assert np.linalg.norm(model - expected) <= 1e-12 * np.linalg.norm(expected)


def test_update_model_identity_ignores_cg_settings_and_survives_rebuild():
    problem, cfg, state = identity_problem_and_state(GridDims(6, 5))
    model, _ = update_model(state, problem, cfg)
    loose = dataclasses.replace(cfg, cg=CgSettings(max_iter=1, rel_tol=0.5))
    assert np.array_equal(update_model(state, problem, loose)[0], model)

    # a wrapped operator, as a tracer builds it, keeps the structure hint
    op = problem.operator
    calls = []
    wrapped = dataclasses.replace(
        op,
        forward=lambda x: calls.append("forward") or op.forward(x),
        adjoint=lambda x: calls.append("adjoint") or op.adjoint(x),
    )
    rebuilt, iters = update_model(state, dataclasses.replace(problem, operator=wrapped), cfg)
    assert iters == 0
    assert calls == ["adjoint"]
    assert np.array_equal(rebuilt, model)


def test_update_sparse_grad_is_soft_threshold():
    problem = small_problem()
    cfg = AdmmConfig(noise_energy=problem.noise_energy)
    state = random_state(problem, cfg)
    grad_model = np.linspace(-1.0, 1.0, problem.dims.grad_len)
    got = update_sparse_grad(state, cfg, grad_model)
    expected = soft_threshold(
        grad_model - state.smooth_grad - state.dual_split, 1.0 / cfg.split_weight
    )
    assert np.array_equal(got, expected)


def test_update_smooth_grad_dense_oracle_1d():
    # n = 16 with balance/split_weight = 2 must match the dense damped solve
    n = 16
    problem = small_problem(n=n, m=10)
    cfg = AdmmConfig(noise_energy=problem.noise_energy, split_weight=10.0)
    state = random_state(problem, cfg)
    state.balance = 20.0
    grad_model = np.cos(np.arange(n, dtype=float))
    got = update_smooth_grad(state, cfg, problem.dims, grad_model)
    B = to_dense(make_derivative_operator("component_grad", problem.dims))
    target = grad_model - state.sparse_grad - state.dual_split
    expected = np.linalg.solve(np.eye(n) + 2.0 * B.T @ B, target)
    assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)


def test_update_smooth_grad_dense_oracle_2d():
    dims = GridDims(4, 5)
    rng = np.random.default_rng(8)
    cfg = AdmmConfig(noise_energy=1.0, split_weight=10.0)
    problem = TestProblem(
        operator=identity(dims.n),
        data=np.zeros(dims.n),
        true_model=None,
        true_noise=None,
        noise_energy=1.0,
        dims=dims,
        seed=0,
        label="grid",
    )
    state = initial_state(problem, cfg)
    state.sparse_grad = rng.standard_normal(dims.grad_len)
    state.dual_split = rng.standard_normal(dims.grad_len)
    state.balance = 7.0
    grad_model = rng.standard_normal(dims.grad_len)
    got = update_smooth_grad(state, cfg, dims, grad_model)
    B = to_dense(make_derivative_operator("component_grad", dims))
    target = grad_model - state.sparse_grad - state.dual_split
    expected = np.linalg.solve(np.eye(dims.grad_len) + 0.7 * B.T @ B, target)
    assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)


def test_update_smooth_grad_zero_balance_is_identity():
    problem = small_problem(n=16, m=6)
    cfg = AdmmConfig(noise_energy=problem.noise_energy)
    state = initial_state(problem, cfg)
    state.balance = 0.0
    grad_model = np.arange(16, dtype=float)
    assert np.array_equal(update_smooth_grad(state, cfg, problem.dims, grad_model), grad_model)


def test_update_smooth_grad_keeps_constants():
    # constants lie in the null space of the damping term
    problem = small_problem(n=17, m=6)
    cfg = AdmmConfig(noise_energy=problem.noise_energy)
    state = initial_state(problem, cfg)
    state.balance = 123.0
    grad_model = np.full(17, 2.5)
    got = update_smooth_grad(state, cfg, problem.dims, grad_model)
    assert np.allclose(got, grad_model, rtol=1e-12)


def test_update_noise_on_budget_keeps_residual():
    # with ||r||^2 equal to the budget and zero multipliers the cubic's
    # largest root is exactly one, so the noise estimate is the residual
    problem = small_problem(n=16, m=12)
    misfit = np.array([0.6, -0.8, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    cfg = AdmmConfig(noise_energy=1.0)
    state = initial_state(problem, cfg)
    noise, gamma = update_noise(state, cfg, misfit)
    assert gamma == pytest.approx(1.0, rel=1e-12)
    assert np.allclose(noise, misfit, rtol=1e-12)


def test_update_noise_zero_residual():
    problem = small_problem(n=16, m=12)
    cfg = AdmmConfig(noise_energy=1.0)
    state = initial_state(problem, cfg)
    noise, gamma = update_noise(state, cfg, np.zeros(12))
    assert gamma == 0.0
    assert not noise.any()


def test_update_noise_stationarity_identity():
    # the returned vector satisfies (1 + (2 w3/w2)(||e||^2 - eps - y3)) e = r
    rng = np.random.default_rng(21)
    problem = small_problem(n=16, m=12)
    for trial in range(30):
        cfg = AdmmConfig(
            noise_energy=float(rng.uniform(0.01, 5.0)),
            data_weight=float(rng.uniform(0.2, 3.0)),
            split_weight=float(rng.uniform(4.0, 20.0)),
            budget_weight=float(rng.uniform(0.2, 3.0)),
        )
        state = initial_state(problem, cfg)
        state.dual_data = rng.standard_normal(12) * 0.1
        state.dual_budget = float(rng.standard_normal() * 0.3)
        misfit = rng.standard_normal(12)
        noise, gamma = update_noise(state, cfg, misfit)
        r = misfit + state.dual_data
        coeff = 1.0 + (2.0 * cfg.budget_weight / cfg.data_weight) * (
            float(noise @ noise) - cfg.noise_energy - state.dual_budget
        )
        assert np.linalg.norm(coeff * noise - r) <= 1e-8 * np.linalg.norm(r)


def test_update_noise_picks_global_minimum():
    # among all real roots of the cubic, the returned gamma minimises the
    # noise subproblem objective
    rng = np.random.default_rng(33)
    problem = small_problem(n=16, m=12)
    for trial in range(50):
        cfg = AdmmConfig(
            noise_energy=float(rng.uniform(0.01, 4.0)),
            budget_weight=float(rng.uniform(0.1, 5.0)),
        )
        state = initial_state(problem, cfg)
        state.dual_data = rng.standard_normal(12) * 0.2
        state.dual_budget = float(rng.standard_normal())
        misfit = rng.standard_normal(12)
        r = misfit + state.dual_data
        energy = float(r @ r)
        noise, gamma = update_noise(state, cfg, misfit)
        w2, w3 = cfg.data_weight, cfg.budget_weight
        p = (w2 - 2.0 * w3 * (cfg.noise_energy + state.dual_budget)) / (2.0 * w3 * energy)
        q = -w2 / (2.0 * w3 * energy)

        def objective(g):
            return 0.5 * w2 * energy * (g - 1.0) ** 2 + 0.5 * w3 * (
                energy * g * g - cfg.noise_energy - state.dual_budget
            ) ** 2

        roots = np.roots([1.0, 0.0, p, q])
        real = [float(z.real) for z in roots if abs(z.imag) <= 1e-8 * max(1.0, abs(z))]
        best = min(objective(g) for g in real)
        assert objective(gamma) <= best + 1e-9 * (1.0 + abs(best))


# ---------------------------------------------------------------------------
# full runs


def test_zero_noise_identity_recovery():
    # exact data: the discrepancy keeps decreasing toward exact recovery.
    # the noise iterate only decays polynomially when the budget is zero, so
    # the budget weight is raised to keep its leakage below the target
    n = 64
    truth = make_test_signal("piecewise_smooth", n)
    problem = TestProblem(
        operator=identity(n),
        data=truth.copy(),
        true_model=truth,
        true_noise=None,
        noise_energy=0.0,
        dims=GridDims(n, 1),
        seed=0,
        label="zero-noise",
    )
    cfg = AdmmConfig(noise_energy=0.0, budget_weight=100.0, max_iter=200, run_to_max_iter=True)
    state, history = admm_run(problem, cfg)
    d2 = float(truth @ truth)
    discs = [rec.discrepancy for rec in history]
    assert discs[-1] <= 2e-5 * d2
    assert discs[-1] <= 1e-2 * discs[9]


def test_tv_only_matches_combined_on_blocky():
    problem = denoise_problem(kind="blocky")
    final = {}
    for mode in ("combined", "tv_only"):
        cfg = AdmmConfig(noise_energy=problem.noise_energy, max_iter=400, mode=mode)
        state, _ = admm_run(problem, cfg)
        final[mode] = state.model
    gap = np.linalg.norm(final["combined"] - final["tv_only"])
    assert gap <= 0.02 * np.linalg.norm(final["tv_only"])


def test_mode_forced_blocks():
    problem = denoise_problem(n=128, kind="mixed", noise=0.1)
    cfg = AdmmConfig(noise_energy=problem.noise_energy, max_iter=40, mode="tv_only")
    state, history = admm_run(problem, cfg)
    assert not state.smooth_grad.any()
    # the balance machinery is off in tv_only mode
    assert all(rec.balance == cfg.initial_balance for rec in history)

    cfg = AdmmConfig(noise_energy=problem.noise_energy, max_iter=40, mode="tikhonov_only")
    state, history = admm_run(problem, cfg)
    assert not state.sparse_grad.any()
    assert state.balance != cfg.initial_balance


def test_adaptive_then_fixed_rerun_agrees():
    problem = denoise_problem(n=256, kind="mixed", noise=0.1, seed=11)
    cfg = AdmmConfig(noise_energy=problem.noise_energy, max_iter=400)
    state, _ = admm_run(problem, cfg)
    fixed_cfg = dataclasses.replace(
        cfg, balance_policy="fixed", initial_balance=state.balance
    )
    fixed_state, _ = admm_run(problem, fixed_cfg)
    gap = np.linalg.norm(fixed_state.model - state.model)
    assert gap <= 1e-3 * np.linalg.norm(state.model)


def test_balance_stays_positive_and_history_consistent():
    problem = denoise_problem(n=128, kind="mixed", noise=0.2, seed=9)
    cfg = AdmmConfig(noise_energy=problem.noise_energy, max_iter=60, run_to_max_iter=True)
    state, history = admm_run(problem, cfg)
    assert len(history) == 60
    assert all(rec.balance > 0.0 for rec in history)
    assert [rec.iteration for rec in history] == list(range(1, 61))
    assert history[-1].balance == state.balance
    # ground truth present, so errors are recorded
    assert all(rec.rel_error is not None for rec in history)


def test_stopping_and_stabilization_recording():
    problem = denoise_problem(n=128, kind="blocky", noise=0.05, seed=5)
    cfg = AdmmConfig(noise_energy=problem.noise_energy, max_iter=500)
    state, history = admm_run(problem, cfg)
    stop = first_stable_iteration(history, cfg.rel_change_tol)
    assert stop == history[-1].iteration
    assert len(history) < 500

    # run_to_max_iter keeps going but still records the stabilisation point
    full_cfg = dataclasses.replace(cfg, run_to_max_iter=True, max_iter=stop + 50)
    _, full_history = admm_run(problem, full_cfg)
    assert len(full_history) == stop + 50
    assert first_stable_iteration(full_history, cfg.rel_change_tol) == stop


def test_splitting_residual_small_after_run():
    problem = denoise_problem(n=128, kind="mixed", noise=0.1, seed=2)
    cfg = AdmmConfig(noise_energy=problem.noise_energy, max_iter=400)
    state, _ = admm_run(problem, cfg)
    assert splitting_residual(state, problem) <= 1e-3


def test_run_is_deterministic():
    problem = small_problem(n=48, m=32, noise=0.02, seed=4)
    cfg = AdmmConfig(noise_energy=problem.noise_energy, max_iter=30, run_to_max_iter=True)
    state_a, hist_a = admm_run(problem, cfg)
    state_b, hist_b = admm_run(problem, cfg)
    assert np.array_equal(state_a.model, state_b.model)
    assert np.array_equal(state_a.noise, state_b.noise)
    for ra, rb in zip(hist_a, hist_b):
        assert ra == rb


def phantom_denoise_problem(dims, seed=6):
    truth = make_phantom("piecewise_smooth_2d", dims)
    problem = TestProblem(
        operator=identity(dims.n),
        data=truth.copy(),
        true_model=truth,
        true_noise=None,
        noise_energy=0.0,
        dims=dims,
        seed=seed,
        label="phantom",
    )
    return add_noise(problem, 0.1, "model_norm", seed)


def dix_1d_run_inputs(sweeps):
    cfg = parse_config_text(f"experiment = dix_1d\nmax_iter = {sweeps}\n")
    _, problem = build_problems(cfg)[0]
    return problem, admm_config_for(cfg, problem, "combined")


def phantom_run_inputs(sweeps):
    problem = phantom_denoise_problem(GridDims(32, 24))
    cfg = AdmmConfig(noise_energy=problem.noise_energy, max_iter=sweeps, run_to_max_iter=True)
    return problem, cfg


@pytest.mark.parametrize("inputs, sweeps", [(dix_1d_run_inputs, 30), (phantom_run_inputs, 25)],
                         ids=["dix_1d", "phantom_32x24"])
def test_negated_data_negates_model_bitwise(inputs, sweeps):
    # every block update is odd in (d, iterates) and the balance statistics
    # see only magnitudes, so the whole run flips sign exactly
    problem, cfg = inputs(sweeps)
    plus, _ = admm_run(problem, cfg)
    minus, _ = admm_run(dataclasses.replace(problem, data=-problem.data), cfg)
    assert np.array_equal(minus.model, -plus.model)


@pytest.mark.parametrize("shift", [0.5, 3.0])
def test_shifted_data_shifts_model(shift):
    # with A = I every block update commutes with adding a constant to d and
    # m: D and the noise residual d - m do not see it, and the exact model
    # update carries it through w2 I + w1 L, whose L has constants in its kernel
    problem, cfg = phantom_run_inputs(25)
    base, _ = admm_run(problem, cfg)
    moved, _ = admm_run(dataclasses.replace(problem, data=problem.data + shift), cfg)
    scale = np.max(np.abs(base.model))
    assert np.max(np.abs(moved.model - (base.model + shift))) <= 1e-12 * scale


def test_transposed_grid_transposes_model():
    dims = GridDims(32, 24)
    problem = phantom_denoise_problem(dims)
    flipped_dims = GridDims(dims.nx, dims.nz)
    flipped = dataclasses.replace(
        problem,
        data=flipped_dims.to_vector(dims.to_grid(problem.data).T),
        true_model=flipped_dims.to_vector(dims.to_grid(problem.true_model).T),
        dims=flipped_dims,
    )
    cfg = AdmmConfig(noise_energy=problem.noise_energy, max_iter=25, run_to_max_iter=True)
    state, _ = admm_run(problem, cfg)
    state_t, _ = admm_run(flipped, cfg)
    want = dims.to_grid(state.model).T
    got = flipped_dims.to_grid(state_t.model)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_run_validates_problem_shapes():
    problem = small_problem(n=16, m=12)
    cfg = AdmmConfig(noise_energy=problem.noise_energy)
    bad = dataclasses.replace(problem, data=np.zeros(5))
    with pytest.raises(ValueError):
        admm_run(bad, cfg)
    bad_dims = dataclasses.replace(problem, dims=GridDims(15, 1))
    with pytest.raises(ValueError):
        admm_run(bad_dims, cfg)


def test_callback_streams_every_record():
    problem = small_problem(n=32, m=20, noise=0.02)
    cfg = AdmmConfig(noise_energy=problem.noise_energy, max_iter=20, run_to_max_iter=True)
    seen = []
    _, history = admm_run(problem, cfg, callback=seen.append)
    assert seen == history


def test_divergence_error_is_runtime_error():
    assert issubclass(DivergenceError, RuntimeError)
