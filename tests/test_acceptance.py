"""Acceptance battery.

Each test covers one acceptance criterion end to end and prints a single
CRITERION n (...): PASS/FAIL line (run with -s to see them on success).
The heavy experiments are cached at module scope so criteria that share a
run (the default denoising run feeds 5, 6, 7 and 8) pay for it once.
Expect a few minutes of wall time; the tomography pair dominates.
"""
import dataclasses
import time
from functools import lru_cache

import numpy as np

from tikhtv.admm import (
    AdmmConfig,
    admm_run,
    initial_state,
    splitting_residual,
    update_model,
    update_noise,
    update_smooth_grad,
    update_sparse_grad,
)
from tikhtv.cli import admm_config_for, build_problems, parse_config_text
from tikhtv.kernels import CgSettings, cg_solve, max_real_root_depressed_cubic, neumann_solve
from tikhtv.operators import (
    GridDims,
    compose,
    kron_operator,
    make_causal_integration,
    make_derivative_operator,
    make_gaussian_sensing,
    make_radon,
    make_subsampler,
    to_dense,
)
from tikhtv.problems import TestProblem, add_noise, make_test_signal
from tikhtv.robust import gradient_stats, update_balance


def report(number: int, name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    line = f"CRITERION {number} ({name}): {status}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert passed, line


def timed_run(problem, cfg):
    t0 = time.perf_counter()
    state, history = admm_run(problem, cfg)
    return state, history, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# cached experiment runs, built through the config pipeline so the acceptance
# battery exercises the same path as the CLI


@lru_cache(maxsize=None)
def cs_problems():
    # the experiment as shipped: all four signals, per-signal noise seeds
    cfg = parse_config_text("experiment = cs_1d\n", "acceptance")
    return cfg, dict(build_problems(cfg))


@lru_cache(maxsize=None)
def cs_run(signal: str, initial_balance: float = 1.0):
    cfg, problems = cs_problems()
    problem = problems[signal]
    solver_cfg = admm_config_for(cfg, problem, "combined")
    if initial_balance != 1.0:
        solver_cfg = dataclasses.replace(solver_cfg, initial_balance=initial_balance)
    state, history, wall = timed_run(problem, solver_cfg)
    return problem, solver_cfg, state, history, wall


@lru_cache(maxsize=None)
def denoise_run(mode="combined", epsilon_scale=1.0, zscore=2.5,
                policy="adaptive", balance=1.0):
    text = "experiment = denoise_2d\n"
    if epsilon_scale != 1.0:
        text += f"epsilon_scale = {epsilon_scale:.17g}\n"
    if zscore != 2.5:
        text += f"zscore_threshold = {zscore:.17g}\n"
    if policy != "adaptive":
        text += f"balance_policy = {policy}\n"
    if balance != 1.0:
        text += f"initial_balance = {balance:.17g}\n"
    cfg = parse_config_text(text, "acceptance")
    _, problem = build_problems(cfg)[0]
    solver_cfg = admm_config_for(cfg, problem, mode)
    state, history, wall = timed_run(problem, solver_cfg)
    return problem, solver_cfg, state, history, wall


@lru_cache(maxsize=None)
def xray_run(experiment: str, mode: str):
    cfg = parse_config_text(f"experiment = {experiment}\n", "acceptance")
    _, problem = build_problems(cfg)[0]
    solver_cfg = admm_config_for(cfg, problem, mode)
    state, history, wall = timed_run(problem, solver_cfg)
    return problem, solver_cfg, state, history, wall


# ---------------------------------------------------------------------------
# 1. dense-oracle equivalence for every matrix-free building block


def test_acceptance_01_dense_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    ok = True
    notes = []

    dims1 = GridDims(33, 1)
    dims2 = GridDims(7, 9)
    ops = {
        "sensing": make_gaussian_sensing(24, 32, seed=3),
        "grad_1d": make_derivative_operator("grad", dims1),
        "grad_2d": make_derivative_operator("grad", dims2),
        "component_grad_2d": make_derivative_operator("component_grad", dims2),
        "causal": make_causal_integration(20),
        "subsampler": make_subsampler([1, 4, 5, 12], 16),
        "radon": make_radon(GridDims(16, 16), 21, np.linspace(-90.0, 90.0, 12, endpoint=False)),
        "compose": compose(make_gaussian_sensing(10, 20, seed=1),
                           make_causal_integration(20)),
        "kron": kron_operator(make_subsampler([1, 2], 4),
                              make_causal_integration(5)),
    }
    for name, op in ops.items():
        dense = to_dense(op)
        tol = 1e-8 if name == "radon" else 1e-10
        x = rng.standard_normal(op.cols)
        y = rng.standard_normal(op.rows)
        fwd_err = np.linalg.norm(op.forward(x) - dense @ x) / (1.0 + np.linalg.norm(dense @ x))
        adj_err = np.linalg.norm(op.adjoint(y) - dense.T @ y) / (1.0 + np.linalg.norm(dense.T @ y))
        pairing = abs(float(op.forward(x) @ y) - float(x @ op.adjoint(y)))
        pairing /= 1.0 + abs(float(x @ op.adjoint(y)))
        if max(fwd_err, adj_err, pairing) > tol:
            ok = False
            notes.append(f"{name} err {max(fwd_err, adj_err, pairing):.2e}")

    # kron against numpy's dense Kronecker product
    outer = make_causal_integration(6)
    inner = make_gaussian_sensing(5, 4, seed=9)
    kron_err = np.max(np.abs(to_dense(kron_operator(outer, inner))
                             - np.kron(to_dense(outer), to_dense(inner))))
    if kron_err > 1e-12:
        ok = False
        notes.append(f"kron dense {kron_err:.2e}")

    # CG against a dense solve on an SPD system, n <= 64
    n = 48
    m = rng.standard_normal((n, n))
    a = m.T @ m + 0.1 * np.eye(n)
    b = rng.standard_normal(n)
    x, _ = cg_solve(lambda v: a @ v, b, settings=CgSettings(rel_tol=1e-12, max_iter=2000))
    cg_err = np.linalg.norm(x - np.linalg.solve(a, b)) / np.linalg.norm(x)
    if cg_err > 1e-8:
        ok = False
        notes.append(f"cg {cg_err:.2e}")

    # Neumann-Laplacian solve against a dense solve of I + c D'D, D the gradient
    for dims in (GridDims(50, 1), dims2):
        grad = to_dense(make_derivative_operator("grad", dims))
        full = np.eye(dims.n) + 3.0 * grad.T @ grad
        rhs = rng.standard_normal(dims.n)
        solved = dims.to_vector(neumann_solve(dims.to_grid(rhs), 1.0, 3.0, axes=(0, 1)))
        neumann_err = np.linalg.norm(solved - np.linalg.solve(full, rhs)) / np.linalg.norm(rhs)
        if neumann_err > 1e-10:
            ok = False
            notes.append(f"neumann {dims.nz}x{dims.nx} {neumann_err:.2e}")

    # depressed-cubic max real root against companion-matrix roots
    worst_cubic = 0.0
    scales = [0.0, 1e-4, 1e-2, 1.0, 1e2, 1e4]
    for p_mag in scales:
        for q_mag in scales:
            for sp in (-1.0, 1.0):
                for sq in (-1.0, 1.0):
                    p, q = sp * p_mag, sq * q_mag
                    got = max_real_root_depressed_cubic(p, q)
                    roots = np.roots([1.0, 0.0, p, q])
                    real = roots[np.abs(roots.imag) <= 1e-8 * np.maximum(1.0, np.abs(roots))].real
                    want = float(np.max(real))
                    worst_cubic = max(worst_cubic, abs(got - want) / (1.0 + abs(want)))
    if worst_cubic > 1e-8:
        ok = False
        notes.append(f"cubic {worst_cubic:.2e}")

    wall = time.perf_counter() - t0
    if wall >= 30.0:
        ok = False
        notes.append(f"wall {wall:.1f}s")
    report(1, "dense-oracle equivalence", ok,
           "; ".join(notes) if notes else f"wall {wall:.1f}s")


# ---------------------------------------------------------------------------
# 2. every block update is a minimiser of its own subproblem, every iteration


def test_acceptance_02_subproblem_optimality():
    n = 64
    truth = make_test_signal("mixed", n)
    op = make_gaussian_sensing(48, n, seed=0)
    problem = TestProblem(operator=op, data=op.forward(truth), true_model=truth,
                          true_noise=None, noise_energy=0.0, dims=GridDims(n, 1),
                          seed=0, label="optimality")
    problem = add_noise(problem, 0.01, "data_norm", 7)
    # tight CG so the model update is a true minimiser, not a loose iterate
    cfg = AdmmConfig(noise_energy=problem.noise_energy, max_iter=50,
                     run_to_max_iter=True,
                     cg=CgSettings(rel_tol=1e-10, max_iter=1000))
    grad_op = make_derivative_operator("grad", problem.dims)
    comp_op = make_derivative_operator("component_grad", problem.dims)
    rng = np.random.default_rng(12345)
    w1, w2, w3 = cfg.split_weight, cfg.data_weight, cfg.budget_weight

    failures = []

    def check(f, x, label, it):
        fx = f(x)
        tol = 1e-12 * (1.0 + abs(fx))
        delta = 1e-6 * (1.0 + float(np.linalg.norm(x)))
        worst = 0.0
        for _ in range(20):
            u = rng.standard_normal(x.shape)
            u /= np.linalg.norm(u)
            for s in (delta, -delta):
                worst = max(worst, fx - f(x + s * u))
        if worst > tol:
            failures.append(f"{label}@{it}: {worst:.2e}")

    t0 = time.perf_counter()
    st = initial_state(problem, cfg)
    for k in range(1, 51):
        target_split = st.sparse_grad + st.smooth_grad + st.dual_split
        target_data = problem.data - st.noise + st.dual_data

        def f_m(m):
            return 0.5 * w1 * np.sum((grad_op.forward(m) - target_split) ** 2) \
                 + 0.5 * w2 * np.sum((op.forward(m) - target_data) ** 2)

        st.model, _ = update_model(st, problem, cfg, grad_op)
        check(f_m, st.model, "model", k)

        gm = grad_op.forward(st.model)
        g2_prev = st.smooth_grad.copy()

        def f_g1(g1):
            return np.sum(np.abs(g1)) \
                 + 0.5 * w1 * np.sum((gm - g1 - g2_prev - st.dual_split) ** 2)

        st.sparse_grad = update_sparse_grad(st, cfg, gm)
        check(f_g1, st.sparse_grad, "sparse_grad", k)

        beta = st.balance

        def f_g2(g2):
            return 0.5 * beta * np.sum(comp_op.forward(g2) ** 2) \
                 + 0.5 * w1 * np.sum((gm - st.sparse_grad - g2 - st.dual_split) ** 2)

        st.smooth_grad = update_smooth_grad(st, cfg, problem.dims, gm)
        check(f_g2, st.smooth_grad, "smooth_grad", k)

        fit = op.forward(st.model)

        def f_e(e):
            return 0.5 * w2 * np.sum((fit + e - problem.data - st.dual_data) ** 2) \
                 + 0.5 * w3 * (np.sum(e * e) - cfg.noise_energy - st.dual_budget) ** 2

        st.noise, _ = update_noise(st, cfg, problem.data - fit)
        check(f_e, st.noise, "noise", k)

        st.dual_split += st.sparse_grad + st.smooth_grad - gm
        st.dual_data += problem.data - st.noise - fit
        st.dual_budget += cfg.noise_energy - float(st.noise @ st.noise)
        stats = gradient_stats(gm, st.smooth_grad, cfg.zscore_threshold)
        st.balance = update_balance(st.balance, stats)

    wall = time.perf_counter() - t0
    ok = not failures and wall < 60.0
    report(2, "subproblem optimality", ok,
           "; ".join(failures[:4]) if failures else f"50 iterations, wall {wall:.1f}s")


# ---------------------------------------------------------------------------
# 3. discrepancy hits the budget and the splitting closes on cs_1d


def test_acceptance_03_constraint_satisfaction():
    ok = True
    notes = []
    for signal in ("smooth", "piecewise_smooth", "blocky", "mixed"):
        problem, cfg, state, history, wall = cs_run(signal)
        eps = cfg.noise_energy
        gap = abs(history[-1].discrepancy - eps) / eps
        split = splitting_residual(state, problem)
        notes.append(f"{signal}: gap {gap:.4f}, split {split:.1e}, {wall:.0f}s")
        if gap > 0.02 or split > 1e-3 or wall >= 120.0:
            ok = False
    report(3, "constraint satisfaction", ok, "; ".join(notes))


# ---------------------------------------------------------------------------
# 4. the selected balance does not depend on its initial value


def test_acceptance_04_balance_init_independence():
    finals = []
    resids = []
    grad_op = None
    for b0 in (0.01, 1.0, 100.0):
        problem, cfg, state, history, _ = cs_run("mixed", b0)
        if grad_op is None:
            grad_op = make_derivative_operator("grad", problem.dims)
        finals.append(state.balance)
        stats = gradient_stats(grad_op.forward(state.model), state.smooth_grad,
                               cfg.zscore_threshold)
        resids.append(abs(stats.balance_residual) / (1.0 + stats.normal_max))
    finals = np.array(finals)
    spread = (finals.max() - finals.min()) / finals.mean()
    ok = spread <= 0.05 and max(resids) <= 0.05
    report(4, "balance independent of its seed", ok,
           f"finals {finals.round(2).tolist()}, spread {spread:.2e}, "
           f"residuals {[f'{r:.1e}' for r in resids]}")


# ---------------------------------------------------------------------------
# 5. combined beats both single-penalty modes on 2-d denoising


def test_acceptance_05_denoise_method_ordering():
    errs = {}
    wall = 0.0
    for mode in ("combined", "tv_only", "tikhonov_only"):
        _, _, _, history, w = denoise_run(mode=mode)
        errs[mode] = history[-1].rel_error
        wall += w
    ok = (errs["combined"] < errs["tv_only"]
          and errs["combined"] < errs["tikhonov_only"]
          and wall < 600.0)
    report(5, "denoising method ordering", ok,
           f"combined {errs['combined']:.5f} < tv {errs['tv_only']:.5f}, "
           f"tikhonov {errs['tikhonov_only']:.5f}; wall {wall:.0f}s")


# ---------------------------------------------------------------------------
# 6. discrepancy tracks a rescaled budget; the true budget gives the best fit


def test_acceptance_06_epsilon_sensitivity():
    ok = True
    notes = []
    errs = {}
    for scale in (0.9, 0.95, 1.0, 1.05, 1.1):
        _, cfg, _, history, _ = denoise_run(epsilon_scale=scale)
        eps = cfg.noise_energy
        gap = abs(history[-1].discrepancy - eps) / eps
        errs[scale] = history[-1].rel_error
        notes.append(f"{scale}: gap {gap:.4f}")
        if gap > 0.02:
            ok = False
    if not (errs[1.0] < errs[0.9] and errs[1.0] < errs[1.1]):
        ok = False
        notes.append(f"errors {errs}")
    report(6, "budget sensitivity", ok,
           "; ".join(notes) + f"; err@1.0 {errs[1.0]:.5f} vs {errs[0.9]:.5f}/{errs[1.1]:.5f}")


# ---------------------------------------------------------------------------
# 7. a laxer anomaly threshold keeps more entries normal and lowers the balance


def test_acceptance_07_threshold_monotonicity():
    betas = []
    errs = []
    for tau in (2.0, 2.5, 3.0):
        _, _, state, history, _ = denoise_run(zscore=tau)
        betas.append(state.balance)
        errs.append(history[-1].rel_error)
    monotone = betas[0] > betas[1] > betas[2]
    err_spread = (max(errs) - min(errs)) / min(errs)
    ok = monotone and err_spread <= 0.10
    report(7, "threshold monotonicity", ok,
           f"betas {[f'{b:.0f}' for b in betas]}, error spread {err_spread:.3f}")


# ---------------------------------------------------------------------------
# 8. freezing the balance at its adaptive limit reproduces the adaptive model


def test_acceptance_08_fixed_balance_equivalence():
    _, _, adaptive_state, _, _ = denoise_run()
    beta_star = float(adaptive_state.balance)
    _, _, fixed_state, _, _ = denoise_run(policy="fixed", balance=beta_star)
    dist = np.linalg.norm(fixed_state.model - adaptive_state.model)
    dist /= np.linalg.norm(adaptive_state.model)
    ok = dist <= 1e-3
    report(8, "fixed-balance equivalence", ok,
           f"beta* {beta_star:.1f}, relative distance {dist:.2e}")


# ---------------------------------------------------------------------------
# 9. tomography: full coverage is near-TV, limited angles favour combined


def test_acceptance_09_tomography_orderings():
    full = {}
    wall_full = 0.0
    for mode in ("combined", "tv_only", "tikhonov_only"):
        _, _, _, history, w = xray_run("xray_full", mode)
        full[mode] = history[-1].rel_error
        wall_full += w
    near = abs(full["combined"] - full["tv_only"]) / min(full["combined"], full["tv_only"])
    ok = (near <= 0.05
          and full["combined"] < full["tikhonov_only"]
          and full["tv_only"] < full["tikhonov_only"]
          and wall_full < 900.0)

    limited = {}
    wall_lim = 0.0
    for mode in ("combined", "tv_only", "tikhonov_only"):
        _, _, _, history, w = xray_run("xray_limited", mode)
        limited[mode] = history[-1].rel_error
        wall_lim += w
    ok = (ok and limited["combined"] < limited["tv_only"]
          and limited["combined"] < limited["tikhonov_only"]
          and wall_lim < 900.0)
    report(9, "tomography orderings", ok,
           f"full: c {full['combined']:.4f} ~ tv {full['tv_only']:.4f} "
           f"(gap {near:.3f}) < tik {full['tikhonov_only']:.4f}, {wall_full:.0f}s; "
           f"limited: c {limited['combined']:.4f} < tv {limited['tv_only']:.4f}, "
           f"tik {limited['tikhonov_only']:.4f}, {wall_lim:.0f}s")


# ---------------------------------------------------------------------------
# 10. interval velocities from sparse stacking picks


def test_acceptance_10_dix_recovery():
    cfg = parse_config_text("experiment = dix_1d\n", "acceptance")
    _, problem = build_problems(cfg)[0]
    solver_cfg = admm_config_for(cfg, problem, "combined")
    state, history, wall = timed_run(problem, solver_cfg)
    err = history[-1].rel_error
    ok = err <= 0.05 and wall < 120.0
    report(10, "interval-velocity recovery", ok,
           f"relative error {err:.4f}, wall {wall:.1f}s")


# ---------------------------------------------------------------------------
# 11. the balance update map is non-expansive around its fixed point


def test_acceptance_11_balance_map_nonexpansive():
    cfg = parse_config_text("experiment = denoise_2d\nnz = 64\nnx = 64\n", "acceptance")
    _, problem = build_problems(cfg)[0]
    solver_cfg = admm_config_for(cfg, problem, "combined")
    adaptive_state, _, _ = timed_run(problem, solver_cfg)
    beta_star = float(adaptive_state.balance)

    grad_op = make_derivative_operator("grad", problem.dims)
    # a decade-wide 10-point log grid centred on the adaptive fixed point;
    # far below the fixed point the map is measurably expansive
    grid = beta_star * np.logspace(-0.5, 0.5, 10)
    psi = []
    for beta in grid:
        fixed_cfg = dataclasses.replace(solver_cfg, balance_policy="fixed",
                                        initial_balance=float(beta))
        state, _ = admm_run(problem, fixed_cfg)
        stats = gradient_stats(grad_op.forward(state.model), state.smooth_grad,
                               solver_cfg.zscore_threshold)
        a, b = stats.smooth_max, stats.normal_max
        psi.append((4.0 * a / (a + b) - 1.0) * beta if a + b > 0.0 else 0.0)
    psi = np.asarray(psi)
    worst = 0.0
    for i in range(len(grid)):
        for j in range(i + 1, len(grid)):
            worst = max(worst, abs(psi[i] - psi[j]) / abs(grid[i] - grid[j]))
    ok = worst <= 1.0
    report(11, "balance map non-expansive", ok,
           f"beta* {beta_star:.1f}, worst |dpsi|/|dbeta| {worst:.4f}")
