"""Scaled ADMM for the balanced sparse/smooth gradient splitting.

The solver addresses

    min  ||D m1||_1 + (balance/2) ||B D m2||_2^2
    s.t. ||A (m1 + m2) - d||_2^2 = noise_energy

with D the first-difference operator and B its per-component variant, by
splitting the gradient of m = m1 + m2 into a sparse part and a smooth part
and introducing an explicit noise vector for the equality constraint.  Each
sweep performs four exact or inner-iterative block updates followed by the
multiplier steps; with the adaptive policy the balancing parameter is then
re-estimated from robust statistics of the current gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .kernels import CgSettings, cg_solve, max_real_root_depressed_cubic, neumann_solve
from .operators import GridDims, LinearOperator, make_derivative_operator
from .problems import TestProblem
from .robust import gradient_stats, update_balance

__all__ = [
    "MODES",
    "BALANCE_POLICIES",
    "AdmmConfig",
    "AdmmState",
    "IterationRecord",
    "DivergenceError",
    "initial_state",
    "model_solver",
    "update_model",
    "update_sparse_grad",
    "update_smooth_grad",
    "update_noise",
    "soft_threshold",
    "admm_run",
    "first_stable_iteration",
    "splitting_residual",
]

MODES = ("combined", "tv_only", "tikhonov_only")
BALANCE_POLICIES = ("adaptive", "fixed")


class DivergenceError(RuntimeError):
    """The data or the iterates hold non-finite values."""


@dataclass(frozen=True)
class AdmmConfig:
    """Solver configuration.

    ``noise_energy`` is the squared-norm budget of the equality constraint.
    ``split_weight``/``data_weight``/``budget_weight`` penalise the gradient
    split, the data coupling and the energy constraint; the split weight must
    exceed the data weight in combined mode.  ``initial_balance`` seeds the
    balancing parameter and is its fixed value under the ``fixed`` policy.
    With ``run_to_max_iter`` the solver keeps iterating after the relative
    model change drops below tolerance (the stabilisation iteration is still
    recorded in the history).
    """

    noise_energy: float
    split_weight: float = 10.0
    data_weight: float = 1.0
    budget_weight: float = 1.0
    zscore_threshold: float = 2.5
    initial_balance: float = 1.0
    max_iter: int = 500
    rel_change_tol: float = 1e-4
    mode: str = "combined"
    balance_policy: str = "adaptive"
    run_to_max_iter: bool = False
    cg: CgSettings = field(default_factory=CgSettings)

    def __post_init__(self):
        if self.noise_energy < 0.0:
            raise ValueError("noise_energy must be non-negative")
        for name in ("split_weight", "data_weight", "budget_weight"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.balance_policy not in BALANCE_POLICIES:
            raise ValueError(
                f"balance_policy must be one of {BALANCE_POLICIES}, got {self.balance_policy!r}"
            )
        if self.mode == "combined" and not self.split_weight > self.data_weight:
            raise ValueError("combined mode needs split_weight > data_weight")
        if not self.zscore_threshold > 0.0:
            raise ValueError("zscore_threshold must be positive")
        if not self.initial_balance > 0.0:
            raise ValueError("initial_balance must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not self.rel_change_tol > 0.0:
            raise ValueError("rel_change_tol must be positive")


@dataclass
class AdmmState:
    """All iterates of the splitting scheme.

    ``sparse_grad``/``smooth_grad`` live in gradient space, ``noise`` in data
    space.  ``dual_split`` and ``dual_data`` are the multipliers of the
    gradient split and the data coupling; ``dual_budget`` is the scalar
    multiplier of the energy constraint.
    """

    model: np.ndarray
    sparse_grad: np.ndarray
    smooth_grad: np.ndarray
    noise: np.ndarray
    dual_split: np.ndarray
    dual_data: np.ndarray
    dual_budget: float
    balance: float


@dataclass(frozen=True)
class IterationRecord:
    """Per-iteration progress.

    ``discrepancy`` is ``||A m - d||^2``, ``budget_gap`` is
    ``||noise||^2 - noise_energy``.  ``balance`` is the value after this
    iteration's update and ``balance_residual`` the robust-statistics
    residual it was computed from.  ``rel_error`` is None when the problem
    carries no ground truth.  ``cg_iters`` counts the model update's CG
    iterations; it is 0 where that update is an exact solve (A = I, dense
    sensing).
    """

    iteration: int
    discrepancy: float
    budget_gap: float
    balance: float
    balance_residual: float
    rel_change: float
    rel_error: float | None
    cg_iters: int


def initial_state(problem: TestProblem, cfg: AdmmConfig) -> AdmmState:
    """Zero-initialised iterates (model, splits, noise and all multipliers
    start at zero; the balance starts at its configured initial value)."""
    dims = problem.dims
    glen = dims.grad_len
    return AdmmState(
        model=np.zeros(dims.n),
        sparse_grad=np.zeros(glen),
        smooth_grad=np.zeros(glen),
        noise=np.zeros(problem.operator.rows),
        dual_split=np.zeros(glen),
        dual_data=np.zeros(problem.operator.rows),
        dual_budget=0.0,
        balance=cfg.initial_balance,
    )


# ---------------------------------------------------------------------------
# Block updates.  Each consumes the state produced by the previous updates of
# the same sweep, matching the sweep order in admm_run.


ModelSolver = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, int]]

# Columns of A' pushed through the Neumann kernel at once in the Woodbury
# set-up.  On cs_1d (n = 1024) the set-up holds 3.1 MB; 32 columns at a
# time peak 0.3 MB above that, 64 at 1.6 MB, all 251 at 9.3 MB.
_WOODBURY_BLOCK = 32


def model_solver(problem: TestProblem, cfg: AdmmConfig, grad_op: LinearOperator) -> ModelSolver:
    """The solve of the model update's matrix ``w1 D'D + w2 A'A``, chosen
    once per run from ``problem.operator.structure``.

    Returns ``solve(rhs, x0) -> (model, inner_iterations)``:

    - ``"identity"`` (A = I): the matrix is ``w2 I + w1 L`` with L the
      Neumann Laplacian of the grid; one ``neumann_solve``, 0 iterations.
    - ``"dense"`` (few rows): an exact Woodbury solve, see
      :func:`_woodbury_solver`, whose set-up costs ``rows + 1`` of those
      Neumann solves, affordable only because the rows are few; 0 iterations.
    - anything else: CG under ``cfg.cg``, warm-started at ``x0``.
    """
    op, dims = problem.operator, problem.dims
    w1, w2 = cfg.split_weight, cfg.data_weight

    if op.structure == "identity":
        def solve_identity(rhs, x0):
            return dims.to_vector(neumann_solve(dims.to_grid(rhs), w2, w1, dims.axes)), 0

        return solve_identity

    if op.structure == "dense":
        return _woodbury_solver(op, dims, w1, w2)

    fwd, adj = grad_op.forward, grad_op.adjoint

    def apply(v):
        return w1 * adj(fwd(v)) + w2 * op.adjoint(op.forward(v))

    def solve_cg(rhs, x0):
        return cg_solve(apply, rhs, x0=x0, settings=cfg.cg)

    return solve_cg


def _woodbury_solver(op: LinearOperator, dims: GridDims, w1: float, w2: float) -> ModelSolver:
    """Exact solve of ``(w1 L + w2 A'A) m = rhs`` for an A with few rows.

    With ``B = w1 L + eps 11'/n`` (``eps = w1``), which one
    ``neumann_solve`` plus a mean term inverts, the matrix is
    ``B + U S U'`` for ``U = [A', 1/sqrt(n)]`` and ``S = diag(w2 I, -eps)``.
    The Woodbury identity (Hager 1989) gives

        m = B^-1 rhs - (B^-1 U) C^-1 (B^-1 U)' rhs,  C = S^-1 + U' B^-1 U,

    with ``B^-1 U`` (n x (m+1)) and ``inv(C)`` built once.  ``C`` is
    indefinite and ill-conditioned (cond 2.7e6 on cs_1d), so each small
    solve with ``inv(C)`` is refined once against ``C``: on cs_1d that reads
    1e-11 against a dense solve, ``inv(C)`` alone 1e-9.  numpy.linalg only:
    importing scipy.linalg costs about 8 MB of RSS.
    """
    n, m = dims.n, op.rows
    eps = w1

    def b_inv(x):
        return dims.to_vector(neumann_solve(dims.to_grid(x), 0.0, w1, dims.axes)) + x.mean(axis=0) / eps

    # B^-1 U, one block of A' columns at a time so that A' is never held whole
    bu = np.empty((n, m + 1))
    for start in range(0, m, _WOODBURY_BLOCK):
        width = min(_WOODBURY_BLOCK, m - start)
        bu[:, start : start + width] = b_inv(op.adjoint(np.eye(m, width, -start)))
    bu[:, m] = 1.0 / (np.sqrt(n) * eps)  # B maps constants to eps times themselves

    capacitance = np.empty((m + 1, m + 1))
    capacitance[:m] = op.forward(bu)
    capacitance[m] = bu.sum(axis=0) / np.sqrt(n)
    capacitance[np.arange(m), np.arange(m)] += 1.0 / w2
    capacitance[m, m] -= 1.0 / eps
    c_inv = np.linalg.inv(capacitance)

    def solve_woodbury(rhs, x0):
        y = bu.T @ rhs
        z = c_inv @ y
        z += c_inv @ (y - capacitance @ z)
        return b_inv(rhs) - bu @ z, 0

    return solve_woodbury


def update_model(
    state: AdmmState,
    problem: TestProblem,
    cfg: AdmmConfig,
    grad_op: LinearOperator | None = None,
    solve: ModelSolver | None = None,
) -> tuple[np.ndarray, int]:
    """Model update: solve of the normal equations

        (w1 D'D + w2 A'A) m = w1 D'(g1 + g2 + y1) + w2 A'(d - e + y2).

    ``solve`` is the run's :func:`model_solver`; without one, one is built
    here (with its set-up).  A = I and dense sensing are solved exactly with
    0 inner iterations; any other operator takes a CG solve warm-started at
    the previous model, and ``cfg.cg`` (tolerance, cap) acts only there.
    Returns (model, inner_iterations).
    """
    if grad_op is None:
        grad_op = make_derivative_operator("grad", problem.dims)
    if solve is None:
        solve = model_solver(problem, cfg, grad_op)
    w1, w2 = cfg.split_weight, cfg.data_weight
    rhs = w1 * grad_op.adjoint(state.sparse_grad + state.smooth_grad + state.dual_split)
    rhs += w2 * problem.operator.adjoint(problem.data - state.noise + state.dual_data)
    return solve(rhs, state.model)


def soft_threshold(values: np.ndarray, threshold: float) -> np.ndarray:
    """Entrywise ``v * max(1 - threshold/|v|, 0)`` with zeros kept at zero."""
    return np.sign(values) * np.maximum(np.abs(values) - threshold, 0.0)


def update_sparse_grad(state: AdmmState, cfg: AdmmConfig, grad_model: np.ndarray) -> np.ndarray:
    """Sparse-gradient update: soft threshold of ``D m - g2 - y1`` at
    ``1/split_weight``."""
    target = grad_model - state.smooth_grad - state.dual_split
    return soft_threshold(target, 1.0 / cfg.split_weight)


def update_smooth_grad(
    state: AdmmState,
    cfg: AdmmConfig,
    dims: GridDims,
    grad_model: np.ndarray,
) -> np.ndarray:
    """Smooth-gradient update: exact solve of

        (I + (balance/split_weight) B'B) g2 = D m - g1 - y1

    with B the per-component first difference.  B'B is the Neumann Laplacian
    of each gradient block along its own axis (``dims.grad_axes``), so each
    block is one ``neumann_solve``.
    """
    target = grad_model - state.sparse_grad - state.dual_split
    c = state.balance / cfg.split_weight
    if c == 0.0:
        return target.copy()
    return np.concatenate(
        [
            dims.to_vector(neumann_solve(block, 1.0, c, axes=(axis,)))
            for block, axis in zip(dims.grad_blocks(target), dims.grad_axes)
        ]
    )


def update_noise(state: AdmmState, cfg: AdmmConfig, misfit: np.ndarray) -> tuple[np.ndarray, float]:
    """Noise update: with r = misfit + y2 (misfit is d - A m), the minimiser
    is e = gamma * r where gamma is the largest real root of

        gamma^3 + p gamma + q = 0,
        p = (w2 - 2 w3 (noise_energy + y3)) / (2 w3 ||r||^2),
        q = -w2 / (2 w3 ||r||^2).

    Returns (noise, gamma); a vanishing r yields (0, 0).
    """
    r = misfit + state.dual_data
    energy = float(r @ r)
    if energy < 1e-30:
        return np.zeros_like(r), 0.0
    w2, w3 = cfg.data_weight, cfg.budget_weight
    p = (w2 - 2.0 * w3 * (cfg.noise_energy + state.dual_budget)) / (2.0 * w3 * energy)
    q = -w2 / (2.0 * w3 * energy)
    gamma = max_real_root_depressed_cubic(p, q)
    return gamma * r, gamma


# ---------------------------------------------------------------------------
# Driver.


def admm_run(
    problem: TestProblem,
    cfg: AdmmConfig,
    callback: Callable[[IterationRecord], None] | None = None,
) -> tuple[AdmmState, list[IterationRecord]]:
    """Run the splitting scheme on a problem.

    Sweep order per iteration: model, sparse gradient, smooth gradient,
    noise, the three multiplier steps, then (adaptive policy, not in tv_only
    mode) the balance update from robust statistics of the new gradient.
    Stops once the relative model change falls below ``rel_change_tol``
    unless ``run_to_max_iter`` is set; either way the history records every
    iteration performed.  Returns the final state and the history.
    Raises ``DivergenceError`` when the data or the noise budget, or later
    the iterates, hold non-finite values, and when a sweep's model or noise
    update overflows (the CG's ``FloatingPointError``, the cubic's
    ``ValueError`` for non-finite coefficients).
    """
    if problem.data.ndim != 1 or problem.data.size != problem.operator.rows:
        raise ValueError("problem data must be a vector of length operator.rows")
    if problem.dims.n != problem.operator.cols:
        raise ValueError("problem dims do not match the operator column count")
    if not (np.all(np.isfinite(problem.data)) and np.isfinite(cfg.noise_energy)):
        raise DivergenceError("the data or the noise budget hold non-finite values")

    dims = problem.dims
    grad_op = make_derivative_operator("grad", dims)
    solve = model_solver(problem, cfg, grad_op)
    state = initial_state(problem, cfg)
    history: list[IterationRecord] = []
    truth_norm = None
    if problem.true_model is not None:
        truth_norm = float(np.linalg.norm(problem.true_model))

    prev_model = state.model.copy()
    for k in range(1, cfg.max_iter + 1):
        try:
            state.model, cg_iters = update_model(state, problem, cfg, grad_op, solve)
        except FloatingPointError as exc:
            raise DivergenceError(f"model update at iteration {k}: {exc}") from exc
        grad_model = grad_op.forward(state.model)
        if cfg.mode != "tikhonov_only":
            state.sparse_grad = update_sparse_grad(state, cfg, grad_model)
        if cfg.mode != "tv_only":
            state.smooth_grad = update_smooth_grad(state, cfg, dims, grad_model)
        data_fit = problem.operator.forward(state.model)
        try:
            state.noise, _ = update_noise(state, cfg, problem.data - data_fit)
        except ValueError as exc:
            raise DivergenceError(f"noise update at iteration {k}: {exc}") from exc

        state.dual_split += state.sparse_grad + state.smooth_grad - grad_model
        state.dual_data += problem.data - state.noise - data_fit
        noise_sq = float(state.noise @ state.noise)
        state.dual_budget += cfg.noise_energy - noise_sq

        stats = gradient_stats(grad_model, state.smooth_grad, cfg.zscore_threshold)
        if cfg.balance_policy == "adaptive" and cfg.mode != "tv_only":
            state.balance = update_balance(state.balance, stats)

        delta = float(np.linalg.norm(state.model - prev_model))
        prev_norm = float(np.linalg.norm(prev_model))
        if prev_norm > 0.0:
            rel_change = delta / prev_norm
        else:
            rel_change = 0.0 if delta == 0.0 else np.inf

        resid = data_fit - problem.data
        rel_error = None
        if truth_norm:
            rel_error = float(np.linalg.norm(state.model - problem.true_model)) / truth_norm

        record = IterationRecord(
            iteration=k,
            discrepancy=float(resid @ resid),
            budget_gap=noise_sq - cfg.noise_energy,
            balance=state.balance,
            balance_residual=stats.balance_residual,
            rel_change=rel_change,
            rel_error=rel_error,
            cg_iters=cg_iters,
        )
        history.append(record)
        if callback is not None:
            callback(record)

        if not (
            np.all(np.isfinite(state.model))
            and np.all(np.isfinite(state.noise))
            and np.all(np.isfinite(state.dual_split))
            and np.all(np.isfinite(state.dual_data))
            and np.isfinite(state.dual_budget)
        ):
            raise DivergenceError(f"non-finite iterates at iteration {k}")

        if rel_change < cfg.rel_change_tol and not cfg.run_to_max_iter:
            break
        prev_model = state.model.copy()
    return state, history


def first_stable_iteration(history, rel_change_tol: float) -> int | None:
    """First iteration whose relative model change fell below tolerance."""
    for record in history:
        if record.rel_change < rel_change_tol:
            return record.iteration
    return None


def splitting_residual(state: AdmmState, problem: TestProblem) -> float:
    """Relative gradient-split consistency
    ``||D m - g1 - g2|| / (1 + ||D m||)`` at the current state."""
    grad_op = make_derivative_operator("grad", problem.dims)
    grad_model = grad_op.forward(state.model)
    gap = grad_model - state.sparse_grad - state.smooth_grad
    return float(np.linalg.norm(gap) / (1.0 + np.linalg.norm(grad_model)))
