"""Correctness checks of the solver's outputs, run outside the timed region.

Every check returns ``(ok, detail)``.  The references are computed with
numpy/scipy alone: the difference operator is assembled here as a sparse
matrix, banded and dense systems go to scipy/numpy solvers, and the cubic's
roots come from ``numpy.roots``.  The problem's own operator closures are
used as given; the adjoint check is what vouches for them.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Largest column count for which the model-update reference densifies A.
DENSE_PROBE_LIMIT = 4096


def _result(ok: bool, detail: str):
    return bool(ok), detail


# ---------------------------------------------------------------------------
# Operators.


def adjoint_identity(forward, adjoint, rows: int, cols: int, seed: int, rtol: float = 1e-10):
    """``<A x, y> == <x, A' y>`` on seeded Gaussian vectors."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(cols)
    y = rng.standard_normal(rows)
    ax, aty = forward(x), adjoint(y)
    lhs, rhs = float(ax @ y), float(x @ aty)
    scale = float(np.linalg.norm(ax) * np.linalg.norm(y) + np.linalg.norm(x) * np.linalg.norm(aty))
    gap = abs(lhs - rhs)
    return _result(gap <= rtol * scale, f"|<Ax,y> - <x,A'y>| = {gap:.3g}, scale {scale:.3g}")


def difference_1d(n: int) -> sp.csr_matrix:
    """First difference with a zero last row: ``(x[1]-x[0], ..., 0)``."""
    main = -np.ones(n)
    main[-1] = 0.0
    return sp.diags([main, np.ones(n - 1)], [0, 1], format="csr")


def gradient_matrix(nz: int, nx: int) -> sp.csr_matrix:
    """The model gradient as a sparse matrix on column-major (z fastest)
    stacks: the differences along x, then the differences along z."""
    if nx == 1:
        return difference_1d(nz)
    along_x = sp.kron(difference_1d(nx), sp.identity(nz))
    along_z = sp.kron(sp.identity(nx), difference_1d(nz))
    return sp.vstack([along_x, along_z], format="csr")


# ---------------------------------------------------------------------------
# Whole-run properties.


def odd_symmetry(model_plus: np.ndarray, model_minus: np.ndarray, rtol: float = 1e-12):
    """Solving with ``-d`` gives ``-m``; reports whether it is bitwise."""
    scale = float(np.max(np.abs(model_plus)))
    gap = float(np.max(np.abs(model_plus + model_minus)))
    bitwise = bool(np.array_equal(model_minus, -model_plus))
    return _result(scale > 0.0 and gap <= rtol * scale, f"max|m(d) + m(-d)| = {gap:.3g} (bitwise: {bitwise})")


def relative_error(model: np.ndarray, truth: np.ndarray) -> float:
    return float(np.linalg.norm(model - truth) / np.linalg.norm(truth))


def lsqr_baseline(forward, adjoint, rows: int, cols: int, data: np.ndarray, iter_lim: int) -> np.ndarray:
    """Plain least-squares estimate by ``scipy.sparse.linalg.lsqr``."""
    op = spla.LinearOperator((rows, cols), matvec=forward, rmatvec=adjoint, dtype=float)
    return spla.lsqr(op, data, iter_lim=iter_lim)[0]


def beats_baseline(rel_error: float, baseline_error: float):
    return _result(rel_error < baseline_error, f"rel_error {rel_error:.5g} vs baseline {baseline_error:.5g}")


def agrees(value: float, reference: float, label: str, rtol: float = 1e-12):
    gap = abs(value - reference)
    return _result(gap <= rtol * abs(reference), f"{label}: {value!r} vs {reference!r}")


def at_most(value: float, limit: float, label: str):
    return _result(value <= limit, f"{label} = {value:.3g}, limit {limit:.3g}")


def read_back(path, model: np.ndarray):
    """A written model file read back equals the model bitwise."""
    grid = np.loadtxt(path, delimiter=",", ndmin=2)
    values = grid.ravel(order="F")
    same = values.shape == model.shape and np.array_equal(values, model)
    return _result(same, f"{path.name}: {values.size} values, bitwise equal: {same}")


# ---------------------------------------------------------------------------
# Block updates on a fixed state.


def _path_laplacian_bands(n: int, c: float) -> np.ndarray:
    """``I + c L`` in solve_banded layout, L the path-graph Laplacian."""
    diag = np.full(n, 2.0)
    diag[0] = diag[-1] = 1.0
    bands = np.zeros((3, n))
    bands[0, 1:] = -c
    bands[1] = 1.0 + c * diag
    bands[2, :-1] = -c
    return bands


def smooth_grad_reference(target: np.ndarray, c: float, nz: int, nx: int) -> np.ndarray:
    """Solve ``(I + c B'B) g = target`` with scipy.linalg.solve_banded; B
    differences each gradient component along its own axis."""
    if nx == 1:
        return scipy.linalg.solve_banded((1, 1), _path_laplacian_bands(nz, c), target)
    n = nz * nx
    along_x = target[:n].reshape((nz, nx), order="F")
    along_z = target[n:].reshape((nz, nx), order="F")
    solved_x = scipy.linalg.solve_banded((1, 1), _path_laplacian_bands(nx, c), along_x.T).T
    solved_z = scipy.linalg.solve_banded((1, 1), _path_laplacian_bands(nz, c), along_z)
    return np.concatenate([solved_x.ravel(order="F"), solved_z.ravel(order="F")])


def matches(value: np.ndarray, reference: np.ndarray, label: str, rtol: float):
    gap = float(np.linalg.norm(value - reference))
    scale = float(np.linalg.norm(reference))
    return _result(gap <= rtol * scale, f"{label}: ||x - ref|| / ||ref|| = {gap / max(scale, 1e-300):.3g}")


def noise_gain_reference(residual: np.ndarray, noise_energy: float, dual_budget: float,
                         data_weight: float, budget_weight: float) -> float:
    """Largest real root of ``g^3 + p g + q`` by numpy.roots, with p and q
    from the noise update's stationarity condition."""
    energy = float(residual @ residual)
    p = (data_weight - 2.0 * budget_weight * (noise_energy + dual_budget)) / (2.0 * budget_weight * energy)
    q = -data_weight / (2.0 * budget_weight * energy)
    roots = np.roots([1.0, 0.0, p, q])
    real = roots[np.abs(roots.imag) <= 1e-7 * np.maximum(1.0, np.abs(roots))].real
    return float(real.max())


def model_update_reference(grad: sp.spmatrix, forward, adjoint, cols: int, rhs: np.ndarray,
                           split_weight: float, data_weight: float, candidate: np.ndarray):
    """Solve ``(w1 D'D + w2 A'A) m = rhs`` without the library's solvers:
    densely when A is small enough to probe column by column, else by
    scipy's CG to a residual of 1e-12.  Returns the solution and the
    relative residual ``||M candidate - rhs|| / ||rhs||``."""
    gram = split_weight * (grad.T @ grad)

    def apply(v):
        return gram @ v + data_weight * adjoint(forward(v))

    residual = float(np.linalg.norm(apply(candidate) - rhs) / np.linalg.norm(rhs))
    if cols <= DENSE_PROBE_LIMIT:
        dense_a = np.column_stack([forward(col) for col in np.eye(cols)])
        return np.linalg.solve(gram.toarray() + data_weight * dense_a.T @ dense_a, rhs), residual
    op = spla.LinearOperator((cols, cols), matvec=apply, dtype=float)
    solution, info = spla.cg(op, rhs, rtol=1e-12, atol=0.0, maxiter=20 * cols)
    if info != 0:
        raise RuntimeError(f"reference CG did not converge (info={info})")
    return solution, residual
