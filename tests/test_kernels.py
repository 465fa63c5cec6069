import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tikhtv.kernels import CgSettings, _dct, _idct, cg_solve, max_real_root_depressed_cubic, neumann_solve


def spd_apply(mat):
    return lambda x: mat @ x


# ---------------------------------------------------------------------------
# Conjugate gradients


def test_cg_identity_converges_in_one_iteration():
    b = np.array([1.0, -2.0, 3.0])
    x, iters = cg_solve(lambda v: v, b)
    assert np.allclose(x, b, atol=1e-12)
    assert iters == 1


def test_cg_warm_start_at_solution_returns_immediately():
    mat = np.array([[4.0, 1.0], [1.0, 3.0]])
    b = np.array([1.0, 2.0])
    exact = np.linalg.solve(mat, b)
    x, iters = cg_solve(spd_apply(mat), b, x0=exact)
    assert iters == 0
    assert np.allclose(x, exact, atol=1e-12)


def test_cg_two_by_two_oracle():
    # classic SPD example; exact solution [1/11, 7/11]
    mat = np.array([[4.0, 1.0], [1.0, 3.0]])
    b = np.array([1.0, 2.0])
    x, iters = cg_solve(spd_apply(mat), b, settings=CgSettings(rel_tol=1e-12, max_iter=10))
    assert np.allclose(x, [1.0 / 11.0, 7.0 / 11.0], atol=1e-10)
    assert iters <= 2


@pytest.mark.parametrize("n", [3, 8, 17, 33, 64])
def test_cg_matches_dense_solve(n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n))
    mat = a @ a.T + n * np.eye(n)
    b = rng.standard_normal(n)
    expected = np.linalg.solve(mat, b)
    x, _ = cg_solve(spd_apply(mat), b, settings=CgSettings(rel_tol=1e-13, max_iter=20 * n))
    assert np.linalg.norm(x - expected) <= 1e-8 * np.linalg.norm(expected)


def test_cg_error_decreases_with_iteration_budget():
    # the error in the A-norm is monotone in the iteration count
    rng = np.random.default_rng(5)
    a = rng.standard_normal((30, 30))
    mat = a @ a.T + 0.5 * np.eye(30)
    b = rng.standard_normal(30)
    exact = np.linalg.solve(mat, b)

    def a_norm_error(budget):
        x, _ = cg_solve(spd_apply(mat), b, settings=CgSettings(rel_tol=0.0, max_iter=budget))
        diff = x - exact
        return float(diff @ (mat @ diff))

    errors = [a_norm_error(k) for k in (1, 3, 6, 12, 24)]
    assert all(e2 <= e1 + 1e-13 for e1, e2 in zip(errors, errors[1:]))


def test_cg_warm_start_uses_fewer_iterations():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((40, 40))
    mat = a @ a.T + np.eye(40)
    b = rng.standard_normal(40)
    x_cold, iters_cold = cg_solve(spd_apply(mat), b, settings=CgSettings(rel_tol=1e-10, max_iter=500))
    nearby = x_cold + 1e-8 * rng.standard_normal(40)
    _, iters_warm = cg_solve(spd_apply(mat), b, x0=nearby, settings=CgSettings(rel_tol=1e-10, max_iter=500))
    assert iters_warm < iters_cold


def test_cg_raises_on_non_finite():
    b = np.array([1.0, 1.0])
    with pytest.raises(FloatingPointError):
        cg_solve(lambda v: np.full_like(v, np.nan), b)


def test_cg_zero_rhs_returns_zero():
    x, iters = cg_solve(lambda v: v, np.zeros(4))
    assert np.array_equal(x, np.zeros(4))
    assert iters == 0


def test_cg_settings_validation():
    with pytest.raises(ValueError):
        CgSettings(rel_tol=-1.0)
    with pytest.raises(ValueError):
        CgSettings(max_iter=0)


# ---------------------------------------------------------------------------
# Neumann-Laplacian solve


def neumann_laplacian(n):
    """Dense D'D for the first difference with a zero last row."""
    d = np.diag(np.ones(n - 1), 1) - np.eye(n)
    d[-1] = 0.0
    return d.T @ d


def grid_laplacians(nz, nx):
    """Dense Neumann Laplacians along axis 0 and axis 1 of an (nz, nx) grid,
    acting on its column-major vector."""
    return np.kron(np.eye(nx), neumann_laplacian(nz)), np.kron(neumann_laplacian(nx), np.eye(nz))


def test_tridiagonal_small_oracle():
    # [[2, -1, 0], [-1, 3, -1], [0, -1, 2]] [1, 2, 3] = [0, 2, 4]
    x = neumann_solve(np.array([0.0, 2.0, 4.0]), 1.0, 1.0, axes=(0,))
    assert np.allclose(x, [1.0, 2.0, 3.0], atol=1e-14)


@pytest.mark.parametrize("trial", range(20))
def test_tridiagonal_matches_dense_solve(trial):
    # in 1-d the damped Neumann system is tridiagonal; n covers 2 and both parities
    rng = np.random.default_rng(trial)
    n = 2 if trial == 0 else int(rng.integers(2, 64))
    shift = float(rng.uniform(0.1, 2.0))
    weight = float(10.0 ** rng.uniform(-2.0, 3.0))
    rhs = rng.standard_normal(n)
    mat = shift * np.eye(n) + weight * neumann_laplacian(n)
    x = neumann_solve(rhs, shift, weight, axes=(0,))
    assert np.linalg.norm(x - np.linalg.solve(mat, rhs)) <= 1e-12 * max(1.0, np.linalg.norm(x))


def test_tridiagonal_single_row():
    # a single node has no neighbour, so only the shift acts
    x = neumann_solve(np.array([6.0]), 2.0, 5.0, axes=(0,))
    assert np.allclose(x, [3.0])


@pytest.mark.parametrize("axis", [0, 1])
def test_neumann_single_axis_of_grid(axis):
    nz, nx = 5, 8
    rng = np.random.default_rng(77 + axis)
    rhs = rng.standard_normal((nz, nx))
    lap = grid_laplacians(nz, nx)[axis]
    got = neumann_solve(rhs, 1.0, 0.7, axes=(axis,))
    want = np.linalg.solve(np.eye(nz * nx) + 0.7 * lap, rhs.ravel(order="F"))
    assert got.shape == (nz, nx)
    assert np.allclose(got.ravel(order="F"), want, atol=1e-12)


@pytest.mark.parametrize("shape", [(2,), (7,), (8,), (2, 2), (5, 8), (6, 3)],
                         ids=lambda shape: "x".join(map(str, shape)))
def test_neumann_zero_shift_is_mean_zero_least_squares(shape):
    # rhs keeps its mean, which lies outside the range of the Laplacian:
    # lstsq then returns the minimum-norm, i.e. mean-zero, least-squares solution
    rng = np.random.default_rng(sum(shape))
    rhs = 1.0 + rng.standard_normal(shape)
    if len(shape) == 1:
        lap = neumann_laplacian(shape[0])
    else:
        lap = sum(grid_laplacians(*shape))
    got = neumann_solve(rhs, 0.0, 1.0, axes=range(len(shape)))
    want = np.linalg.lstsq(lap, rhs.ravel(order="F"), rcond=None)[0]
    assert np.allclose(got.ravel(order="F"), want, atol=1e-12)
    assert abs(got.mean()) <= 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 256])
def test_dct_matches_dense_dct_ii(n):
    # X_k = sum_j x_j cos(pi k (2j + 1) / 2n) along the last axis, and back
    rng = np.random.default_rng(n)
    x = rng.standard_normal((3, n))
    j = np.arange(n)
    matrix = np.cos(np.pi * np.outer(j, 2 * j + 1) / (2 * n))
    got = _dct(x)
    assert got.shape == x.shape
    assert np.allclose(got, x @ matrix.T, rtol=0.0, atol=1e-12 * np.abs(x).sum())
    assert np.allclose(_idct(got), x, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("shift", [0.0, 0.8])
def test_neumann_batched_lines_match_dense(shift):
    # an (n, 1, k) block solves each of its k lines along axis 0
    n, k, weight = 9, 4, 1.3
    rhs = np.random.default_rng(5).standard_normal((n, 1, k))
    got = neumann_solve(rhs, shift, weight, axes=(0,))
    mat = shift * np.eye(n) + weight * neumann_laplacian(n)
    want = np.linalg.lstsq(mat, rhs[:, 0, :], rcond=None)[0]
    assert got.shape == rhs.shape
    assert np.allclose(got[:, 0, :], want, atol=1e-12)


@pytest.mark.parametrize("axes", [(0,), (1,), (0, 1)], ids=str)
@pytest.mark.parametrize("shift", [0.0, 0.6])
def test_neumann_odd_grid_matches_dense(axes, shift):
    nz, nx, weight = 7, 5, 2.1
    rhs = np.random.default_rng(len(axes)).standard_normal((nz, nx))
    laps = grid_laplacians(nz, nx)
    mat = shift * np.eye(nz * nx) + weight * sum(laps[a] for a in axes)
    got = neumann_solve(rhs, shift, weight, axes=axes)
    want = np.linalg.lstsq(mat, rhs.ravel(order="F"), rcond=None)[0]
    assert got.shape == (nz, nx)
    assert np.allclose(got.ravel(order="F"), want, atol=1e-12)


@pytest.mark.parametrize("axes", [(0,), (1,), (0, 1)], ids=str)
def test_neumann_non_square_grid_residual(axes):
    # 96 x 128 is too large for a dense solve: apply the dense Laplacian of
    # each axis to the solution instead
    nz, nx, shift, weight = 96, 128, 0.05, 3.0
    rhs = np.random.default_rng(96).standard_normal((nz, nx))
    got = neumann_solve(rhs, shift, weight, axes=axes)
    applied = shift * got
    if 0 in axes:
        applied += weight * neumann_laplacian(nz) @ got
    if 1 in axes:
        applied += weight * got @ neumann_laplacian(nx)
    assert got.shape == (nz, nx)
    assert np.linalg.norm(applied - rhs) <= 1e-12 * np.linalg.norm(rhs)


# ---------------------------------------------------------------------------
# Depressed cubic


def cubic_residual(p, q, root):
    return root**3 + p * root + q


def test_cubic_frozen_examples():
    # p = -1, q = 0: roots {-1, 0, 1}, max root 1
    assert max_real_root_depressed_cubic(-1.0, 0.0) == pytest.approx(1.0, abs=1e-12)
    # p = -0.5, q = -0.5: root 1 (factors as (x-1)(x^2+x+0.5))
    assert max_real_root_depressed_cubic(-0.5, -0.5) == pytest.approx(1.0, abs=1e-12)
    assert max_real_root_depressed_cubic(0.0, 0.0) == 0.0
    # single real root cases
    assert max_real_root_depressed_cubic(0.0, -8.0) == pytest.approx(2.0, abs=1e-12)
    assert max_real_root_depressed_cubic(1.0, -2.0) == pytest.approx(1.0, abs=1e-12)


def test_cubic_three_close_roots():
    # (x - 1)(x - 1.01)(x + 2.01) expanded has tiny depressed-form shift;
    # use exact depressed cubic with roots r, s, -(r+s)
    r, s = 1.0, 1.01
    t = -(r + s)
    p = r * s + r * t + s * t
    q = -r * s * t
    got = max_real_root_depressed_cubic(p, q)
    assert got == pytest.approx(s, rel=1e-9)


@pytest.mark.parametrize("seed", range(10))
def test_cubic_matches_companion_roots(seed):
    rng = np.random.default_rng(seed)
    for _ in range(100):
        p = float(rng.standard_normal() * 10.0 ** rng.integers(-3, 4))
        q = float(rng.standard_normal() * 10.0 ** rng.integers(-3, 4))
        got = max_real_root_depressed_cubic(p, q)
        roots = np.roots([1.0, 0.0, p, q])
        real = roots[np.abs(roots.imag) <= 1e-8 * (1.0 + np.abs(roots.real))].real
        assert real.size > 0
        assert got == pytest.approx(float(real.max()), rel=1e-7, abs=1e-9)
        assert abs(cubic_residual(p, q, got)) <= 1e-10 * max(1.0, abs(got) ** 3)


def test_cubic_extreme_scales():
    # outside the O(1) coefficient regime the absolute residual bound is not
    # representable in doubles, so check the root itself against the oracle
    for p, q in ((-1e8, 1.0), (1e-12, -1e12), (1e150, -1e150), (-3e-200, -2e-200)):
        got = max_real_root_depressed_cubic(p, q)
        roots = np.roots([1.0, 0.0, p, q])
        real = roots[np.abs(roots.imag) <= 1e-8 * (1.0 + np.abs(roots.real))].real
        assert got == pytest.approx(float(real.max()), rel=1e-7)


@given(
    st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
    st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
)
@settings(max_examples=300, deadline=None)
def test_cubic_residual_property(p, q):
    got = max_real_root_depressed_cubic(p, q)
    assert np.isfinite(got)
    assert abs(cubic_residual(p, q, got)) <= 1e-10 * max(1.0, abs(got) ** 3)


@given(st.floats(min_value=0.01, max_value=1e4), st.floats(min_value=0.01, max_value=1e4))
@settings(max_examples=200, deadline=None)
def test_cubic_positive_root_when_q_negative(p_mag, q_mag):
    # x^3 + p x - |q| always has exactly one positive real root
    got = max_real_root_depressed_cubic(p_mag, -q_mag)
    assert got > 0.0
