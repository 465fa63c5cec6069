import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tikhtv.operators import (
    GridDims,
    LinearOperator,
    compose,
    identity,
    kron_operator,
    make_causal_integration,
    make_derivative_operator,
    make_gaussian_sensing,
    make_radon,
    make_subsampler,
    to_dense,
)

RNG = np.random.default_rng(20240817)


def random_adjoint_check(op: LinearOperator, trials: int = 100, rtol: float = 1e-10):
    """<A x, y> == <x, A' y> over random pairs, relative to the scale of both."""
    rng = np.random.default_rng(7)
    for _ in range(trials):
        x = rng.standard_normal(op.cols)
        y = rng.standard_normal(op.rows)
        lhs = float(op.forward(x) @ y)
        rhs = float(x @ op.adjoint(y))
        scale = max(1.0, abs(lhs), abs(rhs))
        assert abs(lhs - rhs) <= rtol * scale


# ---------------------------------------------------------------------------
# GridDims


def test_grid_dims_basics():
    d1 = GridDims(8, 1)
    assert d1.is_1d and d1.n == 8 and d1.grad_len == 8
    assert d1.axes == (0,) and d1.grad_axes == (0,)
    d2 = GridDims(4, 6)
    assert not d2.is_1d and d2.n == 24 and d2.grad_len == 48
    # the horizontal block (along axis 1) is stacked first
    assert d2.axes == (0, 1) and d2.grad_axes == (1, 0)


def test_grid_dims_vector_grid_round_trip():
    dims = GridDims(3, 4)
    v = np.arange(12.0)
    grid = dims.to_grid(v)
    assert grid.shape == (3, 4)
    # column-major stacking: the first nz entries form the first grid column
    assert np.array_equal(grid[:, 0], [0.0, 1.0, 2.0])
    assert np.array_equal(dims.to_vector(grid), v)
    # a stacked gradient splits into one grid per block, and back
    for d in (dims, GridDims(5, 1)):
        for g in (np.arange(float(d.grad_len)), np.arange(3.0 * d.grad_len).reshape(d.grad_len, 3)):
            blocks = d.grad_blocks(g)
            assert len(blocks) == len(d.grad_axes)
            assert all(b.shape == (d.nz, d.nx) + g.shape[1:] for b in blocks)
            assert np.array_equal(blocks[0], d.to_grid(g[: d.n]))
            assert np.array_equal(np.concatenate([d.to_vector(b) for b in blocks]), g)


def test_grid_dims_lines_are_views_of_each_axis():
    # for a contiguous vector or block the view shares its memory, so
    # stencils can write through it
    dims = GridDims(3, 4)
    v = np.arange(24.0).reshape(12, 2)
    grid = dims.to_grid(v)
    down, across = dims.lines(v, 0), dims.lines(v, 1)
    assert down.shape == (4, 3, 1, 2) and across.shape == (1, 4, 3, 2)
    assert np.shares_memory(down, v) and np.shares_memory(across, v)
    for ix in range(4):
        assert np.array_equal(down[ix, :, 0], grid[:, ix])
    for iz in range(3):
        assert np.array_equal(across[0, :, iz], grid[iz, :])
    assert np.array_equal(GridDims(5, 1).lines(np.arange(5.0), 0), np.arange(5.0).reshape(1, 5, 1))


def test_grid_dims_validation():
    with pytest.raises(ValueError):
        GridDims(1, 4)
    with pytest.raises(ValueError):
        GridDims(4, 0)


# ---------------------------------------------------------------------------
# First-difference operator


def test_grad_1d_frozen_example():
    op = make_derivative_operator("grad", GridDims(4, 1))
    out = op.forward(np.array([1.0, 2.0, 4.0, 7.0]))
    assert np.array_equal(out, [1.0, 2.0, 3.0, 0.0])


def test_grad_1d_dense_matrix():
    op = make_derivative_operator("grad", GridDims(3, 1))
    expected = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, 0.0]])
    assert np.array_equal(to_dense(op), expected)


def test_grad_2d_frozen_example():
    # nz = nx = 2, model [1, 2, 3, 4]: horizontal block first, then vertical
    op = make_derivative_operator("grad", GridDims(2, 2))
    out = op.forward(np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.array_equal(out, [2.0, 2.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0])


def second_derivative(dims):
    """The second difference: component_grad after grad."""
    return compose(make_derivative_operator("component_grad", dims), make_derivative_operator("grad", dims))


def test_second_derivative_frozen_example():
    op = second_derivative(GridDims(4, 1))
    out = op.forward(np.array([0.0, 1.0, 2.0, 3.0]))
    # interior rows annihilate linear ramps; the next-to-last row is a
    # backward difference of the gradient, giving -1 here
    assert np.array_equal(out, [0.0, 0.0, -1.0, 0.0])


@pytest.mark.parametrize("n", [2, 3, 5, 16, 33, 64])
def test_second_derivative_equals_grad_composition_1d(n):
    # in 1-d component_grad is grad, so the second difference is grad twice
    dims = GridDims(n, 1)
    d1 = to_dense(make_derivative_operator("grad", dims))
    assert np.array_equal(to_dense(make_derivative_operator("component_grad", dims)), d1)
    assert np.allclose(to_dense(second_derivative(dims)), d1 @ d1, atol=1e-14)


def test_second_derivative_rows_1d():
    n = 6
    d2 = to_dense(second_derivative(GridDims(n, 1)))
    for i in range(n - 2):
        row = np.zeros(n)
        row[i : i + 3] = [1.0, -2.0, 1.0]
        assert np.array_equal(d2[i], row)
    # next-to-last row: +1, -1 at the last two columns; last row zero
    assert np.array_equal(d2[n - 2], [0, 0, 0, 0, 1.0, -1.0])
    assert np.array_equal(d2[n - 1], np.zeros(n))


def _kron_grad_2d(nz, nx):
    """Dense 2-d first-difference operator assembled from Kronecker products."""

    def diff_matrix(n):
        m = np.zeros((n, n))
        for i in range(n - 1):
            m[i, i] = -1.0
            m[i, i + 1] = 1.0
        return m

    dx = diff_matrix(nx)
    dz = diff_matrix(nz)
    top = np.kron(dx, np.eye(nz))
    bottom = np.kron(np.eye(nx), dz)
    return np.vstack([top, bottom])


@pytest.mark.parametrize("nz,nx", [(2, 2), (2, 3), (3, 2), (4, 5), (8, 8), (5, 8)])
def test_grad_2d_matches_kron_assembly(nz, nx):
    dims = GridDims(nz, nx)
    dense = to_dense(make_derivative_operator("grad", dims))
    assert np.allclose(dense, _kron_grad_2d(nz, nx), atol=1e-14)


@pytest.mark.parametrize("nz,nx", [(2, 2), (3, 4), (5, 3), (8, 8)])
def test_second_derivative_2d_matches_kron_assembly(nz, nx):
    def diff_matrix(n):
        m = np.zeros((n, n))
        for i in range(n - 1):
            m[i, i] = -1.0
            m[i, i + 1] = 1.0
        return m

    dims = GridDims(nz, nx)
    dx, dz = diff_matrix(nx), diff_matrix(nz)
    d1 = _kron_grad_2d(nz, nx)
    comp = np.block(
        [
            [np.kron(dx, np.eye(nz)), np.zeros((nz * nx, nz * nx))],
            [np.zeros((nz * nx, nz * nx)), np.kron(np.eye(nx), dz)],
        ]
    )
    assert np.array_equal(to_dense(make_derivative_operator("component_grad", dims)), comp)
    assert np.allclose(to_dense(second_derivative(dims)), comp @ d1, atol=1e-13)


def test_grad_adjoint_consistency():
    for dims in (GridDims(16, 1), GridDims(5, 7), GridDims(8, 8)):
        for kind in ("grad", "component_grad"):
            random_adjoint_check(make_derivative_operator(kind, dims))


def test_gram_of_grad_is_path_laplacian():
    n = 6
    d1 = to_dense(make_derivative_operator("grad", GridDims(n, 1)))
    lap = d1.T @ d1
    expected = 2.0 * np.eye(n)
    expected[0, 0] = expected[-1, -1] = 1.0
    expected -= np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    assert np.allclose(lap, expected, atol=1e-14)


def test_operators_are_linear_and_pure():
    op = make_derivative_operator("grad", GridDims(4, 3))
    x = RNG.standard_normal(op.cols)
    y = RNG.standard_normal(op.cols)
    first = op.forward(2.0 * x - y)
    again = 2.0 * op.forward(x) - op.forward(y)
    assert np.allclose(first, again, atol=1e-12)
    # repeated application does not mutate inputs or drift
    x_copy = x.copy()
    a = op.forward(x)
    b = op.forward(x)
    assert np.array_equal(a, b)
    assert np.array_equal(x, x_copy)


def test_operator_input_validation():
    op = make_derivative_operator("grad", GridDims(4, 1))
    with pytest.raises(ValueError):
        op.forward(np.zeros(5))
    with pytest.raises(ValueError):
        op.adjoint(np.zeros(3))
    with pytest.raises(ValueError):
        make_derivative_operator("third_derivative", GridDims(4, 1))
    # only (n,) and (n, k) are accepted; nothing of the right size is flattened
    grad_2d = make_derivative_operator("grad", GridDims(4, 3))
    for bad in (np.zeros((12, 2, 1)), np.zeros((4, 3)), np.zeros((3, 12))):
        with pytest.raises(ValueError):
            grad_2d.forward(bad)
    with pytest.raises(ValueError):
        grad_2d.adjoint(np.zeros((24, 1, 1)))
    kron = kron_operator(make_subsampler([1, 3], 4), make_causal_integration(5))
    with pytest.raises(ValueError):
        kron.forward(np.zeros((5, 4)))
    with pytest.raises(ValueError):
        kron.adjoint(np.zeros((10, 1, 1)))


# ---------------------------------------------------------------------------
# Identity, sensing, subsampling, integration


def test_identity_round_trip():
    op = identity(5)
    x = RNG.standard_normal(5)
    assert np.array_equal(op.forward(x), x)
    assert np.array_equal(op.adjoint(x), x)


def test_gaussian_sensing_unit_columns_and_determinism():
    op = make_gaussian_sensing(6, 20, seed=11)
    dense = to_dense(op)
    assert dense.shape == (6, 20)
    assert np.allclose(np.linalg.norm(dense, axis=0), 1.0, atol=1e-12)
    again = to_dense(make_gaussian_sensing(6, 20, seed=11))
    assert np.array_equal(dense, again)
    other = to_dense(make_gaussian_sensing(6, 20, seed=12))
    assert not np.array_equal(dense, other)
    random_adjoint_check(op)


def test_subsampler_frozen_example():
    # row indices are 1-based
    op = make_subsampler([1, 3], 3)
    assert np.array_equal(op.forward(np.array([5.0, 6.0, 7.0])), [5.0, 7.0])
    assert np.array_equal(op.adjoint(np.array([5.0, 7.0])), [5.0, 0.0, 7.0])
    random_adjoint_check(op)


def test_subsampler_validation():
    with pytest.raises(ValueError):
        make_subsampler([0, 2], 4)  # zero is not a valid 1-based index
    with pytest.raises(ValueError):
        make_subsampler([2, 2], 4)
    with pytest.raises(ValueError):
        make_subsampler([3, 1], 4)
    with pytest.raises(ValueError):
        make_subsampler([1, 5], 4)


def test_causal_integration_frozen_example():
    op = make_causal_integration(3)
    assert np.array_equal(op.forward(np.array([4.0, 4.0, 4.0])), [4.0, 8.0, 12.0])
    assert np.array_equal(op.adjoint(np.array([1.0, 1.0, 1.0])), [3.0, 2.0, 1.0])
    random_adjoint_check(op)


def test_causal_integration_dense_is_lower_triangular_ones():
    dense = to_dense(make_causal_integration(4))
    assert np.array_equal(dense, np.tril(np.ones((4, 4))))


# ---------------------------------------------------------------------------
# Composition and Kronecker products


def test_compose_matches_dense_product():
    a = make_gaussian_sensing(4, 7, seed=1)
    b = make_causal_integration(7)
    comp = compose(a, b)
    assert np.allclose(to_dense(comp), to_dense(a) @ to_dense(b), atol=1e-12)
    random_adjoint_check(comp)


def test_compose_shape_mismatch():
    a = make_causal_integration(5)
    b = make_causal_integration(6)
    with pytest.raises(ValueError):
        compose(a, b)


@pytest.mark.parametrize("rows,cols,inner_n", [(2, 3, 4), (3, 3, 2), (4, 2, 5)])
def test_kron_operator_matches_numpy_kron(rows, cols, inner_n):
    outer = make_gaussian_sensing(rows, cols, seed=5)
    inner = make_causal_integration(inner_n)
    op = kron_operator(outer, inner)
    dense = to_dense(op)
    expected = np.kron(to_dense(outer), to_dense(inner))
    assert np.allclose(dense, expected, atol=1e-12)
    random_adjoint_check(op)


def test_to_dense_guard():
    big = LinearOperator(2000, 2000, lambda x: x, lambda y: y, label="fake")
    with pytest.raises(ValueError):
        to_dense(big)
    # a wide operator is refused for the size of the identity it would apply
    wide = LinearOperator(1, 2000, lambda x: x[:1], lambda y: y, label="wide")
    with pytest.raises(ValueError):
        to_dense(wide)


# ---------------------------------------------------------------------------
# Batched application


def _batch_cases():
    d1, d2 = GridDims(9, 1), GridDims(5, 4)
    sub_causal = kron_operator(make_subsampler([1, 3], 4), make_causal_integration(5))
    return {
        "identity": identity(6),
        "grad_1d": make_derivative_operator("grad", d1),
        "grad_2d": make_derivative_operator("grad", d2),
        "component_grad_1d": make_derivative_operator("component_grad", d1),
        "component_grad_2d": make_derivative_operator("component_grad", d2),
        "second_derivative_1d": second_derivative(d1),
        "second_derivative_2d": second_derivative(d2),
        "gaussian": make_gaussian_sensing(7, 12, seed=3),
        "subsampler": make_subsampler([1, 3, 4], 6),
        "causal": make_causal_integration(8),
        "radon": make_radon(GridDims(6, 5), 7, [-40.0, 15.0, 70.0]),
        "compose": compose(make_subsampler([2, 5], 8), make_causal_integration(8)),
        "kron": sub_causal,
        "kron_of_kron": kron_operator(make_subsampler([2, 3], 3), sub_causal),
    }


# BLAS sums a matrix-matrix product in another order than a matrix-vector
# product, so the dense sensing matrix agrees to rounding, not bitwise.
_ROUNDED = {"gaussian"}


@pytest.mark.parametrize("name", sorted(_batch_cases()))
def test_batched_apply_matches_column_applies(name):
    op = _batch_cases()[name]
    dense = to_dense(op)
    rng = np.random.default_rng(31)
    k = 3
    for apply, matrix in ((op.forward, dense), (op.adjoint, dense.T)):
        n_out, n_in = matrix.shape
        block = rng.standard_normal((n_in, k))
        out = apply(block)
        assert out.shape == (n_out, k)
        single = np.column_stack([apply(block[:, j]) for j in range(k)])
        if name in _ROUNDED:
            bound = 2.0 * n_in * np.finfo(float).eps * (np.abs(matrix) @ np.abs(block))
            assert np.all(np.abs(out - single) <= bound)
        else:
            assert np.array_equal(out, single)


def test_kron_of_subsampler_and_causal_is_cumsum_then_pick():
    idx = np.array([0, 2, 3])
    op = kron_operator(make_subsampler(idx + 1, 4), make_causal_integration(6))
    field = np.random.default_rng(3).standard_normal((6, 4))
    out = op.forward(field.ravel(order="F"))
    assert np.array_equal(out, np.cumsum(field, axis=0)[:, idx].ravel(order="F"))


# ---------------------------------------------------------------------------
# Ray transform


def brute_force_ray_matrix(dims: GridDims, n_rays: int, angles_deg) -> np.ndarray:
    """Reference projector: per-pixel chord lengths via line-rectangle clipping."""
    nz, nx = dims.nz, dims.nx
    spacing = float(np.hypot(nx, nz)) / n_rays
    mat = np.zeros((len(angles_deg) * n_rays, nz * nx))
    for ai, ang in enumerate(angles_deg):
        theta = np.deg2rad(ang)
        ux, uz = np.sin(theta), np.cos(theta)  # ray direction
        px, pz = np.cos(theta), -np.sin(theta)  # offset direction
        for ri in range(n_rays):
            t = (ri - (n_rays - 1) / 2.0) * spacing
            row = ai * n_rays + ri
            # ray passes through the point t * (px, pz)
            ox, oz = t * px, t * pz
            for ix in range(nx):
                cx = ix - (nx - 1) / 2.0
                for iz in range(nz):
                    cz = iz - (nz - 1) / 2.0
                    # clip the ray against this unit pixel square
                    lo, hi = -np.inf, np.inf
                    ok = True
                    for origin, direction, lof, hif in (
                        (ox, ux, cx - 0.5, cx + 0.5),
                        (oz, uz, cz - 0.5, cz + 0.5),
                    ):
                        if abs(direction) < 1e-15:
                            if not lof <= origin <= hif:
                                ok = False
                                break
                        else:
                            s0 = (lof - origin) / direction
                            s1 = (hif - origin) / direction
                            lo = max(lo, min(s0, s1))
                            hi = min(hi, max(s0, s1))
                    if ok and hi > lo:
                        mat[row, iz + nz * ix] = hi - lo
    return mat


def test_radon_axis_aligned_column_sums():
    # odd nx puts the central ray through the middle pixel column
    dims = GridDims(4, 5)
    op = make_radon(dims, n_rays=5, angles_deg=[0.0])
    img = np.zeros((4, 5))
    img[:, 2] = 1.0
    sino = op.forward(dims.to_vector(img))
    # ray spacing hypot(5,4)/5 = 1.28, so only the central ray hits column 2
    center = sino[2]
    assert center == pytest.approx(4.0, abs=1e-12)
    assert sino[0] == pytest.approx(0.0, abs=1e-12)


def test_radon_matches_brute_force_clipping():
    dims = GridDims(8, 8)
    # avoid rays tangent to pixel boundaries, where chord length is ambiguous
    angles = [-63.4, -30.0, -7.3, 13.7, 28.1, 45.9, 71.2]
    op = make_radon(dims, n_rays=11, angles_deg=angles)
    dense = to_dense(op)
    ref = brute_force_ray_matrix(dims, 11, angles)
    assert np.allclose(dense, ref, atol=1e-10)


def test_radon_adjoint_consistency():
    dims = GridDims(16, 16)
    angles = np.linspace(-80.0, 80.0, 10)
    op = make_radon(dims, n_rays=23, angles_deg=angles)
    random_adjoint_check(op, trials=50)


def test_radon_validation():
    with pytest.raises(ValueError):
        make_radon(GridDims(8, 1), 5, [0.0])
    with pytest.raises(ValueError):
        make_radon(GridDims(8, 8), 0, [0.0])
    with pytest.raises(ValueError):
        make_radon(GridDims(8, 8), 5, [])
    with pytest.raises(ValueError):
        make_radon(GridDims(8, 8), 5, [120.0])


def test_radon_nonnegative_entries():
    op = make_radon(GridDims(6, 6), 9, [-45.0, 10.0, 60.0])
    dense = to_dense(op)
    assert (dense >= 0.0).all()
    assert dense.sum() > 0.0


# ---------------------------------------------------------------------------
# Property-based checks


@given(st.integers(min_value=2, max_value=40))
@settings(max_examples=25, deadline=None)
def test_grad_annihilates_constants(n):
    op = make_derivative_operator("grad", GridDims(n, 1))
    out = op.forward(np.full(n, 3.7))
    assert np.allclose(out, 0.0, atol=1e-12)


@given(st.integers(min_value=3, max_value=40))
@settings(max_examples=25, deadline=None)
def test_second_derivative_annihilates_ramps_interior(n):
    op = second_derivative(GridDims(n, 1))
    ramp = 0.5 + 2.0 * np.arange(n)
    out = op.forward(ramp)
    # interior rows vanish on ramps; the boundary row sees the slope
    assert np.allclose(out[: n - 2], 0.0, atol=1e-12)
    assert out[n - 2] == pytest.approx(-2.0)
    assert out[n - 1] == 0.0


@given(
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=20, deadline=None)
def test_grad_2d_adjoint_identity_random(nz, nx, seed):
    dims = GridDims(nz, nx)
    op = make_derivative_operator("grad", dims)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(op.cols)
    y = rng.standard_normal(op.rows)
    assert float(op.forward(x) @ y) == pytest.approx(float(x @ op.adjoint(y)), rel=1e-10, abs=1e-10)
