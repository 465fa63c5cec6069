"""Matrix-free linear operators used by the splitting solvers.

Every operator is a :class:`LinearOperator`: a pair of callables for the
forward map and its adjoint together with the operator shape.  Both take a
vector of shape ``(n,)`` or a block of ``k`` vectors of shape ``(n, k)`` and
act along axis 0; any other shape raises ``ValueError``.  Operators are
pure (no internal state is mutated by application) and deterministic, so the
adjoint identity ``<A x, y> == <x, A* y>`` can be checked numerically for any
of the constructors in this module.

Models live on an ``nz x nx`` grid stacked column-major (depth index ``z``
fastest).  :class:`GridDims` owns that layout and the layout of the stacked
gradient ``D m``: one block per grid axis, each block differencing along its
own axis.  The derivative operators here and every caller that splits a
gradient into its blocks read it from there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Callable

import numpy as np
import scipy.sparse as sp

__all__ = [
    "LinearOperator",
    "GridDims",
    "identity",
    "make_derivative_operator",
    "make_gaussian_sensing",
    "make_subsampler",
    "make_causal_integration",
    "make_radon",
    "compose",
    "kron_operator",
    "to_dense",
]

# Largest entry count of the matrix, or of the identity it is applied to,
# that to_dense will materialise.
_DENSE_LIMIT = 1_000_000


@dataclass(frozen=True)
class LinearOperator:
    """A linear map given by matching forward/adjoint callables.

    Parameters
    ----------
    rows, cols : int
        Shape of the underlying matrix: forward maps length ``cols`` vectors
        to length ``rows`` vectors, the adjoint maps the other way.
    forward, adjoint : callable
        Pure functions of one array of shape ``(n,)`` or ``(n, k)``, with
        ``n`` the input length, acting along axis 0: column ``j`` of the
        output is the map applied to column ``j`` of the input.
    label : str
        Human-readable description used in error messages and logs.
    structure : str
        Optional hint about the matrix: ``"identity"`` is A = I; ``"dense"``
        is an explicit matrix with few rows.  Empty means no known structure.
    """

    rows: int
    cols: int
    forward: Callable[[np.ndarray], np.ndarray]
    adjoint: Callable[[np.ndarray], np.ndarray]
    label: str = ""
    structure: str = ""


@dataclass(frozen=True)
class GridDims:
    """Model grid dimensions and the layout of the stacked gradient.

    ``nx == 1`` denotes a 1-d model of length ``nz``.  2-d models are stacked
    column-major: model vector entry ``iz + nz*ix`` holds grid node
    ``(iz, ix)``, i.e. the depth index varies fastest.

    A model varies along the grid :attr:`axes`: ``(0,)`` in 1-d, ``(0, 1)``
    in 2-d.  Its stacked gradient ``D m`` (length :attr:`grad_len`) holds one
    block of ``n`` entries per axis, each stacked like the model; block ``i``
    is the first difference along grid axis ``grad_axes[i]``.  In 2-d the
    horizontal block (along x, axis 1) comes first, then the vertical one
    (along z, axis 0).
    """

    nz: int
    nx: int = 1

    def __post_init__(self):
        if self.nz < 2:
            raise ValueError(f"nz must be at least 2, got {self.nz}")
        if self.nx < 1:
            raise ValueError(f"nx must be at least 1, got {self.nx}")

    @property
    def n(self) -> int:
        return self.nz * self.nx

    @property
    def is_1d(self) -> bool:
        return self.nx == 1

    @property
    def axes(self) -> tuple[int, ...]:
        """The grid axes the model varies along."""
        return (0,) if self.is_1d else (0, 1)

    @property
    def grad_axes(self) -> tuple[int, ...]:
        """The axis each stacked gradient block differences along, in
        stacking order."""
        return self.axes[::-1]

    @property
    def grad_len(self) -> int:
        """Length of a stacked gradient vector: one block of n per axis."""
        return len(self.axes) * self.n

    def to_grid(self, x: np.ndarray) -> np.ndarray:
        """Reshape a stacked model vector to its (nz, nx) grid; an (n, k)
        block keeps its trailing axis, giving (nz, nx, k)."""
        x = np.asarray(x, dtype=float)
        return x.reshape((self.nz, self.nx) + x.shape[1:], order="F")

    def to_vector(self, grid: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`to_grid`: (nz, nx) to (n,), (nz, nx, k) to (n, k)."""
        grid = np.asarray(grid, dtype=float)
        return grid.reshape((self.n,) + grid.shape[2:], order="F")

    def lines(self, x: np.ndarray, axis: int) -> np.ndarray:
        """View a stacked model vector, (n,) or (n, k), as its grid lines
        along grid ``axis``: shape ``(outer, n_axis, inner)``, then ``k``,
        with one line at each ``[o, :, i]``.  Column-major stacking makes
        this a plain reshape, so it is a view of a contiguous ``x``."""
        shape = (self.nz, self.nx)
        return x.reshape((-1, shape[axis], math.prod(shape[:axis])) + x.shape[1:])

    def grad_blocks(self, g: np.ndarray) -> list[np.ndarray]:
        """Split a stacked gradient, (grad_len,) or (grad_len, k), into the
        grid of each block, in the order of :attr:`grad_axes`."""
        n = self.n
        return [self.to_grid(g[i * n : (i + 1) * n]) for i in range(len(self.axes))]


def _vec(x, n, label):
    out = np.asarray(x, dtype=float)
    if out.ndim not in (1, 2) or out.shape[0] != n:
        raise ValueError(f"{label}: expected shape ({n},) or ({n}, k), got {out.shape}")
    return out


def identity(n: int) -> LinearOperator:
    """The identity on length ``n`` vectors."""
    if n < 1:
        raise ValueError("identity needs n >= 1")

    def fwd(x):
        return _vec(x, n, "identity").copy()

    return LinearOperator(n, n, fwd, fwd, label=f"identity(n={n})", structure="identity")


# ---------------------------------------------------------------------------
# First-difference stencils.
#
# The first difference along an axis maps x to (x[1]-x[0], ..., x[n-1]-x[n-2],
# 0); the final row is identically zero so the operator is square.  Both
# derivative operators are built from this stencil.


def _diff(v: np.ndarray, out: np.ndarray) -> None:
    """First difference along axis 1 of line views (:meth:`GridDims.lines`)."""
    np.subtract(v[:, 1:], v[:, :-1], out=out[:, :-1])
    out[:, -1] = 0.0


def _diff_adj(w: np.ndarray, out: np.ndarray) -> None:
    """Adjoint of :func:`_diff`: ``out_j = w_{j-1} - w_j`` with
    ``w_{-1} = w_{n-1} = 0``."""
    # not np.negative(..., out=): numpy 2.4 writes wrong values through an
    # output view whose stride is 8 elements (lines of an 8 x nx grid)
    np.subtract(0.0, w[:, :1], out=out[:, :1])
    np.subtract(w[:, :-2], w[:, 1:-1], out=out[:, 1:-1])
    out[:, -1] = w[:, -2]


def make_derivative_operator(kind: str, dims: GridDims) -> LinearOperator:
    """Finite-difference operators on a model grid.

    Parameters
    ----------
    kind : {"grad", "component_grad"}
        ``grad`` is the first-order forward difference, the
        ``grad_len x n`` stacked gradient of :class:`GridDims` (in 1-d an
        ``n x n`` map whose last row is zero).
        ``component_grad`` applies the first difference to each block of a
        stacked gradient vector along that block's own axis (equal to
        ``grad`` in 1-d, block-diagonal in 2-d, so it maps gradient space to
        gradient space).
    dims : GridDims

    Notes
    -----
    Only the zero-last-row boundary stencil is provided; all operators are
    applied matrix-free.
    """
    if kind not in ("grad", "component_grad"):
        raise ValueError(f"unknown derivative kind: {kind!r}")

    n, glen, axes, lines = dims.n, dims.grad_len, dims.grad_axes, dims.lines
    spans = [slice(i * n, (i + 1) * n) for i in range(len(axes))]

    def diff_blocks(sources, k_shape):
        # block i of the output is the difference of sources[i] along axes[i]
        out = np.empty((glen,) + k_shape)
        for src, span, a in zip(sources, spans, axes):
            _diff(lines(src, a), lines(out[span], a))
        return out

    def diff_adj_blocks(y):
        out = np.empty(y.shape)
        for span, a in zip(spans, axes):
            _diff_adj(lines(y[span], a), lines(out[span], a))
        return out

    if kind == "grad":
        def fwd(x):
            x = _vec(x, n, "grad")
            return diff_blocks([x] * len(axes), x.shape[1:])

        def adj(y):
            blocks = diff_adj_blocks(_vec(y, glen, "grad adjoint"))
            # summed from the first block on, not from 0, to keep signed zeros
            return reduce(np.add, (blocks[span] for span in spans))

        return LinearOperator(glen, n, fwd, adj, label=f"first-difference({_dims_tag(dims)})")

    def fwd(x):
        x = _vec(x, glen, "component_grad")
        return diff_blocks([x[span] for span in spans], x.shape[1:])

    def adj(y):
        return diff_adj_blocks(_vec(y, glen, "component_grad adjoint"))

    return LinearOperator(glen, glen, fwd, adj, label=f"component-difference({_dims_tag(dims)})")


def _dims_tag(dims: GridDims) -> str:
    return f"n={dims.nz}" if dims.is_1d else f"{dims.nz}x{dims.nx}"


# ---------------------------------------------------------------------------
# Sensing / sampling operators.


def make_gaussian_sensing(m: int, n: int, seed: int) -> LinearOperator:
    """Dense sensing matrix with i.i.d. standard normal entries and columns
    rescaled to unit 2-norm.  Deterministic in (m, n, seed)."""
    if m < 1 or n < 1:
        raise ValueError("sensing matrix needs m >= 1 and n >= 1")
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((m, n))
    mat /= np.linalg.norm(mat, axis=0)

    def fwd(x):
        return mat @ _vec(x, n, "gaussian sensing")

    def adj(y):
        return mat.T @ _vec(y, m, "gaussian sensing adjoint")

    return LinearOperator(m, n, fwd, adj, label=f"gaussian-sensing({m}x{n}, seed={seed})", structure="dense")


def make_subsampler(selected_rows, n: int) -> LinearOperator:
    """Row selection operator.

    ``selected_rows`` are 1-based indices into a length ``n`` vector and must
    be strictly increasing.  The adjoint scatters back with zero fill.
    """
    rows = np.asarray(selected_rows, dtype=int).ravel()
    if rows.size == 0:
        raise ValueError("subsampler needs at least one selected row")
    if np.any(rows < 1) or np.any(rows > n):
        raise ValueError(f"selected rows must lie in [1, {n}]")
    if np.any(np.diff(rows) <= 0):
        raise ValueError("selected rows must be strictly increasing")
    idx = rows - 1
    k = rows.size

    def fwd(x):
        return _vec(x, n, "subsampler")[idx]

    def adj(y):
        y = _vec(y, k, "subsampler adjoint")
        out = np.zeros((n,) + y.shape[1:])
        out[idx] = y
        return out

    return LinearOperator(k, n, fwd, adj, label=f"subsampler({k} of {n})")


def make_causal_integration(n: int) -> LinearOperator:
    """Running-sum operator (dense lower-triangular matrix of ones)."""
    if n < 1:
        raise ValueError("causal integration needs n >= 1")

    def fwd(x):
        return np.cumsum(_vec(x, n, "causal integration"), axis=0)

    def adj(y):
        return np.cumsum(_vec(y, n, "causal integration adjoint")[::-1], axis=0)[::-1].copy()

    return LinearOperator(n, n, fwd, adj, label=f"causal-integration(n={n})")


# ---------------------------------------------------------------------------
# Parallel-beam tomography.
#
# Geometry: unit square pixels, image centred at the origin, angle measured
# from the vertical so a 0 degree ray integrates straight down a column.  For
# each angle the rays are parallel with direction (sin t, cos t) in (x, z)
# and are indexed by their offset along the perpendicular (cos t, -sin t).
# Ray offsets are equispaced over the circumscribing extent (the image
# diagonal), centred:  offset_r = (r - (n_rays-1)/2) * diag / n_rays.
#
# The weight of pixel c for the ray at offset t is the exact chord length of
# the line through the pixel square.  With a = |cos t|, b = |sin t| and
# s the perpendicular distance from the pixel centre to the ray, the chord is
#
#     min(1/max(a, b), ((a+b)/2 - |s|) / (a*b))   clipped below at 0,
#
# a trapezoid in s.  For axis-aligned rays (a*b == 0) this degenerates to an
# indicator of width 1; rays exactly on a pixel boundary are assigned to the
# pixel whose centre sits at s = -1/2 (half-open convention).


def make_radon(dims: GridDims, n_rays: int, angles_deg) -> LinearOperator:
    """Exact-intersection parallel-beam projection operator.

    Rows are ordered angle-major, ray-minor.  Angles are in degrees and must
    lie in [-90, 90].  The sparse intersection table is precomputed once at
    construction; application is two sparse matvecs.
    """
    if dims.is_1d:
        raise ValueError("radon operator needs a 2-d grid")
    if n_rays < 1:
        raise ValueError("radon operator needs n_rays >= 1")
    angles = np.atleast_1d(np.asarray(angles_deg, dtype=float))
    if angles.size == 0:
        raise ValueError("radon operator needs at least one angle")
    if np.any(angles < -90.0) or np.any(angles > 90.0):
        raise ValueError("angles must lie in [-90, 90] degrees")

    nz, nx = dims.nz, dims.nx
    n = dims.n
    span = float(np.hypot(nx, nz))
    spacing = span / n_rays
    t0 = -(n_rays - 1) / 2.0 * spacing

    # pixel centre coordinates in stacking order (z fastest)
    px = np.repeat(np.arange(nx) - (nx - 1) / 2.0, nz)
    pz = np.tile(np.arange(nz) - (nz - 1) / 2.0, nx)

    row_parts, col_parts, val_parts = [], [], []
    pixel_ids = np.arange(n)
    for ia, theta in enumerate(np.deg2rad(angles)):
        c, s = np.cos(theta), np.sin(theta)
        a, b = abs(c), abs(s)
        scoord = px * c - pz * s
        halfwidth = (a + b) / 2.0
        first = np.ceil((scoord - halfwidth - t0) / spacing).astype(int)
        n_candidates = int(2.0 * halfwidth / spacing) + 2
        axis_aligned = min(a, b) < 1e-12
        for k in range(n_candidates):
            rays = first + k
            offs = t0 + rays * spacing
            dist = scoord - offs
            if axis_aligned:
                vals = ((dist >= -0.5) & (dist < 0.5)).astype(float)
            else:
                vals = np.minimum(1.0 / max(a, b), (halfwidth - np.abs(dist)) / (a * b))
                vals = np.maximum(vals, 0.0)
            keep = (vals > 0.0) & (rays >= 0) & (rays < n_rays)
            if not np.any(keep):
                continue
            row_parts.append(ia * n_rays + rays[keep])
            col_parts.append(pixel_ids[keep])
            val_parts.append(vals[keep])

    n_rows = angles.size * n_rays
    if row_parts:
        mat = sp.csr_matrix(
            (np.concatenate(val_parts), (np.concatenate(row_parts), np.concatenate(col_parts))),
            shape=(n_rows, n),
        )
    else:
        mat = sp.csr_matrix((n_rows, n))
    mat_t = mat.T.tocsr()

    def fwd(x):
        return mat @ _vec(x, n, "radon")

    def adj(y):
        return mat_t @ _vec(y, n_rows, "radon adjoint")

    return LinearOperator(
        n_rows, n, fwd, adj,
        label=f"radon({nz}x{nx}, {angles.size} angles x {n_rays} rays)",
    )


# ---------------------------------------------------------------------------
# Combinators.


def compose(a: LinearOperator, b: LinearOperator, label: str | None = None) -> LinearOperator:
    """The operator ``a b`` (apply ``b`` first)."""
    if a.cols != b.rows:
        raise ValueError(
            f"cannot compose {a.label or 'a'} ({a.rows}x{a.cols}) with "
            f"{b.label or 'b'} ({b.rows}x{b.cols})"
        )

    def fwd(x):
        return a.forward(b.forward(x))

    def adj(y):
        return b.adjoint(a.adjoint(y))

    if label is None:
        label = f"({a.label} * {b.label})"
    return LinearOperator(a.rows, b.cols, fwd, adj, label=label)


def _along(apply, block: np.ndarray, axis: int) -> np.ndarray:
    """Apply a batched map along ``axis`` (0 or 1) of an ``(n0, n1, k)``
    block, treating every other index as a batch column."""
    moved = np.moveaxis(block, axis, 0)
    out = apply(moved.reshape((moved.shape[0], -1), order="F"))
    return np.moveaxis(out.reshape((-1,) + moved.shape[1:], order="F"), 0, axis)


def kron_operator(outer: LinearOperator, inner: LinearOperator) -> LinearOperator:
    """Kronecker product ``outer (x) inner`` acting on column-major stacks.

    For a field F with ``inner.cols`` rows and ``outer.cols`` columns this
    applies ``inner`` down every column and ``outer`` across every row, i.e.
    the matrix form is ``kron(dense(outer), dense(inner))`` for column-major
    vectorisation.
    """
    rows = outer.rows * inner.rows
    cols = outer.cols * inner.cols

    def fwd(x):
        x = _vec(x, cols, "kron")
        f = x.reshape((inner.cols, outer.cols, -1), order="F")
        f = _along(outer.forward, _along(inner.forward, f, 0), 1)
        return f.reshape((rows,) + x.shape[1:], order="F")

    def adj(y):
        y = _vec(y, rows, "kron adjoint")
        f = y.reshape((inner.rows, outer.rows, -1), order="F")
        f = _along(inner.adjoint, _along(outer.adjoint, f, 1), 0)
        return f.reshape((cols,) + y.shape[1:], order="F")

    return LinearOperator(rows, cols, fwd, adj, label=f"({outer.label}) kron ({inner.label})")


def to_dense(op: LinearOperator) -> np.ndarray:
    """Materialise an operator as ``op.forward(I)``.  Test helper only;
    refuses operators whose matrix or identity input has more than a
    million entries."""
    if op.cols * max(op.rows, op.cols) > _DENSE_LIMIT:
        raise ValueError(
            f"refusing to densify {op.label or 'operator'}: "
            f"{op.rows}x{op.cols} with its {op.cols}x{op.cols} identity exceeds "
            f"{_DENSE_LIMIT} entries"
        )
    return op.forward(np.eye(op.cols))
