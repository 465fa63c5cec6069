"""Small numerical kernels: conjugate gradients, the exact Neumann-Laplacian
solve and the closed-form maximum real root of a depressed cubic."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "CgSettings",
    "cg_solve",
    "neumann_solve",
    "max_real_root_depressed_cubic",
]


@dataclass(frozen=True)
class CgSettings:
    """Conjugate-gradient controls.

    ``rel_tol`` is measured against the norm of the right-hand side, so a
    warm start that is already within tolerance returns immediately.
    """

    rel_tol: float = 1e-7
    max_iter: int = 100
    warm_start: bool = True

    def __post_init__(self):
        if self.rel_tol < 0.0:
            raise ValueError("rel_tol must be non-negative")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


def cg_solve(
    apply_a: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    x0: np.ndarray | None = None,
    settings: CgSettings = CgSettings(),
) -> tuple[np.ndarray, int]:
    """Conjugate gradients for a symmetric positive (semi-)definite map.

    Returns ``(x, iterations)`` where x satisfies
    ``||apply_a(x) - b|| <= rel_tol * ||b||`` or is the iterate after
    ``max_iter`` steps.  Raises ``FloatingPointError`` if the iteration
    produces non-finite values.
    """
    b = np.asarray(b, dtype=float).ravel()
    target = settings.rel_tol * float(np.linalg.norm(b))
    if x0 is None:
        x = np.zeros_like(b)
        r = b.copy()
    else:
        x = np.array(x0, dtype=float).ravel().copy()
        if x.size != b.size:
            raise ValueError(f"x0 has length {x.size}, expected {b.size}")
        r = b - apply_a(x)
    if not np.all(np.isfinite(r)):
        raise FloatingPointError("cg_solve: non-finite initial residual")
    rs = float(r @ r)
    if np.sqrt(rs) <= target:
        return x, 0
    p = r.copy()
    for k in range(1, settings.max_iter + 1):
        ap = apply_a(p)
        denom = float(p @ ap)
        if not np.isfinite(denom):
            raise FloatingPointError("cg_solve: non-finite curvature")
        if denom <= 0.0:
            # direction with no curvature; the system is only semi-definite
            # and the current iterate is the best this subspace offers
            return x, k - 1
        alpha = rs / denom
        x += alpha * p
        r -= alpha * ap
        rs_next = float(r @ r)
        if not np.isfinite(rs_next):
            raise FloatingPointError("cg_solve: non-finite residual")
        if np.sqrt(rs_next) <= target:
            return x, k
        p = r + (rs_next / rs) * p
        rs = rs_next
    return x, settings.max_iter


def neumann_solve(rhs, shift: float, weight: float, axes) -> np.ndarray:
    """Exact solve of ``(shift I + weight sum_a L_a) x = rhs``.

    ``L_a`` is the Neumann (path-graph) Laplacian along array axis ``a``,
    i.e. ``D'D`` for the first difference with a zero last row.  The even
    reflection ``[x, x[::-1]]`` along each axis turns ``L_a`` into the
    periodic Laplacian, which the real FFT diagonalises with eigenvalues
    ``2 - 2 cos(pi k / n)``.  With ``shift == 0`` the constant mode is left
    undetermined and set to zero, giving the mean-zero solution.
    """
    rhs = np.asarray(rhs, dtype=float)
    axes = tuple(axes)
    extended = rhs
    for a in axes:
        extended = np.concatenate([extended, np.flip(extended, axis=a)], axis=a)
    spectrum = np.fft.rfftn(extended, axes=axes)
    # the reflection is 2**len(axes) times the size of rhs; free it before
    # the inverse transform allocates
    del extended
    symbol = float(shift)
    for a in axes:
        # the half-spectrum axis keeps k = 0..n, the others k = 0..2n-1;
        # 4 sin^2(pi k / 2n) = 2 - 2 cos(pi k / n) covers both without the
        # cancellation of the cosine form at small k
        k = np.arange(spectrum.shape[a]).reshape([-1 if b == a else 1 for b in range(rhs.ndim)])
        symbol = symbol + weight * 4.0 * np.sin(np.pi * k / (2 * rhs.shape[a])) ** 2
    if shift == 0.0:
        # an infinite symbol zeroes the constant mode of each solved line
        symbol[(0,) * rhs.ndim] = np.inf
    spectrum *= 1.0 / symbol
    solved = np.fft.irfftn(spectrum, s=[2 * rhs.shape[a] for a in axes], axes=axes)
    return solved[tuple(slice(0, n) for n in rhs.shape)]


def max_real_root_depressed_cubic(p: float, q: float) -> float:
    """Largest real root of ``g**3 + p*g + q = 0``.

    Closed form split on the discriminant ``-4 p^3 - 27 q^2`` (trigonometric
    form for three real roots, cancellation-safe Cardano for one), followed by
    a single Newton polish.
    """
    p = float(p)
    q = float(q)
    if not (np.isfinite(p) and np.isfinite(q)):
        raise ValueError("cubic coefficients must be finite")
    if p == 0.0 and q == 0.0:
        return 0.0

    # normalize to O(1) coefficients so sub/overflow in p**3, q**2 cannot
    # corrupt the branch choice or the Newton step
    scale = max(np.sqrt(abs(p)), np.cbrt(abs(q)))
    p /= scale * scale
    q = q / scale / scale / scale

    disc = -4.0 * p**3 - 27.0 * q**2
    if disc >= 0.0 and p < 0.0:
        # three real roots
        m = 2.0 * np.sqrt(-p / 3.0)
        arg = np.clip(3.0 * q / (p * m), -1.0, 1.0)
        root = m * np.cos(np.arccos(arg) / 3.0)
    elif q == 0.0:
        # p >= 0 here, so zero is the only real root
        root = 0.0
    else:
        half = -0.5 * q
        s = np.sqrt(q * q / 4.0 + p**3 / 27.0)
        # pick the cube root whose radicand does not cancel
        u = np.cbrt(half + np.copysign(s, half)) if half != 0.0 else np.cbrt(s)
        root = u - p / (3.0 * u)

    f = root**3 + p * root + q
    fp = 3.0 * root**2 + p
    if fp != 0.0:
        step = f / fp
        if np.isfinite(step) and abs(step) <= 1.0 + abs(root):
            root = root - step
    return float(root * scale)
