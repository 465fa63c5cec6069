"""Small numerical kernels: conjugate gradients, the exact Neumann-Laplacian
solve and the closed-form maximum real root of a depressed cubic.

The Neumann solve runs on one n-point DCT-II (Makhoul's reordering, one
``numpy.fft`` real FFT per line), which diagonalises the shifted Neumann
Laplacian; a solve is a division by its symbol in that domain."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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
    produces non-finite values; numpy's overflow warnings are silenced,
    since that check reports them.
    """
    with np.errstate(over="ignore", invalid="ignore"):
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
    i.e. ``D'D`` for the first difference with a zero last row.  The n-point
    DCT-II diagonalises it with eigenvalues ``4 sin^2(pi k / 2n)``, so the
    solve divides the transform of ``rhs`` over ``axes`` by the symbol
    ``shift + weight sum_a 4 sin^2(pi k_a / 2 n_a)`` (see
    :func:`_solve_by_dct`).  With ``shift == 0`` the constant mode is left
    undetermined and set to zero, giving the mean-zero solution.  Axes not
    in ``axes`` are batch axes.
    """
    rhs = np.asarray(rhs, dtype=float)
    axes = tuple(axes)
    symbol = float(shift)
    for a in axes:
        eigenvalues = _laplacian_eigenvalues(rhs.shape[a])
        symbol = symbol + weight * eigenvalues.reshape([-1 if b == a else 1 for b in range(rhs.ndim)])
    if shift == 0.0:
        # an infinite symbol zeroes the constant mode of each solved line
        symbol[(0,) * rhs.ndim] = np.inf
    return _solve_by_dct(rhs, symbol, axes)


def _solve_by_dct(rhs: np.ndarray, symbol: np.ndarray, axes) -> np.ndarray:
    """Solve ``S x = rhs`` for the operator ``S`` that the n-point DCT-II over
    ``axes`` diagonalises with eigenvalues ``symbol``.

    ``symbol`` has ``rhs.ndim`` axes, holds ``n_a`` entries along each solved
    axis and broadcasts against ``rhs`` along the others; it must be nonzero
    (an infinite entry zeroes that mode).  Every solved axis but the first
    takes an explicit DCT-II and, after the solve, its inverse.  Along the
    first, the contiguous axis of a column-major grid, the transform, the
    division and the inverse share one half spectrum
    (:func:`_divide_last_axis`).
    """
    fused, *outer = sorted(axes)
    x = rhs
    for a in outer:
        x = _along(_dct, x, a)
    solved = _divide_last_axis(np.moveaxis(x, fused, -1), np.moveaxis(symbol, fused, -1))
    x = np.moveaxis(solved, -1, fused)
    for a in reversed(outer):
        x = _along(_idct, x, a)
    return x


def _along(transform, x: np.ndarray, axis: int) -> np.ndarray:
    """Apply a last-axis ``transform`` along ``axis``."""
    return np.moveaxis(transform(np.moveaxis(x, axis, -1)), -1, axis)


@lru_cache(maxsize=64)
def _laplacian_eigenvalues(n: int) -> np.ndarray:
    """``4 sin^2(pi k / 2n)``, ``k = 0..n-1``: the path-graph Laplacian's
    eigenvalues, without the cancellation of ``2 - 2 cos(pi k / n)`` at
    small k; read-only, shared."""
    out = 4.0 * np.sin(np.pi * np.arange(n) / (2 * n)) ** 2
    out.flags.writeable = False
    return out


@lru_cache(maxsize=64)
def _twiddle(n: int) -> np.ndarray:
    """``W_k = exp(-i pi k / 2n)`` for ``k = 0..n//2``; read-only, shared."""
    out = np.exp(-0.5j * np.pi / n * np.arange(n // 2 + 1))
    out.flags.writeable = False
    return out


def _even_odd(x: np.ndarray) -> np.ndarray:
    return np.concatenate([x[..., ::2], x[..., 1::2][..., ::-1]], axis=-1)


def _undo_even_odd(v: np.ndarray) -> np.ndarray:
    out = np.empty_like(v)
    half = (v.shape[-1] + 1) // 2
    out[..., ::2] = v[..., :half]
    out[..., 1::2] = v[..., half:][..., ::-1]
    return out


def _half_spectrum(x: np.ndarray) -> np.ndarray:
    """``Z_k = W_k V_k`` for ``k = 0..n//2`` along the last axis of ``x``.

    Makhoul (1980): with the samples reordered as ``v = [x_0, x_2, ..., x_3,
    x_1]`` (even ones in order, then odd ones reversed) and ``V`` the FFT of
    ``v``, the unnormalised DCT-II
    ``X_k = sum_j x_j cos(pi k (2j + 1) / 2n)`` is ``Re Z_k``, and
    ``X_{n-k} = -Im Z_k``.  So one n-point real FFT gives all n
    coefficients; ``Im Z_0`` is 0.
    """
    z = np.fft.rfft(_even_odd(x))
    z *= _twiddle(x.shape[-1])
    return z


def _from_half_spectrum(z: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`_half_spectrum` for length-``n`` lines; overwrites
    ``z``."""
    z *= _twiddle(n).conj()
    return _undo_even_odd(np.fft.irfft(z, n))


def _dct(x: np.ndarray) -> np.ndarray:
    """Unnormalised DCT-II along the last axis."""
    n = x.shape[-1]
    h = n // 2 + 1
    z = _half_spectrum(x)
    out = np.empty(x.shape)
    out[..., :h] = z.real
    out[..., h:] = -z.imag[..., (n - 1) // 2 : 0 : -1]
    return out


def _idct(y: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_dct` along the last axis, from
    ``Z_k = Y_k - i Y_{n-k}``."""
    n = y.shape[-1]
    h = n // 2 + 1
    z = np.empty(y.shape[:-1] + (h,), dtype=complex)
    z.real = y[..., :h]
    z.imag[..., 0] = 0.0
    z.imag[..., 1:] = -y[..., : n - h : -1]
    return _from_half_spectrum(z, n)


def _divide_last_axis(x: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    """DCT-II along the last axis, division by ``symbol`` and the inverse, on
    one half spectrum: ``Re Z_k`` is divided by ``s_k`` and ``Im Z_k`` by
    ``s_{n-k}``."""
    n = x.shape[-1]
    h = n // 2 + 1
    z = _half_spectrum(x)
    recip = 1.0 / symbol
    z.real *= recip[..., :h]
    z.imag[..., 1:] *= recip[..., : n - h : -1]
    return _from_half_spectrum(z, n)


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
