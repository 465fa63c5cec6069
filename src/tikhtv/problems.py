"""Deterministic test problems: synthetic signals, phantoms, Dix-type
velocity inversion and exact-energy noise injection.

All generators are closed-form and seedable, so a (generator, seed) pair
reproduces a problem bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .operators import (
    GridDims,
    LinearOperator,
    compose,
    kron_operator,
    make_causal_integration,
    make_subsampler,
)

__all__ = [
    "TestProblem",
    "synthetic_problem",
    "SIGNAL_KINDS",
    "PHANTOM_KINDS",
    "make_test_signal",
    "make_phantom",
    "make_dix_problem",
    "NOISE_REFERENCES",
    "add_noise",
]


@dataclass(frozen=True)
class TestProblem:
    """A forward operator with data and, when synthetic, the ground truth.

    ``noise_energy`` is the squared 2-norm of ``true_noise`` (zero for clean
    problems); it is stored exactly as injected so equality-constrained
    solvers can be handed the true budget.
    """

    operator: LinearOperator
    data: np.ndarray
    true_model: np.ndarray | None
    true_noise: np.ndarray | None
    noise_energy: float
    dims: GridDims
    seed: int
    label: str


def synthetic_problem(operator: LinearOperator, truth, dims: GridDims, seed: int, label: str) -> TestProblem:
    """Noiseless problem with data ``operator.forward(truth)``; ``add_noise``
    turns it into a noisy one."""
    return TestProblem(
        operator=operator,
        data=operator.forward(truth),
        true_model=truth,
        true_noise=None,
        noise_energy=0.0,
        dims=dims,
        seed=seed,
        label=label,
    )


# ---------------------------------------------------------------------------
# 1-d test signals.
#
# All four kinds are fixed closed forms of the normalised coordinate
# t = (i + 0.5)/n, so different lengths sample the same shape.

# jump locations and the constant level between consecutive jumps
_JUMPS = (0.12, 0.3, 0.5, 0.68, 0.86)
_LEVELS = (0.0, 1.1, 0.3, 1.5, -0.4, 0.7)

# smooth part: cosines, zero slope at both ends so boundary differences
# shrink at the same quadratic rate as interior ones
_COS_AMPS = (0.9, 0.5, 0.25)

# linear ramp rising over [0.55, 0.8]
_RAMP_START, _RAMP_END, _RAMP_HEIGHT = 0.55, 0.8, 1.2


def _blocky(t: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(np.asarray(_JUMPS), t, side="right")
    return np.asarray(_LEVELS, dtype=float)[idx]


def _smooth(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t)
    for k, amp in enumerate(_COS_AMPS, start=1):
        out += amp * np.cos(k * np.pi * t)
    return out


def _ramp(t: np.ndarray) -> np.ndarray:
    frac = np.clip((t - _RAMP_START) / (_RAMP_END - _RAMP_START), 0.0, 1.0)
    return _RAMP_HEIGHT * frac


# kind -> signal of t, in the order of the cs_1d runs (it fixes their noise seeds)
_SIGNALS = {
    "smooth": _smooth,
    "piecewise_smooth": lambda t: _blocky(t) + _smooth(t),
    "blocky": _blocky,
    "mixed": lambda t: _blocky(t) + _smooth(t) + _ramp(t),
}
SIGNAL_KINDS = tuple(_SIGNALS)


def make_test_signal(kind: str, n: int) -> np.ndarray:
    """Length ``n`` test signal of the requested structure.

    ``blocky`` is piecewise constant with 5 jumps, ``smooth`` a sum of three
    low-frequency cosines, ``piecewise_smooth`` their sum and ``mixed``
    additionally carries a linear ramp segment.  Amplitudes are O(1).
    """
    if n < 16:
        raise ValueError("test signals need n >= 16")
    if kind not in _SIGNALS:
        raise ValueError(f"unknown signal kind: {kind!r}")
    return _SIGNALS[kind]((np.arange(n) + 0.5) / n)


# ---------------------------------------------------------------------------
# 2-d phantoms on [-1, 1]^2, returned as stacked model vectors.

# Ten-ellipse head phantom, (value, a, b, x0, y0, angle_deg) per ellipse.
# Values are additive and chosen so the total lies in [0, 1] with the
# exterior exactly zero.
_HEAD_ELLIPSES = (
    (1.0, 0.69, 0.92, 0.0, 0.0, 0.0),
    (-0.8, 0.6624, 0.874, 0.0, -0.0184, 0.0),
    (-0.2, 0.11, 0.31, 0.22, 0.0, -18.0),
    (-0.2, 0.16, 0.41, -0.22, 0.0, 18.0),
    (0.1, 0.21, 0.25, 0.0, 0.35, 0.0),
    (0.1, 0.046, 0.046, 0.0, 0.1, 0.0),
    (0.1, 0.046, 0.046, 0.0, -0.1, 0.0),
    (0.1, 0.046, 0.023, -0.08, -0.605, 0.0),
    (0.1, 0.023, 0.023, 0.0, -0.606, 0.0),
    (0.1, 0.023, 0.046, 0.06, -0.605, 0.0),
)


def _phantom_grid(dims: GridDims):
    # pixel centres; row 0 is the top of the image (y = +1 side)
    x = (2.0 * (np.arange(dims.nx) + 0.5)) / dims.nx - 1.0
    y = 1.0 - (2.0 * (np.arange(dims.nz) + 0.5)) / dims.nz
    return np.meshgrid(x, y)  # shapes (nz, nx)


def ellipse_mask(xx, yy, a, b, x0, y0, angle_deg):
    """Membership test for a rotated ellipse, the head phantom's building block."""
    ct = np.cos(np.deg2rad(angle_deg))
    st = np.sin(np.deg2rad(angle_deg))
    xr = (xx - x0) * ct + (yy - y0) * st
    yr = -(xx - x0) * st + (yy - y0) * ct
    return (xr / a) ** 2 + (yr / b) ** 2 <= 1.0


def _disc(xx, yy, x0, y0, radius):
    return (xx - x0) ** 2 + (yy - y0) ** 2 <= radius**2


def _shepp_logan(xx, yy):
    return sum(value * ellipse_mask(xx, yy, *ellipse) for value, *ellipse in _HEAD_ELLIPSES)


def _piecewise_smooth_2d(xx, yy):
    img = 0.3 + 0.45 * np.cos(np.pi * np.hypot(xx, yy) / 1.6)
    # mid-scale ripple keeps the smooth field's information spread over
    # more than one length scale
    img += 0.06 * np.cos(4.0 * np.pi * xx) * np.cos(4.0 * np.pi * yy)
    img += 0.75 * _disc(xx, yy, -0.4, 0.35, 0.28)
    img -= 0.45 * _disc(xx, yy, 0.35, 0.4, 0.2)
    img += 0.6 * ((xx >= -0.1) & (xx <= 0.45) & (yy >= -0.6) & (yy <= -0.15))
    img -= 0.5 * _disc(xx, yy, 0.45, -0.55, 0.12)
    return img


def _smooth_blob_mix(xx, yy):
    img = 0.8 * np.exp(-((xx + 0.3) ** 2 + (yy + 0.2) ** 2) / 0.18)
    img += 0.5 * np.exp(-((xx - 0.45) ** 2 + (yy + 0.45) ** 2) / 0.05)
    img += 0.7 * _disc(xx, yy, 0.25, 0.35, 0.22)
    img += 0.5 * _disc(xx, yy, -0.35, 0.52, 0.15)
    return img


_PHANTOMS = {
    "piecewise_smooth_2d": _piecewise_smooth_2d,
    "shepp_logan": _shepp_logan,
    "smooth_blob_mix": _smooth_blob_mix,
}
PHANTOM_KINDS = tuple(_PHANTOMS)


def make_phantom(kind: str, dims: GridDims) -> np.ndarray:
    """Deterministic 2-d phantom as a stacked model vector.

    ``shepp_logan`` is the ten-ellipse head phantom with values in [0, 1] and
    exactly zero outside the skull.  ``piecewise_smooth_2d`` superimposes
    constant discs and a block on a smooth radial background.
    ``smooth_blob_mix`` places flat discs over Gaussian blobs.
    """
    if dims.is_1d or dims.nz < 16 or dims.nx < 16:
        raise ValueError("phantoms need a 2-d grid with nz, nx >= 16")
    if kind not in _PHANTOMS:
        raise ValueError(f"unknown phantom kind: {kind!r}")
    return dims.to_vector(_PHANTOMS[kind](*_phantom_grid(dims)))


# ---------------------------------------------------------------------------
# Dix-type velocity inversion.
#
# With interval velocities v_j, the model is m_j = v_j^2 and the stacking
# data are d_i = i * V_i^2 = sum_{j<=i} m_j, i.e. a causal integration of the
# model.  Picks subsample the integrated data.


def make_dix_problem(interval_velocity, pick_fraction: float, seed: int = 0) -> TestProblem:
    """Noiseless Dix inversion problem from interval velocities.

    A 1-d velocity gives operator ``picks * running-sum``; a 2-d velocity
    field (nz x nx, one trace per column) gives ``trace-picks (x)
    running-sum`` with the picks selecting whole traces.  Picks are drawn
    one per window of width 1/pick_fraction (regular picking with seeded
    jitter, the way stacking velocities are picked at roughly even times),
    so ``pick_fraction=1.0`` picks every sample or trace.
    """
    v = np.asarray(interval_velocity, dtype=float)
    if np.any(v <= 0.0):
        raise ValueError("interval velocities must be positive")

    if v.ndim == 1:
        n = v.size
        dims = GridDims(n, 1)
        model = v**2
        picks = _picks(n, pick_fraction, seed)
        operator = compose(
            make_subsampler(picks, n),
            make_causal_integration(n),
            label=f"dix-1d({picks.size} picks of {n})",
        )
    elif v.ndim == 2:
        nz, nx = v.shape
        dims = GridDims(nz, nx)
        model = dims.to_vector(v**2)
        picks = _picks(nx, pick_fraction, seed)
        operator = kron_operator(
            make_subsampler(picks, nx),
            make_causal_integration(nz),
        )
    else:
        raise ValueError("interval_velocity must be 1-d or 2-d")

    return synthetic_problem(operator, model, dims, seed, f"dix_{v.ndim}d")


def _picks(n, pick_fraction, seed):
    if not 0.0 < pick_fraction <= 1.0:
        raise ValueError("pick_fraction must lie in (0, 1]")
    # a window longer than the line would place its one pick past the end
    window = min(n, max(1, int(round(1.0 / pick_fraction))))
    count = max(1, n // window)
    rng = np.random.default_rng(seed)
    return np.arange(count) * window + rng.integers(0, window, size=count) + 1


# ---------------------------------------------------------------------------
# Noise injection.

# What the noise norm is measured against: the clean data or the true model.
NOISE_REFERENCES = ("data_norm", "model_norm")


def add_noise(problem: TestProblem, level: float, reference: str = "data_norm", seed: int = 0) -> TestProblem:
    """Add Gaussian white noise with an exactly rescaled energy.

    The noise norm is ``level`` times the norm of the clean data
    (``reference="data_norm"``) or of the true model (``"model_norm"``);
    the stored ``noise_energy`` is the squared norm of the realised noise.
    A problem without ``true_noise`` is taken as noiseless, its data as the
    clean data; a noisy one is re-noised from ``operator.forward(true_model)``.
    """
    if problem.true_model is None:
        raise ValueError("add_noise needs a problem with a true model")
    if level < 0.0:
        raise ValueError("noise level must be non-negative")
    if reference not in NOISE_REFERENCES:
        raise ValueError(f"unknown noise reference: {reference!r}")

    clean = problem.data if problem.true_noise is None else problem.operator.forward(problem.true_model)
    # a huge level overflows to non-finite data or budget, which admm_run
    # reports as a DivergenceError before its first sweep
    with np.errstate(over="ignore"):
        if level == 0.0:
            noise = np.zeros_like(clean)
        else:
            ref = np.linalg.norm(clean) if reference == "data_norm" else np.linalg.norm(problem.true_model)
            rng = np.random.default_rng(seed)
            noise = rng.standard_normal(clean.size)
            noise *= level * ref / np.linalg.norm(noise)
        data = clean + noise
        energy = float(noise @ noise)
    return replace(problem, data=data, true_noise=noise, noise_energy=energy)

