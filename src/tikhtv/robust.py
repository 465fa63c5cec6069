"""Robust gradient statistics driving the balancing-parameter update.

The model gradient of a piecewise-constant-plus-smooth signal splits into a
small population of large jump entries and a bulk of small background
entries.  Median/MAD z-scores separate the two without assuming a noise
level; the balance update steers the smooth gradient component until its
largest entry matches the largest background (normal) entry of the full
gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAD_SCALE",
    "GradientStats",
    "median",
    "mad",
    "gradient_stats",
    "update_balance",
]

# Scales MAD to estimate the standard deviation of normal data.
MAD_SCALE = 1.4826

# Below this (relative) spread every entry is classified as normal.
_MAD_FLOOR = 1e-12

# The balance is clamped below at this fraction of its previous value so it
# stays strictly positive.
_BALANCE_FLOOR = 1e-12


def median(values) -> float:
    """Middle element of the sorted data, mean of the two middle elements
    for even length."""
    values = np.asarray(values, dtype=float).ravel()
    if values.size == 0:
        raise ValueError("median of empty data")
    return float(np.median(values))


def mad(values) -> float:
    """Scaled median absolute deviation, ``1.4826 * median(|v - median(v)|)``."""
    values = np.asarray(values, dtype=float).ravel()
    if values.size == 0:
        raise ValueError("mad of empty data")
    return _scaled_median_abs(values - np.median(values))


def _scaled_median_abs(deviations: np.ndarray) -> float:
    """``1.4826 * median(|deviations|)``, the MAD of data whose deviations
    from their median are given."""
    return float(MAD_SCALE * np.median(np.abs(deviations), overwrite_input=True))


@dataclass(frozen=True)
class GradientStats:
    """Summary of one gradient iterate used by the balance update.

    ``normal_max`` is the largest magnitude among entries whose |z-score| is
    within the threshold; ``smooth_max`` is the sup norm of the smooth
    gradient component; ``balance_residual`` is their difference (zero at the
    balance fixed point).
    """

    median: float
    mad: float
    zscores: np.ndarray
    normal_mask: np.ndarray
    normal_max: float
    smooth_max: float
    balance_residual: float
    mad_degenerate: bool = False
    mask_empty: bool = False


def gradient_stats(grad, smooth_grad, zscore_threshold: float = 2.5) -> GradientStats:
    """Classify gradient entries as normal/anomalous and measure both sides.

    An entry is normal when ``|grad_i - median| <= threshold * MAD``.  If the
    MAD is (relatively) zero every entry is normal.  If no entry is normal,
    which can only happen for very small thresholds, the whole gradient is
    used as the normal population and the result is flagged.
    """
    grad = np.asarray(grad, dtype=float).ravel()
    smooth_grad = np.asarray(smooth_grad, dtype=float).ravel()
    if grad.size == 0:
        raise ValueError("gradient_stats of empty gradient")
    if smooth_grad.size != grad.size:
        raise ValueError(
            f"smooth gradient length {smooth_grad.size} != gradient length {grad.size}"
        )
    if not zscore_threshold > 0.0:
        raise ValueError("zscore_threshold must be positive")

    mid = median(grad)
    deviations = grad - mid
    spread = _scaled_median_abs(deviations)
    grad_inf = float(np.max(np.abs(grad)))
    degenerate = spread < _MAD_FLOOR * (1.0 + grad_inf)
    if degenerate:
        z = np.zeros_like(grad)
        mask = np.ones(grad.size, dtype=bool)
    else:
        z = deviations
        z /= spread
        mask = np.abs(z) <= zscore_threshold

    mask_empty = not bool(mask.any())
    if mask_empty:
        normal_max = grad_inf
    else:
        normal_max = float(np.max(np.abs(grad[mask])))
    smooth_max = float(np.max(np.abs(smooth_grad)))

    return GradientStats(
        median=mid,
        mad=spread,
        zscores=z,
        normal_mask=mask,
        normal_max=normal_max,
        smooth_max=smooth_max,
        balance_residual=smooth_max - normal_max,
        mad_degenerate=degenerate,
        mask_empty=mask_empty,
    )


def update_balance(balance: float, stats: GradientStats) -> float:
    """Averaged fixed-point step for the balancing parameter.

    Returns ``balance/2 + (4 a / (a + b) - 1) * balance / 2`` with
    ``a = stats.smooth_max`` and ``b = stats.normal_max``, clamped below so it
    stays positive.  The value is unchanged exactly when ``a == b``; it grows
    when the smooth component dominates and shrinks otherwise.
    """
    if not balance > 0.0:
        raise ValueError("balance must be positive")
    a, b = stats.smooth_max, stats.normal_max
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError("non-finite gradient statistics")
    if a + b <= 0.0:
        return balance
    factor = 4.0 * a / (a + b) - 1.0
    new = 0.5 * balance + 0.5 * factor * balance
    return max(new, _BALANCE_FLOOR * balance)
