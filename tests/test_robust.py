import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tikhtv.robust import MAD_SCALE, GradientStats, gradient_stats, update_balance


# ---------------------------------------------------------------------------
# MAD


def mad(values):
    """The MAD that gradient_stats reports and the balance update reads."""
    return gradient_stats(values, np.zeros_like(values)).mad


def test_mad_empty_raises():
    with pytest.raises(ValueError):
        mad(np.array([]))


def test_mad_frozen_example():
    # median 3, |v - 3| = [2, 1, 0, 1, 97], median of those 1
    values = np.array([1.0, 2.0, 3.0, 4.0, 100.0])
    assert mad(values) == pytest.approx(MAD_SCALE, rel=1e-12)


def test_mad_constant_vector_is_zero():
    assert mad(np.full(9, 4.2)) == 0.0


def test_mad_estimates_normal_sigma():
    # the 1.4826 factor makes MAD consistent for the normal scale
    rng = np.random.default_rng(42)
    sample = rng.standard_normal(200_000) * 3.0
    assert mad(sample) == pytest.approx(3.0, rel=0.02)


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50), st.floats(0.1, 10.0))
@settings(max_examples=100, deadline=None)
def test_mad_scale_equivariance(values, factor):
    v = np.asarray(values)
    assert mad(factor * v) == pytest.approx(factor * mad(v), rel=1e-9, abs=1e-9)


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50), st.floats(-100.0, 100.0))
@settings(max_examples=100, deadline=None)
def test_mad_shift_invariance(values, shift):
    v = np.asarray(values)
    assert mad(v + shift) == pytest.approx(mad(v), rel=1e-9, abs=1e-6)


# ---------------------------------------------------------------------------
# gradient_stats


def test_gradient_stats_flags_outlier():
    grad = np.array([1.0, 2.0, 3.0, 4.0, 100.0])
    smooth = np.array([0.5, 0.5, 0.5, 0.5, 0.5])
    stats = gradient_stats(grad, smooth, zscore_threshold=2.5)
    # z of the outlier is 97/1.4826, far above threshold
    assert stats.zscores[-1] == pytest.approx(97.0 / MAD_SCALE, rel=1e-12)
    assert not stats.normal_mask[-1]
    assert stats.normal_mask[:-1].all()
    assert stats.normal_max == 4.0
    assert stats.smooth_max == 0.5
    assert stats.balance_residual == pytest.approx(0.5 - 4.0)
    assert not stats.mad_degenerate
    assert not stats.mask_empty


def test_gradient_stats_all_normal_zero_residual():
    grad = np.array([0.1, -0.2, 0.15, -0.05])
    stats = gradient_stats(grad, grad.copy(), zscore_threshold=2.5)
    assert stats.normal_mask.all()
    # smooth part equals the full gradient, so the balance residual vanishes
    assert stats.balance_residual == pytest.approx(0.0, abs=1e-15)


def test_gradient_stats_degenerate_mad_counts_all_normal():
    grad = np.full(6, 2.0)
    smooth = np.linspace(0.0, 1.0, 6)
    stats = gradient_stats(grad, smooth, zscore_threshold=2.5)
    assert stats.mad_degenerate
    assert stats.normal_mask.all()
    assert np.array_equal(stats.zscores, np.zeros(6))
    assert stats.normal_max == 2.0


def test_gradient_stats_empty_mask_falls_back_to_full_gradient():
    # a threshold below ~0.674 sigma can exclude every entry; the fallback
    # treats the whole gradient as normal and flags the event
    grad = np.array([-3.0, -1.0, 1.0, 3.0])
    stats = gradient_stats(grad, grad * 0.5, zscore_threshold=0.1)
    assert stats.mask_empty
    assert stats.normal_max == 3.0


def test_gradient_stats_scale_equivariance():
    rng = np.random.default_rng(3)
    grad = rng.standard_normal(100)
    smooth = rng.standard_normal(100) * 0.3
    a = gradient_stats(grad, smooth, 2.5)
    b = gradient_stats(10.0 * grad, 10.0 * smooth, 2.5)
    assert np.allclose(b.zscores, a.zscores, atol=1e-10)
    assert np.array_equal(a.normal_mask, b.normal_mask)
    assert b.normal_max == pytest.approx(10.0 * a.normal_max, rel=1e-12)
    assert b.balance_residual == pytest.approx(10.0 * a.balance_residual, rel=1e-10)


def test_gradient_stats_validation():
    with pytest.raises(ValueError):
        gradient_stats(np.zeros(4), np.zeros(5), 2.5)
    with pytest.raises(ValueError):
        gradient_stats(np.zeros(4), np.zeros(4), 0.0)
    with pytest.raises(ValueError):
        gradient_stats(np.array([]), np.array([]), 2.5)


def test_gradient_stats_monotone_in_threshold():
    # raising the threshold can only add entries to the normal set
    rng = np.random.default_rng(11)
    grad = np.concatenate([rng.standard_normal(200), [15.0, -12.0, 30.0]])
    smooth = np.zeros_like(grad)
    previous = None
    for tau in (1.0, 2.0, 2.5, 3.0, 4.0):
        stats = gradient_stats(grad, smooth, tau)
        if previous is not None:
            assert (previous <= stats.normal_mask).all()
            assert stats.normal_max >= prev_max
        previous = stats.normal_mask
        prev_max = stats.normal_max


# ---------------------------------------------------------------------------
# update_balance


def make_stats(smooth_max, normal_max):
    n = 4
    return GradientStats(
        mad=1.0,
        zscores=np.zeros(n),
        normal_mask=np.ones(n, dtype=bool),
        normal_max=normal_max,
        smooth_max=smooth_max,
        balance_residual=smooth_max - normal_max,
    )


def test_update_balance_frozen_ratios():
    # smooth max three times normal max: factor (4*3/(3+1) - 1) = 2, halved
    # with the current value gives 1.5x
    assert update_balance(2.0, make_stats(3.0, 1.0)) == pytest.approx(3.0)
    # normal max three times smooth max: factor 0, average gives 0.5x
    assert update_balance(2.0, make_stats(1.0, 3.0)) == pytest.approx(1.0)


def test_update_balance_fixed_point_iff_balanced():
    assert update_balance(5.0, make_stats(2.0, 2.0)) == pytest.approx(5.0)
    assert update_balance(5.0, make_stats(2.0, 1.9)) > 5.0
    assert update_balance(5.0, make_stats(1.9, 2.0)) < 5.0


def test_update_balance_zero_denominator_keeps_value():
    assert update_balance(3.0, make_stats(0.0, 0.0)) == 3.0


def test_update_balance_stays_positive():
    # the averaged factor is bounded below by -1, so the clamp keeps beta > 0
    new = update_balance(4.0, make_stats(0.0, 10.0))
    assert new > 0.0
    assert new == pytest.approx(4.0 * 1e-12, rel=1e-6)


def test_update_balance_validation():
    with pytest.raises(ValueError):
        update_balance(0.0, make_stats(1.0, 1.0))
    with pytest.raises(ValueError):
        update_balance(-1.0, make_stats(1.0, 1.0))
    bad = make_stats(np.nan, 1.0)
    with pytest.raises(ValueError):
        update_balance(1.0, bad)


@given(
    st.floats(min_value=1e-6, max_value=1e6),
    st.floats(min_value=0.0, max_value=1e3),
    st.floats(min_value=0.0, max_value=1e3),
)
@settings(max_examples=200, deadline=None)
def test_update_balance_fixed_point_property(balance, a, b):
    new = update_balance(balance, make_stats(a, b))
    if a + b == 0.0:
        assert new == balance
    elif abs(a - b) <= 1e-15 * (a + b):
        assert new == pytest.approx(balance, rel=1e-9)
    elif a > b:
        assert new > balance
    else:
        assert new < balance


@given(st.floats(min_value=1e-6, max_value=1e6), st.floats(min_value=0.0, max_value=1e3))
@settings(max_examples=100, deadline=None)
def test_update_balance_bounded_growth(balance, a):
    # the multiplier lies in [1e-12, 3]
    b = 0.0
    new = update_balance(balance, make_stats(a, b))
    assert new <= 3.0 * balance + 1e-12
    assert new >= 1e-12 * balance * (1.0 - 1e-9)
