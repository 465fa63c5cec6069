import numpy as np
import pytest

from tikhtv.operators import GridDims, compose, identity, make_derivative_operator, to_dense
from tikhtv.problems import add_noise, make_dix_problem, make_phantom, make_test_signal
from tikhtv.robust import gradient_stats

BLOCKY_JUMPS = [1.1, -0.8, 1.2, -1.9, 1.1]


# ---------------------------------------------------------------------------
# 1-d signals


def test_signal_validation():
    with pytest.raises(ValueError):
        make_test_signal("blocky", 15)
    with pytest.raises(ValueError):
        make_test_signal("sawtooth", 64)


def test_blocky_has_exactly_five_jumps():
    for n in (64, 256, 1024):
        sig = make_test_signal("blocky", n)
        grad = np.diff(sig)
        nonzero = grad[grad != 0.0]
        assert len(nonzero) == 5
        assert np.allclose(sorted(nonzero), sorted(BLOCKY_JUMPS), rtol=1e-12)


def test_smooth_signal_difference_bounds():
    # first differences scale like 1/n; second differences like 1/n^2
    # (the cosines have zero slope at both boundaries)
    for n in (64, 256, 1024):
        sig = make_test_signal("smooth", n)
        assert np.max(np.abs(np.diff(sig))) <= 9.0 / n
        dims = GridDims(n, 1)
        d2 = compose(make_derivative_operator("component_grad", dims), make_derivative_operator("grad", dims))
        assert np.max(np.abs(d2.forward(sig))) <= 80.0 / n**2


def test_signals_resample_consistently():
    # t = (i + 0.5)/n makes the coarse signal the cell-midpoint sample of the
    # same closed form, so away from jumps it matches the fine-pair average
    for kind in ("smooth", "blocky", "piecewise_smooth", "mixed"):
        coarse = make_test_signal(kind, 256)
        fine = make_test_signal(kind, 512)
        pair_avg = 0.5 * (fine[0::2] + fine[1::2])
        no_jump = np.abs(fine[1::2] - fine[0::2]) < 0.05
        scale = np.max(np.abs(coarse))
        assert np.max(np.abs(coarse - pair_avg)[no_jump]) <= 0.01 * scale


def test_mixed_contains_ramp_and_jumps():
    sig = make_test_signal("mixed", 512)
    grad = np.diff(sig)
    stats = gradient_stats(np.concatenate([grad, [0.0]]), np.zeros(512), 2.5)
    # jump entries stand out of the smooth/ramp background
    assert 0 < np.count_nonzero(~stats.normal_mask) <= 25


def test_signal_determinism():
    a = make_test_signal("mixed", 128)
    b = make_test_signal("mixed", 128)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# 2-d phantoms


def test_phantom_validation():
    with pytest.raises(ValueError):
        make_phantom("shepp_logan", GridDims(64, 1))
    with pytest.raises(ValueError):
        make_phantom("shepp_logan", GridDims(8, 64))
    with pytest.raises(ValueError):
        make_phantom("martian", GridDims(64, 64))


def test_shepp_logan_values():
    dims = GridDims(128, 128)
    img = dims.to_grid(make_phantom("shepp_logan", dims))
    # additive ellipse values cancel to zero only up to 1-ulp dust
    assert img.min() >= -1e-15
    assert img.max() <= 1.0
    # exterior is exactly zero, interior brain tissue is 0.2
    assert img[0, 0] == 0.0
    assert img[-1, -1] == 0.0
    assert img[64, 64] == pytest.approx(0.2)
    # skull shell carries the full value 1.0
    assert img.max() == pytest.approx(1.0)


def test_piecewise_smooth_phantom_structure():
    dims = GridDims(64, 64)
    vec = make_phantom("piecewise_smooth_2d", dims)
    img = dims.to_grid(vec)
    assert -0.5 <= img.min() and img.max() <= 1.7
    # gradient splits into a smooth bulk and a sparse population of edges
    grad = make_derivative_operator("grad", dims).forward(vec)
    stats = gradient_stats(grad, np.zeros_like(grad), 2.5)
    anomalies = np.count_nonzero(~stats.normal_mask)
    assert 0 < anomalies < 0.1 * grad.size
    # the first disc is a 0.75 step on top of the smooth background
    xx = (2.0 * (np.arange(64) + 0.5)) / 64 - 1.0
    yy = 1.0 - (2.0 * (np.arange(64) + 0.5)) / 64
    xg, yg = np.meshgrid(xx, yy)
    disc = (xg + 0.4) ** 2 + (yg - 0.35) ** 2 <= 0.2**2
    background = 0.3 + 0.45 * np.cos(np.pi * np.hypot(xg, yg) / 1.6)
    background += 0.06 * np.cos(4.0 * np.pi * xg) * np.cos(4.0 * np.pi * yg)
    assert np.allclose(img[disc] - background[disc], 0.75, atol=1e-12)


def test_smooth_blob_mix_structure():
    dims = GridDims(96, 96)
    vec = make_phantom("smooth_blob_mix", dims)
    img = dims.to_grid(vec)
    assert img.min() >= 0.0
    assert 0.7 <= img.max() <= 1.6
    grad = make_derivative_operator("grad", dims).forward(vec)
    stats = gradient_stats(grad, np.zeros_like(grad), 2.5)
    assert np.count_nonzero(~stats.normal_mask) > 0


def test_phantom_determinism():
    dims = GridDims(32, 48)
    assert np.array_equal(
        make_phantom("piecewise_smooth_2d", dims), make_phantom("piecewise_smooth_2d", dims)
    )


# ---------------------------------------------------------------------------
# Dix problems


def test_dix_constant_velocity_data():
    v = np.full(20, 2.0)
    problem = make_dix_problem(v, pick_fraction=1.0)
    assert np.allclose(problem.data, 4.0 * np.arange(1, 21))
    assert np.array_equal(problem.true_model, np.full(20, 4.0))
    assert problem.noise_energy == 0.0
    assert problem.true_noise is None


def test_dix_full_picks_recoverable_by_differencing():
    v = 1.5 + 0.5 * np.abs(np.sin(np.arange(30) / 3.0))
    problem = make_dix_problem(v, pick_fraction=1.0)
    recovered = np.diff(problem.data, prepend=0.0)
    assert np.allclose(recovered, v**2, rtol=1e-12)


def test_dix_fraction_one_picks_everything():
    v = np.full(10, 2.0)
    problem = make_dix_problem(v, pick_fraction=1.0, seed=3)
    assert problem.operator.rows == 10
    assert np.allclose(problem.data, 4.0 * np.arange(1, 11))


def test_dix_stratified_picks_one_per_window():
    v = np.full(64, 2.0)
    for seed in (0, 1, 2):
        problem = make_dix_problem(v, pick_fraction=0.25, seed=seed)
        assert problem.operator.rows == 16
        # recover the picked rows from the constant-velocity data
        picks = np.rint(problem.data / 4.0).astype(int)
        assert np.all(np.diff(picks) > 0)
        for k, pick in enumerate(picks):
            assert 4 * k + 1 <= pick <= 4 * (k + 1)


def test_dix_data_in_operator_range():
    v = 2.0 + 0.5 * np.cos(np.arange(64) / 5.0)
    problem = make_dix_problem(v, pick_fraction=0.25, seed=1)
    dense = to_dense(problem.operator)
    assert dense.shape == (16, 64)
    coef, *_ = np.linalg.lstsq(dense, problem.data, rcond=None)
    assert np.linalg.norm(dense @ coef - problem.data) <= 1e-10


def test_dix_2d_kron_structure():
    rng = np.random.default_rng(4)
    v = 1.5 + rng.uniform(0.0, 1.0, size=(8, 6))
    problem = make_dix_problem(v, pick_fraction=0.5, seed=2)
    dims = problem.dims
    assert (dims.nz, dims.nx) == (8, 6)
    assert problem.operator.cols == 48
    # the operator integrates each trace down depth, then picks whole traces
    m_grid = dims.to_grid(problem.true_model)
    integrated = np.cumsum(m_grid, axis=0)
    got = problem.operator.forward(problem.true_model)
    n_picked = problem.operator.rows // 8
    picked_cols = []
    for j in range(6):
        col = integrated[:, j]
        for k in range(n_picked):
            if np.allclose(got[k * 8 : (k + 1) * 8], col):
                picked_cols.append(j)
    assert len(picked_cols) == n_picked
    assert np.all(np.diff(picked_cols) > 0)


def test_dix_validation():
    v = np.full(20, 2.0)
    with pytest.raises(ValueError):
        make_dix_problem(np.zeros(20), pick_fraction=0.5)
    with pytest.raises(ValueError):
        make_dix_problem(v, pick_fraction=1.5)
    with pytest.raises(ValueError):
        make_dix_problem(v.reshape(2, 2, 5), pick_fraction=0.5)
    with pytest.raises(ValueError):
        make_dix_problem(v, pick_fraction=0.0)


# ---------------------------------------------------------------------------
# noise injection


def base_problem(n=64, kind="mixed", seed=0):
    from tikhtv.problems import TestProblem

    truth = make_test_signal(kind, n)
    op = identity(n)
    return TestProblem(
        operator=op,
        data=truth.copy(),
        true_model=truth,
        true_noise=None,
        noise_energy=0.0,
        dims=GridDims(n, 1),
        seed=seed,
        label="clean",
    )


def test_add_noise_exact_energy():
    problem = base_problem()
    noisy = add_noise(problem, 0.05, "data_norm", seed=5)
    clean = problem.data
    assert np.linalg.norm(noisy.true_noise) == pytest.approx(
        0.05 * np.linalg.norm(clean), rel=1e-12
    )
    # the stored budget is exactly the realised energy
    assert noisy.noise_energy == float(noisy.true_noise @ noisy.true_noise)
    assert np.allclose(noisy.data, clean + noisy.true_noise, rtol=0, atol=1e-15)


def test_add_noise_model_norm_reference():
    problem = base_problem()
    noisy = add_noise(problem, 0.3, "model_norm", seed=9)
    assert np.linalg.norm(noisy.true_noise) == pytest.approx(
        0.3 * np.linalg.norm(problem.true_model), rel=1e-12
    )


def test_add_noise_zero_level():
    problem = base_problem()
    noisy = add_noise(problem, 0.0, "data_norm", seed=5)
    assert np.array_equal(noisy.data, problem.data)
    assert noisy.noise_energy == 0.0


def test_add_noise_determinism_and_seeding():
    problem = base_problem()
    a = add_noise(problem, 0.1, "data_norm", seed=5)
    b = add_noise(problem, 0.1, "data_norm", seed=5)
    c = add_noise(problem, 0.1, "data_norm", seed=6)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)


def test_add_noise_reuses_noiseless_data():
    from dataclasses import replace

    problem = base_problem()
    op, forwards = problem.operator, []
    counted = replace(problem, operator=replace(op, forward=lambda x: forwards.append(1) or op.forward(x)))
    noisy = add_noise(counted, 0.1, "data_norm", seed=5)
    assert forwards == []
    assert np.array_equal(noisy.data, problem.data + noisy.true_noise)
    # a noisy problem's data are not clean: re-noising recomputes them
    renoised = add_noise(noisy, 0.2, "data_norm", seed=6)
    assert forwards == [1]
    assert np.array_equal(renoised.data, problem.data + renoised.true_noise)


def test_add_noise_validation():
    problem = base_problem()
    with pytest.raises(ValueError):
        add_noise(problem, -0.1)
    with pytest.raises(ValueError):
        add_noise(problem, 0.1, "spectral_norm")
    from dataclasses import replace

    with pytest.raises(ValueError):
        add_noise(replace(problem, true_model=None), 0.1)
