import numpy as np
import pytest

from tikhtv.admm import DivergenceError, IterationRecord, admm_run
from tikhtv.cli import (
    HISTORY_HEADER,
    ConfigError,
    admm_config_for,
    build_problems,
    format_history_row,
    integrate_smooth_gradient,
    main,
    parse_config_file,
    parse_config_text,
    write_history_csv,
    write_image,
)
from tikhtv.operators import GridDims, make_derivative_operator


# ---------------------------------------------------------------------------
# config parsing


def test_parse_minimal_config_applies_defaults():
    cfg = parse_config_text("experiment = cs_1d\n")
    assert cfg.experiment == "cs_1d"
    assert cfg.seed == 0
    assert cfg.modes == ("combined",)
    assert cfg.n == 1024
    assert cfg.m_rows == 250
    assert cfg.signal == "all"
    assert cfg.epsilon_scale == 1.0
    assert cfg.noise_level == 0.001


def test_parse_comments_blanks_and_overrides():
    text = """
    # compressed sensing, small
    experiment = cs_1d

    n = 64
    m_rows = 32
    signal = mixed
    modes = combined, tv_only
    epsilon_scale = 1.05
    run_to_max_iter = no
    """
    cfg = parse_config_text(text)
    assert cfg.n == 64
    assert cfg.m_rows == 32
    assert cfg.signal == "mixed"
    assert cfg.modes == ("combined", "tv_only")
    assert cfg.epsilon_scale == 1.05
    assert cfg.run_to_max_iter is False


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("experiment = cs_1d\nnumber_of_angles = 4\n")


def test_parse_rejects_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config_text("experiment = cs_1d\nseed = 1\nseed = 2\n")


def test_parse_rejects_inapplicable_key():
    with pytest.raises(ConfigError, match="does not apply"):
        parse_config_text("experiment = cs_1d\nn_angles = 10\n")
    with pytest.raises(ConfigError, match="does not apply"):
        parse_config_text("experiment = denoise_2d\nm_rows = 10\n")


def test_parse_requires_experiment():
    with pytest.raises(ConfigError, match="experiment"):
        parse_config_text("seed = 3\n")


def test_parse_reports_source_and_line():
    with pytest.raises(ConfigError, match="myfile.cfg:3"):
        parse_config_text("experiment = cs_1d\n\nbogus line\n", source="myfile.cfg")


def test_parse_value_errors():
    with pytest.raises(ConfigError, match="expected an integer"):
        parse_config_text("experiment = cs_1d\nseed = many\n")
    with pytest.raises(ConfigError, match="expected a number"):
        parse_config_text("experiment = cs_1d\nepsilon_scale = big\n")
    with pytest.raises(ConfigError, match="finite"):
        parse_config_text("experiment = cs_1d\ncg_rel_tol = inf\n")
    with pytest.raises(ConfigError, match="boolean"):
        parse_config_text("experiment = cs_1d\nrun_to_max_iter = maybe\n")
    with pytest.raises(ConfigError, match="repeat"):
        parse_config_text("experiment = cs_1d\nmodes = combined, combined\n")
    with pytest.raises(ConfigError):
        parse_config_text("experiment = teleport\n")


def test_parse_validation_bounds():
    with pytest.raises(ConfigError, match="epsilon_scale"):
        parse_config_text("experiment = cs_1d\nepsilon_scale = 0\n")
    with pytest.raises(ConfigError, match="noise_level"):
        parse_config_text("experiment = cs_1d\nnoise_level = -0.1\n")
    with pytest.raises(ConfigError, match="max_iter"):
        parse_config_text("experiment = cs_1d\nmax_iter = 0\n")
    with pytest.raises(ConfigError, match="pick_fraction"):
        parse_config_text("experiment = dix_1d\npick_fraction = 1.5\n")
    with pytest.raises(ConfigError, match="angle"):
        parse_config_text("experiment = xray_full\nangle_min = 50\nangle_max = 40\n")


def test_parse_config_file_missing(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config_file(tmp_path / "nope.cfg")


def test_config_error_is_value_error():
    assert issubclass(ConfigError, ValueError)


def test_epsilon_scale_scales_solver_budget():
    cfg = parse_config_text("experiment = cs_1d\nn = 64\nm_rows = 32\nsignal = mixed\n"
                            "epsilon_scale = 1.1\n")
    _, problem = build_problems(cfg)[0]
    solver_cfg = admm_config_for(cfg, problem, "combined")
    assert solver_cfg.noise_energy == pytest.approx(1.1 * problem.noise_energy, rel=1e-12)
    assert solver_cfg.budget_weight == cfg.budget_weight
    assert solver_cfg.cg.rel_tol == cfg.cg_rel_tol


def test_build_problems_sublabels():
    cfg = parse_config_text("experiment = cs_1d\nn = 64\nm_rows = 32\n")
    runs = build_problems(cfg)
    assert [label for label, _ in runs] == ["smooth", "piecewise_smooth", "blocky", "mixed"]
    single = build_problems(parse_config_text("experiment = cs_1d\nn = 64\nm_rows = 32\nsignal = blocky\n"))
    assert [label for label, _ in single] == [None]


def test_build_problems_deterministic():
    cfg = parse_config_text("experiment = dix_1d\nn = 64\n")
    _, a = build_problems(cfg)[0]
    _, b = build_problems(cfg)[0]
    assert np.array_equal(a.data, b.data)


# ---------------------------------------------------------------------------
# history CSV


def sample_history():
    return [
        IterationRecord(1, 1.0 / 3.0, -2.5e-7, 1.0, 0.125, np.inf, None, 4),
        IterationRecord(2, 0.1234567890123456789, 1e-300, 17.25, -3.0, 0.5, 0.25, 7),
    ]


def test_history_header_and_shape(tmp_path):
    path = tmp_path / "history.csv"
    write_history_csv(sample_history(), path)
    lines = path.read_text().splitlines()
    assert lines[0] == HISTORY_HEADER
    assert len(lines) == 3
    # rel_error column is empty without ground truth
    assert lines[1].split(",")[6] == ""
    assert lines[1].split(",")[0] == "1"
    assert lines[1].split(",")[7] == "4"


def test_history_roundtrip_bit_exact(tmp_path):
    path = tmp_path / "history.csv"
    history = sample_history()
    write_history_csv(history, path)
    lines = path.read_text().splitlines()[1:]
    for record, line in zip(history, lines):
        parts = line.split(",")
        assert int(parts[0]) == record.iteration
        assert float(parts[1]) == record.discrepancy
        assert float(parts[2]) == record.budget_gap
        assert float(parts[3]) == record.balance
        assert float(parts[4]) == record.balance_residual
        assert float(parts[5]) == record.rel_change
        if record.rel_error is not None:
            assert float(parts[6]) == record.rel_error
        assert int(parts[7]) == record.cg_iters


def test_format_history_row_matches_column_order():
    row = format_history_row(sample_history()[1])
    assert row.split(",")[0] == "2"
    assert len(row.split(",")) == len(HISTORY_HEADER.split(","))


# ---------------------------------------------------------------------------
# images


def test_write_image_pgm16_frozen_bytes(tmp_path):
    path = tmp_path / "img.pgm"
    # vector is column-stacked: grid rows are [0, 2] and [1, 3]
    write_image(np.array([0.0, 1.0, 2.0, 3.0]), GridDims(2, 2), path, "pgm16")
    blob = path.read_bytes()
    header = b"P5\n2 2\n65535\n"
    assert blob.startswith(header)
    samples = np.frombuffer(blob[len(header):], dtype=">u2")
    assert samples.tolist() == [0, 43690, 21845, 65535]
    sidecar = (tmp_path / "img.pgm.range.txt").read_text()
    assert sidecar == "min=0\nmax=3\n"


def test_write_image_constant_is_zero(tmp_path):
    path = tmp_path / "flat.pgm"
    write_image(np.full(6, 4.25), GridDims(2, 3), path, "pgm16")
    blob = path.read_bytes()
    header = b"P5\n3 2\n65535\n"
    samples = np.frombuffer(blob[len(header):], dtype=">u2")
    assert not samples.any()
    assert (tmp_path / "flat.pgm.range.txt").read_text() == "min=4.25\nmax=4.25\n"


def test_write_image_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    dims = GridDims(5, 4)
    values = rng.standard_normal(dims.n)
    path = tmp_path / "img.csv"
    write_image(values, dims, path, "csv")
    loaded = np.loadtxt(path, delimiter=",")
    assert loaded.shape == (5, 4)
    assert np.allclose(dims.to_vector(loaded), values, rtol=1e-15, atol=0)


def test_write_image_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError, match="image format"):
        write_image(np.zeros(4), GridDims(2, 2), tmp_path / "x.img", "jpeg")


# ---------------------------------------------------------------------------
# decomposition gauge


def test_integrate_smooth_gradient_1d_exact():
    n = 32
    potential = np.cos(np.linspace(0.0, 2.0, n))
    potential -= potential.mean()
    grad = make_derivative_operator("grad", GridDims(n, 1)).forward(potential)
    recovered = integrate_smooth_gradient(grad, GridDims(n, 1))
    assert np.allclose(recovered, potential, atol=1e-12)
    assert abs(recovered.mean()) <= 1e-14


def test_integrate_smooth_gradient_2d_recovers_potential():
    dims = GridDims(24, 18)
    x = np.linspace(-1.0, 1.0, dims.nx)
    z = np.linspace(-1.0, 1.0, dims.nz)
    xx, zz = np.meshgrid(x, z)
    potential = np.cos(1.3 * xx) * np.sin(0.7 * zz) + 0.2 * xx
    vec = dims.to_vector(potential)
    vec -= vec.mean()
    grad = make_derivative_operator("grad", dims).forward(vec)
    recovered = integrate_smooth_gradient(grad, dims)
    assert np.linalg.norm(recovered - vec) <= 1e-6 * np.linalg.norm(vec)


# ---------------------------------------------------------------------------
# end-to-end runs


MINI_CS = (
    "experiment = cs_1d\nn = 64\nm_rows = 32\nsignal = mixed\n"
    "max_iter = 30\nbudget_weight = 10\n"
)


def run_mini(tmp_path, name="mini.cfg", text=MINI_CS, extra_args=()):
    cfg_path = tmp_path / name
    cfg_path.write_text(text)
    out = tmp_path / "out"
    code = main(["solve", str(cfg_path), "--out", str(out), *extra_args])
    return code, out


def test_solve_writes_expected_files(tmp_path, capsys):
    code, out = run_mini(tmp_path)
    assert code == 0
    assert f"wrote {out}" in capsys.readouterr().out
    mode_dir = out / "combined"
    for name in ("history.csv", "m_est.csv", "m1.csv", "m2.csv", "e_est.csv", "summary.txt"):
        assert (mode_dir / name).exists()
    # 1-d runs write no binary image
    assert not list(mode_dir.glob("*.pgm"))
    lines = (mode_dir / "history.csv").read_text().splitlines()
    assert lines[0] == HISTORY_HEADER
    assert len(lines) == 31
    summary = (mode_dir / "summary.txt").read_text()
    assert "mode=combined" in summary
    assert "iterations=30" in summary
    assert "wall_time_s=" in summary
    assert "m1 = m_est - m2" in summary


def test_solve_decomposition_splits_model(tmp_path):
    code, out = run_mini(tmp_path)
    assert code == 0
    mode_dir = out / "combined"
    m_est = np.loadtxt(mode_dir / "m_est.csv", delimiter=",")
    m1 = np.loadtxt(mode_dir / "m1.csv", delimiter=",")
    m2 = np.loadtxt(mode_dir / "m2.csv", delimiter=",")
    assert np.allclose(m1 + m2, m_est, atol=1e-12)
    assert abs(m2.mean()) <= 1e-12


def test_solve_2d_writes_pgm(tmp_path):
    text = "experiment = decompose_2d\nnz = 16\nnx = 16\nmax_iter = 20\n"
    code, out = run_mini(tmp_path, text=text)
    assert code == 0
    mode_dir = out / "combined"
    for name in ("m_est", "m1", "m2"):
        assert (mode_dir / f"{name}.csv").exists()
        assert (mode_dir / f"{name}.pgm").exists()
        assert (mode_dir / f"{name}.pgm.range.txt").exists()


def test_solve_mode_flags(tmp_path):
    code, out = run_mini(tmp_path, extra_args=("--mode", "tv_only", "--mode", "tv_only"))
    assert code == 0
    assert (out / "tv_only").is_dir()
    assert not (out / "combined").exists()


def test_solve_multi_signal_sublabels(tmp_path):
    text = "experiment = cs_1d\nn = 64\nm_rows = 32\nmax_iter = 5\nbudget_weight = 10\n"
    code, out = run_mini(tmp_path, text=text)
    assert code == 0
    for kind in ("smooth", "piecewise_smooth", "blocky", "mixed"):
        assert (out / kind / "combined" / "history.csv").exists()


def strip_wall_time(text: str) -> str:
    return " ".join(tok for tok in text.split() if not tok.startswith("wall_time_s="))


def test_solve_reruns_byte_identical(tmp_path):
    _, out_a = run_mini(tmp_path)
    cfg_path = tmp_path / "mini.cfg"
    out_b = tmp_path / "out_b"
    assert main(["solve", str(cfg_path), "--out", str(out_b)]) == 0
    for name in ("history.csv", "m_est.csv", "m1.csv", "m2.csv", "e_est.csv"):
        assert (out_a / "combined" / name).read_bytes() == (out_b / "combined" / name).read_bytes()
    assert strip_wall_time((out_a / "combined" / "summary.txt").read_text()) == strip_wall_time(
        (out_b / "combined" / "summary.txt").read_text()
    )


def test_solve_seed_and_max_iter_overrides(tmp_path):
    _, out_a = run_mini(tmp_path)
    cfg_path = tmp_path / "mini.cfg"
    out_seed = tmp_path / "out_seed"
    assert main(["solve", str(cfg_path), "--out", str(out_seed), "--seed", "5"]) == 0
    assert (out_a / "combined" / "history.csv").read_bytes() != (
        out_seed / "combined" / "history.csv"
    ).read_bytes()
    out_short = tmp_path / "out_short"
    assert main(["solve", str(cfg_path), "--out", str(out_short), "--max-iter", "10"]) == 0
    assert len((out_short / "combined" / "history.csv").read_text().splitlines()) == 11


def test_solve_env_output_root(tmp_path, monkeypatch):
    cfg_path = tmp_path / "mini.cfg"
    cfg_path.write_text(MINI_CS)
    monkeypatch.setenv("TIKHTV_OUT", str(tmp_path / "envroot"))
    assert main(["solve", str(cfg_path)]) == 0
    assert (tmp_path / "envroot" / "cs_1d" / "combined" / "history.csv").exists()


@pytest.mark.parametrize("line", ["noise_level = nan", "split_weight = 0.5", "cg_max_iter = 0"])
def test_solve_rejects_bad_solver_settings_cleanly(tmp_path, capsys, line):
    code, out = run_mini(tmp_path, text=f"experiment = dix_1d\nmax_iter = 3\n{line}\n")
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error:")
    assert "Traceback" not in err
    assert not out.exists()


NON_FINITE_NOISE = {
    "dix_1d": "experiment = dix_1d\nnoise_level = 1e308\nmax_iter = 3\n",
    "denoise_2d": "experiment = denoise_2d\nnz = 16\nnx = 16\nnoise_level = 1e308\nmax_iter = 3\n",
    # finite data whose noise budget ||e||^2 overflows
    "denoise_2d_budget": "experiment = denoise_2d\nnz = 16\nnx = 16\nnoise_level = 1e200\nmax_iter = 3\n",
}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("name", sorted(NON_FINITE_NOISE))
def test_non_finite_inputs_raise_divergence_before_first_sweep(name):
    cfg = parse_config_text(NON_FINITE_NOISE[name])
    _, problem = build_problems(cfg)[0]
    seen = []
    with pytest.raises(DivergenceError, match="non-finite"):
        admm_run(problem, admm_config_for(cfg, problem, "combined"), callback=seen.append)
    assert seen == []


# finite data and budget that overflow inside a sweep, not before the first
SWEEP_OVERFLOW = {"dix_1d_in_sweep": "experiment = dix_1d\nnoise_level = 1e148\nmax_iter = 3\n"}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("name", sorted(NON_FINITE_NOISE) + sorted(SWEEP_OVERFLOW))
def test_solve_non_finite_data_exits_2_cleanly(tmp_path, capsys, name):
    code, _ = run_mini(tmp_path, text={**NON_FINITE_NOISE, **SWEEP_OVERFLOW}[name])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("solver diverged:")
    assert "Traceback" not in err


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_in_sweep_failures_raise_divergence_naming_the_iteration(monkeypatch):
    cfg = parse_config_text(SWEEP_OVERFLOW["dix_1d_in_sweep"])
    _, problem = build_problems(cfg)[0]
    with pytest.raises(DivergenceError, match="model update at iteration 1") as info:
        admm_run(problem, admm_config_for(cfg, problem, "combined"))
    assert isinstance(info.value.__cause__, FloatingPointError)

    def non_finite_cubic(p, q):
        raise ValueError("cubic coefficients must be finite")

    monkeypatch.setattr("tikhtv.admm.max_real_root_depressed_cubic", non_finite_cubic)
    cfg = parse_config_text("experiment = dix_1d\nmax_iter = 3\n")
    _, problem = build_problems(cfg)[0]
    with pytest.raises(DivergenceError, match="noise update at iteration 1"):
        admm_run(problem, admm_config_for(cfg, problem, "combined"))


def test_cli_overrides_are_validated(tmp_path, capsys):
    text = "experiment = dix_1d\nmax_iter = 3\nmodes = tv_only\nsplit_weight = 0.5\n"
    for extra in (("--mode", "combined"), ("--max-iter", "0")):
        code, out = run_mini(tmp_path, text=text, extra_args=extra)
        assert code == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()


def test_solve_exit_codes(tmp_path, capsys, monkeypatch):
    # missing config
    assert main(["solve", str(tmp_path / "missing.cfg")]) == 1
    assert "config error" in capsys.readouterr().err
    # bad config content
    bad = tmp_path / "bad.cfg"
    bad.write_text("experiment = cs_1d\nwhatever = 3\n")
    assert main(["solve", str(bad)]) == 1
    # bad CLI usage
    assert main(["solve", str(bad), "--mode", "psychic"]) == 1
    assert main([]) == 1

    # solver divergence maps to 2 and cleans up partial outputs
    cfg_path = tmp_path / "mini.cfg"
    cfg_path.write_text(MINI_CS)

    def explode(problem, cfg, callback=None):
        raise DivergenceError("test blowup")

    monkeypatch.setattr("tikhtv.cli.admm_run", explode)
    out = tmp_path / "diverged"
    assert main(["solve", str(cfg_path), "--out", str(out)]) == 2
    assert "diverged" in capsys.readouterr().err
    assert not (out / "combined").exists()
    monkeypatch.undo()

    # unwritable output maps to 3
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    assert main(["solve", str(cfg_path), "--out", str(blocker / "sub")]) == 3
