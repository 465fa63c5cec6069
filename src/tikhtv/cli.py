"""Experiment runner and command-line front end.

Experiments are described by flat ``key = value`` config files; unknown or
inapplicable keys are hard errors so typos cannot silently change a run.
``tikhtv solve <config>`` builds the problem, runs the solver once per
requested mode and writes per-mode histories, model estimates, the
sparse/smooth decomposition and a summary.  A config file plus seed
determines every output byte except the wall-time field of the summary.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .admm import (
    MODES,
    AdmmConfig,
    DivergenceError,
    IterationRecord,
    admm_run,
    first_stable_iteration,
)
from .kernels import CgSettings, neumann_solve
from .operators import GridDims, identity, make_derivative_operator, make_gaussian_sensing, make_radon
from .problems import TestProblem, add_noise, make_dix_problem, make_phantom, make_test_signal

__all__ = [
    "EXPERIMENTS",
    "HISTORY_HEADER",
    "OUTPUT_ROOT_ENV",
    "ConfigError",
    "ExperimentConfig",
    "parse_config_file",
    "parse_config_text",
    "build_problems",
    "run_experiment",
    "integrate_smooth_gradient",
    "write_history_csv",
    "write_image",
    "main",
    "console_main",
]

EXPERIMENTS = (
    "cs_1d",
    "denoise_2d",
    "dix_1d",
    "dix_2d",
    "xray_full",
    "xray_limited",
    "decompose_2d",
)

SIGNAL_KINDS = ("smooth", "piecewise_smooth", "blocky", "mixed")
PHANTOM_KINDS = ("piecewise_smooth_2d", "shepp_logan", "smooth_blob_mix")

HISTORY_HEADER = "iter,discrepancy,constraint_gap,beta,phi,rel_change,rel_error,cg_iters"

# Environment variable naming the default output root directory.
OUTPUT_ROOT_ENV = "TIKHTV_OUT"


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description (defaults already applied)."""

    experiment: str
    seed: int
    modes: tuple[str, ...]
    epsilon_scale: float
    image_format: str
    out: str | None
    split_weight: float
    data_weight: float
    budget_weight: float
    zscore_threshold: float
    initial_balance: float
    balance_policy: str
    max_iter: int
    rel_change_tol: float
    run_to_max_iter: bool
    cg_rel_tol: float
    cg_max_iter: int
    cg_warm_start: bool
    noise_level: float
    noise_reference: str
    n: int | None = None
    m_rows: int | None = None
    signal: str | None = None
    nz: int | None = None
    nx: int | None = None
    phantom: str | None = None
    pick_fraction: float | None = None
    trace_fraction: float | None = None
    n_angles: int | None = None
    n_rays: int | None = None
    angle_min: float | None = None
    angle_max: float | None = None
    angle_endpoint: str = "auto"


# ---------------------------------------------------------------------------
# Config parsing.


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def _parse_choice(raw: str, choices) -> str:
    if raw not in choices:
        raise ConfigError(f"expected one of {', '.join(choices)}; got {raw!r}")
    return raw


def _parse_modes(raw: str) -> tuple[str, ...]:
    items = tuple(part.strip() for part in raw.split(",") if part.strip())
    if not items:
        raise ConfigError("modes must name at least one mode")
    for item in items:
        if item not in MODES:
            raise ConfigError(f"unknown mode {item!r}; choose from {', '.join(MODES)}")
    if len(set(items)) != len(items):
        raise ConfigError("modes must not repeat")
    return items


def _parse_int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"expected an integer, got {raw!r}") from exc


def _parse_float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"expected a number, got {raw!r}") from exc
    if not np.isfinite(value):
        raise ConfigError(f"expected a finite number, got {raw!r}")
    return value


# key -> (parser, applicable experiments or None for all)
_SCHEMA = {
    "experiment": (lambda raw: _parse_choice(raw, EXPERIMENTS), None),
    "seed": (_parse_int, None),
    "modes": (_parse_modes, None),
    "epsilon_scale": (_parse_float, None),
    "image_format": (lambda raw: _parse_choice(raw, ("pgm16", "csv")), None),
    "out": (str, None),
    "split_weight": (_parse_float, None),
    "data_weight": (_parse_float, None),
    "budget_weight": (_parse_float, None),
    "zscore_threshold": (_parse_float, None),
    "initial_balance": (_parse_float, None),
    "balance_policy": (lambda raw: _parse_choice(raw, ("adaptive", "fixed")), None),
    "max_iter": (_parse_int, None),
    "rel_change_tol": (_parse_float, None),
    "run_to_max_iter": (_parse_bool, None),
    "cg_rel_tol": (_parse_float, None),
    "cg_max_iter": (_parse_int, None),
    "cg_warm_start": (_parse_bool, None),
    "noise_level": (_parse_float, None),
    "noise_reference": (lambda raw: _parse_choice(raw, ("data_norm", "model_norm")), None),
    "n": (_parse_int, ("cs_1d", "dix_1d")),
    "m_rows": (_parse_int, ("cs_1d",)),
    "signal": (lambda raw: _parse_choice(raw, ("all",) + SIGNAL_KINDS), ("cs_1d",)),
    "nz": (_parse_int, ("denoise_2d", "decompose_2d", "dix_2d", "xray_full", "xray_limited")),
    "nx": (_parse_int, ("denoise_2d", "decompose_2d", "dix_2d", "xray_full", "xray_limited")),
    "phantom": (
        lambda raw: _parse_choice(raw, PHANTOM_KINDS),
        ("denoise_2d", "decompose_2d", "xray_full", "xray_limited"),
    ),
    "pick_fraction": (_parse_float, ("dix_1d",)),
    "trace_fraction": (_parse_float, ("dix_2d",)),
    "n_angles": (_parse_int, ("xray_full", "xray_limited")),
    "n_rays": (_parse_int, ("xray_full", "xray_limited")),
    "angle_min": (_parse_float, ("xray_full", "xray_limited")),
    "angle_max": (_parse_float, ("xray_full", "xray_limited")),
    "angle_endpoint": (
        lambda raw: _parse_choice(raw, ("auto", "true", "false")),
        ("xray_full", "xray_limited"),
    ),
}

_GLOBAL_DEFAULTS = dict(
    seed=0,
    modes=("combined",),
    epsilon_scale=1.0,
    image_format="pgm16",
    out=None,
    split_weight=10.0,
    data_weight=1.0,
    budget_weight=1.0,
    zscore_threshold=2.5,
    initial_balance=1.0,
    balance_policy="adaptive",
    rel_change_tol=1e-4,
    cg_rel_tol=1e-7,
    cg_max_iter=100,
    cg_warm_start=True,
    noise_reference="data_norm",
    angle_endpoint="auto",
)

_EXPERIMENT_DEFAULTS = {
    # budget_weight raised from the global default: with a tiny noise budget
    # the constraint multiplier climbs too slowly at unit weight and the
    # discrepancy would still sit far above epsilon after thousands of sweeps
    "cs_1d": dict(
        n=1024, m_rows=250, signal="all", noise_level=0.001,
        budget_weight=300.0, max_iter=3000, run_to_max_iter=True,
    ),
    "denoise_2d": dict(
        nz=256, nx=256, phantom="piecewise_smooth_2d", noise_level=0.3,
        noise_reference="model_norm", max_iter=500, run_to_max_iter=True,
    ),
    "decompose_2d": dict(
        nz=256, nx=256, phantom="piecewise_smooth_2d", noise_level=0.0,
        noise_reference="model_norm", max_iter=300, run_to_max_iter=False,
    ),
    "dix_1d": dict(
        n=512, pick_fraction=0.25, noise_level=0.001,
        max_iter=300, run_to_max_iter=True,
    ),
    "dix_2d": dict(
        nz=96, nx=128, trace_fraction=0.3, noise_level=0.001,
        max_iter=200, run_to_max_iter=False,
    ),
    "xray_full": dict(
        nz=128, nx=128, phantom="shepp_logan", n_angles=90, n_rays=181,
        angle_min=-90.0, angle_max=90.0, noise_level=0.01,
        max_iter=500, run_to_max_iter=False,
    ),
    "xray_limited": dict(
        nz=128, nx=128, phantom="smooth_blob_mix", n_angles=85, n_rays=181,
        angle_min=-42.0, angle_max=42.0, noise_level=0.001,
        max_iter=600, run_to_max_iter=True,
    ),
}


def parse_config_text(text: str, source: str = "<config>") -> ExperimentConfig:
    """Parse flat ``key = value`` config text into an ExperimentConfig.

    Blank lines and ``#`` comment lines are skipped.  Unknown keys, keys not
    applicable to the chosen experiment, repeated keys and malformed values
    are all hard errors.
    """
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key in raw:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        if key not in _SCHEMA:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        raw[key] = value

    if "experiment" not in raw:
        raise ConfigError(f"{source}: missing required key 'experiment'")
    experiment = _parse_choice(raw.pop("experiment"), EXPERIMENTS)

    values: dict = dict(experiment=experiment)
    values.update(_GLOBAL_DEFAULTS)
    values.update(_EXPERIMENT_DEFAULTS[experiment])
    for key, raw_value in raw.items():
        parser, applicable = _SCHEMA[key]
        if applicable is not None and experiment not in applicable:
            raise ConfigError(f"{source}: key {key!r} does not apply to experiment {experiment!r}")
        try:
            values[key] = parser(raw_value)
        except ConfigError as exc:
            raise ConfigError(f"{source}: key {key!r}: {exc}") from None

    cfg = ExperimentConfig(**values)
    _validate_config(cfg)
    return cfg


def parse_config_file(path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text, source=str(path))


def _validate_config(cfg: ExperimentConfig) -> None:
    if not cfg.epsilon_scale > 0.0:
        raise ConfigError("epsilon_scale must be positive")
    if cfg.noise_level < 0.0:
        raise ConfigError("noise_level must be non-negative")
    for name in ("n", "m_rows", "nz", "nx", "n_angles", "n_rays"):
        value = getattr(cfg, name)
        if value is not None and value < 1:
            raise ConfigError(f"{name} must be positive")
    for name in ("pick_fraction", "trace_fraction"):
        value = getattr(cfg, name)
        if value is not None and not 0.0 < value <= 1.0:
            raise ConfigError(f"{name} must lie in (0, 1]")
    if cfg.experiment in ("xray_full", "xray_limited"):
        if not -90.0 <= cfg.angle_min < cfg.angle_max <= 90.0:
            raise ConfigError("angles must satisfy -90 <= angle_min < angle_max <= 90")
    # the solver settings are checked where they are defined
    for mode in cfg.modes:
        try:
            _solver_config(cfg, mode, noise_energy=0.0)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------------------
# Problem construction.


def build_problems(cfg: ExperimentConfig) -> list[tuple[str | None, TestProblem]]:
    """Instantiate the experiment's test problems.

    Returns (sublabel, problem) pairs; the sublabel becomes an output
    subdirectory when an experiment contains several runs (the four cs_1d
    signals).
    """
    seed = cfg.seed
    if cfg.experiment == "cs_1d":
        operator = make_gaussian_sensing(cfg.m_rows, cfg.n, seed)
        kinds = SIGNAL_KINDS if cfg.signal == "all" else (cfg.signal,)
        out = []
        for i, kind in enumerate(kinds):
            truth = make_test_signal(kind, cfg.n)
            problem = TestProblem(
                operator=operator,
                data=operator.forward(truth),
                true_model=truth,
                true_noise=None,
                noise_energy=0.0,
                dims=GridDims(cfg.n, 1),
                seed=seed,
                label=f"cs_1d[{kind}]",
            )
            problem = add_noise(problem, cfg.noise_level, cfg.noise_reference, seed + 101 + i)
            out.append((kind if len(kinds) > 1 else None, problem))
        return out

    if cfg.experiment in ("denoise_2d", "decompose_2d"):
        dims = GridDims(cfg.nz, cfg.nx)
        truth = make_phantom(cfg.phantom, dims)
        operator = identity(dims.n)
        problem = TestProblem(
            operator=operator,
            data=truth.copy(),
            true_model=truth,
            true_noise=None,
            noise_energy=0.0,
            dims=dims,
            seed=seed,
            label=cfg.experiment,
        )
        problem = add_noise(problem, cfg.noise_level, cfg.noise_reference, seed + 101)
        return [(None, problem)]

    if cfg.experiment == "dix_1d":
        velocity = 2.2 + 0.6 * make_test_signal("mixed", cfg.n)
        problem = make_dix_problem(velocity, pick_fraction=cfg.pick_fraction, seed=seed)
        problem = add_noise(problem, cfg.noise_level, cfg.noise_reference, seed + 101)
        return [(None, problem)]

    if cfg.experiment == "dix_2d":
        dims = GridDims(cfg.nz, cfg.nx)
        velocity = 1.5 + 2.8 * dims.to_grid(make_phantom("piecewise_smooth_2d", dims))
        problem = make_dix_problem(velocity, pick_fraction=cfg.trace_fraction, seed=seed)
        problem = add_noise(problem, cfg.noise_level, cfg.noise_reference, seed + 101)
        return [(None, problem)]

    # xray_full / xray_limited
    dims = GridDims(cfg.nz, cfg.nx)
    truth = make_phantom(cfg.phantom, dims)
    if cfg.angle_endpoint == "auto":
        endpoint = (cfg.angle_max - cfg.angle_min) < 180.0
    else:
        endpoint = cfg.angle_endpoint == "true"
    angles = np.linspace(cfg.angle_min, cfg.angle_max, cfg.n_angles, endpoint=endpoint)
    operator = make_radon(dims, cfg.n_rays, angles)
    problem = TestProblem(
        operator=operator,
        data=operator.forward(truth),
        true_model=truth,
        true_noise=None,
        noise_energy=0.0,
        dims=dims,
        seed=seed,
        label=cfg.experiment,
    )
    problem = add_noise(problem, cfg.noise_level, cfg.noise_reference, seed + 101)
    return [(None, problem)]


def admm_config_for(cfg: ExperimentConfig, problem: TestProblem, mode: str) -> AdmmConfig:
    """The per-mode solver configuration, with the noise budget scaled by
    ``epsilon_scale``."""
    return _solver_config(cfg, mode, cfg.epsilon_scale * problem.noise_energy)


def _solver_config(cfg: ExperimentConfig, mode: str, noise_energy: float) -> AdmmConfig:
    return AdmmConfig(
        noise_energy=noise_energy,
        split_weight=cfg.split_weight,
        data_weight=cfg.data_weight,
        budget_weight=cfg.budget_weight,
        zscore_threshold=cfg.zscore_threshold,
        initial_balance=cfg.initial_balance,
        max_iter=cfg.max_iter,
        rel_change_tol=cfg.rel_change_tol,
        mode=mode,
        balance_policy=cfg.balance_policy,
        run_to_max_iter=cfg.run_to_max_iter,
        cg=CgSettings(
            rel_tol=cfg.cg_rel_tol,
            max_iter=cfg.cg_max_iter,
            warm_start=cfg.cg_warm_start,
        ),
    )


# ---------------------------------------------------------------------------
# Output writers.


def _fmt(value) -> str:
    return f"{float(value):.17g}"


def format_history_row(record: IterationRecord) -> str:
    rel_error = "" if record.rel_error is None else _fmt(record.rel_error)
    return ",".join(
        [
            str(record.iteration),
            _fmt(record.discrepancy),
            _fmt(record.budget_gap),
            _fmt(record.balance),
            _fmt(record.balance_residual),
            _fmt(record.rel_change),
            rel_error,
            str(record.cg_iters),
        ]
    )


def write_history_csv(history, path) -> None:
    """History CSV with one row per iteration and 17 significant digits, so
    parsed values round-trip bit-exactly."""
    with open(path, "w") as fh:
        fh.write(HISTORY_HEADER + "\n")
        for record in history:
            fh.write(format_history_row(record) + "\n")


def write_image(model, dims: GridDims, path, image_format: str) -> None:
    """Write a model vector as an image file.

    ``csv`` writes raw values row-major (one grid row per line).  ``pgm16``
    writes a binary 16-bit big-endian PGM scaled linearly from [min, max] to
    [0, 65535] (a constant image maps to zeros), with the data range stored
    in ``<path>.range.txt``.
    """
    grid = dims.to_grid(np.asarray(model, dtype=float))
    path = Path(path)
    if image_format == "csv":
        with open(path, "w") as fh:
            for row in grid:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        return
    if image_format != "pgm16":
        raise ValueError(f"unknown image format: {image_format!r}")
    lo = float(grid.min())
    hi = float(grid.max())
    if hi > lo:
        scaled = np.round((grid - lo) / (hi - lo) * 65535.0)
    else:
        scaled = np.zeros_like(grid)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{dims.nx} {dims.nz}\n65535\n".encode("ascii"))
        fh.write(scaled.astype(">u2").tobytes())
    with open(f"{path}.range.txt", "w") as fh:
        fh.write(f"min={_fmt(lo)}\nmax={_fmt(hi)}\n")


def integrate_smooth_gradient(smooth_grad, dims: GridDims) -> np.ndarray:
    """Potential of the smooth gradient component under a mean-zero gauge.

    The least-squares potential solves ``D'D m2 = D' g2``.  ``D'D`` is the
    Neumann Laplacian over all grid axes, so one exact ``neumann_solve``
    gives the solution whose constant mode is zero, i.e. the mean-zero one.
    """
    grad_op = make_derivative_operator("grad", dims)
    rhs = grad_op.adjoint(np.asarray(smooth_grad, dtype=float).ravel())
    # a 1-d model is solved along its one axis, not as an (n, 1) grid
    grid = np.squeeze(dims.to_grid(rhs))
    return dims.to_vector(neumann_solve(grid, 0.0, 1.0, axes=range(grid.ndim)))


# ---------------------------------------------------------------------------
# Experiment driver.


def _resolve_out_dir(cfg: ExperimentConfig, override: str | None) -> Path:
    if override:
        return Path(override)
    if cfg.out:
        return Path(cfg.out)
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root:
        return Path(root) / cfg.experiment
    return Path("runs") / cfg.experiment


def _run_one_mode(problem: TestProblem, cfg: ExperimentConfig, mode: str, mode_dir: Path) -> None:
    mode_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    try:
        solver_cfg = admm_config_for(cfg, problem, mode)
        history_path = mode_dir / "history.csv"
        written.append(history_path)
        start = time.perf_counter()
        with open(history_path, "w") as fh:
            fh.write(HISTORY_HEADER + "\n")

            def stream(record: IterationRecord) -> None:
                fh.write(format_history_row(record) + "\n")

            state, history = admm_run(problem, solver_cfg, callback=stream)
        elapsed = time.perf_counter() - start

        smooth_part = integrate_smooth_gradient(state.smooth_grad, problem.dims)
        sparse_part = state.model - smooth_part
        image_formats = ["csv"]
        if cfg.image_format == "pgm16" and not problem.dims.is_1d:
            image_formats.append("pgm16")
        for name, values in (
            ("m_est", state.model),
            ("m1", sparse_part),
            ("m2", smooth_part),
        ):
            for fmt in image_formats:
                suffix = "csv" if fmt == "csv" else "pgm"
                target = mode_dir / f"{name}.{suffix}"
                written.append(target)
                if fmt == "pgm16":
                    written.append(Path(f"{target}.range.txt"))
                write_image(values, problem.dims, target, fmt)
        noise_path = mode_dir / "e_est.csv"
        written.append(noise_path)
        with open(noise_path, "w") as fh:
            for value in state.noise:
                fh.write(_fmt(value) + "\n")

        final = history[-1]
        stable = first_stable_iteration(history, solver_cfg.rel_change_tol)
        summary_path = mode_dir / "summary.txt"
        written.append(summary_path)
        with open(summary_path, "w") as fh:
            fields = [
                f"mode={mode}",
                f"iterations={final.iteration}",
                f"stabilized_at={stable if stable is not None else '-'}",
                f"final_rel_error={_fmt(final.rel_error) if final.rel_error is not None else '-'}",
                f"final_balance={_fmt(final.balance)}",
                f"final_discrepancy={_fmt(final.discrepancy)}",
                f"noise_energy={_fmt(solver_cfg.noise_energy)}",
                f"wall_time_s={elapsed:.3f}",
            ]
            fh.write(" ".join(fields) + "\n")
            fh.write(
                "decomposition gauge: m2 is the mean-zero potential of the "
                "smooth gradient component; m1 = m_est - m2\n"
            )
    except BaseException:
        # do not leave partial outputs behind
        for target in written:
            try:
                target.unlink(missing_ok=True)
            except OSError:
                pass
        try:
            mode_dir.rmdir()
        except OSError:
            pass
        raise


def run_experiment(cfg: ExperimentConfig, out_override: str | None = None) -> Path:
    """Run every (problem, mode) combination of an experiment config.

    Outputs land in ``<out>/<sublabel>/<mode>/`` (the sublabel level only for
    multi-run experiments).  Returns the output root used.
    """
    out_dir = _resolve_out_dir(cfg, out_override)
    for sublabel, problem in build_problems(cfg):
        base = out_dir / sublabel if sublabel else out_dir
        for mode in cfg.modes:
            _run_one_mode(problem, cfg, mode, base / mode)
    return out_dir


# ---------------------------------------------------------------------------
# Command line.


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def main(argv=None) -> int:
    """Entry point; returns the process exit code.

    0 on success, 1 on configuration errors, 2 on non-finite data or noise
    budget and on solver divergence, 3 on output I/O failures.
    """
    parser = _Parser(prog="tikhtv", description="Balanced TV/Tikhonov splitting experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    solve = sub.add_parser("solve", help="run an experiment config")
    solve.add_argument("config", help="path to a key = value config file")
    solve.add_argument("--out", help="output directory (overrides config and environment)")
    solve.add_argument("--seed", type=int, help="override the config seed")
    solve.add_argument("--max-iter", type=int, dest="max_iter", help="override the iteration cap")
    solve.add_argument(
        "--mode",
        action="append",
        choices=MODES,
        help="solver mode; repeat the flag to run several modes",
    )

    try:
        args = parser.parse_args(argv)
        cfg = parse_config_file(args.config)
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.max_iter is not None:
            overrides["max_iter"] = args.max_iter
        if args.mode:
            overrides["modes"] = tuple(dict.fromkeys(args.mode))
        if overrides:
            cfg = dataclasses.replace(cfg, **overrides)
            _validate_config(cfg)
        out_dir = run_experiment(cfg, out_override=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DivergenceError as exc:
        print(f"solver diverged: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {out_dir}")
    return 0


def console_main() -> None:
    sys.exit(main())
