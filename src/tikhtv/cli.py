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
import contextlib
import dataclasses
import os
import sys
import time
import typing
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
from .problems import (
    TestProblem,
    add_noise,
    make_dix_problem,
    make_phantom,
    make_test_signal,
    synthetic_problem,
)

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
    """Fully resolved experiment description (defaults already applied).

    ``solver`` is the template of every run's solver settings: the config's
    solver keys over the ``AdmmConfig``/``CgSettings`` defaults and the
    experiment's defaults.  Its ``mode`` (the first of ``modes``) and its
    zero ``noise_energy`` are placeholders that ``admm_config_for`` sets
    per run.
    """

    experiment: str
    seed: int
    modes: tuple[str, ...]
    epsilon_scale: float
    image_format: str
    out: str | None
    noise_level: float
    noise_reference: str
    solver: AdmmConfig
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


# The solver keys are the AdmmConfig fields that a config sets once for all
# runs, plus cg_<name> for each CgSettings field; each is parsed by its type.
_SOLVER_KEYS = {
    name: kind
    for name, kind in typing.get_type_hints(AdmmConfig).items()
    if name not in ("noise_energy", "mode", "cg")
}
_CG_KEYS = {f"cg_{name}": kind for name, kind in typing.get_type_hints(CgSettings).items()}
_TYPE_PARSERS = {float: _parse_float, int: _parse_int, bool: _parse_bool, str: str}

# key -> parser.  A key other than a solver key applies to an experiment
# when the global or the experiment's defaults hold it.
_SCHEMA = {
    **{key: _TYPE_PARSERS[kind] for key, kind in {**_SOLVER_KEYS, **_CG_KEYS}.items()},
    "experiment": lambda raw: _parse_choice(raw, EXPERIMENTS),
    "seed": _parse_int,
    "modes": _parse_modes,
    "epsilon_scale": _parse_float,
    "image_format": lambda raw: _parse_choice(raw, ("pgm16", "csv")),
    "out": str,
    "noise_level": _parse_float,
    "noise_reference": lambda raw: _parse_choice(raw, ("data_norm", "model_norm")),
    "n": _parse_int,
    "m_rows": _parse_int,
    "signal": lambda raw: _parse_choice(raw, ("all",) + SIGNAL_KINDS),
    "nz": _parse_int,
    "nx": _parse_int,
    "phantom": lambda raw: _parse_choice(raw, PHANTOM_KINDS),
    "pick_fraction": _parse_float,
    "trace_fraction": _parse_float,
    "n_angles": _parse_int,
    "n_rays": _parse_int,
    "angle_min": _parse_float,
    "angle_max": _parse_float,
    "angle_endpoint": lambda raw: _parse_choice(raw, ("auto", "true", "false")),
}

# the solver keys default to the AdmmConfig/CgSettings defaults
_GLOBAL_DEFAULTS = dict(
    seed=0,
    modes=("combined",),
    epsilon_scale=1.0,
    image_format="pgm16",
    out=None,
    noise_reference="data_norm",
)

# per-experiment values, solver keys included, over the global defaults
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
        angle_min=-90.0, angle_max=90.0, angle_endpoint="auto", noise_level=0.01,
        max_iter=500, run_to_max_iter=False,
    ),
    "xray_limited": dict(
        nz=128, nx=128, phantom="smooth_blob_mix", n_angles=85, n_rays=181,
        angle_min=-42.0, angle_max=42.0, angle_endpoint="auto", noise_level=0.001,
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

    defaults = {**_GLOBAL_DEFAULTS, **_EXPERIMENT_DEFAULTS[experiment]}
    values = {"experiment": experiment, **defaults}
    for key, raw_value in raw.items():
        if key not in defaults and key not in _SOLVER_KEYS and key not in _CG_KEYS:
            raise ConfigError(f"{source}: key {key!r} does not apply to experiment {experiment!r}")
        try:
            values[key] = _SCHEMA[key](raw_value)
        except ConfigError as exc:
            raise ConfigError(f"{source}: key {key!r}: {exc}") from None

    cg = {key[len("cg_"):]: values.pop(key) for key in _CG_KEYS if key in values}
    solver = {key: values.pop(key) for key in _SOLVER_KEYS if key in values}
    with _solver_errors():
        template = AdmmConfig(noise_energy=0.0, mode=values["modes"][0], cg=CgSettings(**cg), **solver)
    cfg = ExperimentConfig(solver=template, **values)
    _validate_config(cfg)
    return cfg


def parse_config_file(path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text, source=str(path))


@contextlib.contextmanager
def _solver_errors():
    """Report the solver settings' own checks (``__post_init__``) as
    ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


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
        with _solver_errors():
            dataclasses.replace(cfg.solver, mode=mode)


# ---------------------------------------------------------------------------
# Problem construction.


def build_problems(cfg: ExperimentConfig) -> list[tuple[str | None, TestProblem]]:
    """Instantiate the experiment's test problems.

    Returns (sublabel, problem) pairs; the sublabel becomes an output
    subdirectory when an experiment contains several runs (the four cs_1d
    signals).  Problem ``i`` gets its noise from seed ``seed + 101 + i``.
    """
    seed = cfg.seed
    if cfg.experiment == "cs_1d":
        operator = make_gaussian_sensing(cfg.m_rows, cfg.n, seed)
        kinds = SIGNAL_KINDS if cfg.signal == "all" else (cfg.signal,)
        clean = []
        for kind in kinds:
            truth = make_test_signal(kind, cfg.n)
            problem = synthetic_problem(operator, truth, GridDims(cfg.n, 1), seed, f"cs_1d[{kind}]")
            clean.append((kind if len(kinds) > 1 else None, problem))
    elif cfg.experiment in ("denoise_2d", "decompose_2d"):
        dims = GridDims(cfg.nz, cfg.nx)
        truth = make_phantom(cfg.phantom, dims)
        clean = [(None, synthetic_problem(identity(dims.n), truth, dims, seed, cfg.experiment))]
    elif cfg.experiment == "dix_1d":
        velocity = 2.2 + 0.6 * make_test_signal("mixed", cfg.n)
        clean = [(None, make_dix_problem(velocity, pick_fraction=cfg.pick_fraction, seed=seed))]
    elif cfg.experiment == "dix_2d":
        dims = GridDims(cfg.nz, cfg.nx)
        velocity = 1.5 + 2.8 * dims.to_grid(make_phantom("piecewise_smooth_2d", dims))
        clean = [(None, make_dix_problem(velocity, pick_fraction=cfg.trace_fraction, seed=seed))]
    else:  # xray_full / xray_limited
        dims = GridDims(cfg.nz, cfg.nx)
        truth = make_phantom(cfg.phantom, dims)
        if cfg.angle_endpoint == "auto":
            endpoint = (cfg.angle_max - cfg.angle_min) < 180.0
        else:
            endpoint = cfg.angle_endpoint == "true"
        angles = np.linspace(cfg.angle_min, cfg.angle_max, cfg.n_angles, endpoint=endpoint)
        operator = make_radon(dims, cfg.n_rays, angles)
        clean = [(None, synthetic_problem(operator, truth, dims, seed, cfg.experiment))]
    return [
        (sublabel, add_noise(problem, cfg.noise_level, cfg.noise_reference, seed + 101 + i))
        for i, (sublabel, problem) in enumerate(clean)
    ]


def admm_config_for(cfg: ExperimentConfig, problem: TestProblem, mode: str) -> AdmmConfig:
    """The solver settings of one run: the template ``cfg.solver`` in
    ``mode``, with the problem's noise budget scaled by ``epsilon_scale``."""
    return dataclasses.replace(cfg.solver, mode=mode, noise_energy=cfg.epsilon_scale * problem.noise_energy)


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
        # one "%.17g" format per row: the text of _fmt, value by value
        line = ",".join(["%.17g"] * dims.nx) + "\n"
        with open(path, "w") as fh:
            for row in grid:
                fh.write(line % tuple(row.tolist()))
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
    return dims.to_vector(neumann_solve(dims.to_grid(rhs), 0.0, 1.0, dims.axes))


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
            with _solver_errors():
                overrides["solver"] = dataclasses.replace(cfg.solver, max_iter=args.max_iter)
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
