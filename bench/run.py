"""Benchmark of the tikhtv solver: one workload per process.

    python3 bench/run.py --workload denoise --seed 1 --seconds 20 --trace 0

Drives the library through the public functions the ``tikhtv solve`` CLI is
built from, timing each stage from outside.  Closed loop on one thread: set
up once, cold (the first config parse, ``build_problems`` and noise draw in
the process, after the imports), run one untimed warm-up
cycle, then repeat cycles of solve + export for ``--seconds`` and report the
median of each timing.  Every reported time is paced: the wall time scaled
by a reference computation timed next to it (``pace.py``), since the
host's speed wanders more than any bound could absorb.  A solve's clock is
marked every ``MARK_EVERY_S`` and at the sweep that reaches the target
error.  Outputs go to a temporary directory under
``bench/out`` that is removed at the end.  After the timed loop the checks
of ``checks.py`` run on the warm-up cycle's outputs.

With ``--trace 1`` the cycles alternate between untraced and traced ones;
the traced ones give the per-layer metrics, and the difference of the two
median wall solve times is the tracing overhead.  Traced solves are not
marked, so no reference run falls inside a span.  The spans are written to
``bench/out/trace-<workload>.jsonl.gz``.

The metric names and units are those of ``BENCHMARK.json``.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; check details go to standard
error.
"""

import argparse
import contextlib
import dataclasses
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

# BLAS threads are fixed before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(1, str(BENCH_DIR))

import numpy as np  # noqa: E402
from tikhtv.admm import admm_run, update_model, update_noise, update_smooth_grad  # noqa: E402
from tikhtv.cli import (  # noqa: E402
    admm_config_for,
    build_problems,
    integrate_smooth_gradient,
    parse_config_text,
    write_history_csv,
    write_image,
)
from tikhtv.operators import GridDims, make_derivative_operator  # noqa: E402
from tikhtv.problems import add_noise  # noqa: E402
from pace import PacedClock, reference  # noqa: E402
from tracing import Tracer, install_library_probes  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUT_DIR = BENCH_DIR / "out"
# A solve's paced clock is marked at the first sweep after this many seconds.
MARK_EVERY_S = 0.3

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def no_span(name: str):
    return contextlib.nullcontext()


def noise_seed(seed: int, index: int) -> int:
    return 1000 * seed + 101 + index


# ---------------------------------------------------------------------------
# Set-up and one cycle of solve + export.


def set_up(workload, seed: int):
    """Parse the workload's config, build its problems and draw their noise
    from the seed.  Returns ``(config, [(label, problem, solver config)])``."""
    cfg = parse_config_text(workload.config, source=f"workload {workload.name}")
    runs = []
    for index, (label, problem) in enumerate(build_problems(cfg)):
        problem = add_noise(problem, cfg.noise_level, cfg.noise_reference, noise_seed(seed, index))
        runs.append((label or "run", problem, admm_config_for(cfg, problem, cfg.modes[0])))
    return cfg, runs


@dataclasses.dataclass
class Cycle:
    # solve_s, time_to_target_s and export_s are paced (see pace.py)
    solve_s: float = 0.0
    solve_wall_s: float = 0.0
    time_to_target_s: float = 0.0
    export_s: float = 0.0
    sweeps: int = 0
    sweeps_to_target: int = 0
    reached: bool = True
    rel_errors: list = dataclasses.field(default_factory=list)
    results: list = dataclasses.field(default_factory=list)


def run_cycle(runs, cfg, target: float, out_dir: Path, span, export_repeats: int = 1,
              marks: bool = True) -> Cycle:
    """Solve every problem of the workload, then export every result
    ``export_repeats`` times.  With ``marks`` off the solve's clock is not
    marked between sweeps, so that no reference run falls inside the
    tracer's spans; ``time_to_target_s`` is then a wall time."""
    cycle = Cycle()
    for label, problem, solver_cfg in runs:
        hit = []
        clock = PacedClock()

        def on_record(record, clock=clock, hit=hit):
            reached = not hit and record.rel_error is not None and record.rel_error <= target
            if marks and (reached or clock.elapsed() >= MARK_EVERY_S):
                clock.mark()
            if reached:
                hit.append((clock.paced_s if marks else clock.elapsed(), record.iteration))

        clock.start()
        with span("admm.admm_run"):
            state, history = admm_run(problem, solver_cfg, callback=on_record)
        clock.stop()
        cycle.solve_s += clock.paced_s
        cycle.solve_wall_s += clock.wall_s
        cycle.sweeps += len(history)
        if hit:
            cycle.time_to_target_s += hit[0][0]
            cycle.sweeps_to_target += hit[0][1]
        else:
            cycle.reached = False
        cycle.rel_errors.append(float(np.linalg.norm(state.model - problem.true_model))
                                / float(np.linalg.norm(problem.true_model)))
        cycle.results.append((label, problem, solver_cfg, state, history))

    clock = PacedClock()
    clock.start()
    for _ in range(export_repeats):
        for label, problem, solver_cfg, state, history in cycle.results:
            export(state, history, problem.dims, out_dir / label, cfg.image_format, span)
        clock.mark()
    cycle.export_s = clock.paced_s / export_repeats
    return cycle


def export(state, history, dims, out_dir: Path, image_format: str, span) -> None:
    """The CLI's outputs: the sparse/smooth decomposition, the images, the
    noise estimate and the history."""
    out_dir.mkdir(parents=True, exist_ok=True)
    with span("cli.integrate_smooth_gradient"):
        smooth_part = integrate_smooth_gradient(state.smooth_grad, dims)
    formats = ["csv"] if dims.is_1d or image_format == "csv" else ["csv", "pgm16"]
    with span("cli.write"):
        for name, values in (("m_est", state.model), ("m1", state.model - smooth_part), ("m2", smooth_part)):
            for fmt in formats:
                write_image(values, dims, out_dir / f"{name}.{'csv' if fmt == 'csv' else 'pgm'}", fmt)
        write_image(state.noise, GridDims(state.noise.size, 1), out_dir / "e_est.csv", "csv")
        write_history_csv(history, out_dir / "history.csv")


def bytes_under(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# ---------------------------------------------------------------------------
# Checks of the warm-up cycle's outputs.


def run_checks(workload, warm: Cycle, out_dir: Path, timed: list) -> bool:
    import checks  # scipy.linalg is loaded after set-up, which it is no part of

    outcomes = []
    for index, (label, problem, solver_cfg, state, history) in enumerate(warm.results):
        op, dims = problem.operator, problem.dims
        grad_op = make_derivative_operator("grad", dims)
        grad_matrix = checks.gradient_matrix(dims.nz, dims.nx)
        rel_error = warm.rel_errors[index]

        outcomes.append(("adjoint A", checks.adjoint_identity(op.forward, op.adjoint, op.rows, op.cols, seed=index)))
        outcomes.append(("adjoint D", checks.adjoint_identity(
            grad_op.forward, grad_op.adjoint, grad_op.rows, grad_op.cols, seed=index + 50)))
        probe = np.random.default_rng(index).standard_normal(dims.n)
        outcomes.append(("D matches the sparse difference matrix",
                         checks.matches(grad_op.forward(probe), grad_matrix @ probe, "D x", 1e-14)))

        short = dataclasses.replace(solver_cfg, max_iter=workload.symmetry_sweeps, run_to_max_iter=True)
        plus, _ = admm_run(problem, short)
        minus, _ = admm_run(dataclasses.replace(problem, data=-problem.data), short)
        outcomes.append(("odd symmetry", checks.odd_symmetry(plus.model, minus.model)))

        if workload.lsqr_iters == 0:
            baseline = problem.data
        else:
            baseline = checks.lsqr_baseline(op.forward, op.adjoint, op.rows, op.cols, problem.data,
                                            workload.lsqr_iters)
        outcomes.append(("beats baseline", checks.beats_baseline(
            rel_error, checks.relative_error(baseline, problem.true_model))))
        outcomes.append(("rel_error agrees with history",
                         checks.agrees(rel_error, history[-1].rel_error, "rel_error")))
        outcomes.append(("m_est read back", checks.read_back(out_dir / label / "m_est.csv", state.model)))

        grad_model = grad_op.forward(state.model)
        smooth = update_smooth_grad(state, solver_cfg, dims, grad_model)
        reference = checks.smooth_grad_reference(
            grad_model - state.sparse_grad - state.dual_split,
            state.balance / solver_cfg.split_weight, dims.nz, dims.nx)
        outcomes.append(("smooth-gradient update", checks.matches(smooth, reference, "g2", 1e-12)))

        misfit = problem.data - op.forward(state.model)
        noise, gain = update_noise(state, solver_cfg, misfit)
        reference_gain = checks.noise_gain_reference(
            misfit + state.dual_data, solver_cfg.noise_energy, state.dual_budget,
            solver_cfg.data_weight, solver_cfg.budget_weight)
        outcomes.append(("noise gain", checks.agrees(gain, reference_gain, "gain", 1e-8)))
        outcomes.append(("noise update", checks.matches(noise, reference_gain * (misfit + state.dual_data),
                                                        "e", 1e-8)))

        # an exact reference solve agrees only with a CG that converged
        model, iters = update_model(state, problem, solver_cfg)
        if iters >= solver_cfg.cg.max_iter:
            log(f"check skip model update: CG stopped at its cap of {iters} iterations")
        else:
            w1, w2 = solver_cfg.split_weight, solver_cfg.data_weight
            rhs = w1 * (grad_matrix.T @ (state.sparse_grad + state.smooth_grad + state.dual_split))
            rhs += w2 * op.adjoint(problem.data - state.noise + state.dual_data)
            reference, residual = checks.model_update_reference(
                grad_matrix, op.forward, op.adjoint, op.cols, rhs, w1, w2, model)
            outcomes.append(("model update", checks.matches(model, reference, "m", 1e-3)))
            outcomes.append(("model update residual", checks.at_most(
                residual, 10.0 * solver_cfg.cg.rel_tol, "||M m - b|| / ||b||")))

    for cycle in timed:
        for index, value in enumerate(cycle.rel_errors):
            outcomes.append(("timed solve repeats the warm-up",
                             checks.agrees(value, warm.rel_errors[index], "rel_error", 1e-9)))

    ok = True
    for name, (passed, detail) in outcomes:
        if not passed or name != "timed solve repeats the warm-up":
            log(f"check {'ok  ' if passed else 'FAIL'} {name}: {detail}")
        ok = ok and passed
    return ok


# ---------------------------------------------------------------------------
# Entry point.


def median(values):
    return statistics.median(values) if values else 0.0


def layer_values(tracer: Tracer, fixed: dict) -> dict:
    """One traced cycle's per-layer values.  ``fixed`` gives those the
    tracer's spans and counts do not hold; otherwise a name ending in
    ``.calls``, ``.s`` or ``.self_s`` reads the tracer's span of that prefix
    and any other name is a tracer count."""
    values = {}
    for name in PER_LAYER:
        if name in fixed:
            values[name] = fixed[name]
        elif name.endswith(".calls"):
            values[name] = tracer.calls.get(name[: -len(".calls")], 0)
        elif name.endswith(".self_s"):
            values[name] = tracer.self_s.get(name[: -len(".self_s")], 0.0)
        elif name.endswith(".s"):
            values[name] = tracer.total_s.get(name[: -len(".s")], 0.0)
        else:
            values[name] = tracer.counts.get(name, 0)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tikhtv benchmark: one workload per process")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    tracer = Tracer() if args.trace else None
    if tracer:
        install_library_probes(tracer)
    reference()  # the reference's own first run is cold
    setup_clock = PacedClock()
    setup_clock.start()
    try:
        cfg, runs = set_up(workload, args.seed)
    finally:
        setup_clock.stop()
        if tracer:
            tracer.restore()
    # One cold set-up per process; a second one would run warm.  The imports
    # before it are left out: their ~0.3 s varied by a third from run to
    # run, which hid set-up changes of a few milliseconds.
    setup_s = setup_clock.paced_s
    make_radon_s = tracer.total_s.get("operators.make_radon", 0.0) if tracer else 0.0

    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        # the warm-up is an attempted cycle too: the checks run on its outputs
        started = time.perf_counter()
        warm = run_cycle(runs, cfg, workload.target_error, tmp / "warmup", no_span)
        attempted, failed = 1, int(not warm.reached)
        if not warm.reached:
            log("warm-up solve failed: target error not reached")
        durations = [time.perf_counter() - started]

        timed, traced, layers = [], [], []
        loop_start = time.perf_counter()
        # after the warm-up a traced run needs one timed cycle of each kind
        minimum = 3 if tracer else 2
        while attempted < minimum or time.perf_counter() - loop_start + median(durations) <= args.seconds:
            with_trace = tracer is not None and attempted % 2 == 0  # untraced first
            cycle_runs, span = runs, no_span
            if with_trace:
                tracer.reset_totals()
                install_library_probes(tracer)
                cycle_runs = [(label, dataclasses.replace(problem, operator=tracer.wrap_operator(
                    problem.operator, "operators.A")), solver_cfg) for label, problem, solver_cfg in runs]
                span = tracer.span
            attempted += 1
            started = time.perf_counter()
            try:
                # traced cycles export once, so the cli.* layers read per export
                cycle = run_cycle(cycle_runs, cfg, workload.target_error, tmp / "timed", span,
                                  1 if with_trace else workload.export_repeats, marks=not with_trace)
            except Exception as exc:  # a raising solve is a failed operation
                failed += 1
                log(f"solve failed: {exc!r}")
                continue
            finally:
                if with_trace:
                    tracer.restore()
            durations.append(time.perf_counter() - started)
            if not cycle.reached:
                failed += 1
                log("solve failed: target error not reached")
            cycle.results = []
            (traced if with_trace else timed).append(cycle)
            if with_trace:
                layers.append(layer_values(tracer, {
                    "operators.make_radon.s": make_radon_s,
                    "admm.sweeps": cycle.sweeps,
                    "admm.sweeps_to_target": cycle.sweeps_to_target,
                    "cli.bytes_written": bytes_under(tmp / "timed"),
                    "trace.absent": len(tracer.absent),
                }))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        checks_start = time.perf_counter()
        correct = run_checks(workload, warm, tmp / "warmup", timed + traced)
        log(f"phases: set-up {setup_clock.wall_s:.3f} s, warm-up {durations[0]:.2f} s, "
            f"timed {checks_start - loop_start:.2f} s, checks {time.perf_counter() - checks_start:.2f} s")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if tracer:
        overhead = median([c.solve_wall_s for c in traced]) - median([c.solve_wall_s for c in timed])
        metrics = {name: {"value": overhead if name == "trace.overhead_s"
                          else median([values[name] for values in layers]), "unit": unit}
                   for name, unit in PER_LAYER.items()}
        tracer.write(OUT_DIR / f"trace-{workload.name}.jsonl.gz")
        if tracer.absent:
            log(f"absent from the library: {', '.join(tracer.absent)}")
        samples = len(traced)
    else:
        values = {
            "setup_s": setup_s,
            "solve_s": median([c.solve_s for c in timed]),
            "time_to_target_s": median([c.time_to_target_s for c in timed]),
            "export_s": median([c.export_s for c in timed]),
            "rel_error": max(warm.rel_errors),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        samples = len(timed)
    cycles = traced if tracer else timed
    log(f"{workload.name}: {samples} timed cycles of {attempted} attempted (warm-up included); "
        f"median wall solve {median([c.solve_wall_s for c in cycles]):.3f} s; paced solve_s samples "
        + " ".join(f"{c.solve_s:.3f}" for c in cycles))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
