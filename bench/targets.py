"""Print each workload's rel_error per sweep, to re-derive its target error.

    python3 bench/targets.py [--seeds 1,2,3] [workload ...]

For every seed and problem it prints the error trajectory up to the sweep
cap, the final error and the first sweep at or below the current target.
A target should be reached with a few sweeps to spare on every seed.
"""

import argparse
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True
BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(1, str(BENCH_DIR))

from run import set_up  # noqa: E402
from tikhtv.admm import admm_run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    parser.add_argument("--seeds", default="1,2,3")
    args = parser.parse_args()
    for name in args.workloads:
        workload = WORKLOADS[name]
        for seed in (int(s) for s in args.seeds.split(",")):
            _, runs = set_up(workload, seed)
            for label, problem, solver_cfg in runs:
                _, history = admm_run(problem, solver_cfg)
                errors = [record.rel_error for record in history]
                hit = next((k + 1 for k, e in enumerate(errors) if e <= workload.target_error), None)
                print(f"{name} seed {seed} {label}: final {errors[-1]:.5f} after {len(errors)} sweeps, "
                      f"target {workload.target_error} reached at sweep {hit}")
                print("    " + " ".join(f"{e:.4f}" for e in errors))
    return 0


if __name__ == "__main__":
    sys.exit(main())
