"""The benchmark's workloads.

Problem sizes are those of ``configs/``, in ``combined`` mode, with a sweep
cap per workload so that one solve takes one to three seconds on one core.
The config seed is fixed, so the operator (sensing matrix, trace picks) is
the same in every run; ``--seed`` draws the noise realisation.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    # a solve fails when no sweep reaches this relative model error
    target_error: float
    # iterations of the lsqr estimate the solver must beat; 0 (for A = I)
    # takes the data themselves as the estimate
    lsqr_iters: int
    symmetry_sweeps: int
    # exports per cycle: a cycle's export_s is their mean, so that a cheap
    # export is timed over enough work to be steady
    export_repeats: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="denoise",
            config="""
experiment = denoise_2d
nz = 256
nx = 256
phantom = piecewise_smooth_2d
noise_level = 0.3
noise_reference = model_norm
modes = combined
max_iter = 30
""",
            target_error=0.095,
            lsqr_iters=0,
            symmetry_sweeps=2,
        ),
        Workload(
            name="tomo_limited",
            config="""
experiment = xray_limited
nz = 128
nx = 128
phantom = smooth_blob_mix
n_angles = 85
n_rays = 181
angle_min = -42
angle_max = 42
noise_level = 0.001
modes = combined
max_iter = 4
""",
            target_error=0.255,
            lsqr_iters=30,
            symmetry_sweeps=1,
        ),
        Workload(
            name="dix_2d",
            config="""
experiment = dix_2d
nz = 96
nx = 128
trace_fraction = 0.3
noise_level = 0.001
modes = combined
max_iter = 16
""",
            target_error=0.11,
            lsqr_iters=100,
            symmetry_sweeps=2,
            export_repeats=2,
        ),
        Workload(
            name="cs_1d",
            config="""
experiment = cs_1d
n = 1024
m_rows = 250
signal = all
noise_level = 0.001
modes = combined
max_iter = 30
""",
            target_error=0.03,
            lsqr_iters=500,
            symmetry_sweeps=2,
            export_repeats=12,
        ),
    )
}
