"""The benchmark's pinned workloads, their inputs and the reasons they exist.

Nothing here imports spbvp, so run.py can read it without the package.
"""
from __future__ import annotations

import random

# Studies are pinned by name: adding a study to spbvp.STUDIES must not
# change a workload.
SCALAR_STUDIES = (
    "scalar-upwind-shishkin",
    "scalar-upwind-bakhvalov-shishkin",
    "scalar-upwind-bakhvalov-type",
    "scalar-fem-shishkin",
    "scalar-fem-bakhvalov-shishkin",
)
SYSTEM_STUDIES = (
    "smooth-central-uniform",
    "reaction-diffusion-central",
    "weakly-coupled-upwind",
    "strongly-coupled-ias",
)

LARGE_N = 2**16
# (problem family, mesh family, scheme, eps values drawn); each system is
# one assemble + solve, with block size m = 1, 2 and 3 in that order.
LARGE_SYSTEMS = (
    ("scalar-cd", "shishkin", "simple-upwind", 1),
    ("strongly-coupled-2x2", "uniform", "ias", 1),
    ("reaction-diffusion", "system-shishkin", "central", 3),
)

# Large-solve eps values are drawn log-uniformly from a quarter-decade grid
# over the registered study range [1e-10, 1e-2], so every drawn value has a
# recorded reference error in expected.json.  The range stops at 1e-10 on
# purpose: right-side layers hit the float64 resolution limit at
# eps <~ 1e-13, where mesh building fails at once.  Such a failing cell
# takes almost no time, so a fix would read as a wall_s regression; that
# defect is tracked on its own (ROADMAP item 3), not by this benchmark.
EPS_GRID = tuple(10.0 ** (-2.0 - k / 4.0) for k in range(33))

WORKLOADS = {
    "scalar-studies": (
        "the five exact-reference scalar studies, 100 cells of N=64..1024: many "
        "small solves and no oracle, so per-call overhead, meshes, FEM energy "
        "norms and the thread pool show"
    ),
    "system-studies": (
        "the four oracle-backed studies: fine-mesh oracles at n_ref=12288..16384 "
        "dominate, so oracle cost or caching moves wall_s only here"
    ),
    "large-solve": (
        "one assemble+solve at N=2^16 for m=1,2,3 with no harness, pool or "
        "oracle: single-threaded schemes+linalg throughput across block size"
    ),
}

# layer metric -> (end-to-end metrics it should move, workloads where it should)
PREDICTIONS = {
    "linalg.kernel_s, linalg.kernel_calls, linalg.bytes_computed": (
        "dof_per_s, wall_s", "large-solve, scalar-studies"),
    "schemes.solve_s, schemes.solve_calls, schemes.solve_dof, schemes.residual_max": (
        "dof_per_s, wall_s", "large-solve, scalar-studies"),
    "problems.oracle_s, problems.oracle_dof": (
        "wall_s, peak_rss_mb", "system-studies"),
    "harness.sweep_self_s": ("wall_s", "scalar-studies, system-studies"),
    "schemes.assemble_s, schemes.assemble_calls": ("dof_per_s", "large-solve"),
    "meshes.build_s, meshes.calls, meshes.diagnostics_s, problems.build_s": (
        "wall_s", "scalar-studies"),
    "harness.error_s, harness.energy_s, harness.report_s": (
        "wall_s", "scalar-studies"),
    "harness.run_study_s.<study>, harness.threads": (
        "wall_s", "scalar-studies, system-studies"),
}


def study_order(workload: str, seed: int) -> list[str]:
    """The workload's studies in the order the seed fixes."""
    names = list(SCALAR_STUDIES if workload == "scalar-studies" else SYSTEM_STUDIES)
    random.Random(seed).shuffle(names)
    return names


def large_eps(seed: int) -> list[tuple[float, ...]]:
    """One eps vector, drawn from EPS_GRID, per large system."""
    rng = random.Random(seed)
    return [tuple(rng.choice(EPS_GRID) for _ in range(k)) for *_, k in LARGE_SYSTEMS]


def eps_key(eps: float) -> str:
    return f"{eps:.6e}"
