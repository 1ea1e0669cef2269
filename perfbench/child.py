"""One benchmark process: set up a workload, optionally run one pass of it.

    python3 perfbench/child.py --workload W --seed S --mode setup|pass|trace

Prints one JSON line.  `ready` is the perf_counter (CLOCK_MONOTONIC, shared
by every process on the machine) at which spbvp is imported and the inputs
are built; run.py subtracts its spawn time to get setup_s.  Every pass runs
in a fresh process, so a cache inside spbvp that outlives one call cannot
look faster than one `spbvp study` invocation.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import spbvp  # noqa: E402
from spbvp import harness, schemes  # noqa: E402

import tracer  # noqa: E402
from workloads import LARGE_N, LARGE_SYSTEMS, large_eps, study_order  # noqa: E402

if Path(spbvp.__file__).resolve().parent != ROOT / "src" / "spbvp":
    raise SystemExit(f"spbvp imported from {spbvp.__file__}, not from this checkout")


def study_inputs(workload, seed):
    cfgs = [harness.STUDIES[name] for name in study_order(workload, seed)]
    # dof of the cells' own solves (oracles excluded); m from the first eps
    dof = 0
    for cfg in cfgs:
        m = harness.problem_family(cfg.problem)(cfg.eps_list[0])[0].m
        dof += len(cfg.eps_list) * sum(n + 1 for n in cfg.n_list) * m
    return cfgs, dof


def study_pass(cfgs):
    """The path `spbvp study --name <s>` takes: run_study, then CSV."""
    out = {}
    for cfg in cfgs:
        out[cfg.name] = harness.report_emit(harness.run_study(cfg), "csv")
    return out


def large_input(system, eps):
    prob, mesh_tag, scheme, _ = system
    problem, ref = harness.problem_family(prob)(eps)
    mesh = harness.mesh_family(mesh_tag)(problem, LARGE_N)
    return prob, problem, ref, mesh, scheme


def large_pass(inputs):
    solved = []
    for _, problem, _, mesh, scheme in inputs:
        op = schemes.assemble(problem, mesh, scheme)
        solved.append((op, schemes.solve(op)))
    return solved


def large_check(inp, op, sol):
    """Row-scaled residual recomputed with schemes.apply, and the error
    against a closed-form reference (an oracle reference is not evaluated:
    that would time an oracle, not the solve)."""
    family, problem, ref, mesh, _ = inp
    mat = op.matrix
    scale = np.abs(mat.diag).sum(axis=2)
    scale[1:] += np.abs(mat.sub).sum(axis=2)
    scale[:-1] += np.abs(mat.sup).sum(axis=2)
    np.maximum(scale, 1.0, out=scale)
    r = schemes.apply(op, sol.values) - op.rhs
    err = None
    if ref.kind != "oracle":
        err = float(np.max(np.abs(sol.values - ref(mesh.points))))
    return {
        "system": family,
        "eps": list(problem.eps),
        "residual": float(np.max(np.abs(r) / scale)),
        "tol": 1e-10 * (1.0 + float(np.max(np.abs(op.rhs)))),
        "err": err,
    }


def machine_facts():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    worker_count = getattr(harness, "worker_count", None)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "num_threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "spbvp_workers_env": os.environ.get("SPBVP_WORKERS"),
        "default_workers": worker_count() if worker_count else None,
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "pass", "trace"), required=True)
    args = ap.parse_args()
    large = args.workload == "large-solve"
    if large:
        inputs = [large_input(*p) for p in zip(LARGE_SYSTEMS, large_eps(args.seed))]
        dof = sum((LARGE_N + 1) * inp[1].m for inp in inputs)
    else:
        inputs, dof = study_inputs(args.workload, args.seed)
    result = {"ready": perf_counter()}
    if args.mode == "setup":
        result["facts"] = machine_facts()
    else:
        tr = None
        if args.mode == "trace":
            tr = tracer.Tracer()
            tracer.install(tr)
        t0 = perf_counter()
        outputs = large_pass(inputs) if large else study_pass(inputs)
        wall = perf_counter() - t0
        result.update(
            wall=wall,
            dof=dof,
            rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if tr is not None:
            result["layers"] = tracer.summarize(tr.spans, t0, wall)
            result["calls"] = tr.calls
        result["outputs"] = (
            [large_check(inp, *done) for inp, done in zip(inputs, outputs)]
            if large else outputs
        )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
