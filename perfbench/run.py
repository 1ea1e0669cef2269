"""spbvp benchmark: one workload, measured for a fixed time, outputs checked.

    python3 perfbench/run.py --workload scalar-studies|system-studies|large-solve \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; spbvp is imported from its src/.  Each
pass runs in a fresh process (child.py).  Passes repeat while another one
fits in --seconds; a few set-up-only processes run first.  End-to-end
metrics are medians over the untraced passes (setup_s over every process).
--trace 1 alternates untraced and traced passes and reports the per-layer
medians of the traced ones, plus the tracing overhead (traced minus
untraced wall_s).  Outputs are checked after timing, against the values
record_expected.py stored in expected.json.  The last stdout line is
the JSON result; the process exits 1 when a check fails.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracer import LAYER_METRICS
from workloads import PREDICTIONS, WORKLOADS, eps_key

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
DEADLINE_S = 170.0
# Errors are compared to the recorded ones within RTOL relative, which a
# reordered elimination passes (it moves the 12th digit), plus an absolute
# roundoff floor: the fitted scheme's study errors are its oracle's
# roundoff (<= 4e-13) and its N=2^16 errors reach 1.2e-10, both of which a
# reordering moves by O(1).  Any wrong solve misses by far more.
RTOL = 1e-6
ATOL_STUDY = 1e-11
ATOL_LARGE = 1e-9

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("dof_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    t = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--workload", workload,
         "--seed", str(seed), "--mode", mode],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - t),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process exited with {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["setup"] = res["ready"] - t
    return res


def close(got, want, atol=ATOL_STUDY) -> bool:
    if want is None or got is None:
        return got is None and want is None
    return abs(got - want) <= RTOL * abs(want) + atol


def parse_cells(csv_text: str) -> dict:
    """'N,eps' -> [err_max, err_energy] from a report CSV."""
    cells = {}
    for line in csv_text.splitlines()[1:]:
        col = line.split(",")
        cells[f"{col[2]},{col[3]}"] = [float(v) if v else None for v in col[4:6]]
    return cells


def check_studies(outputs: dict, expected: dict) -> tuple[int, int]:
    """Compare every cell's err_max and err_energy with the recorded ones."""
    attempted = failed = 0
    for study, cells in expected.items():
        got = parse_cells(outputs.get(study, ""))
        for key, want in cells.items():
            attempted += 1
            row = got.get(key)
            if row is None or row[0] is None or not all(map(close, row, want)):
                failed += 1
                print(f"check failed: {study} cell {key}: got {row}, want {want}",
                      file=sys.stderr)
    return attempted, failed


def check_large(outputs: list, expected: dict) -> tuple[int, int]:
    """Residual guard recomputed outside solve, and closed-form errors."""
    failed = 0
    for out in outputs:
        ok = out["residual"] <= out["tol"]
        if out["err"] is not None:
            want = expected[out["system"]][eps_key(out["eps"][0])]
            ok = ok and close(out["err"], want, ATOL_LARGE)
        if not ok:
            failed += 1
            print(f"check failed: {out}", file=sys.stderr)
    return len(outputs), failed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "spbvp" / "__init__.py").is_file():
        print(f"no spbvp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    expected = json.loads((HERE / "expected.json").read_text())
    start = perf_counter()
    deadline = start + DEADLINE_S

    setups = []
    facts = None
    for _ in range(SETUP_PROBES):
        res = spawn(args.workload, args.seed, "setup", deadline)
        setups.append(res["setup"])
        facts = res["facts"]

    modes = ("pass", "trace") if args.trace else ("pass",)
    runs = {mode: [] for mode in modes}
    longest = 0.0
    while True:
        mode = modes[sum(map(len, runs.values())) % len(modes)]
        t = perf_counter()
        res = spawn(args.workload, args.seed, mode, deadline)
        longest = max(longest, perf_counter() - t)
        runs[mode].append(res)
        setups.append(res["setup"])
        if all(runs.values()) and perf_counter() - start + longest > args.seconds:
            break

    attempted = failed = 0
    for res in (r for rs in runs.values() for r in rs):
        if args.workload == "large-solve":
            a, f = check_large(res["outputs"], expected["large-solve"])
        else:
            a, f = check_studies(res["outputs"], expected[args.workload])
        attempted += a
        failed += f

    untraced = runs["pass"]
    wall = statistics.median(r["wall"] for r in untraced)
    if args.trace:
        traced = runs["trace"]
        traced_wall = statistics.median(r["wall"] for r in traced)
        values = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name, _ in LAYER_METRICS if name != "trace.overhead_s"
        }
        values["trace.overhead_s"] = traced_wall - wall
        units = dict(LAYER_METRICS)
        shares = {
            layer: round(values[layer] / traced_wall, 4)
            for layer in ("linalg.kernel_s", "schemes.solve_s", "schemes.assemble_s",
                          "problems.oracle_s", "problems.build_s", "meshes.build_s",
                          "harness.error_s", "harness.energy_s", "harness.sweep_self_s")
        }
        print("calls per wrapped function (null: not found):", json.dumps(traced[-1]["calls"]))
        print("layer share of traced wall:", json.dumps(shares))
        # self-check: spans plus the sweep's own time cover every traced pass
        covered = all(r["layers"]["trace.coverage"] >= 0.99 for r in traced)
        if not covered:
            print("trace self-check failed: spans cover less than 99% of a pass",
                  file=sys.stderr)
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "dof_per_s": statistics.median(r["dof"] / r["wall"] for r in untraced),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in untraced),
        }
        units = dict(END_TO_END)
        covered = True

    print("workload:", args.workload, "-", WORKLOADS[args.workload])
    print("machine:", json.dumps(facts, sort_keys=True))
    print("predictions (layer metric -> end-to-end metric, workload):",
          json.dumps(PREDICTIONS))
    print(f"passes: {len(untraced)} untraced"
          + (f", {len(runs['trace'])} traced" if args.trace else "")
          + f"; set-up samples: {len(setups)}")
    print("wall_s samples:", json.dumps([round(r["wall"], 4) for r in untraced]))
    print("setup_s samples:", json.dumps([round(v, 4) for v in setups]))
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"operations: {attempted} attempted, {failed} failed")
    correct = failed == 0 and covered
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
