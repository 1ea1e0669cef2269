"""Record the reference outputs in expected.json from the current sources.

    python3 perfbench/record_expected.py

Run on the commit whose outputs are the reference: every study cell's
err_max and err_energy, and the large-solve error at every EPS_GRID value
for each system with a closed-form reference.  Takes a few minutes.
"""
from __future__ import annotations

import json

import child
from run import HERE, parse_cells
from workloads import EPS_GRID, LARGE_SYSTEMS, SCALAR_STUDIES, SYSTEM_STUDIES, eps_key


def main() -> None:
    expected = {}
    for workload, names in (("scalar-studies", SCALAR_STUDIES),
                            ("system-studies", SYSTEM_STUDIES)):
        csvs = child.study_pass([child.harness.STUDIES[n] for n in names])
        expected[workload] = {n: parse_cells(csvs[n]) for n in names}
    expected["large-solve"] = {}
    for system in LARGE_SYSTEMS:
        errors = {}
        for eps in EPS_GRID:
            inp = child.large_input(system, (eps,) * system[3])
            if inp[2].kind == "oracle":
                break
            (op, sol), = child.large_pass([inp])
            out = child.large_check(inp, op, sol)
            if not out["residual"] <= out["tol"]:
                raise RuntimeError(f"residual guard fails: {out}")
            errors[eps_key(eps)] = out["err"]
            print(out, flush=True)
        if errors:
            expected["large-solve"][system[0]] = errors
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
