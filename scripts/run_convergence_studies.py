#!/usr/bin/env python3
"""Run registered convergence studies and summarize the measured orders.

Writes one CSV per study into --out-dir and prints a one-line digest with
the uniform errors' rates, the boundedness constant C*, and its spread
across the eps sweep.  Run with no arguments to execute every study.
"""

import argparse
import sys
from pathlib import Path

from spbvp.harness import STUDIES, report_emit, run_study


def summarize(name, report):
    raw = report.rates_raw()
    corr = report.rates_corrected()
    use = "energy" if report.records[0].err_energy is not None else "max"
    spread = report.c_star_spread(use=use)
    flags = report.monotonicity_flags(use=use)
    parts = [
        f"{name:34s}",
        f"raw={' '.join(f'{r:6.3f}' for r in raw)}",
        f"corr={' '.join(f'{r:6.3f}' for r in corr)}",
        f"C*={report.c_star(use=use):9.3e}",
        f"spread={spread:5.2f}",
    ]
    if report.failures:
        parts.append(f"FAILED_CELLS={len(report.failures)}")
    if flags:
        parts.append(f"flags={len(flags)}")
    return "  ".join(parts)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("studies", nargs="*", help="study names (default: all)")
    ap.add_argument("--out-dir", default="results", type=Path)
    ap.add_argument("--format", choices=("csv", "json"), default="csv")
    ap.add_argument("--list", action="store_true", help="list names and exit")
    args = ap.parse_args(argv)

    if args.list:
        for name in sorted(STUDIES):
            print(name)
        return 0

    names = args.studies or sorted(STUDIES)
    unknown = [n for n in names if n not in STUDIES]
    if unknown:
        print(f"unknown studies: {', '.join(unknown)}", file=sys.stderr)
        return 2

    args.out_dir.mkdir(parents=True, exist_ok=True)
    bad = 0
    for name in names:
        report = run_study(STUDIES[name])
        path = args.out_dir / f"{name}.{args.format}"
        path.write_text(report_emit(report, args.format))
        print(summarize(name, report))
        bad += len(report.failures)
    print(f"wrote {len(names)} reports to {args.out_dir}/")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
