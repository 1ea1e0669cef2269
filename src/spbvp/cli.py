"""Command-line harness: mesh generation, solves, stability checks, studies.

Exit codes: 0 on success, 2 when any sweep cell fails to solve, 3 on
configuration errors (bad flags, malformed JSON, unknown names).
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import (
    MESH_TAGS,
    MESHES,
    STUDIES,
    mesh_family,
    problem_family,
    report_emit,
    run_study,
    study_from_dict,
)
from .meshes import LayerSpec, diagnostics
from .problems import (
    SystemProblem,
    problem_from_dict,
    report_to_dict,
    stability_report,
)
from .schemes import SCHEME_TAGS, discrete_solve


class ConfigError(Exception):
    """User-facing configuration problem; maps to exit code 3."""


def _parse_eps(text: str) -> tuple[float, ...]:
    try:
        vals = tuple(float(p) for p in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"cannot parse eps list {text!r}") from exc
    if not vals or any(e <= 0.0 for e in vals):
        raise ConfigError(f"eps values must be positive, got {text!r}")
    return vals


def _write(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_problem(args) -> SystemProblem:
    name = args.problem
    if name.endswith(".json"):
        try:
            with open(name, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read problem file {name}: {exc}") from exc
        return problem_from_dict(data)
    eps = None if args.eps is None else _parse_eps(args.eps)
    return problem_family(name)(eps)[0]


def _cmd_mesh(args) -> int:
    eps = _parse_eps(args.eps)
    if args.family == "uniform" and len(eps) != 1:
        # a uniform mesh reads no layer, so an eps list would be dropped unread
        raise ConfigError(f"mesh family 'uniform' takes 1 eps value, got {len(eps)}: {args.eps}")
    layers = [LayerSpec(e, gamma=args.gamma, mu=args.mu, side=args.side) for e in eps]
    mesh = MESHES[args.family](layers, args.n)
    d = diagnostics(mesh)
    lines = ["i,x_i,h_i"]
    lines.append(f"0,{mesh.points[0]:.12e},")
    for i in range(1, len(mesh.points)):
        h = mesh.points[i] - mesh.points[i - 1]
        lines.append(f"{i},{mesh.points[i]:.12e},{h:.12e}")
    lines += [
        f"# label = {mesh.label}",
        f"# n_cells = {d.n_cells}",
        f"# min_h = {d.min_h:.12e}",
        f"# max_h = {d.max_h:.12e}",
        f"# ratio = {d.ratio:.12e}",
    ]
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_solve(args) -> int:
    problem = _load_problem(args)
    mesh = mesh_family(args.mesh)(problem, args.n)
    try:
        sol = discrete_solve(problem, mesh, args.scheme)
    except (ValueError, RuntimeError) as exc:
        print(f"solve failed: {exc}", file=sys.stderr)
        return 2
    header = "x," + ",".join(f"u_{k + 1}" for k in range(problem.m))
    lines = [header]
    for i, x in enumerate(mesh.points):
        vals = ",".join(f"{v:.12e}" for v in sol.values[i])
        lines.append(f"{x:.12e},{vals}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_check(args) -> int:
    problem = _load_problem(args)
    report = stability_report(problem)
    _write(
        json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n", args.out
    )
    return 0


def _cmd_study(args) -> int:
    if (args.config is None) == (args.name is None):
        raise ConfigError("study takes exactly one of --config or --name")
    data = {"name": args.name}
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read study config {args.config}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("study config must be a JSON object")
    cfg = study_from_dict(data)
    output = args.output or data.get("output")
    fmt = args.format or data.get("format") or "csv"
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {fmt!r}")
    report = run_study(cfg)
    _write(report_emit(report, fmt), output)
    if report.failures:
        for rec in report.failures:
            print(f"cell N={rec.n} eps={rec.eps} failed: {rec.failure}", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spbvp",
        # no prefix matching: a misspelt or retired flag must not resolve to
        # another one (--h to --help, --sch to --scheme)
        allow_abbrev=False,
        description="Layer-adapted meshes and robust discretizations for "
        "singularly perturbed two-point boundary value problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mesh_p = sub.add_parser(
        "mesh", help="generate a mesh as CSV i,x_i,h_i", allow_abbrev=False
    )
    mesh_p.add_argument("--family", choices=MESH_TAGS, default="shishkin")
    mesh_p.add_argument("--eps", default="1e-6", help="eps, or comma list for systems")
    mesh_p.add_argument(
        "--n", type=int, default=64,
        help="cell count; coarse step 1/n for gartland and duran-lombardi",
    )
    mesh_p.add_argument("--gamma", type=float, default=1.0, help="layer decay rate")
    mesh_p.add_argument("--mu", type=float, default=2.0, help="resolved-width order")
    mesh_p.add_argument("--side", choices=("left", "right", "both"), default="left")
    mesh_p.add_argument("--out", default=None, help="output file (default stdout)")
    mesh_p.set_defaults(func=_cmd_mesh)

    solve_p = sub.add_parser(
        "solve", help="solve a problem, emit CSV x,u_1..u_M", allow_abbrev=False
    )
    solve_p.add_argument(
        "--problem",
        default="scalar-cd",
        help="builtin name or a .json problem file",
    )
    solve_p.add_argument("--eps", default=None, help="override builtin eps (comma list)")
    solve_p.add_argument("--mesh", choices=MESH_TAGS, default="shishkin")
    solve_p.add_argument("--n", type=int, default=64)
    solve_p.add_argument("--scheme", choices=SCHEME_TAGS, default="simple-upwind")
    solve_p.add_argument("--out", default=None)
    solve_p.set_defaults(func=_cmd_solve)

    check_p = sub.add_parser("check", help="stability pre-checks as JSON", allow_abbrev=False)
    check_p.add_argument("--problem", default="reaction-diffusion")
    check_p.add_argument("--eps", default=None)
    check_p.add_argument("--out", default=None)
    check_p.set_defaults(func=_cmd_check)

    study_p = sub.add_parser("study", help="run a convergence study", allow_abbrev=False)
    study_p.add_argument("--config", default=None, help="JSON study configuration")
    study_p.add_argument("--name", default=None, help="registered study name")
    study_p.add_argument("--output", default=None, help="report file (default stdout)")
    study_p.add_argument("--format", choices=("csv", "json"), default=None)
    study_p.add_argument(
        "--list", action="store_true", help="list registered studies and exit"
    )
    study_p.set_defaults(func=_cmd_study)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, but 2 means a solve cell failed
        return 3 if exc.code else 0
    if getattr(args, "list", False):
        sys.stdout.write("\n".join(sorted(STUDIES)) + "\n")
        return 0
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        # ValueError: invalid parameter combinations surfaced by the library
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
