"""Convergence measurement: (N, eps) sweeps, uniform-rate fitting, reporting.

The primary quantity is the uniform error E(N) = max over eps of the
per-cell error in the study's norm (nodal max, or the FEM energy norm).
Raw rates compare E against powers of N; the corrected rate divides by the
ratio of N^{-1} ln N instead, which removes the logarithmic factor that
piecewise-uniform meshes carry.  The boundedness constant
C* = max_N E(N)/target(N) operationalizes "the constant does not depend on
eps or N": it must stay within a fixed spread across eps.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from collections.abc import Callable, Sequence

import numpy as np

from .meshes import (
    LayerSpec,
    Mesh1D,
    bakhvalov_shishkin,
    bakhvalov_type,
    check_eps,
    system_shishkin,
    uniform_mesh,
)
from .problems import (
    ReferenceSolution,
    SystemProblem,
    builtin_reaction_diffusion_system,
    builtin_scalar_cd,
    builtin_strongly_coupled_example,
    builtin_strongly_coupled_variable,
    builtin_weakly_coupled_cd,
    default_envelope,
)
from . import schemes
from .quadrature import gauss_legendre_cells
from .schemes import SCHEME_TAGS, DiscreteSolution

__all__ = [
    "CSV_HEADER",
    "ConvergenceReport",
    "ErrorRecord",
    "MESHES",
    "MESH_TAGS",
    "NORMS",
    "PROBLEMS",
    "RATE_TARGETS",
    "STUDIES",
    "StudyConfig",
    "corrected_rate",
    "energy_norm_error",
    "max_norm_error",
    "mesh_family",
    "problem_family",
    "raw_rate",
    "report_emit",
    "report_from_json",
    "run_study",
    "study_from_dict",
    "sweep",
]


# ---------------------------------------------------------------------------
# rates and targets
# ---------------------------------------------------------------------------

RATE_TARGETS: dict[str, Callable[[int], float]] = {
    "n_inv": lambda n: 1.0 / n,
    "n_inv_sq": lambda n: 1.0 / (n * n),
    "n_inv_log": lambda n: math.log(n) / n,
    "n_inv_log_sq": lambda n: (math.log(n) / n) ** 2,
}


def _phi(n: int) -> float:
    return math.log(n) / n


def _log_rate(err_coarse: float, err_fine: float, ratio: float) -> float:
    """log(E1/E2) / log(ratio) where both errors are positive and finite
    and the yardstick ratio exceeds 1; nan otherwise."""
    if not (0.0 < err_coarse < math.inf and 0.0 < err_fine < math.inf and ratio > 1.0):
        return math.nan
    return math.log(err_coarse / err_fine) / math.log(ratio)


def raw_rate(err_coarse: float, err_fine: float, n_coarse: int, n_fine: int) -> float:
    """log(E1/E2) / log(N2/N1); equals log2(E(N)/E(2N)) on doubled grids.

    Defined only where both errors are positive and finite and N2 > N1;
    nan otherwise.
    """
    return _log_rate(err_coarse, err_fine, n_fine / n_coarse)


def corrected_rate(
    err_coarse: float, err_fine: float, n_coarse: int, n_fine: int
) -> float:
    """Rate against N^{-1} ln N: log(E1/E2) / log(phi(N1)/phi(N2)).

    Substituting E(N) = N^{-1} ln N gives exactly 1; a second-order target
    (N^{-1} ln N)^2 gives exactly 2.  Defined only where both errors are
    positive and finite and phi decreases from N1 to N2, which fails below
    N = 3 (ln 2 / 2 = ln 4 / 4); nan otherwise.
    """
    return _log_rate(err_coarse, err_fine, _phi(n_coarse) / _phi(n_fine))


# ---------------------------------------------------------------------------
# records and reports
# ---------------------------------------------------------------------------


def _eps_key(eps) -> tuple[float, ...]:
    key = (eps,) if isinstance(eps, (int, float, str, np.bool_)) else tuple(eps)
    if not key:
        raise ValueError("an eps vector needs at least one value")
    for e in key:  # True must not run as eps = 1, nor "1e-4" parse as a number
        if isinstance(e, (bool, np.bool_, str)):
            raise ValueError(f"eps values must be numbers, got {e!r}")
        check_eps(float(e))
    return tuple(map(float, key))


def _n_key(n) -> int:
    """A mesh size N as a positive int.  Bools and non-integral values are
    rejected, so 16.7 or True cannot run as N = 16 or N = 1."""
    if isinstance(n, (bool, np.bool_, str)) or not float(n).is_integer():
        raise ValueError(f"N values must be integers, got {n!r}")
    if n < 1:
        raise ValueError(f"N values must be at least 1, got {n!r}")
    return int(n)


def _grid(n_list, eps_list, target: str, norm: str):
    """The checked (N, eps) grid of a study, sweep or report, as the tuples
    (n_list, eps_list): integer N increasing strictly, valid eps vectors
    that print differently, both lists non-empty, a known target and norm."""
    ns = tuple(_n_key(n) for n in n_list)
    epss = tuple(_eps_key(e) for e in eps_list)
    if not ns or not epss:
        raise ValueError("n_list and eps_list must be non-empty")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError(f"n_list must increase strictly, got {ns}")
    if target not in RATE_TARGETS:
        raise ValueError(f"unknown target {target!r}")
    if norm not in NORMS:
        raise ValueError(f"unknown norm {norm!r}; known: {', '.join(NORMS)}")
    # CSV rows and the JSON c_star_by_eps keys tell cells apart only by
    # their _fmt_eps label
    labels = [_fmt_eps(e) for e in epss]
    for j, label in enumerate(labels):
        if label in labels[:j]:
            raise ValueError(f"eps vectors must print differently; {label} appears twice")
    return ns, epss


@dataclass(frozen=True)
class ErrorRecord:
    """One sweep cell: a (mesh size, eps vector) pair and its errors.

    q is the g == 1 mesh-quality functional, i.e. the largest cell width.
    A failed solve carries the exception text in `failure` and nan errors.
    """

    n: int
    eps: tuple[float, ...]
    err_max: float = math.nan
    err_energy: float | None = None
    q: float = math.nan
    failure: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _n_key(self.n))
        object.__setattr__(self, "eps", _eps_key(self.eps))
        if self.failure is None:
            if not self.err_max >= 0.0:
                raise ValueError(f"err_max must be >= 0, got {self.err_max!r}")
            if self.err_energy is not None and not self.err_energy >= 0.0:
                raise ValueError(f"err_energy must be >= 0, got {self.err_energy!r}")


@dataclass(frozen=True)
class ConvergenceReport:
    """Full (N, eps) grid of records plus fitted uniform rates.

    records are row-major: all eps for n_list[0], then n_list[1], ...
    Errors, rates and C* are taken in `norm`: err_max or err_energy.
    """

    family: str
    scheme: str
    n_list: tuple[int, ...]
    eps_list: tuple[tuple[float, ...], ...]
    records: tuple[ErrorRecord, ...]
    target: str = "n_inv_log"
    norm: str = "max"

    def __post_init__(self) -> None:
        ns, epss = _grid(self.n_list, self.eps_list, self.target, self.norm)
        object.__setattr__(self, "n_list", ns)
        object.__setattr__(self, "eps_list", epss)
        object.__setattr__(self, "records", tuple(self.records))
        want = len(self.n_list) * len(self.eps_list)
        if len(self.records) != want:
            raise ValueError(
                f"need {want} records for the (N, eps) grid, got {len(self.records)}"
            )
        for idx, rec in enumerate(self.records):
            i, j = divmod(idx, len(self.eps_list))
            if rec.n != self.n_list[i] or rec.eps != self.eps_list[j]:
                raise ValueError(
                    f"record {idx} is (n={rec.n}, eps={rec.eps}); grid expects "
                    f"(n={self.n_list[i]}, eps={self.eps_list[j]})"
                )

    def record(self, n: int, eps) -> ErrorRecord:
        n, eps = _n_key(n), _eps_key(eps)
        for name, value, grid in (("N", n, self.n_list), ("eps", eps, self.eps_list)):
            if value not in grid:
                raise ValueError(f"{name}={value} is not in the report's grid {name}={list(grid)}")
        i, j = self.n_list.index(n), self.eps_list.index(eps)
        return self.records[i * len(self.eps_list) + j]

    @property
    def failures(self) -> tuple[ErrorRecord, ...]:
        return tuple(r for r in self.records if r.failure is not None)

    def _table(self) -> list[list[float]]:
        """Per-cell errors in the report's norm, one row per N and one
        column per eps; nan where a cell produced no error."""
        errs = []
        for r in self.records:
            e = r.err_max if self.norm == "max" else r.err_energy
            errs.append(math.nan if r.failure is not None or e is None else e)
        k = len(self.eps_list)
        return [errs[i : i + k] for i in range(0, len(errs), k)]

    def uniform_errors(self) -> tuple[float, ...]:
        """E(N) = max over eps; nan where no cell produced the error."""
        return tuple(
            max((e for e in row if not math.isnan(e)), default=math.nan)
            for row in self._table()
        )

    def _rates(self, rate: Callable[..., float]) -> tuple[float, ...]:
        e, n = self.uniform_errors(), self.n_list
        return tuple(rate(e[i], e[i + 1], n[i], n[i + 1]) for i in range(len(e) - 1))

    def rates_raw(self) -> tuple[float, ...]:
        return self._rates(raw_rate)

    def rates_corrected(self) -> tuple[float, ...]:
        return self._rates(corrected_rate)

    def c_star(self) -> float:
        """max_N E(N)/target(N) over the N where E is defined."""
        tgt = RATE_TARGETS[self.target]
        vals = [
            e / tgt(n)
            for n, e in zip(self.n_list, self.uniform_errors())
            if math.isfinite(e)
        ]
        return max(vals) if vals else math.nan

    def c_star_by_eps(self) -> dict[tuple[float, ...], float]:
        """Per-eps boundedness constants; their spread across eps is the
        operational test that the error constant does not depend on eps."""
        tgt = RATE_TARGETS[self.target]
        table = self._table()
        return {
            eps: max(
                (row[j] / tgt(n) for n, row in zip(self.n_list, table) if math.isfinite(row[j])),
                default=math.nan,
            )
            for j, eps in enumerate(self.eps_list)
        }

    def c_star_spread(self) -> float:
        """max/min ratio of the positive per-eps constants; nan if none is
        positive or any is not finite (an eps whose every cell failed)."""
        vals = list(self.c_star_by_eps().values())
        pos = [v for v in vals if v > 0.0]
        if not pos or not all(math.isfinite(v) for v in vals):
            return math.nan
        return max(pos) / min(pos)

    def monotonicity_flags(self) -> tuple[str, ...]:
        """Inversions of E(N); small single inversions are flagged, not fatal."""
        e = self.uniform_errors()
        flags = []
        for i in range(len(e) - 1):
            if math.isfinite(e[i]) and math.isfinite(e[i + 1]) and e[i + 1] > e[i]:
                rel = (e[i + 1] - e[i]) / e[i] if e[i] > 0.0 else math.inf
                sev = "minor" if rel <= 0.05 else "severe"
                flags.append(
                    f"{sev} inversion: E({self.n_list[i + 1]}) exceeds "
                    f"E({self.n_list[i]}) by {rel:.2%}"
                )
        return tuple(flags)

    def essentially_monotone(self) -> bool:
        flags = self.monotonicity_flags()
        return len(flags) == 0 or (
            len(flags) == 1 and flags[0].startswith("minor")
        )


# ---------------------------------------------------------------------------
# error measurement and sweeping
# ---------------------------------------------------------------------------


def max_norm_error(sol: DiscreteSolution, ref: ReferenceSolution) -> float:
    """Discrete maximum over mesh nodes and components of |sol - ref|."""
    exact = ref(sol.mesh.points)
    if exact.shape != sol.values.shape:
        raise ValueError(
            f"reference shape {exact.shape} does not match solution "
            f"shape {sol.values.shape}"
        )
    return float(np.max(np.abs(sol.values - exact)))


def energy_norm_error(mesh: Mesh1D, v: np.ndarray, ref: ReferenceSolution, eps) -> float:
    """Energy-norm error sqrt(sum_k eps_k |u_k - v_k|_1^2 + ||u - v||_0^2) of nodal
    data v, (N+1, m) as a linear interpolant, by 6-point Gauss per cell."""
    m = v.shape[1]
    nodes, weights = gauss_legendre_cells(mesh.points, 6)
    flat = nodes.ravel()
    # the derivative first: it refuses a reference that has none
    up = ref.derivative(flat, 1).reshape(nodes.shape + (m,))
    u = ref(flat).reshape(nodes.shape + (m,))
    slope = np.diff(v, axis=0) / mesh.spacings[:, None]  # (cells, m)
    lin = v[:-1, None, :] + (nodes - mesh.points[:-1, None])[:, :, None] * slope[:, None, :]
    diff = u - lin
    diffp = up - slope[:, None, :]
    semi = np.einsum("cg,cgk->k", weights, diffp * diffp)
    l2 = np.einsum("cg,cgk->k", weights, diff * diff)
    return float(math.sqrt(float(np.sum(np.multiply(eps, semi) + l2))))


# Study norms by name, as (solution, problem, reference) -> error: err_max holds
# max, err_energy any other norm, which integrates the reference's derivative.
# Each looks its measure up per call, so rebinding it (tracing) takes effect.
NORMS: dict[str, Callable[[DiscreteSolution, SystemProblem, ReferenceSolution], float]] = {
    "max": lambda sol, problem, ref: max_norm_error(sol, ref),
    "energy": lambda sol, problem, ref: energy_norm_error(
        sol.mesh, sol.values, ref, problem.diffusion),
}


def _attempt(step, *args):
    """step(*args), or the exception it raised: a failed cell is recorded,
    not fatal."""
    try:
        return step(*args)
    except Exception as exc:
        return exc


def _solve_cells(problems, ns, mesh_family, scheme: str) -> list:
    """The solution, or the exception that stopped it, of every (N, problem)
    cell, N-major.

    The cells of one N are meshed and assembled in one
    ``schemes.assemble_many`` call, and every cell is solved in one
    ``schemes.solve_many`` call.  A failed stacked step cannot say which
    cell caused it, so it sends its cells through one ``schemes.assemble``
    or ``schemes.solve`` per cell, which record their own failures (and,
    with warnings raised as errors, their own warnings).  schemes is read at
    call time, so rebinding its names (monkeypatching, tracing) takes
    effect.  The operators are released on return, before any reference
    (an oracle's fine-mesh solve) is evaluated.
    """
    ops = []
    for n in ns:
        try:
            ops += schemes.assemble_many(problems, [mesh_family(p, n) for p in problems], scheme)
        except Exception:
            ops += [_attempt(lambda p: schemes.assemble(p, mesh_family(p, n), scheme), p)
                    for p in problems]
    built = [op for op in ops if not isinstance(op, Exception)]
    try:
        sols = iter(schemes.solve_many(built))
    except Exception:
        sols = iter([_attempt(schemes.solve, op) for op in built])
    return [op if isinstance(op, Exception) else next(sols) for op in ops]


def sweep(
    problem_family: Callable[
        [tuple[float, ...]], tuple[SystemProblem, ReferenceSolution]
    ],
    mesh_family: Callable[[SystemProblem, int], Mesh1D],
    scheme: str,
    n_list: Sequence[int],
    eps_list: Sequence,
    *,
    family: str = "custom",
    target: str = "n_inv_log",
    norm: str = "max",
) -> ConvergenceReport:
    """Solve every (N, eps) cell and report uniform errors and rates.

    problem_family maps an eps vector to (problem, reference), so oracles
    regenerate per eps; mesh_family maps (problem, N) to the mesh, so it can
    read layer data off the problem.  Cells run N-major: the eps cells of
    one N are meshed and then assembled in one ``schemes.assemble_many``
    call; every cell of the sweep is solved in one ``schemes.solve_many``
    call (one padded stack per block size) and measured in order.  A
    failed cell becomes a record with the exception text instead of
    aborting the sweep, the same record it gets when run alone.  ``NORMS``
    measures err_max always, and err_energy in any norm but max.
    """
    if scheme not in SCHEME_TAGS:
        raise ValueError(f"scheme must be one of {SCHEME_TAGS}, got {scheme!r}")
    ns, epss = _grid(n_list, eps_list, target, norm)
    pairs = [problem_family(e) for e in epss]
    bare = [ref.kind for _, ref in pairs if ref.derivative_fn is None]
    if norm != "max" and bare:
        raise ValueError(f"norm {norm!r} needs the reference's derivative; "
                         f"the {bare[0]} reference has none")

    def failed(n: int, eps: tuple[float, ...], exc: Exception) -> ErrorRecord:
        return ErrorRecord(n=n, eps=eps, failure=f"{type(exc).__name__}: {exc}")

    def measure(n, eps, problem, ref, sol: DiscreteSolution) -> ErrorRecord:
        err_max = NORMS["max"](sol, problem, ref)
        err_energy = None if norm == "max" else NORMS[norm](sol, problem, ref)
        return ErrorRecord(n=n, eps=eps, err_max=err_max, err_energy=err_energy,
                           q=float(sol.mesh.spacings.max()))

    records = []
    cells = [(n, eps, *pair) for n in ns for eps, pair in zip(epss, pairs)]
    solved = _solve_cells([problem for problem, _ in pairs], ns, mesh_family, scheme)
    for (n, eps, problem, ref), got in zip(cells, solved):
        if not isinstance(got, Exception):
            got = _attempt(measure, n, eps, problem, ref, got)
        records.append(failed(n, eps, got) if isinstance(got, Exception) else got)
    return ConvergenceReport(
        family=family,
        scheme=scheme,
        n_list=ns,
        eps_list=epss,
        records=tuple(records),
        target=target,
        norm=norm,
    )


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

CSV_HEADER = "family,scheme,N,eps,err_max,err_energy,Q,rate_raw,rate_corrected"


def _fmt(v: float | None) -> str:
    if v is None or not math.isfinite(v):
        return ""
    return f"{v:.12e}"


def _fmt_eps(eps: tuple[float, ...]) -> str:
    return ";".join(f"{e:.6e}" for e in eps)


def _json_num(v: float | None):
    if v is None or not math.isfinite(v):
        return None
    return v


def report_emit(report: ConvergenceReport, fmt: str = "csv") -> str:
    """Render a report as CSV (fixed column set, byte-stable) or JSON."""
    if fmt == "csv":
        # the rates from N to the next N stand on the rows of N; the
        # finest N has none
        rates = [*zip(report.rates_raw(), report.rates_corrected()), (None, None)]
        k = len(report.eps_list)
        lines = [CSV_HEADER]
        for idx, r in enumerate(report.records):
            raw, cor = rates[idx // k]
            lines.append(",".join((
                report.family, report.scheme, str(r.n), _fmt_eps(r.eps), _fmt(r.err_max),
                _fmt(r.err_energy), _fmt(r.q), _fmt(raw), _fmt(cor),
            )))
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = {
            "family": report.family,
            "scheme": report.scheme,
            "target": report.target,
            "norm": report.norm,
            "n_list": list(report.n_list),
            "eps_list": [list(e) for e in report.eps_list],
            "records": [
                {
                    "n": r.n,
                    "eps": list(r.eps),
                    "err_max": _json_num(r.err_max),
                    "err_energy": _json_num(r.err_energy),
                    "q": _json_num(r.q),
                    "failure": r.failure,
                }
                for r in report.records
            ],
            "uniform_errors": [_json_num(e) for e in report.uniform_errors()],
            "rates_raw": [_json_num(r) for r in report.rates_raw()],
            "rates_corrected": [_json_num(r) for r in report.rates_corrected()],
            "c_star": _json_num(report.c_star()),
            "c_star_by_eps": {
                _fmt_eps(eps): _json_num(v)
                for eps, v in report.c_star_by_eps().items()
            },
            "flags": list(report.monotonicity_flags()),
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    raise ValueError(f"unknown format {fmt!r}; use 'csv' or 'json'")


def report_from_json(text: str) -> ConvergenceReport:
    """Rebuild a report from report_emit(..., 'json') output.

    Derived quantities (rates, C*) are recomputed from the records, so a
    round trip is consistent by construction.
    """
    data = json.loads(text)
    records = tuple(
        ErrorRecord(
            n=r["n"],
            eps=tuple(r["eps"]),
            err_max=math.nan if r["err_max"] is None else float(r["err_max"]),
            err_energy=None if r["err_energy"] is None else float(r["err_energy"]),
            q=math.nan if r["q"] is None else float(r["q"]),
            failure=r["failure"],
        )
        for r in data["records"]
    )
    return ConvergenceReport(
        family=data["family"],
        scheme=data["scheme"],
        n_list=tuple(data["n_list"]),
        eps_list=tuple(tuple(e) for e in data["eps_list"]),
        records=records,
        target=data["target"],
        norm=data["norm"],
    )


# ---------------------------------------------------------------------------
# study registry
# ---------------------------------------------------------------------------


# Builtin problems by name: (eps values taken, constructor).  The count is 1,
# or None for one value per component.  A constructor takes its one eps value,
# or the eps tuple when the count is None, or nothing for its builtin's
# default.  The lambdas look their builders up per call, so rebinding a module
# name (monkeypatching, tracing) takes effect.
PROBLEMS: dict[str, tuple[int | None, Callable[..., tuple[SystemProblem, ReferenceSolution]]]] = {
    "scalar-cd": (1, lambda *eps: builtin_scalar_cd(*eps)),
    "strongly-coupled-2x2": (1, lambda *eps: builtin_strongly_coupled_example(*eps)),
    "strongly-coupled-variable": (1, lambda *eps: builtin_strongly_coupled_variable(*eps)),
    "reaction-diffusion": (None, lambda *args: builtin_reaction_diffusion_system(*args)),
    "weakly-coupled-cd": (None, lambda *args: builtin_weakly_coupled_cd(*args)),
}


def problem_family(
    name: str,
) -> Callable[..., tuple[SystemProblem, ReferenceSolution]]:
    """Builtin problem constructors keyed by name, as eps -> (problem, ref).

    Called without eps, a family builds its builtin's default eps.
    """
    if name not in PROBLEMS:
        raise ValueError(f"unknown problem family {name!r}; known: {', '.join(PROBLEMS)}")
    takes, build = PROBLEMS[name]

    def family(eps=None):
        if eps is None:
            return build()
        eps = _eps_key(eps)
        if takes is None:
            return build(eps)
        if len(eps) != takes:
            raise ValueError(
                f"problem {name!r} takes {takes} eps value, got {len(eps)}: {eps}"
            )
        return build(*eps)

    return family


def _one_layer(tag: str, layers: Sequence[LayerSpec]) -> LayerSpec:
    if len(layers) != 1:
        raise ValueError(
            f"mesh {tag!r} builds one layer, for a scalar problem; the problem has "
            f"m={len(layers)} components: use 'system-shishkin'"
        )
    return layers[0]


# Mesh families by tag, as (layers, n) -> Mesh1D with exactly n cells.  The
# scalar families take exactly one layer (shishkin is system_shishkin on it),
# system-shishkin takes every layer and uniform reads none.  The lambdas look
# their builders up per call, so rebinding a module name (monkeypatching,
# tracing) takes effect.
MESHES: dict[str, Callable[[Sequence[LayerSpec], int], Mesh1D]] = {
    "uniform": lambda layers, n: uniform_mesh(n),
    "shishkin": lambda layers, n: system_shishkin([_one_layer("shishkin", layers)], n),
    "bakhvalov-shishkin": lambda layers, n: bakhvalov_shishkin(
        _one_layer("bakhvalov-shishkin", layers), n),
    "bakhvalov-type": lambda layers, n: bakhvalov_type(_one_layer("bakhvalov-type", layers), n),
    "system-shishkin": lambda layers, n: system_shishkin(layers, n),
}

MESH_TAGS = tuple(MESHES)


class _Envelope(Sequence):
    """default_envelope(problem), computed on first read.  A uniform mesh
    reads no layer, so it also serves problems that have no envelope."""

    def __init__(self, problem: SystemProblem) -> None:
        self.problem = problem

    def __len__(self) -> int:
        return self.problem.m  # one layer per component

    def __getitem__(self, i):
        return default_envelope(self.problem)[i]


def mesh_family(tag: str) -> Callable[[SystemProblem, int], Mesh1D]:
    """Problem-aware mesh builders: the tag's MESHES entry applied to the
    problem's default_envelope, which carries each layer's eps, decay rate
    and side."""
    if tag not in MESHES:
        raise ValueError(f"unknown mesh family {tag!r}; known: {', '.join(MESH_TAGS)}")
    build = MESHES[tag]
    return lambda problem, n: build(_Envelope(problem), n)


@dataclass(frozen=True)
class StudyConfig:
    """A named, fully pinned sweep: problem, scheme, mesh, grids, target, norm."""

    problem: str
    scheme: str
    mesh: str
    n_list: tuple[int, ...]
    eps_list: tuple[tuple[float, ...], ...]
    target: str = "n_inv_log"
    norm: str = "max"
    name: str = ""

    def __post_init__(self) -> None:
        ns, epss = _grid(self.n_list, self.eps_list, self.target, self.norm)
        object.__setattr__(self, "n_list", ns)
        object.__setattr__(self, "eps_list", epss)


_SCALAR_N = (64, 128, 256, 512, 1024)
_SCALAR_EPS = ((1e-4,), (1e-6,), (1e-8,), (1e-10,))
_SYSTEM_N = (96, 192, 384, 768)

STUDIES: dict[str, StudyConfig] = {
    cfg.name: cfg
    for cfg in (
        StudyConfig(
            name="scalar-upwind-shishkin",
            problem="scalar-cd",
            scheme="simple-upwind",
            mesh="shishkin",
            n_list=_SCALAR_N,
            eps_list=_SCALAR_EPS,
            target="n_inv_log",
        ),
        StudyConfig(
            name="scalar-upwind-bakhvalov-shishkin",
            problem="scalar-cd",
            scheme="simple-upwind",
            mesh="bakhvalov-shishkin",
            n_list=_SCALAR_N,
            eps_list=_SCALAR_EPS,
            target="n_inv",
        ),
        StudyConfig(
            name="scalar-upwind-bakhvalov-type",
            problem="scalar-cd",
            scheme="simple-upwind",
            mesh="bakhvalov-type",
            n_list=_SCALAR_N,
            eps_list=_SCALAR_EPS,
            target="n_inv",
        ),
        StudyConfig(
            name="scalar-fem-shishkin",
            problem="scalar-cd",
            scheme="galerkin-fem",
            mesh="shishkin",
            n_list=_SCALAR_N,
            eps_list=_SCALAR_EPS,
            target="n_inv_log",
            norm="energy",
        ),
        StudyConfig(
            name="scalar-fem-bakhvalov-shishkin",
            problem="scalar-cd",
            scheme="galerkin-fem",
            mesh="bakhvalov-shishkin",
            n_list=_SCALAR_N,
            eps_list=_SCALAR_EPS,
            target="n_inv",
            norm="energy",
        ),
        StudyConfig(
            name="smooth-central-uniform",
            problem="reaction-diffusion",
            scheme="central",
            mesh="uniform",
            n_list=_SCALAR_N,
            eps_list=((1.0,),),
            target="n_inv_sq",
        ),
        StudyConfig(
            name="reaction-diffusion-central",
            problem="reaction-diffusion",
            scheme="central",
            mesh="system-shishkin",
            n_list=_SYSTEM_N,
            eps_list=((1e-6, 1e-3),),
            target="n_inv_log_sq",
        ),
        StudyConfig(
            name="weakly-coupled-upwind",
            problem="weakly-coupled-cd",
            scheme="simple-upwind",
            mesh="system-shishkin",
            n_list=_SYSTEM_N,
            eps_list=((1e-6, 1e-3), (1e-8, 1e-4)),
            target="n_inv_log",
        ),
        StudyConfig(
            name="strongly-coupled-ias",
            problem="strongly-coupled-2x2",
            scheme="ias",
            mesh="uniform",
            n_list=_SCALAR_N,
            eps_list=((1e-4,), (1e-6,), (1e-8,)),
            target="n_inv",
        ),
        StudyConfig(
            name="strongly-coupled-variable-ias",
            problem="strongly-coupled-variable",
            scheme="ias",
            mesh="uniform",
            n_list=_SCALAR_N,
            eps_list=((1e-4,), (1e-6,), (1e-8,)),
            target="n_inv",
        ),
    )
}


_TEXT_KEYS = ("problem", "scheme", "mesh", "target", "norm", "name")
_STUDY_KEYS = _TEXT_KEYS + ("N_list", "eps_list", "output", "format")


def study_from_dict(data: dict) -> StudyConfig:
    """Build a StudyConfig from a JSON-style dict (the CLI study format)."""
    if unknown := sorted(set(data) - set(_STUDY_KEYS)):
        raise ValueError(f"unknown study config keys: {', '.join(unknown)}; "
                         f"known: {', '.join(_STUDY_KEYS)}")
    if "name" in data and set(data) <= {"name", "output", "format"}:
        name = data["name"]
        if name not in STUDIES:
            raise ValueError(
                f"unknown study {name!r}; known: {', '.join(sorted(STUDIES))}"
            )
        return STUDIES[name]
    if missing := {"problem", "scheme", "mesh", "N_list", "eps_list"} - set(data):
        raise ValueError(f"study config missing keys: {', '.join(sorted(missing))}")
    if not all(isinstance(data[k], (list, tuple)) for k in ("N_list", "eps_list")):
        raise ValueError("study config N_list and eps_list must be lists")
    if not isinstance(data.get("output", ""), str):
        raise ValueError(f"study config output must be a file name, got {data['output']!r}")
    try:
        return StudyConfig(
            n_list=data["N_list"],
            eps_list=data["eps_list"],
            **{k: str(data[k]) for k in _TEXT_KEYS if k in data},
        )
    except TypeError as exc:
        raise ValueError(f"study config N_list and eps_list must hold numbers: {exc}") from exc


def run_study(cfg: StudyConfig) -> ConvergenceReport:
    """Execute a pinned study; the report's family column is the mesh tag.

    Oracle-backed problems regenerate their fine-mesh reference per eps at
    their builtin's default n_ref of 12288 cells, 16x the largest N of the
    registered system studies.
    """
    return sweep(
        problem_family(cfg.problem),
        mesh_family(cfg.mesh),
        cfg.scheme,
        cfg.n_list,
        cfg.eps_list,
        family=cfg.mesh,
        target=cfg.target,
        norm=cfg.norm,
    )
