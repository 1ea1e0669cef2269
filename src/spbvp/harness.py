"""Convergence measurement: (N, eps) sweeps, uniform-rate fitting, reporting.

The primary quantity is the uniform error E(N) = max over eps of the
per-cell error.  Raw rates compare E against powers of N; the corrected
rate divides by the ratio of N^{-1} ln N instead, which removes the
logarithmic factor that piecewise-uniform meshes carry.  The boundedness
constant C* = max_N E(N)/target(N) operationalizes "the constant does not
depend on eps or N": it must stay within a fixed spread across eps.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .meshes import (
    Mesh1D,
    bakhvalov_shishkin,
    bakhvalov_type,
    diagnostics,
    shishkin,
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
    oracle_reference,
)
from .schemes import SCHEME_TAGS, DiscreteSolution, discrete_solve, energy_norm_error

__all__ = [
    "CSV_HEADER",
    "ConvergenceReport",
    "ErrorRecord",
    "MESH_TAGS",
    "RATE_TARGETS",
    "STUDIES",
    "StudyConfig",
    "corrected_rate",
    "max_norm_error",
    "mesh_family",
    "problem_family",
    "raw_rate",
    "reference_discrepancy",
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


def raw_rate(err_coarse: float, err_fine: float, n_coarse: int, n_fine: int) -> float:
    """log(E1/E2) / log(N2/N1); equals log2(E(N)/E(2N)) on doubled grids.

    Defined only where both errors are positive and finite; nan otherwise.
    """
    if not (err_coarse > 0.0 and err_fine > 0.0):
        return math.nan
    if not (math.isfinite(err_coarse) and math.isfinite(err_fine)):
        return math.nan
    return math.log(err_coarse / err_fine) / math.log(n_fine / n_coarse)


def corrected_rate(
    err_coarse: float, err_fine: float, n_coarse: int, n_fine: int
) -> float:
    """Rate against N^{-1} ln N: log(E1/E2) / log(phi(N1)/phi(N2)).

    Substituting E(N) = N^{-1} ln N gives exactly 1; a second-order target
    (N^{-1} ln N)^2 gives exactly 2.
    """
    if not (err_coarse > 0.0 and err_fine > 0.0):
        return math.nan
    if not (math.isfinite(err_coarse) and math.isfinite(err_fine)):
        return math.nan
    return math.log(err_coarse / err_fine) / math.log(_phi(n_coarse) / _phi(n_fine))


# ---------------------------------------------------------------------------
# records and reports
# ---------------------------------------------------------------------------


def _eps_key(eps) -> tuple[float, ...]:
    if isinstance(eps, (int, float)):
        return (float(eps),)
    return tuple(float(e) for e in eps)


@dataclass(frozen=True)
class ErrorRecord:
    """One sweep cell: a (mesh size, eps vector) pair and its errors.

    q is the g == 1 mesh-quality functional, i.e. the largest cell width.
    A failed solve carries the exception text in `failure` and nan errors.
    """

    family: str
    scheme: str
    n: int
    eps: tuple[float, ...]
    err_max: float = math.nan
    err_energy: float | None = None
    q: float = math.nan
    failure: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "eps", _eps_key(self.eps))
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        if any(e <= 0.0 for e in self.eps):
            raise ValueError(f"eps values must be positive, got {self.eps}")
        if self.failure is None:
            if not self.err_max >= 0.0:
                raise ValueError(f"err_max must be >= 0, got {self.err_max!r}")
            if self.err_energy is not None and not self.err_energy >= 0.0:
                raise ValueError(f"err_energy must be >= 0, got {self.err_energy!r}")


@dataclass(frozen=True)
class ConvergenceReport:
    """Full (N, eps) grid of records plus fitted uniform rates.

    records are row-major: all eps for n_list[0], then n_list[1], ...
    """

    family: str
    scheme: str
    n_list: tuple[int, ...]
    eps_list: tuple[tuple[float, ...], ...]
    records: tuple[ErrorRecord, ...]
    target: str = "n_inv_log"

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_list", tuple(int(n) for n in self.n_list))
        object.__setattr__(
            self, "eps_list", tuple(_eps_key(e) for e in self.eps_list)
        )
        object.__setattr__(self, "records", tuple(self.records))
        if any(b <= a for a, b in zip(self.n_list, self.n_list[1:])):
            raise ValueError(f"n_list must increase strictly, got {self.n_list}")
        if self.target not in RATE_TARGETS:
            raise ValueError(f"unknown target {self.target!r}")
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
        i = self.n_list.index(int(n))
        j = self.eps_list.index(_eps_key(eps))
        return self.records[i * len(self.eps_list) + j]

    @property
    def failures(self) -> tuple[ErrorRecord, ...]:
        return tuple(r for r in self.records if r.failure is not None)

    def _cell_error(self, rec: ErrorRecord, use: str) -> float | None:
        if rec.failure is not None:
            return None
        if use == "max":
            return rec.err_max
        if use == "energy":
            return rec.err_energy
        raise ValueError(f"use must be 'max' or 'energy', got {use!r}")

    def uniform_errors(self, use: str = "max") -> tuple[float, ...]:
        """E(N) = max over eps; nan where no cell produced the error."""
        out = []
        k = len(self.eps_list)
        for i in range(len(self.n_list)):
            vals = [
                e
                for r in self.records[i * k : (i + 1) * k]
                if (e := self._cell_error(r, use)) is not None
            ]
            out.append(max(vals) if vals else math.nan)
        return tuple(out)

    def rates_raw(self, use: str = "max") -> tuple[float, ...]:
        e = self.uniform_errors(use)
        return tuple(
            raw_rate(e[i], e[i + 1], self.n_list[i], self.n_list[i + 1])
            for i in range(len(e) - 1)
        )

    def rates_corrected(self, use: str = "max") -> tuple[float, ...]:
        e = self.uniform_errors(use)
        return tuple(
            corrected_rate(e[i], e[i + 1], self.n_list[i], self.n_list[i + 1])
            for i in range(len(e) - 1)
        )

    def c_star(self, use: str = "max") -> float:
        """max_N E(N)/target(N) over the N where E is defined."""
        tgt = RATE_TARGETS[self.target]
        vals = [
            e / tgt(n)
            for n, e in zip(self.n_list, self.uniform_errors(use))
            if math.isfinite(e)
        ]
        return max(vals) if vals else math.nan

    def c_star_by_eps(self, use: str = "max") -> dict[tuple[float, ...], float]:
        """Per-eps boundedness constants; their spread across eps is the
        operational test that the error constant does not depend on eps."""
        tgt = RATE_TARGETS[self.target]
        out: dict[tuple[float, ...], float] = {}
        k = len(self.eps_list)
        for j, eps in enumerate(self.eps_list):
            vals = [
                e / tgt(self.n_list[i])
                for i in range(len(self.n_list))
                if (e := self._cell_error(self.records[i * k + j], use)) is not None
                and math.isfinite(e)
            ]
            out[eps] = max(vals) if vals else math.nan
        return out

    def c_star_spread(self, use: str = "max") -> float:
        """max/min ratio of the per-eps constants (nan if undefined)."""
        vals = [v for v in self.c_star_by_eps(use).values() if v > 0.0]
        if not vals or not all(math.isfinite(v) for v in vals):
            return math.nan
        return max(vals) / min(vals)

    def monotonicity_flags(self, use: str = "max") -> tuple[str, ...]:
        """Inversions of E(N); small single inversions are flagged, not fatal."""
        e = self.uniform_errors(use)
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

    def essentially_monotone(self, use: str = "max") -> bool:
        flags = self.monotonicity_flags(use)
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


def reference_discrepancy(
    ref_a: ReferenceSolution, ref_b: ReferenceSolution, npts: int = 1025
) -> float:
    """Max-norm distance between two references on a uniform probe grid.

    Doubling an oracle's cell count must move it by far less than the
    smallest error it is used to measure.
    """
    x = np.linspace(0.0, 1.0, npts)
    return float(np.max(np.abs(ref_a(x) - ref_b(x))))


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
    energy: bool = False,
) -> ConvergenceReport:
    """Solve every (N, eps) cell and report uniform errors and rates.

    problem_family maps an eps vector to (problem, reference), so oracles
    regenerate per eps; mesh_family maps (problem, N) to the mesh, so it can
    read layer data off the problem.  Cells run in order, N-major; a failed
    cell becomes a record with the exception text instead of aborting the
    sweep.
    """
    if scheme not in SCHEME_TAGS:
        raise ValueError(f"scheme must be one of {SCHEME_TAGS}, got {scheme!r}")
    ns = tuple(int(n) for n in n_list)
    epss = tuple(_eps_key(e) for e in eps_list)
    if not ns or not epss:
        raise ValueError("n_list and eps_list must be non-empty")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError(f"n_list must increase strictly, got {ns}")
    pairs = [problem_family(e) for e in epss]

    def cell(n: int, eps: tuple[float, ...], problem, ref) -> ErrorRecord:
        try:
            mesh = mesh_family(problem, n)
            sol = discrete_solve(problem, mesh, scheme)
            err = max_norm_error(sol, ref)
            en = (
                energy_norm_error(mesh, sol.values, ref, problem.diffusion)
                if energy and ref.derivative_fn is not None
                else None
            )
            return ErrorRecord(
                family=family,
                scheme=scheme,
                n=n,
                eps=eps,
                err_max=err,
                err_energy=en,
                q=diagnostics(mesh).max_h,
            )
        except Exception as exc:  # recorded per cell, not fatal
            return ErrorRecord(
                family=family,
                scheme=scheme,
                n=n,
                eps=eps,
                failure=f"{type(exc).__name__}: {exc}",
            )

    records = tuple(
        cell(n, eps, *pair) for n in ns for eps, pair in zip(epss, pairs)
    )
    return ConvergenceReport(
        family=family,
        scheme=scheme,
        n_list=ns,
        eps_list=epss,
        records=records,
        target=target,
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
        rr = report.rates_raw()
        rc = report.rates_corrected()
        k = len(report.eps_list)
        lines = [CSV_HEADER]
        for i, n in enumerate(report.n_list):
            raw = rr[i] if i < len(rr) else None
            cor = rc[i] if i < len(rc) else None
            for j in range(k):
                r = report.records[i * k + j]
                lines.append(
                    ",".join(
                        (
                            r.family,
                            r.scheme,
                            str(n),
                            _fmt_eps(r.eps),
                            _fmt(r.err_max),
                            _fmt(r.err_energy),
                            _fmt(r.q),
                            _fmt(raw),
                            _fmt(cor),
                        )
                    )
                )
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = {
            "family": report.family,
            "scheme": report.scheme,
            "target": report.target,
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
            family=data["family"],
            scheme=data["scheme"],
            n=int(r["n"]),
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
    )


# ---------------------------------------------------------------------------
# study registry
# ---------------------------------------------------------------------------


def _strongly_coupled_oracle(eps: float) -> tuple[SystemProblem, ReferenceSolution]:
    problem, _ = builtin_strongly_coupled_example(eps)
    # self-consistent fitted-scheme oracle; 16384 = 16 * the largest default
    # study N, and its nodes nest over every power-of-two N
    ref = oracle_reference(problem, 16384, "ias", uniform_mesh, mesh_label="uniform")
    return problem, ref


def problem_family(
    name: str,
) -> Callable[[tuple[float, ...]], tuple[SystemProblem, ReferenceSolution]]:
    """Builtin problem constructors keyed by name, as eps -> (problem, ref)."""
    single_eps = {
        "scalar-cd": builtin_scalar_cd,
        "strongly-coupled-2x2": builtin_strongly_coupled_example,
        "strongly-coupled-2x2-oracle": _strongly_coupled_oracle,
        "strongly-coupled-variable": builtin_strongly_coupled_variable,
    }
    if name in single_eps:
        build = single_eps[name]

        def family(eps):
            if len(eps) != 1:
                raise ValueError(
                    f"problem {name!r} takes 1 eps value, got {len(eps)}: {eps}"
                )
            return build(eps[0])

        return family
    if name == "reaction-diffusion":
        return lambda eps: builtin_reaction_diffusion_system(m=len(eps), eps=eps)
    if name == "weakly-coupled-cd":
        return lambda eps: builtin_weakly_coupled_cd(m=len(eps), eps=eps)
    raise ValueError(f"unknown problem family {name!r}")


MESH_TAGS = ("uniform", "shishkin", "bakhvalov-shishkin", "bakhvalov-type", "system-shishkin")


def _scalar_layer_mesh(build, problem: SystemProblem, n: int) -> Mesh1D:
    if problem.m != 1:
        raise ValueError(
            f"layer-adapted scalar meshes need a scalar problem, got m={problem.m}"
        )
    return build(default_envelope(problem)[0], n)


def mesh_family(tag: str) -> Callable[[SystemProblem, int], Mesh1D]:
    """Problem-aware mesh builders for the study registry and the CLI.

    Each layer's eps, decay rate and side come from default_envelope.  The
    scalar families take the one layer of an m = 1 problem; system-shishkin
    takes every layer.
    """
    if tag not in MESH_TAGS:
        raise ValueError(f"unknown mesh family {tag!r}; known: {', '.join(MESH_TAGS)}")
    if tag == "uniform":
        return lambda problem, n: uniform_mesh(n)
    if tag == "system-shishkin":
        return lambda problem, n: system_shishkin(default_envelope(problem), n)
    # builders are looked up per call, so rebinding the module names
    # (monkeypatching, tracing) takes effect
    build = {
        "shishkin": shishkin,
        "bakhvalov-shishkin": bakhvalov_shishkin,
        "bakhvalov-type": bakhvalov_type,
    }[tag]
    return lambda problem, n: _scalar_layer_mesh(build, problem, n)


@dataclass(frozen=True)
class StudyConfig:
    """A named, fully pinned sweep: problem, scheme, mesh, grids, target."""

    problem: str
    scheme: str
    mesh: str
    n_list: tuple[int, ...]
    eps_list: tuple[tuple[float, ...], ...]
    target: str = "n_inv_log"
    energy: bool = False
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_list", tuple(int(n) for n in self.n_list))
        object.__setattr__(
            self, "eps_list", tuple(_eps_key(e) for e in self.eps_list)
        )
        if self.target not in RATE_TARGETS:
            raise ValueError(f"unknown target {self.target!r}")


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
            energy=True,
        ),
        StudyConfig(
            name="scalar-fem-bakhvalov-shishkin",
            problem="scalar-cd",
            scheme="galerkin-fem",
            mesh="bakhvalov-shishkin",
            n_list=_SCALAR_N,
            eps_list=_SCALAR_EPS,
            target="n_inv",
            energy=True,
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
            problem="strongly-coupled-2x2-oracle",
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


def study_from_dict(data: dict) -> StudyConfig:
    """Build a StudyConfig from a JSON-style dict (the CLI study format)."""
    if "name" in data and set(data) <= {"name", "output", "format"}:
        name = data["name"]
        if name not in STUDIES:
            raise ValueError(
                f"unknown study {name!r}; known: {', '.join(sorted(STUDIES))}"
            )
        return STUDIES[name]
    required = {"problem", "scheme", "mesh", "N_list", "eps_list"}
    missing = required - set(data)
    if missing:
        raise ValueError(f"study config missing keys: {', '.join(sorted(missing))}")
    return StudyConfig(
        problem=str(data["problem"]),
        scheme=str(data["scheme"]),
        mesh=str(data["mesh"]),
        n_list=tuple(int(n) for n in data["N_list"]),
        eps_list=tuple(_eps_key(e) for e in data["eps_list"]),
        target=str(data.get("target", "n_inv_log")),
        energy=bool(data.get("energy", False)),
        name=str(data.get("name", "")),
    )


def run_study(cfg: StudyConfig) -> ConvergenceReport:
    """Execute a pinned study; the report's family column is the mesh tag.

    Oracle-backed problems regenerate their fine-mesh reference per eps at
    the builtin resolution (16x the largest default study N).
    """
    return sweep(
        problem_family(cfg.problem),
        mesh_family(cfg.mesh),
        cfg.scheme,
        cfg.n_list,
        cfg.eps_list,
        family=cfg.mesh,
        target=cfg.target,
        energy=cfg.energy,
    )
