"""Sweep bookkeeping: records, uniform rates, C*, emission, study registry."""
import dataclasses
import itertools
import json
import math
import pathlib
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spbvp
from spbvp import harness, problems, schemes
from spbvp.harness import (
    ConvergenceReport,
    ErrorRecord,
    MESH_TAGS,
    MESHES,
    PROBLEMS,
    RATE_TARGETS,
    STUDIES,
    StudyConfig,
    corrected_rate,
    max_norm_error,
    mesh_family,
    problem_family,
    raw_rate,
    report_emit,
    report_from_json,
    run_study,
    study_from_dict,
    sweep,
)
from spbvp.linalg import BlockTridiag
from spbvp.meshes import LayerSpec, mirror, system_shishkin
from spbvp.problems import (
    ReferenceSolution,
    SystemProblem,
    builtin_reaction_diffusion_system,
    builtin_scalar_cd,
    builtin_strongly_coupled_example,
    builtin_weakly_coupled_cd,
    coefficient,
    default_envelope,
    oracle_reference,
)
from spbvp.schemes import discrete_solve, solve_many

GOLDEN = pathlib.Path(__file__).parent / "golden"

# frozen expected values
UPWIND_SHISHKIN_N64_EPS1M6 = 0.04365607160885421  # locked after first verified run


def _mk_records(n_list, eps_list, errs):
    recs = []
    for i, n in enumerate(n_list):
        for j, eps in enumerate(eps_list):
            recs.append(ErrorRecord(n=n, eps=eps, err_max=errs[i][j], q=1.0 / n))
    return tuple(recs)


def _report(errs, n_list=(64, 128, 256), eps_list=((1e-4,), (1e-6,)), target="n_inv_log"):
    return ConvergenceReport(
        family="shishkin",
        scheme="simple-upwind",
        n_list=n_list,
        eps_list=eps_list,
        records=_mk_records(n_list, eps_list, errs),
        target=target,
    )


# ---------------------------------------------------------------------------
# rate arithmetic


def test_corrected_rate_self_test_first_order():
    for n in (64, 128, 256, 512):
        e1 = math.log(n) / n
        e2 = math.log(2 * n) / (2 * n)
        assert abs(corrected_rate(e1, e2, n, 2 * n) - 1.0) <= 1e-12


def test_corrected_rate_self_test_second_order():
    for n in (96, 192, 384):
        e1 = (math.log(n) / n) ** 2
        e2 = (math.log(2 * n) / (2 * n)) ** 2
        assert abs(corrected_rate(e1, e2, n, 2 * n) - 2.0) <= 1e-12


def test_raw_rate_is_log2_on_doubled_grids():
    assert abs(raw_rate(0.4, 0.1, 64, 128) - 2.0) <= 1e-14
    assert abs(raw_rate(0.4, 0.2, 100, 200) - 1.0) <= 1e-14


def test_rates_undefined_without_positive_errors():
    assert math.isnan(raw_rate(0.0, 0.1, 64, 128))
    assert math.isnan(raw_rate(0.1, 0.0, 64, 128))
    assert math.isnan(corrected_rate(math.nan, 0.1, 64, 128))
    assert math.isnan(corrected_rate(0.1, math.inf, 64, 128))


def test_corrected_rate_undefined_where_phi_does_not_decrease():
    # ln 2 / 2 = ln 4 / 4, and ln N / N rises from N = 1 to 3
    assert math.isnan(corrected_rate(0.4, 0.1, 2, 4))
    assert math.isnan(corrected_rate(0.4, 0.1, 2, 3))
    assert math.isnan(corrected_rate(0.4, 0.1, 1, 2))
    assert math.isfinite(corrected_rate(0.4, 0.1, 3, 4))


@settings(max_examples=60, deadline=None)
@given(
    c=st.floats(min_value=1e-3, max_value=1e3),
    p=st.floats(min_value=0.5, max_value=3.0),
    n=st.sampled_from([32, 64, 128, 256]),
)
def test_corrected_rate_recovers_synthetic_exponent(c, p, n):
    phi = lambda k: math.log(k) / k
    got = corrected_rate(c * phi(n) ** p, c * phi(2 * n) ** p, n, 2 * n)
    assert abs(got - p) <= 1e-9


# ---------------------------------------------------------------------------
# records and report reductions


def test_error_record_validation():
    with pytest.raises(ValueError, match="err_max"):
        ErrorRecord(n=8, eps=(1e-3,), err_max=-1.0)
    with pytest.raises(ValueError, match="N values must be at least 1, got 0"):
        ErrorRecord(n=0, eps=(1e-3,), err_max=0.0)
    with pytest.raises(ValueError, match="eps must be finite and positive, got 0.0"):
        ErrorRecord(n=8, eps=(0.0,), err_max=0.0)
    # failed cells may carry nan errors; scalar eps normalizes to a tuple
    rec = ErrorRecord(n=8, eps=1e-3, failure="boom")
    assert rec.eps == (1e-3,) and math.isnan(rec.err_max)
    with pytest.raises(ValueError, match="err_max"):
        ErrorRecord(n=8, eps=(1e-3,), err_max=math.nan)


def test_report_grid_is_validated():
    recs = _mk_records((64, 128), ((1e-4,),), [[0.1], [0.05]])
    with pytest.raises(ValueError, match="need 4 records"):
        ConvergenceReport(
            family="shishkin",
            scheme="simple-upwind",
            n_list=(64, 128),
            eps_list=((1e-4,), (1e-6,)),
            records=recs,
        )
    with pytest.raises(ValueError, match="grid expects"):
        ConvergenceReport(
            family="shishkin",
            scheme="simple-upwind",
            n_list=(64, 128),
            eps_list=((1e-4,),),
            records=recs[::-1],
        )
    with pytest.raises(ValueError, match="increase strictly"):
        _report(
            [[0.1, 0.1]] * 3,
            n_list=(64,) * 2 + (128,),
            eps_list=((1e-4,), (1e-6,)),
        )


def test_uniform_error_is_max_over_eps_and_skips_failures():
    rep = _report([[0.3, 0.4], [0.2, 0.15], [0.05, 0.06]])
    assert rep.uniform_errors() == (0.4, 0.2, 0.06)
    assert rep.record(128, (1e-6,)).err_max == 0.15
    failed = ErrorRecord(n=64, eps=(1e-6,), failure="x")
    recs = (rep.records[0], failed) + rep.records[2:]
    rep2 = ConvergenceReport(
        family="shishkin",
        scheme="simple-upwind",
        n_list=rep.n_list,
        eps_list=rep.eps_list,
        records=recs,
        target="n_inv_log",
    )
    assert rep2.uniform_errors()[0] == 0.3
    assert rep2.failures == (failed,)


def test_report_rates_and_c_star_against_hand_values():
    rep = _report([[0.4, 0.4], [0.1, 0.1], [0.1, 0.1]])
    rr = rep.rates_raw()
    assert abs(rr[0] - 2.0) <= 1e-14 and abs(rr[1]) <= 1e-14
    # C* per cell: err / (ln n / n); the n=64 cell dominates
    want = 0.4 / (math.log(64) / 64)
    assert abs(rep.c_star() - want) <= 1e-12
    by_eps = rep.c_star_by_eps()
    assert set(by_eps) == {(1e-4,), (1e-6,)}
    assert abs(rep.c_star_spread() - 1.0) <= 1e-12


def test_c_star_spread_is_nan_when_an_eps_failed_in_every_cell():
    # eps = 1e-15 cannot be meshed on shishkin at N >= 256: its constant is
    # nan, so the spread must not read the surviving eps alone as flat
    rep = sweep(problem_family("scalar-cd"), mesh_family("shishkin"), "simple-upwind",
                [256, 512], [1e-4, 1e-15])
    assert len(rep.failures) == 2
    by_eps = rep.c_star_by_eps()
    assert by_eps[(1e-4,)] > 0.0 and math.isnan(by_eps[(1e-15,)])
    assert math.isnan(rep.c_star_spread())
    # a zero constant stays skipped: an exact eps is no spread
    exact = _report([[0.0, 0.4], [0.0, 0.2], [0.0, 0.1]])
    assert exact.c_star_spread() == 1.0


def test_monotonicity_flags_discriminate_minor_and_severe():
    rep = _report([[0.4, 0.4], [0.404, 0.41], [0.1, 0.1]])
    flags = rep.monotonicity_flags()
    assert len(flags) == 1 and flags[0].startswith("minor")
    assert rep.essentially_monotone()
    rep2 = _report([[0.4, 0.4], [0.9, 0.9], [0.1, 0.1]])
    assert not rep2.essentially_monotone()
    assert rep2.monotonicity_flags()[0].startswith("severe")


# ---------------------------------------------------------------------------
# max-norm error


def test_max_norm_error_of_own_interpolant_is_zero():
    problem, ref = builtin_scalar_cd(1e-2)
    sol = discrete_solve(problem, mesh_family("shishkin")(problem, 16), "simple-upwind")
    mirrored = ReferenceSolution(kind="exact", evaluator=lambda x: np.interp(
        x, sol.mesh.points, sol.values[:, 0])[:, None])
    assert max_norm_error(sol, mirrored) == 0.0


def test_max_norm_error_sees_constant_offset():
    problem, ref = builtin_scalar_cd(1e-2)
    sol = discrete_solve(problem, mesh_family("shishkin")(problem, 16), "simple-upwind")
    shifted = ReferenceSolution(
        kind="exact", evaluator=lambda x: ref(x) + 0.125, label="shifted"
    )
    base = max_norm_error(sol, ref)
    assert abs(max_norm_error(sol, shifted) - 0.125) <= base + 1e-12


def test_max_norm_error_regression_lock():
    problem, ref = builtin_scalar_cd(1e-6)
    sol = discrete_solve(problem, mesh_family("shishkin")(problem, 64), "simple-upwind")
    assert math.isclose(
        max_norm_error(sol, ref), UPWIND_SHISHKIN_N64_EPS1M6, rel_tol=1e-12
    )


def test_oracle_reference_is_lazy():
    problem, _ = builtin_scalar_cd(1e-2)

    def explode(n):
        raise RuntimeError("mesh built eagerly")

    ref = oracle_reference(problem, 64, "simple-upwind", explode)
    with pytest.raises(RuntimeError, match="eagerly"):
        ref(np.array([0.5]))


# ---------------------------------------------------------------------------
# sweep


def test_sweep_records_cell_failures_without_aborting():
    rep = sweep(
        problem_family("scalar-cd"),
        mesh_family("shishkin"),
        "central",  # reserved for reaction-diffusion: every cell fails
        (16, 32),
        ((1e-3,),),
        family="shishkin",
    )
    assert len(rep.failures) == 2
    assert "reaction-diffusion" in rep.failures[0].failure
    assert all(math.isnan(e) for e in rep.uniform_errors())
    assert all(math.isnan(r) for r in rep.rates_raw())
    body = report_emit(rep, "csv").splitlines()
    assert body[1].endswith(",,,,,")


def test_sweep_group_failures_stay_in_their_own_cells(monkeypatch):
    # One N-group holds a cell whose mesh cannot be built (eps = 1e-15 on
    # shishkin at N >= 256), a singular cell (a zeroed first pivot, at
    # N = 256 only) and a cell that fails the residual guard (row 4 scaled
    # by 1e-17).  The mesh failure sends both N through per-cell assembly,
    # and the study's one stacked solve raises (singular at N = 256); every
    # cell must still read as it does solved alone.  The operators are
    # rigged at the assembly entry point, which assemble also goes through.
    assemble_many = schemes.assemble_many

    def rigged_many(problems, meshes, scheme):
        return [rig(p, op) for p, op in zip(problems, assemble_many(problems, meshes, scheme))]

    def rigged(problem, mesh, scheme):
        return rigged_many([problem], [mesh], scheme)[0]

    def rig(problem, op):
        mat, eps = op.matrix, problem.eps[0]
        sub, diag, sup = mat.sub.copy(), mat.diag.copy(), mat.sup.copy()
        if eps == 1e-3 and mat.n == 257:
            diag[1] = 0.0
        elif eps == 1e-2:
            diag[4] *= 1e-17
            sub[3] *= 1e-17
            sup[4] *= 1e-17
        return dataclasses.replace(op, matrix=BlockTridiag(sub=sub, diag=diag, sup=sup))

    monkeypatch.setattr(schemes, "assemble_many", rigged_many)
    n_list = (256, 512)
    eps_list = ((1e-4,), (1e-15,), (1e-3,), (1e-2,), (1e-6,))
    family, meshes = problem_family("scalar-cd"), mesh_family("shishkin")
    rep = sweep(family, meshes, "simple-upwind", n_list, eps_list, family="shishkin")

    # each cell alone: mesh, assemble, solve, errors, first failure wins
    for rec, (n, eps) in zip(rep.records, [(n, e) for n in n_list for e in eps_list]):
        problem, ref = family(eps)
        try:
            mesh = meshes(problem, n)
            sol = schemes.solve(rigged(problem, mesh, "simple-upwind"))
        except Exception as exc:
            assert rec.failure == f"{type(exc).__name__}: {exc}"
            assert math.isnan(rec.err_max)
            continue
        assert rec.failure is None
        assert rec.err_max == max_norm_error(sol, ref)
        assert rec.q == float(mesh.spacings.max())
    failures = {(r.n, r.eps[0]): r.failure for r in rep.failures}
    assert set(failures) == {(256, 1e-15), (512, 1e-15), (256, 1e-3), (256, 1e-2), (512, 1e-2)}
    assert failures[(256, 1e-15)].startswith("ValueError: mesh points must increase strictly")
    assert failures[(256, 1e-3)] == (
        "SingularMatrixError: singular pivot block at cyclic reduction level 0")
    assert failures[(512, 1e-2)].startswith("RuntimeError: solver residual")


def test_sweep_rejects_unordered_n_list_before_solving(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return solve_many(*args, **kwargs)

    monkeypatch.setattr(schemes, "solve_many", counting)
    cfg = {
        "problem": "scalar-cd",
        "scheme": "simple-upwind",
        "mesh": "shishkin",
        "N_list": [4096, 2048, 1024],
        "eps_list": [1e-4, 1e-6, 1e-8],
    }
    unordered = r"n_list must increase strictly, got \(4096, 2048, 1024\)"
    # the config is refused when it is read, the sweep before it solves
    with pytest.raises(ValueError, match=unordered):
        study_from_dict(cfg)
    with pytest.raises(ValueError, match=unordered):
        sweep(problem_family("scalar-cd"), mesh_family("shishkin"), "simple-upwind",
              cfg["N_list"], cfg["eps_list"])
    assert calls == []
    run_study(study_from_dict({**cfg, "N_list": [16, 32]}))
    assert len(calls) == 1  # one solve per study: the counter sees the sweep


@pytest.mark.parametrize("name, mesh, scheme, n_list", [
    ("scalar-cd", "shishkin", "galerkin-fem", (16, 32, 64)),
    ("strongly-coupled-2x2", "uniform", "ias", (16, 32)),
])
def test_sweep_assembles_once_per_n_and_solves_once_per_study(monkeypatch, name, mesh,
                                                              scheme, n_list):
    calls = {"assemble": [], "assemble_many": [], "solve": [], "solve_many": []}

    def counted(step):
        fn = getattr(schemes, step)

        def wrapper(*args):
            calls[step].append(args)
            return fn(*args)
        monkeypatch.setattr(schemes, step, wrapper)

    for step in calls:
        counted(step)
    eps_list = ((1e-3,), (1e-6,), (1e-9,))
    rep = sweep(problem_family(name), mesh_family(mesh), scheme, n_list, eps_list)
    assert rep.failures == ()
    assert [len(args[0]) for args in calls["assemble_many"]] == [3] * len(n_list)
    assert [len(args[0]) for args in calls["solve_many"]] == [3 * len(n_list)]
    assert calls["assemble"] == calls["solve"] == []  # no per-cell fallback ran


def test_sweep_records_a_warning_raised_as_error_per_cell(monkeypatch):
    # with warnings raised as errors (as the suite runs), the sign-changing
    # convection of strongly-coupled-variable fails each stacked assembly,
    # and the per-cell fallback records every cell's own warning
    calls = []
    assemble = schemes.assemble

    def counting(*args):
        calls.append(args)
        return assemble(*args)

    monkeypatch.setattr(schemes, "assemble", counting)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = sweep(problem_family("strongly-coupled-variable"), mesh_family("uniform"),
                    "simple-upwind", (16, 32), ((1e-2,), (1e-3,)))
    assert len(calls) == 4
    assert [r.failure for r in rep.records] == [
        "UserWarning: convection coefficient of component 0 changes sign on the mesh; "
        "upwinding per node"] * 4


def test_norms_table_measures_every_cell_through_names_read_at_call_time(monkeypatch):
    assert list(harness.NORMS) == ["max", "energy"]
    assert spbvp.energy_norm_error is harness.energy_norm_error
    # schemes discretizes and solves; harness measures
    assert not hasattr(schemes, "energy_norm_error")
    calls = {"max_norm_error": 0, "energy_norm_error": 0}
    for name in calls:
        def counting(*args, _real=getattr(harness, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(harness, name, counting)
    family, meshes = problem_family("scalar-cd"), mesh_family("shishkin")
    by_norm = {norm: sweep(family, meshes, "galerkin-fem", (16, 32), ((1e-3,), (1e-5,)),
                           norm=norm) for norm in harness.NORMS}
    assert calls == {"max_norm_error": 8, "energy_norm_error": 4}
    # err_max in every norm, err_energy only in the norms other than max
    assert [r.err_max for r in by_norm["max"].records] == [
        r.err_max for r in by_norm["energy"].records]
    assert all(r.err_energy is None for r in by_norm["max"].records)
    for rec in by_norm["energy"].records:
        problem, ref = family(rec.eps)
        sol = discrete_solve(problem, meshes(problem, rec.n), "galerkin-fem")
        assert rec.err_energy == harness.NORMS["energy"](sol, problem, ref)
    assert by_norm["energy"].uniform_errors() == tuple(
        max(r.err_energy for r in by_norm["energy"].records if r.n == n) for n in (16, 32))


def test_sweep_rejects_energy_norm_without_reference_derivative(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return solve_many(*args, **kwargs)

    monkeypatch.setattr(schemes, "solve_many", counting)
    cfg = study_from_dict(
        {
            "problem": "weakly-coupled-cd",
            "scheme": "simple-upwind",
            "mesh": "system-shishkin",
            "N_list": [96, 192],
            "eps_list": [[1e-6, 1e-3]],
            "norm": "energy",
        }
    )
    with pytest.raises(ValueError, match="norm 'energy' needs the reference's derivative; the oracle"):
        run_study(cfg)
    with pytest.raises(ValueError, match="unknown norm 'balanced'"):
        sweep(problem_family("scalar-cd"), mesh_family("shishkin"), "simple-upwind",
              (16,), ((1e-3,),), norm="balanced")
    assert calls == []


def test_sweep_computes_each_envelope_once(monkeypatch):
    # reaction-diffusion envelopes run check_gamma; 3 N x 2 eps cells and
    # both oracles share one envelope per problem (the parent made 8 calls)
    calls = []
    check_gamma = problems.check_gamma

    def counting(problem):
        calls.append(problem)
        return check_gamma(problem)

    monkeypatch.setattr(problems, "check_gamma", counting)
    report = sweep(
        problem_family("reaction-diffusion"), mesh_family("system-shishkin"), "central",
        [24, 48, 96], [(1e-6, 1e-3), (1e-8, 1e-4)],
    )
    assert all(r.failure is None for r in report.records)
    assert len(calls) == 2


def test_sweep_fails_every_cell_of_a_failing_envelope():
    bad = SystemProblem(
        m=2, eps=(1e-4, 1e-3), kind="reaction-diffusion",
        a=coefficient(np.array([[1.0, -1.5], [-1.5, 1.0]]), (2, 2)),
        f=coefficient(np.ones(2), (2,)),
    )
    ref = ReferenceSolution(kind="exact", evaluator=lambda x: np.zeros((len(x), 2)))
    report = sweep(lambda eps: (bad, ref), mesh_family("system-shishkin"), "central",
                   [24, 48], [(1e-4, 1e-3)])
    assert [r.failure for r in report.records] == [
        "ValueError: reaction coupling is not diagonally dominant (zeta = 1.5 >= 1), "
        "so the layers have no positive decay rate"
    ] * 2


def test_sweep_rejects_empty_grids():
    with pytest.raises(ValueError, match="non-empty"):
        sweep(
            problem_family("scalar-cd"),
            mesh_family("shishkin"),
            "simple-upwind",
            (),
            ((1e-3,),),
        )


# ---------------------------------------------------------------------------
# emission


def test_empty_grid_is_refused_by_reports_and_configs():
    # the grid check sweep applies (test_sweep_rejects_empty_grids)
    for n_list, eps_list in (((), ((1e-3,),)), ((16,), ()), ((), ())):
        with pytest.raises(ValueError, match="n_list and eps_list must be non-empty"):
            ConvergenceReport(family="shishkin", scheme="simple-upwind",
                              n_list=n_list, eps_list=eps_list, records=())
        with pytest.raises(ValueError, match="n_list and eps_list must be non-empty"):
            StudyConfig(problem="scalar-cd", scheme="simple-upwind", mesh="shishkin",
                        n_list=n_list, eps_list=eps_list)


def test_csv_golden_file_byte_lock():
    rep = sweep(
        problem_family("scalar-cd"),
        mesh_family("shishkin"),
        "simple-upwind",
        (32, 64),
        ((1e-4,), (1e-6,)),
        family="shishkin",
    )
    got = report_emit(rep, "csv").encode()
    want = (GOLDEN / "scalar_upwind_shishkin_small.csv").read_bytes()
    assert got == want


def test_json_round_trip_preserves_everything():
    rep = sweep(
        problem_family("scalar-cd"),
        mesh_family("shishkin"),
        "simple-upwind",
        (16, 32),
        ((1e-3,), (1e-5,)),
        family="shishkin",
    )
    text = report_emit(rep, "json")
    parsed = json.loads(text)
    assert parsed["family"] == "shishkin" and parsed["scheme"] == "simple-upwind"
    assert parsed["norm"] == "max"
    back = report_from_json(text)
    assert report_emit(back, "csv") == report_emit(rep, "csv")
    assert report_emit(back, "json") == text
    energy = sweep(
        problem_family("scalar-cd"),
        mesh_family("shishkin"),
        "galerkin-fem",
        (16, 32),
        ((1e-3,), (1e-5,)),
        family="shishkin",
        norm="energy",
    )
    text = report_emit(energy, "json")
    back = report_from_json(text)
    assert back.norm == "energy"
    assert report_emit(back, "json") == text


def test_json_round_trip_keeps_failures():
    rec_ok = ErrorRecord(n=8, eps=(1.0,), err_max=0.5, q=0.125)
    rec_bad = ErrorRecord(n=16, eps=(1.0,), failure="ValueError: no")
    rep = ConvergenceReport(
        family="uniform",
        scheme="central",
        n_list=(8, 16),
        eps_list=((1.0,),),
        records=(rec_ok, rec_bad),
        target="n_inv_sq",
    )
    back = report_from_json(report_emit(rep, "json"))
    assert back.failures[0].failure == "ValueError: no"
    assert math.isnan(back.failures[0].err_max)


def test_eps_vectors_that_print_alike_are_refused():
    # CSV rows and JSON c_star_by_eps keys name a cell by its printed eps, so
    # two vectors with one label would merge in the report
    alike = ((1e-4,), (1.0000001e-4,), (1e-4,))
    built = []

    def family(eps):
        built.append(eps)
        return problem_family("scalar-cd")(eps)

    with pytest.raises(ValueError, match="1.000000e-04 appears twice"):
        sweep(family, mesh_family("shishkin"), "simple-upwind", (32, 64), alike)
    assert built == []  # refused before any problem is built
    rep = sweep(problem_family("scalar-cd"), mesh_family("shishkin"), "simple-upwind",
                (32, 64), ((1e-4,), (1e-6,)))
    # a report rebuilt from edited JSON runs the same check
    data = json.loads(report_emit(rep, "json"))
    data["eps_list"][1] = [1.0000001e-4]
    for r in data["records"][1::2]:
        r["eps"] = [1.0000001e-4]
    with pytest.raises(ValueError, match="1.000000e-04 appears twice"):
        report_from_json(json.dumps(data))


def _csv_rates(text: str, column: str) -> dict[int, str]:
    header, *rows = text.splitlines()
    cols = header.split(",")
    return {
        int(row.split(",")[cols.index("N")]): row.split(",")[cols.index(column)]
        for row in rows
    }


@pytest.mark.parametrize("name", sorted(STUDIES))
def test_emitted_rates_follow_the_study_norm(name):
    cfg = STUDIES[name]
    report = run_study(cfg)
    assert report.norm == cfg.norm
    csv = report_emit(report, "csv")
    data = json.loads(report_emit(report, "json"))
    assert data["norm"] == cfg.norm
    for column, rates in (
        ("rate_raw", report.rates_raw()),
        ("rate_corrected", report.rates_corrected()),
    ):
        want = {
            n: f"{r:.12e}" if math.isfinite(r) else ""
            for n, r in zip(report.n_list, rates)
        }
        want[report.n_list[-1]] = ""
        assert _csv_rates(csv, column) == want
        assert data[column.replace("rate_", "rates_")] == [
            r if math.isfinite(r) else None for r in rates
        ]
    assert data["c_star"] == report.c_star()


def test_norm_is_validated_on_configs_and_reports():
    with pytest.raises(ValueError, match="unknown norm 'l2'; known: max, energy"):
        StudyConfig(problem="scalar-cd", scheme="simple-upwind", mesh="shishkin",
                    n_list=(16,), eps_list=((1e-3,),), norm="l2")
    with pytest.raises(ValueError, match="unknown norm 'l2'"):
        ConvergenceReport(family="f", scheme="central", n_list=(16,), eps_list=((1e-3,),),
                          records=(), norm="l2")


def test_report_emit_rejects_unknown_format():
    rep = _report([[0.3, 0.4], [0.2, 0.15], [0.05, 0.06]])
    with pytest.raises(ValueError, match="unknown format"):
        report_emit(rep, "yaml")


# ---------------------------------------------------------------------------
# study registry


def test_registered_studies_are_well_formed():
    assert set(STUDIES) >= {
        "scalar-upwind-shishkin",
        "scalar-upwind-bakhvalov-shishkin",
        "scalar-upwind-bakhvalov-type",
        "scalar-fem-shishkin",
        "scalar-fem-bakhvalov-shishkin",
        "smooth-central-uniform",
        "reaction-diffusion-central",
        "weakly-coupled-upwind",
        "strongly-coupled-ias",
        "strongly-coupled-variable-ias",
    }
    for name, cfg in STUDIES.items():
        assert cfg.name == name
        assert cfg.target in RATE_TARGETS
        problem_family(cfg.problem)
        mesh_family(cfg.mesh)


def test_strongly_coupled_ias_measures_against_the_closed_form():
    cfg = STUDIES["strongly-coupled-ias"]
    for eps in (None, *cfg.eps_list):
        _, ref = problem_family(cfg.problem)(eps)
        assert ref.kind == "asymptotic"
    # ias is nodally exact on this constant-coefficient system, so every
    # cell reads roundoff against the closed form
    report = run_study(cfg)
    assert not report.failures, report.failures
    worst = max(r.err_max for r in report.records)
    assert worst <= 1e-13, f"sup error {worst:.3e}"


_INLINE = {
    "problem": "scalar-cd",
    "scheme": "galerkin-fem",
    "mesh": "shishkin",
    "N_list": [16, 32],
    "eps_list": [1e-3],
}


def test_study_from_dict_named_and_inline():
    cfg = study_from_dict({"name": "scalar-upwind-shishkin", "output": "x.csv"})
    assert cfg is STUDIES["scalar-upwind-shishkin"]
    inline = study_from_dict(
        {
            "problem": "scalar-cd",
            "scheme": "simple-upwind",
            "mesh": "shishkin",
            "N_list": [16, 32],
            "eps_list": [1e-3, [1e-5]],
            "target": "n_inv",
        }
    )
    assert inline.n_list == (16, 32)
    assert inline.eps_list == ((1e-3,), (1e-5,))
    with pytest.raises(ValueError, match="missing keys"):
        study_from_dict({"problem": "scalar-cd"})
    with pytest.raises(ValueError, match="unknown study"):
        study_from_dict({"name": "nope"})
    assert study_from_dict({**_INLINE, "norm": "energy"}).norm == "energy"
    assert study_from_dict(_INLINE).norm == "max"
    with pytest.raises(ValueError, match="unknown problem family"):
        problem_family("nope")
    with pytest.raises(ValueError, match="unknown mesh family"):
        mesh_family("nope")


def test_study_from_dict_rejects_malformed_keys_and_values():
    # "energy": "false" used to turn the energy norm on (bool("false")); the
    # retired key is an unknown key, whose message names norm
    for value in ("false", True, False):
        with pytest.raises(ValueError, match="unknown study config keys: energy; known: .*, norm,"):
            study_from_dict({**_INLINE, "energy": value})
    with pytest.raises(ValueError, match="unknown study config keys: targt; known: problem, scheme, "):
        study_from_dict({**_INLINE, "targt": "n_inv"})
    with pytest.raises(ValueError, match="unknown study config keys: colour"):
        study_from_dict({"name": "scalar-fem-shishkin", "colour": "red"})
    for norm in ("Energy", "true", 1):
        with pytest.raises(ValueError, match="unknown norm"):
            study_from_dict({**_INLINE, "norm": norm})
    # a string N_list used to run one N per character: "369" -> N = 3, 6, 9
    with pytest.raises(ValueError, match="N_list and eps_list must be lists"):
        study_from_dict({**_INLINE, "N_list": "369"})


def test_n_values_must_be_integers():
    # one validator for configs, sweeps, reports and records: no silent int(n)
    built = []

    def family(eps):
        built.append(eps)
        return problem_family("scalar-cd")(eps)

    for bad in (0, -4):
        with pytest.raises(ValueError, match=f"N values must be at least 1, got {bad}"):
            StudyConfig(problem="scalar-cd", scheme="simple-upwind", mesh="shishkin",
                        n_list=(bad, 64), eps_list=((1e-3,),))
        with pytest.raises(ValueError, match=f"N values must be at least 1, got {bad}"):
            sweep(family, mesh_family("shishkin"), "simple-upwind", [bad, 64], [1e-3])
    assert built == []  # refused before any problem is built
    for bad in (16.7, True, np.bool_(True), "16", math.inf):
        with pytest.raises(ValueError, match="N values must be integers"):
            StudyConfig(problem="scalar-cd", scheme="simple-upwind", mesh="shishkin",
                        n_list=(bad, 64), eps_list=((1e-3,),))
        with pytest.raises(ValueError, match="N values must be integers"):
            sweep(problem_family("scalar-cd"), mesh_family("shishkin"), "simple-upwind",
                  [bad, 64], [1e-3])
        with pytest.raises(ValueError, match="N values must be integers"):
            ConvergenceReport(family="f", scheme="central", n_list=(bad,),
                              eps_list=((1e-3,),), records=())
        with pytest.raises(ValueError, match="N values must be integers"):
            ErrorRecord(n=bad, eps=(1e-3,), err_max=0.1)
    cfg = StudyConfig(problem="scalar-cd", scheme="simple-upwind", mesh="shishkin",
                      n_list=(16.0, np.int64(32)), eps_list=((1e-3,),))
    assert cfg.n_list == (16, 32) and all(type(n) is int for n in cfg.n_list)


def test_eps_values_must_be_numbers():
    # one validator for configs, sweeps, reports, records and problem
    # families: True must not run as eps = 1, nor "1e-4" parse as a number
    built = []

    def family(eps):
        built.append(eps)
        return problem_family("scalar-cd")(eps)

    for bad in (True, np.bool_(True), "1e-4"):
        message = re.escape(f"eps values must be numbers, got {bad!r}")
        for eps in (bad, (bad,), [1e-3, bad]):
            with pytest.raises(ValueError, match=message):
                StudyConfig(problem="scalar-cd", scheme="simple-upwind", mesh="shishkin",
                            n_list=(16, 32), eps_list=((1e-3,), eps))
            with pytest.raises(ValueError, match=message):
                sweep(family, mesh_family("shishkin"), "simple-upwind", [16], [1e-3, eps])
            with pytest.raises(ValueError, match=message):
                ConvergenceReport(family="f", scheme="central", n_list=(16,),
                                  eps_list=(eps,), records=())
            with pytest.raises(ValueError, match=message):
                ErrorRecord(n=16, eps=eps, err_max=0.1)
            with pytest.raises(ValueError, match=message):
                problem_family("scalar-cd")(eps)
            with pytest.raises(ValueError, match=message):
                problem_family("reaction-diffusion")(eps)
    assert built == []  # refused before any problem is built
    assert problem_family("scalar-cd")(np.float64(1e-3))[0].eps == (1e-3,)
    assert ErrorRecord(n=16, eps=np.array([1e-3, 1]), err_max=0.1).eps == (1e-3, 1.0)


def test_report_record_does_not_truncate_n():
    rep = _report([[0.3, 0.4], [0.2, 0.15], [0.05, 0.06]])
    assert rep.record(128.0, (1e-6,)).err_max == 0.15
    # 128.9 is no N of the grid: it must not look up the N = 128 record
    with pytest.raises(ValueError, match="N values must be integers, got 128.9"):
        rep.record(128.9, (1e-6,))


def test_report_record_names_a_value_missing_from_the_grid():
    rep = _report([[0.3, 0.4], [0.2, 0.15], [0.05, 0.06]])
    with pytest.raises(ValueError, match=r"N=48 is not in the report's grid N=\[64, 128, 256\]"):
        rep.record(48, 1e-4)
    with pytest.raises(ValueError, match=r"eps=\(1e-05,\) is not in the report's grid eps="):
        rep.record(128, 1e-5)


def test_single_eps_problem_families_reject_eps_vectors():
    for name in (
        "scalar-cd",
        "strongly-coupled-2x2",
        "strongly-coupled-variable",
    ):
        with pytest.raises(ValueError, match=f"{name}.*takes 1 eps value, got 2"):
            problem_family(name)((1e-3, 1e-4))
    cfg = StudyConfig(
        problem="scalar-cd",
        scheme="simple-upwind",
        mesh="shishkin",
        n_list=(16,),
        eps_list=((1e-3, 1e-4),),
    )
    with pytest.raises(ValueError, match="takes 1 eps value"):
        run_study(cfg)


def test_problem_families_reject_an_empty_eps_vector():
    # without eps a family builds its builtin's default; an empty vector
    # must not read as "without eps"
    for name in PROBLEMS:
        with pytest.raises(ValueError, match="at least one value"):
            problem_family(name)(())


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, 0.0])
def test_study_config_rejects_eps_that_is_not_finite_and_positive(eps):
    with pytest.raises(ValueError, match="eps must be finite and positive"):
        StudyConfig(problem="scalar-cd", scheme="simple-upwind", mesh="shishkin",
                    n_list=(16,), eps_list=((eps,),))
    with pytest.raises(ValueError, match="eps must be finite and positive"):
        problem_family("reaction-diffusion")((1e-3, eps))


@pytest.mark.parametrize("tag", MESH_TAGS)
def test_every_mesh_tag_builds_exactly_n_cells(tag):
    # sweep, the CSV N column, RATE_TARGETS and C* all read n as the cell count
    for n, eps, side in itertools.product((8, 16, 64, 256), (1e-2, 1e-6, 1e-10, 0.3),
                                          ("left", "right", "both")):
        mesh = MESHES[tag]([LayerSpec(eps, side=side)], n)
        assert mesh.n_cells == n, (n, eps, side)


@pytest.mark.parametrize("tag", MESH_TAGS)
def test_every_mesh_meta_is_json_ready(tag):
    # eps = 0.3 makes the graded families degenerate to uniform
    for eps, side in itertools.product((1e-2, 1e-6, 1e-10, 0.3), ("left", "right", "both")):
        mesh = MESHES[tag]([LayerSpec(eps, side=side)], 64)
        json.dumps(dict(mesh.meta))


def test_failed_mesh_cell_reports_plain_float_widths():
    rep = sweep(problem_family("scalar-cd"), mesh_family("shishkin"), "simple-upwind",
                (256,), ((1e-15,),), family="shishkin")
    (rec,) = rep.failures
    assert "has width 0.0" in rec.failure and "np.float64" not in rec.failure
    assert "np.float64" not in report_emit(rep, "json")


def test_mesh_families_read_layer_data_off_the_problem():
    problem, _ = builtin_scalar_cd(1e-3)
    mesh = mesh_family("shishkin")(problem, 16)
    assert "side=right" in mesh.label  # b = +1 puts the layer at x = 1
    uni = mesh_family("uniform")(problem, 10)
    assert np.allclose(np.diff(uni.points), 0.1)


def test_system_shishkin_mirrors_right_side_layers():
    problem, _ = builtin_scalar_cd(1e-4)
    for n in (64, 1024):
        mesh = mesh_family("system-shishkin")(problem, n)
        assert np.array_equal(mesh.points, mirror(system_shishkin([LayerSpec(1e-4)], n)).points)
        assert mesh.spacings[-1] < mesh.spacings[0]  # fine cells at x = 1


def test_system_shishkin_uses_envelope_rate_and_sides():
    problem, _ = builtin_strongly_coupled_example(1e-4)
    mesh = mesh_family("system-shishkin")(problem, 96)
    assert np.max(np.abs(mesh.points + mesh.points[::-1] - 1.0)) <= 1e-15
    # B's eigenvalues are -5 and 5: rate 5, not B's diagonal 3
    want = system_shishkin([LayerSpec(e, gamma=5.0, side="both") for e in problem.eps], 96)
    assert np.array_equal(mesh.points, want.points)


def test_system_shishkin_rejects_mixed_sides():
    problem = SystemProblem(
        m=2,
        eps=(1e-4, 1e-3),
        kind="weakly-coupled-cd",
        b=coefficient(np.diag([1.0, -1.0]), (2, 2)),
        a=coefficient(np.eye(2), (2, 2)),
        f=coefficient(np.ones(2), (2,)),
    )
    with pytest.raises(ValueError, match=r"one side.*'right', 'left'"):
        mesh_family("system-shishkin")(problem, 96)


def test_scalar_families_refine_both_ends_for_reaction_diffusion():
    problem, _ = builtin_reaction_diffusion_system(eps=(1e-4,))
    kappa = default_envelope(problem)[0].gamma
    spec = LayerSpec(1e-4, gamma=kappa, side="both")
    mesh = mesh_family("shishkin")(problem, 64)
    assert np.array_equal(mesh.points, system_shishkin([spec], 64).points)
    with pytest.raises(ValueError, match="mesh 'shishkin' builds one layer.*m=2 components"):
        mesh_family("shishkin")(builtin_strongly_coupled_example(1e-4)[0], 64)


def test_oracle_builtins_solve_on_the_study_mesh_family(monkeypatch):
    built = []
    original = problems.system_shishkin

    def recording(*args, **kwargs):
        built.append(original(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(problems, "system_shishkin", recording)
    for problem, ref in (
        builtin_reaction_diffusion_system(eps=(1e-6, 1e-3)),
        builtin_weakly_coupled_cd(eps=(1e-8, 1e-4)),
    ):
        built.clear()
        ref(np.array([0.5]))
        assert len(built) == 1
        study_mesh = mesh_family("system-shishkin")(problem, ref.n_ref)
        assert np.array_equal(built[0].points, study_mesh.points)


def test_run_study_small_smooth_case():
    cfg = StudyConfig(
        problem="reaction-diffusion",
        scheme="central",
        mesh="uniform",
        n_list=(32, 64, 128),
        eps_list=((1.0,),),
        target="n_inv_sq",
    )
    rep = run_study(cfg)
    assert not rep.failures
    rates = rep.rates_raw()
    assert all(abs(r - 2.0) <= 0.2 for r in rates)
    assert rep.essentially_monotone()
