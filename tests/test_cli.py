"""End-to-end checks of the spbvp command line."""
import json
import math

import numpy as np
import pytest

from spbvp import meshes
from spbvp.cli import main
from spbvp.harness import (
    MESH_TAGS,
    PROBLEMS,
    mesh_family,
    problem_family,
    report_emit,
    sweep,
)
from spbvp.meshes import LayerSpec
from spbvp.schemes import discrete_solve


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# mesh


def test_mesh_csv_layout_and_footer(capsys):
    code, out, _ = _run(capsys, "mesh", "--family", "shishkin", "--n", "8",
                        "--eps", "1e-3", "--side", "right")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "i,x_i,h_i"
    data = [ln for ln in lines[1:] if not ln.startswith("#")]
    footer = [ln for ln in lines[1:] if ln.startswith("#")]
    assert len(data) == 9  # n + 1 nodes
    xs = [float(ln.split(",")[1]) for ln in data]
    assert xs[0] == 0.0 and xs[-1] == 1.0
    assert all(b > a for a, b in zip(xs, xs[1:]))
    hs = [float(ln.split(",")[2]) for ln in data[1:]]
    # x is printed to 12 significant digits, so recomputed diffs carry ~1e-12
    np.testing.assert_allclose(hs, np.diff(xs), atol=2e-12)
    keys = {ln.split("=")[0].strip("# ") for ln in footer}
    assert {"label", "n_cells", "min_h", "max_h", "ratio"} <= keys


def test_mesh_writes_to_file(tmp_path, capsys):
    target = tmp_path / "mesh.csv"
    code, out, _ = _run(capsys, "mesh", "--family", "uniform", "--n", "4",
                        "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text().startswith("i,x_i,h_i\n0,0.000000000000e+00,\n")


# every mesh tag and the meshes function it builds; scalar families take the
# one layer, shishkin as a one-layer system_shishkin
_MESH_BUILDERS = {
    "uniform": lambda layers, n: meshes.uniform_mesh(n),
    "shishkin": lambda layers, n: meshes.system_shishkin(layers[:1], n),
    "bakhvalov-shishkin": lambda layers, n: meshes.bakhvalov_shishkin(layers[0], n),
    "bakhvalov-type": lambda layers, n: meshes.bakhvalov_type(layers[0], n),
    "system-shishkin": lambda layers, n: meshes.system_shishkin(layers, n),
}


@pytest.mark.parametrize("tag", MESH_TAGS)
def test_every_mesh_tag_works_with_mesh_solve_and_study(tag, tmp_path, capsys):
    assert set(_MESH_BUILDERS) == set(MESH_TAGS)
    for n in (4, 16, 64):
        code, out, _ = _run(capsys, "mesh", "--family", tag, "--eps", "1e-4",
                            "--n", str(n), "--side", "right", "--gamma", "2")
        assert code == 0
        want = _MESH_BUILDERS[tag]([LayerSpec(1e-4, gamma=2.0, side="right")], n)
        xs = [float(row.split(",")[1]) for row in _mesh_rows(out)]
        assert xs == [float(f"{x:.12e}") for x in want.points]
    code, out, _ = _run(capsys, "solve", "--mesh", tag, "--n", "16", "--eps", "1e-4")
    assert code == 0
    problem, _ = problem_family("scalar-cd")((1e-4,))
    mesh = mesh_family(tag)(problem, 16)
    assert len(out.strip().splitlines()) == len(mesh.points) + 1
    cfg = {"problem": "scalar-cd", "scheme": "simple-upwind", "mesh": tag,
           "N_list": [16, 32], "eps_list": [1e-4]}
    path = tmp_path / "study.json"
    path.write_text(json.dumps(cfg))
    code, out, err = _run(capsys, "study", "--config", str(path))
    assert code == 0 and err == ""
    assert len(out.strip().splitlines()) == 3


def test_mesh_rejects_malformed_eps(capsys):
    code, _, err = _run(capsys, "mesh", "--eps", "banana")
    assert code == 3 and "cannot parse eps" in err
    code, _, err = _run(capsys, "mesh", "--eps=-1e-3")
    assert code == 3 and "positive" in err
    # only system-shishkin reads an eps list; the rest would drop all but eps[0]
    for family in ("shishkin", "bakhvalov-shishkin", "bakhvalov-type", "uniform"):
        code, out, err = _run(capsys, "mesh", "--family", family, "--eps", "1e-3,1e-4",
                              "--n", "8")
        assert code == 3 and out == ""
        assert err == f"error: mesh family '{family}' takes 1 eps value, got 2: 1e-3,1e-4\n"


@pytest.mark.parametrize("family", ["shishkin", "bakhvalov-shishkin", "bakhvalov-type"])
def test_one_layer_mesh_on_a_system_names_the_mesh_and_m(family, capsys):
    # strongly-coupled-2x2 takes one eps value; what the mesh refuses is its
    # m = 2 components
    code, out, err = _run(capsys, "solve", "--problem", "strongly-coupled-2x2",
                          "--mesh", family, "--n", "16")
    assert code == 3 and out == ""
    assert err == (f"error: mesh '{family}' builds one layer, for a scalar problem; "
                   "the problem has m=2 components: use 'system-shishkin'\n")


@pytest.mark.parametrize("eps", ["inf", "nan"])
def test_non_finite_eps_is_config_error(eps, capsys):
    code, out, err = _run(capsys, "mesh", "--family", "shishkin", "--eps", eps)
    assert code == 3 and out == ""
    assert f"eps must be finite and positive, got {eps}" in err
    code, out, err = _run(capsys, "solve", "--problem", "scalar-cd", "--eps", eps,
                          "--n", "16")
    assert code == 3 and out == ""
    assert err == f"error: eps must be finite and positive, got {eps}\n"


@pytest.mark.parametrize("args", [
    ("--mu", "inf"),
    ("--gamma", "inf"),  # the width mu*eps/gamma would be 0
    ("--family", "bakhvalov-type", "--mu", "1e-300", "--eps", "1e-300"),  # width underflows
])
def test_mesh_rejects_infinite_gamma_mu_and_vanishing_width(args, capsys):
    code, out, err = _run(capsys, "mesh", *args)
    assert code == 3 and out == ""
    assert "gamma and mu must be finite and positive with mu*eps/gamma > 0" in err


def test_solve_scalar_cd_at_huge_eps_is_the_zero_limit(capsys):
    # eps * eps overflows here, so u'' must be formed without it
    code, out, err = _run(capsys, "solve", "--problem", "scalar-cd", "--eps", "1e300",
                          "--n", "16")
    assert code == 0 and err == ""
    assert max(abs(float(row.split(",")[1])) for row in out.splitlines()[1:]) < 1e-300


def test_solve_reaction_diffusion_with_overflowing_eps_squared_is_config_error(capsys):
    code, out, err = _run(capsys, "solve", "--problem", "reaction-diffusion",
                          "--eps", "1e156,1e156", "--n", "24", "--mesh", "system-shishkin",
                          "--scheme", "central")
    assert code == 3 and out == ""
    assert err == "error: reaction-diffusion needs a finite eps^2, got eps 1e+156\n"


def _collapse_message(cell, side):
    return (f"error: mesh points must increase strictly; cell {cell} has width 0.0: "
            f"side='{side}' mirrors layer points to x = 1 as 1 - x, and float64 cannot "
            "space points near 1 closer than about 1.1e-16\n")


@pytest.mark.parametrize("mesh, cell", [
    ("shishkin", 512), ("bakhvalov-shishkin", 534), ("bakhvalov-type", 532),
])
def test_solve_right_layer_collapsed_by_the_mirror_names_the_cause(mesh, cell, capsys):
    code, out, err = _run(capsys, "solve", "--problem", "scalar-cd", "--eps", "1e-15",
                          "--n", "1024", "--mesh", mesh)
    assert code == 3 and out == ""
    assert err == _collapse_message(cell, "right")


def test_mesh_both_sides_layer_collapsed_by_the_mirror_names_the_cause(capsys):
    code, out, err = _run(capsys, "mesh", "--family", "shishkin", "--side", "both",
                          "--eps", "1e-15", "--n", "1024")
    assert code == 3 and out == ""
    assert err == _collapse_message(769, "both")


def test_mesh_bakhvalov_type_below_the_unit_roundoff_builds_silently(capsys):
    code, out, err = _run(capsys, "mesh", "--family", "bakhvalov-type",
                          "--eps", "1e-300", "--n", "64")
    assert code == 0 and err == ""
    widths = [float(line.split(",")[2]) for line in out.splitlines()[2:66]]
    assert len(widths) == 64 and min(widths) > 0.0


def test_mesh_system_family_takes_eps_list(capsys):
    code, out, _ = _run(capsys, "mesh", "--family", "system-shishkin",
                        "--eps", "1e-6,1e-3", "--n", "12")
    assert code == 0
    assert "system_shishkin" in out


def _mesh_rows(out):
    return [ln for ln in out.splitlines() if not ln.startswith(("i,", "#"))]


def test_mesh_system_family_keeps_right_side(capsys):
    code, out, _ = _run(capsys, "mesh", "--family", "system-shishkin",
                        "--eps", "1e-6,1e-3", "--n", "12", "--side", "right")
    assert code == 0
    h = [float(row.split(",")[2]) for row in _mesh_rows(out)[1:]]
    assert h[-1] < 1e-5 < h[0]  # fine cells at x = 1
    for n in ("8", "64", "1024"):
        for eps in ("1e-2", "1e-4", "1e-8"):
            args = ("--eps", eps, "--n", n, "--side", "right")
            code, system, _ = _run(capsys, "mesh", "--family", "system-shishkin", *args)
            assert code == 0
            _, scalar, _ = _run(capsys, "mesh", "--family", "shishkin", *args)
            assert _mesh_rows(system) == _mesh_rows(scalar)


# ---------------------------------------------------------------------------
# solve


def test_solve_matches_library_and_boundary_rows(capsys):
    code, out, _ = _run(capsys, "solve", "--problem", "scalar-cd", "--eps", "1e-4",
                        "--mesh", "shishkin", "--n", "16")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,u_1"
    rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
    assert len(rows) == 17
    assert rows[0][1] == 0.0 and rows[-1][1] == 0.0
    problem, _ = problem_family("scalar-cd")((1e-4,))
    sol = discrete_solve(problem, mesh_family("shishkin")(problem, 16), "simple-upwind")
    np.testing.assert_allclose([r[1] for r in rows], sol.values[:, 0], rtol=1e-11)


def test_solve_reads_problem_json(tmp_path, capsys):
    spec = {
        "m": 2,
        "eps": [1e-3, 1e-2],
        "kind": "reaction-diffusion",
        "a": [[2.0, -0.25], [-0.25, 2.0]],
        "f": [1.0, 1.0],
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(spec))
    code, out, _ = _run(capsys, "solve", "--problem", str(path), "--mesh",
                        "system-shishkin", "--scheme", "central", "--n", "24")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,u_1,u_2"
    assert len(lines) == 26


def test_solve_accepts_every_mesh_tag(capsys):
    for tag in MESH_TAGS:
        code, out, _ = _run(capsys, "solve", "--mesh", tag, "--n", "16")
        # a header and one row per node of the 16-cell mesh
        assert code == 0 and len(out.strip().splitlines()) == 16 + 2
    code, _, err = _run(capsys, "solve", "--mesh", "graded")
    assert code == 3 and "invalid choice" in err


# a mesh and a scheme each builtin problem solves on, and an eps vector
_PROBLEM_RUNS = {
    "scalar-cd": ("shishkin", "simple-upwind", "1e-3"),
    "strongly-coupled-2x2": ("uniform", "ias", "1e-3"),
    "strongly-coupled-variable": ("uniform", "ias", "1e-3"),
    "reaction-diffusion": ("system-shishkin", "central", "1e-3,1e-2"),
    "weakly-coupled-cd": ("system-shishkin", "simple-upwind", "1e-3,1e-2"),
}


@pytest.mark.parametrize("name", PROBLEMS)
def test_every_problem_name_works_with_solve_check_and_study(name, tmp_path, capsys):
    assert set(_PROBLEM_RUNS) == set(PROBLEMS)
    mesh, scheme, eps = _PROBLEM_RUNS[name]
    problem, _ = problem_family(name)(tuple(map(float, eps.split(","))))
    code, out, err = _run(capsys, "solve", "--problem", name, "--eps", eps,
                          "--mesh", mesh, "--scheme", scheme, "--n", "24")
    assert code == 0 and err == ""
    assert out.splitlines()[0] == "x," + ",".join(f"u_{k + 1}" for k in range(problem.m))
    assert len(out.strip().splitlines()) == 26
    code, out, err = _run(capsys, "check", "--problem", name, "--eps", eps)
    assert code == 0 and err == "" and json.loads(out)
    code, out, err = _run(capsys, "check", "--problem", name)
    assert code == 0 and err == "" and json.loads(out)
    cfg = {"problem": name, "scheme": scheme, "mesh": mesh, "N_list": [24, 48],
           "eps_list": [[float(e) for e in eps.split(",")]]}
    path = tmp_path / "study.json"
    path.write_text(json.dumps(cfg))
    code, out, err = _run(capsys, "study", "--config", str(path))
    assert code == 0 and err == ""
    assert len(out.strip().splitlines()) == 3


def test_solve_without_layer_data_is_config_error(capsys):
    code, out, err = _run(capsys, "solve", "--problem", "strongly-coupled-variable",
                          "--mesh", "system-shishkin", "--n", "24")
    assert code == 3 and out == ""
    assert "default envelope for strong coupling needs constant convection" in err


def test_solve_non_dominant_reaction_coupling_is_config_error(tmp_path, capsys):
    path = tmp_path / "rd.json"
    path.write_text(json.dumps({
        "m": 2, "eps": [1e-4, 1e-3], "kind": "reaction-diffusion",
        "a": [[1, -1.5], [-1.5, 1]], "f": [1, 1],
    }))
    code, out, err = _run(capsys, "solve", "--problem", str(path),
                          "--mesh", "system-shishkin", "--n", "24")
    assert code == 3 and out == ""
    assert "reaction coupling is not diagonally dominant (zeta = 1.5 >= 1)" in err


def test_solve_scheme_mismatch_is_a_solve_failure(capsys):
    code, _, err = _run(capsys, "solve", "--problem", "scalar-cd",
                        "--scheme", "central", "--n", "8")
    assert code == 2 and "solve failed" in err


def test_warnings_print_once_per_call_without_source_lines(tmp_path, capsys):
    # B(x) of strongly-coupled-variable changes sign, so upwinding warns on
    # every cell; stderr must not depend on what ran earlier in the process
    warning = ("warning: convection coefficient of component 0 changes sign on the "
               "mesh; upwinding per node\n")
    solve = ("solve", "--problem", "strongly-coupled-variable", "--mesh", "uniform",
             "--n", "16")
    assert _run(capsys, *solve)[::2] == _run(capsys, *solve)[::2] == (0, warning)
    path = tmp_path / "study.json"
    path.write_text(json.dumps({
        "problem": "strongly-coupled-variable", "scheme": "simple-upwind",
        "mesh": "uniform", "N_list": [16, 32], "eps_list": [1e-2, 1e-4],
    }))
    study = ("study", "--config", str(path))
    assert _run(capsys, *study)[::2] == _run(capsys, *study)[::2] == (0, warning)


def test_solve_unknown_problem_is_config_error(capsys):
    # a deleted family's name is refused like any other
    for name in ("mystery", "strongly-coupled-2x2-oracle"):
        code, _, err = _run(capsys, "solve", "--problem", name)
        assert code == 3 and f"unknown problem family {name!r}" in err
        assert err.rstrip().endswith(f"known: {', '.join(PROBLEMS)}")


def test_solve_bad_problem_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = _run(capsys, "solve", "--problem", str(path))
    assert code == 3 and "cannot read problem file" in err
    path2 = tmp_path / "incomplete.json"
    path2.write_text(json.dumps({"m": 1}))
    code, _, err = _run(capsys, "solve", "--problem", str(path2))
    assert code == 3 and "missing key" in err


# ---------------------------------------------------------------------------
# check


def test_check_reports_reaction_fragments(capsys):
    code, out, _ = _run(capsys, "check", "--problem", "reaction-diffusion")
    assert code == 0
    data = json.loads(out)
    assert data["gamma_monotone"] is True
    assert math.isclose(data["kappa"], 1.3228756555322954, rel_tol=1e-12)


def test_check_reports_convection_fragments(capsys):
    code, out, _ = _run(capsys, "check", "--problem", "strongly-coupled-2x2",
                        "--eps", "1e-4")
    assert code == 0
    data = json.loads(out)
    assert data["upsilon_matrix"] == [[1.0, -4.0], [-4.0, 1.0]]
    assert data["upsilon_monotone"] is False


_GAMMA_KEYS = {"gamma_matrix", "gamma_inverse_min", "gamma_monotone", "zeta", "diag_dominant"}
_UPSILON_KEYS = {"upsilon_matrix", "upsilon_inverse_min", "upsilon_row_sum_min",
                 "upsilon_monotone", "upsilon_heuristic"}


@pytest.mark.parametrize("name, keys", [
    ("reaction-diffusion", _GAMMA_KEYS | {"kappa"}),
    ("weakly-coupled-cd", _GAMMA_KEYS),
    ("strongly-coupled-2x2", _UPSILON_KEYS | {"notes"}),
    ("scalar-cd", {"notes"}),
])
def test_check_emits_the_sections_of_each_problem_kind(name, keys, capsys):
    code, out, err = _run(capsys, "check", "--problem", name)
    assert code == 0 and err == ""
    data = json.loads(out)
    assert set(data) == keys
    # a zero reaction diagonal skips the gamma section with exactly one note
    skipped = [n for n in data.get("notes", []) if n.startswith("reaction check skipped")]
    assert len(skipped) == ("notes" in keys)


# ---------------------------------------------------------------------------
# study


def test_study_config_round_trip_with_output_file(tmp_path, capsys):
    cfg = {
        "problem": "scalar-cd",
        "scheme": "simple-upwind",
        "mesh": "shishkin",
        "N_list": [16, 32],
        "eps_list": [1e-3, 1e-5],
        "target": "n_inv_log",
        "output": str(tmp_path / "report.csv"),
    }
    path = tmp_path / "study.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = _run(capsys, "study", "--config", str(path))
    assert code == 0 and out == ""
    got = (tmp_path / "report.csv").read_text()
    rep = sweep(
        problem_family("scalar-cd"),
        mesh_family("shishkin"),
        "simple-upwind",
        (16, 32),
        ((1e-3,), (1e-5,)),
        family="shishkin",
    )
    assert got == report_emit(rep, "csv")


def test_study_with_n_below_three_leaves_corrected_rate_empty(tmp_path, capsys):
    # phi(N) = ln N / N is equal at N = 2 and 4, so no corrected rate exists
    cfg = {
        "problem": "scalar-cd",
        "scheme": "simple-upwind",
        "mesh": "uniform",
        "N_list": [2, 4],
        "eps_list": [1e-3],
    }
    path = tmp_path / "study.json"
    path.write_text(json.dumps(cfg))
    code, out, err = _run(capsys, "study", "--config", str(path))
    assert code == 0 and err == ""
    header, first, second = (ln.split(",") for ln in out.strip().splitlines())
    raw, corrected = header.index("rate_raw"), header.index("rate_corrected")
    assert first[raw] != "" and first[corrected] == "" and second[corrected] == ""


def test_study_failures_exit_2(tmp_path, capsys):
    cfg = {
        "problem": "scalar-cd",
        "scheme": "central",
        "mesh": "shishkin",
        "N_list": [16],
        "eps_list": [1e-3],
    }
    path = tmp_path / "study.json"
    path.write_text(json.dumps(cfg))
    code, out, err = _run(capsys, "study", "--config", str(path))
    assert code == 2
    assert "failed" in err
    assert out.startswith("family,scheme,N,eps")  # report still emitted


def test_study_config_errors_exit_3(tmp_path, capsys):
    code, _, err = _run(capsys, "study")
    assert code == 3 and "exactly one" in err
    code, _, err = _run(capsys, "study", "--name", "nope")
    assert code == 3 and "unknown study" in err
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    code, _, err = _run(capsys, "study", "--config", str(bad))
    assert code == 3 and "JSON object" in err
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"problem": "scalar-cd"}))
    code, _, err = _run(capsys, "study", "--config", str(missing))
    assert code == 3 and "missing keys" in err


@pytest.mark.parametrize("spec, message", [
    ([{"m": 1}], "problem must be a JSON object, got list"),
    ({"m": 1, "eps": 1e-3, "kind": "reaction-diffusion", "a": [[1.0]], "f": [1.0]},
     "malformed problem dict"),
], ids=["top-level-list", "bare-eps"])
def test_solve_malformed_problem_json_is_config_error(spec, message, tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(spec))
    code, out, err = _run(capsys, "solve", "--problem", str(path))
    assert code == 3 and out == "" and message in err


_SCALAR_FILE = {"m": 1, "eps": [1e-3], "kind": "weakly-coupled-cd",
                "b": [[1.0]], "a": [[0.0]], "f": [1.0]}


@pytest.mark.parametrize("change, message", [
    # a misspelt key must not run as if absent (g_1 would leave u(1) = 0)
    ({"g_1": [2.0]}, "unknown problem keys: g_1; known: m, eps, kind, a, f, b, g0, g1, label"),
    ({"m": 1.7}, "m must be an integer, got 1.7"),
    ({"m": True}, "m must be an integer, got True"),
    ({"eps": "0.001"}, "eps must be a list of numbers, got '0.001'"),
    ({"eps": [True]}, "eps must be a list of numbers, got [True]"),
], ids=["unknown-key", "fractional-m", "bool-m", "string-eps", "bool-eps"])
def test_problem_file_keys_m_and_eps_are_checked(change, message, tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({**_SCALAR_FILE, **change}))
    for command in ("solve", "check"):
        code, out, err = _run(capsys, command, "--problem", str(path))
        assert code == 3 and out == "" and message in err
    path.write_text(json.dumps(_SCALAR_FILE))
    assert _run(capsys, "solve", "--problem", str(path))[0] == 0


_SYSTEM_FILE = {"m": 2, "eps": [1e-4, 1e-3], "kind": "weakly-coupled-cd",
                "b": [[1.0, 0.0], [0.0, 1.0]], "a": [[2.0, -0.25], [-0.25, 2.0]],
                "f": [1.0, 1.0]}


@pytest.mark.parametrize("change, message", [
    # a scalar or a string must not broadcast to the whole matrix or vector
    ({"a": "3"}, "a must be 2 lists of 2 numbers, got '3'"),
    ({"a": 3.0}, "a must be 2 lists of 2 numbers, got 3.0"),
    ({"a": [2.0, 2.0]}, "a must be 2 lists of 2 numbers, got [2.0, 2.0]"),
    ({"a": [[2.0, "0"], [0.0, 2.0]]}, "a must be 2 lists of 2 numbers"),
    ({"b": [[1.0, 0.0]]}, "b must be 2 lists of 2 numbers, got [[1.0, 0.0]]"),
    ({"b": [[True, 0.0], [0.0, 1.0]]}, "b must be 2 lists of 2 numbers"),
    ({"f": 5.0}, "f must be a list of 2 numbers, got 5.0"),
    ({"f": [1.0]}, "f must be a list of 2 numbers, got [1.0]"),
    ({"f": ["1", "1"]}, "f must be a list of 2 numbers, got ['1', '1']"),
    ({"g0": 0.0}, "g0 must be a list of 2 numbers, got 0.0"),
    ({"g1": [1.0, 2.0, 3.0]}, "g1 must be a list of 2 numbers, got [1.0, 2.0, 3.0]"),
], ids=["string-a", "scalar-a", "flat-a", "string-entry-a", "short-b", "bool-b",
        "scalar-f", "short-f", "string-f", "scalar-g0", "long-g1"])
def test_problem_file_coefficients_must_have_the_problem_shape(change, message, tmp_path,
                                                               capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({**_SYSTEM_FILE, **change}))
    for command in ("solve", "check"):
        code, out, err = _run(capsys, command, "--problem", str(path))
        assert code == 3 and out == "" and message in err
    path.write_text(json.dumps({**_SYSTEM_FILE, "g0": [0, 1], "g1": [1, 0]}))
    assert _run(capsys, "solve", "--problem", str(path), "--mesh", "uniform")[0] == 0


@pytest.mark.parametrize("extra, message", [
    ({"N_list": [[64]]}, "N_list and eps_list must hold numbers"),
    ({"eps_list": [None]}, "N_list and eps_list must hold numbers"),
    ({"output": 5}, "output must be a file name, got 5"),
    # a non-integral N must not truncate to N = 16 or read true as N = 1
    ({"N_list": [16.7, 32.9]}, "N values must be integers, got 16.7"),
    ({"N_list": [True, 8]}, "N values must be integers, got True"),
], ids=["nested-N", "null-eps", "numeric-output", "fractional-N", "bool-N"])
def test_study_malformed_config_values_exit_3(extra, message, tmp_path, capsys):
    cfg = {"problem": "scalar-cd", "scheme": "simple-upwind", "mesh": "shishkin",
           "N_list": [16], "eps_list": [1e-3], **extra}
    path = tmp_path / "study.json"
    path.write_text(json.dumps(cfg))
    code, out, err = _run(capsys, "study", "--config", str(path))
    assert code == 3 and out == "" and message in err


def test_study_config_rejects_unknown_and_retired_keys(tmp_path, capsys):
    base = {
        "problem": "scalar-cd",
        "scheme": "galerkin-fem",
        "mesh": "shishkin",
        "N_list": [16],
        "eps_list": [1e-3],
    }
    path = tmp_path / "study.json"
    for extra, message in (
        ({"energy": "false"}, "unknown study config keys: energy; known:"),
        ({"targt": "n_inv"}, "unknown study config keys: targt; known:"),
        ({"norm": "l2"}, "unknown norm 'l2'"),
    ):
        path.write_text(json.dumps({**base, **extra}))
        code, out, err = _run(capsys, "study", "--config", str(path))
        assert code == 3 and out == "" and message in err


def test_study_energy_norm_without_reference_derivative_exit_3(tmp_path, capsys):
    cfg = {
        "problem": "weakly-coupled-cd",
        "scheme": "simple-upwind",
        "mesh": "system-shishkin",
        "N_list": [96, 192],
        "eps_list": [[1e-6, 1e-3]],
        "norm": "energy",
    }
    path = tmp_path / "study.json"
    path.write_text(json.dumps(cfg))
    code, out, err = _run(capsys, "study", "--config", str(path))
    assert code == 3 and out == "" and "needs the reference's derivative" in err


def test_study_json_format_flag(tmp_path, capsys):
    cfg = {
        "problem": "scalar-cd",
        "scheme": "simple-upwind",
        "mesh": "shishkin",
        "N_list": [16],
        "eps_list": [1e-3],
    }
    path = tmp_path / "study.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = _run(capsys, "study", "--config", str(path), "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["n_list"] == [16] and len(data["records"]) == 1


def test_study_list_names(capsys):
    code, out, _ = _run(capsys, "study", "--list")
    assert code == 0
    assert "scalar-upwind-shishkin" in out.splitlines()


def test_eps_vector_on_single_eps_problem_is_config_error(tmp_path, capsys):
    code, out, err = _run(capsys, "solve", "--problem", "scalar-cd",
                          "--eps", "1e-3,1e-4")
    assert code == 3 and out == ""
    assert "'scalar-cd' takes 1 eps value, got 2" in err
    cfg = {
        "problem": "scalar-cd",
        "scheme": "simple-upwind",
        "mesh": "shishkin",
        "N_list": [16],
        "eps_list": [[1e-3, 1e-4]],
    }
    path = tmp_path / "study.json"
    path.write_text(json.dumps(cfg))
    code, out, err = _run(capsys, "study", "--config", str(path))
    assert code == 3 and out == ""
    assert "takes 1 eps value" in err


def test_study_eps_vectors_that_print_alike_exit_3(tmp_path, capsys):
    cfg = {"problem": "scalar-cd", "scheme": "simple-upwind", "mesh": "shishkin",
           "N_list": [32, 64], "eps_list": [[1e-4], [1.0000001e-4], [1e-4]]}
    path = tmp_path / "study.json"
    path.write_text(json.dumps(cfg))
    code, out, err = _run(capsys, "study", "--config", str(path))
    assert code == 3 and out == ""
    assert err == "error: eps vectors must print differently; 1.000000e-04 appears twice\n"


def test_retired_bakhvalov_tag_is_refused_everywhere(tmp_path, capsys):
    for argv in (("mesh", "--family", "bakhvalov"), ("solve", "--mesh", "bakhvalov")):
        code, out, err = _run(capsys, *argv)
        assert code == 3 and out == "" and "invalid choice: 'bakhvalov'" in err, argv
        assert all(f"'{tag}'" in err for tag in MESH_TAGS), argv
    known = "known: uniform, shishkin, bakhvalov-shishkin, bakhvalov-type, system-shishkin"
    cfg = {"problem": "scalar-cd", "scheme": "simple-upwind", "mesh": "bakhvalov",
           "N_list": [16, 32], "eps_list": [1e-4]}
    path = tmp_path / "study.json"
    path.write_text(json.dumps(cfg))
    code, out, err = _run(capsys, "study", "--config", str(path))
    assert code == 3 and out == ""
    assert err == f"error: unknown mesh family 'bakhvalov'; {known}\n"
    with pytest.raises(ValueError, match=f"unknown mesh family 'bakhvalov'; {known}$"):
        mesh_family("bakhvalov")


def test_usage_errors_exit_3(capsys):
    code, _, err = _run(capsys, "solve", "--scheme", "upwinded")
    assert code == 3 and "invalid choice" in err
    code, _, err = _run(capsys, "study", "--format", "xml")
    assert code == 3 and "invalid choice" in err
    code, _, err = _run(capsys, "mesh", "--n", "many")
    assert code == 3 and "invalid int value" in err
    code, _, _ = _run(capsys)
    assert code == 3
    code, out, _ = _run(capsys, "--help")
    assert code == 0 and "usage: spbvp" in out
    # no prefix matching: --he is not --help, --sch not --scheme, --h not --help
    for argv in (("--he", "study", "--list"), ("solve", "--sch", "central"),
                 ("mesh", "--h", "0.2")):
        code, out, err = _run(capsys, *argv)
        assert code == 3 and out == "" and "unrecognized arguments" in err, argv
