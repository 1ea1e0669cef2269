"""End-to-end acceptance sweeps for the headline guarantees.

Each test is one pass/fail line for one guaranteed property, run at the
full study budget (N up to 1024, eps down to 1e-10).  Tolerances are part
of the contract; a failing line here means the property does not hold as
stated, not that the tolerance needs widening.
"""

import itertools
import math

import numpy as np

from spbvp.harness import (
    STUDIES,
    mesh_family,
    problem_family,
    run_study,
    sweep,
)
from spbvp import linalg
from spbvp.linalg import BlockTridiag, block_thomas
from spbvp.meshes import (
    LayerSpec,
    bakhvalov_shishkin,
    bakhvalov_type,
    system_shishkin,
    uniform_mesh,
)
from spbvp.problems import (
    SystemProblem,
    builtin_reaction_diffusion_system,
    check_gamma,
    coefficient,
)

EPS_GRID = (1.0, 1e-4, 1e-10)
N_GRID = (8, 64, 512)


def _assert_rates(rates, center, tol, label):
    assert rates, f"{label}: no rates computed"
    for r in rates:
        assert math.isfinite(r), f"{label}: undefined rate in {rates}"
        assert abs(r - center) <= tol, (
            f"{label}: rate {r:.3f} outside {center} +/- {tol} (all: "
            f"{[f'{v:.3f}' for v in rates]})"
        )


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------


def test_upwind_on_shishkin_mesh_first_order_up_to_log_with_stable_constant():
    report = run_study(STUDIES["scalar-upwind-shishkin"])
    assert not report.failures
    _assert_rates(report.rates_corrected(), 1.0, 0.15, "upwind/shishkin")
    spread = report.c_star_spread()
    assert spread <= 3.0, f"error-constant spread over eps is {spread:.3f} > 3"


def test_upwind_on_bakhvalov_meshes_first_order_without_log():
    for name in ("scalar-upwind-bakhvalov-shishkin", "scalar-upwind-bakhvalov-type"):
        report = run_study(STUDIES[name])
        assert not report.failures, report.failures
        _assert_rates(report.rates_raw(), 1.0, 0.15, name)


def test_central_on_mirrored_system_mesh_second_order_up_to_log():
    report = run_study(STUDIES["reaction-diffusion-central"])
    assert not report.failures, report.failures
    _assert_rates(report.rates_corrected(), 2.0, 0.25, "central/system-shishkin")
    # oracle hygiene: doubling the reference resolution moves the reference
    # far less than the finest (smallest) measured error, read at the nodes
    # of every study mesh, where max_norm_error reads the oracle
    problem, ref_fine = builtin_reaction_diffusion_system(eps=(1e-6, 1e-3), n_ref=12288)
    _, ref_half = builtin_reaction_diffusion_system(eps=(1e-6, 1e-3), n_ref=6144)
    mesh = mesh_family("system-shishkin")
    drift = max(
        float(np.max(np.abs(ref_fine(x) - ref_half(x))))
        for x in (mesh(problem, n).points for n in report.n_list)
    )
    smallest = report.uniform_errors()[-1]
    assert drift <= smallest / 4.0, f"oracle drift {drift:.3e} vs E={smallest:.3e}"


def test_upwind_on_system_mesh_weakly_coupled_first_order_up_to_log():
    report = run_study(STUDIES["weakly-coupled-upwind"])
    assert not report.failures, report.failures
    _assert_rates(report.rates_corrected(), 1.0, 0.2, "upwind/weakly-coupled")


def test_fitted_scheme_on_uniform_mesh_error_decays_with_rate_at_least_08():
    report = run_study(STUDIES["strongly-coupled-variable-ias"])
    assert not report.failures, report.failures
    rates = report.rates_raw()
    # exact reference, x-dependent B: constant B is reproduced nodally exactly, leaving no rate
    assert all(r >= 0.8 for r in rates), (
        f"raw rates {[f'{r:.3f}' for r in rates]}, "
        f"uniform errors {[f'{e:.3e}' for e in report.uniform_errors()]}"
    )
    # the rate alone cannot tell fitting from plain central differences
    # (sigma = 1 also gives rate 2, at errors that grow as 1/eps)
    spread = report.c_star_spread()
    assert spread <= 3.0, f"error-constant spread over eps is {spread:.3f} > 3"


def test_fitted_scheme_is_nodally_exact_on_constant_coefficients():
    # ias fits the exponential modes of constant-coefficient problems, so on
    # any uniform mesh its nodal values are the closed form up to roundoff
    n_list = (64, 128, 256, 512, 1024)
    eps_list = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10)
    bound = 1e-13

    def errors(name):
        report = sweep(problem_family(name), mesh_family("uniform"), "ias",
                       n_list, eps_list, target="n_inv")
        assert not report.failures, report.failures
        return {(r.n, r.eps[0]): r.err_max for r in report.records}

    for name in ("strongly-coupled-2x2", "scalar-cd"):
        worst = max(errors(name).items(), key=lambda item: item[1])
        assert worst[1] <= bound, f"{name}: sup error {worst[1]:.3e} at (N, eps) = {worst[0]}"
    # control: with x-dependent coupling ias is only first order, so the
    # bound must separate exactness from a small error
    least = min(errors("strongly-coupled-variable").values())
    assert least >= 1e6 * bound, f"strongly-coupled-variable: least error {least:.3e}"


def test_fem_energy_error_constants_stable_on_both_graded_meshes():
    # Shishkin carries the log factor in its target, Bakhvalov-Shishkin
    # does not; both constants must be flat across eps, and both studies
    # report first order in the energy norm they are registered with.
    for name, rates in (
        ("scalar-fem-shishkin", "rates_corrected"),
        ("scalar-fem-bakhvalov-shishkin", "rates_raw"),
    ):
        report = run_study(STUDIES[name])
        assert not report.failures, report.failures
        assert report.norm == "energy"
        c = report.c_star()
        assert math.isfinite(c) and c > 0.0
        spread = report.c_star_spread()
        assert spread <= 3.0, f"{name}: constant spread {spread:.3f} > 3"
        last = getattr(report, rates)()[-1]
        assert abs(last - 1.0) <= 0.1, f"{name}: last {rates} {last:.3f} not within 0.1 of 1"


# ---------------------------------------------------------------------------
# stability checks
# ---------------------------------------------------------------------------


def _reaction_problem(a: np.ndarray) -> SystemProblem:
    m = a.shape[0]
    return SystemProblem(
        m=m,
        eps=(1e-4,) * m,
        kind="reaction-diffusion",
        a=coefficient(a, (m, m)),
        f=coefficient(np.zeros(m), (m,)),
    )


def test_comparison_matrix_verdicts_and_symmetric_definiteness():
    # identity coupling: comparison matrix is the identity, verdict holds
    rep = check_gamma(_reaction_problem(np.eye(3)))
    assert rep["gamma_monotone"]
    assert np.array_equal(np.asarray(rep["gamma_matrix"]), np.eye(3))

    # strong diagonal dominance implies the verdict
    dom = np.array([[4.0, -1.0, 1.0], [0.5, 3.0, -1.0], [1.0, 1.0, 5.0]])
    rep = check_gamma(_reaction_problem(dom))
    assert rep["diag_dominant"] and rep["gamma_monotone"]

    # off-diagonal ratios of 2 both ways: inverse goes negative, verdict fails
    rep = check_gamma(_reaction_problem(np.array([[1.0, 2.0], [2.0, 1.0]])))
    assert not rep["gamma_monotone"]
    assert rep["gamma_inverse_min"] < 0.0

    # symmetric coupling with a monotone comparison matrix must be positive
    # definite; exercised on 100 accepted random draws (rejected draws are
    # the ones whose comparison matrix already fails)
    rng = np.random.default_rng(20260814)
    accepted = 0
    trials = 0
    while accepted < 100:
        trials += 1
        assert trials <= 5000, "random search for monotone instances stalled"
        m = int(rng.integers(2, 5))
        a = rng.uniform(-4.0, 4.0, size=(m, m)) / m
        a = 0.5 * (a + a.T)
        np.fill_diagonal(a, rng.uniform(1.0, 2.0, size=m))
        rep = check_gamma(_reaction_problem(a))
        if not rep["gamma_monotone"]:
            continue
        accepted += 1
        assert np.linalg.eigvalsh(a).min() > 0.0, f"monotone but indefinite:\n{a}"
    assert trials > accepted, "sampler never produced a failing comparison matrix"


# ---------------------------------------------------------------------------
# mesh invariants
# ---------------------------------------------------------------------------


def _mesh_zoo(eps: float, n: int):
    spec = LayerSpec(eps=eps)
    yield "uniform", uniform_mesh(n)
    yield "bakhvalov-shishkin", bakhvalov_shishkin(spec, n)
    yield "bakhvalov-type", bakhvalov_type(spec, n)
    yield "system-shishkin", system_shishkin([LayerSpec(eps)], n)
    yield "system-shishkin-mirrored", system_shishkin([LayerSpec(eps, side="both")], n)
    n2 = 6 * ((n + 5) // 6)  # two-eps mirrored mesh needs n divisible by 6
    yield "system-shishkin-2eps", system_shishkin(
        [LayerSpec(eps * 1e-3, side="both"), LayerSpec(eps, side="both")], n2
    )


def test_mesh_invariants_across_eps_and_resolution():
    for eps in EPS_GRID:
        for n in N_GRID:
            for name, mesh in _mesh_zoo(eps, n):
                where = f"{name} eps={eps:g} n={n}"
                assert mesh.points[0] == 0.0 and mesh.points[-1] == 1.0, where
                assert np.all(np.diff(mesh.points) > 0.0), where

    # graded nodes invert the layer function exactly: x_i = -a ln(1 - c t_i)
    # on the first k + 1 nodes, t_i = i/(2k).  side='right' is left out: its
    # nodes near x = 1 sit on the float64 spacing floor (ROADMAP item 2).
    for n in N_GRID:
        for eps in (1e-4, 1e-10):
            for side in ("left", "both"):
                spec = LayerSpec(eps=eps, side=side)
                k = n // 4 if side == "both" else n // 2
                t = np.arange(k + 1) / (2 * k)
                for build, c in ((bakhvalov_type, 2.0 * (1.0 - eps)),
                                 (bakhvalov_shishkin, 2.0 * (1.0 - 1.0 / n))):
                    mesh = build(spec, n)
                    assert "degenerate" not in mesh.meta, (build, eps, n, side)
                    lhs = -np.expm1(-mesh.points[: k + 1] / spec.width_scale) / c
                    assert np.max(np.abs(lhs - t)) <= 1e-12, (build, eps, n, side)


# ---------------------------------------------------------------------------
# solver kernels
# ---------------------------------------------------------------------------


def test_block_elimination_matches_dense_oracle_on_random_instances():
    # every parity and reduction depth of block cyclic reduction up to
    # n = 40 (n = 1 included), plus one deep case
    rng = np.random.default_rng(987654321)
    for n, m in itertools.product([*range(1, 41), 1025], (1, 2, 3)):
        diag = rng.standard_normal((n, m, m))
        diag += 3.0 * m * np.eye(m)  # block-row dominance keeps LU benign
        mat = BlockTridiag(
            sub=rng.standard_normal((n - 1, m, m)),
            diag=diag,
            sup=rng.standard_normal((n - 1, m, m)),
        )
        rhs = rng.standard_normal((n, m))
        got = block_thomas(mat, rhs)
        ref = np.linalg.solve(mat.to_dense(), rhs.ravel()).reshape(n, m)
        scale = 1.0 + float(np.max(np.abs(ref)))
        assert np.max(np.abs(got - ref)) <= 1e-9 * scale


def test_block_elimination_matches_dense_oracle_with_every_level_wide(monkeypatch):
    # the same instances with every level of two or more block rows run
    # component-major (the default switches at 2048 rows)
    monkeypatch.setattr(linalg, "_WIDE", 2)
    test_block_elimination_matches_dense_oracle_on_random_instances()

