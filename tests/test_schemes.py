"""Difference/FEM assembly, the fitted scheme, solving, and energy norms."""
import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spbvp import schemes
from spbvp.harness import mesh_family, problem_family, sweep
from spbvp.linalg import block_thomas
from spbvp.meshes import LayerSpec, system_shishkin, uniform_mesh
from spbvp.problems import (
    Coefficient,
    ReferenceSolution,
    SystemProblem,
    builtin_reaction_diffusion_system,
    builtin_scalar_cd,
    builtin_strongly_coupled_example,
    coefficient,
)
from spbvp.schemes import (
    SCHEME_TAGS,
    apply,
    assemble,
    discrete_solve,
    energy_norm_error,
    solve,
    solve_many,
    _fitting_factor,
)

# frozen expected values
SIGMA_125_32 = 3.9094125701040767  # rho*coth(rho) at rho = 125/32, mpmath 40 digits
SIGMA_8 = 8.0000018005629981
SIGMA_1E6 = 1.0000000000003333
FITTED_DIAG = 1.7914736550764334  # (sigma(25/32) + sigma(75/32)) / 2, mpmath
FITTED_OFF = 0.59584800859150412  # (sigma(75/32) - sigma(25/32)) / 2
ENERGY_ERR_XSQ = 0.14478791961578378  # sqrt(161/7680): x^2 interp on 4 cells, eps=1


def _scalar_cd(eps=1.0 / 64.0, b=1.0, a=2.0, f=3.0, g0=0.0, g1=0.0):
    return SystemProblem(
        m=1,
        eps=(eps,),
        kind="weakly-coupled-cd",
        b=coefficient(np.array([[b]]), (1, 1)),
        a=coefficient(np.array([[a]]), (1, 1)),
        f=coefficient(np.array([f]), (1,)),
        g0=np.array([g0]),
        g1=np.array([g1]),
    )


def _scalar_rd(eps=0.1, a=2.0, f=1.0, g0=0.0, g1=0.0):
    return SystemProblem(
        m=1,
        eps=(eps,),
        kind="reaction-diffusion",
        a=coefficient(np.array([[a]]), (1, 1)),
        f=coefficient(np.array([f]), (1,)),
        g0=np.array([g0]),
        g1=np.array([g1]),
    )


def _interior_row(op, i):
    return op.matrix.sub[i - 1], op.matrix.diag[i], op.matrix.sup[i]


# ---------------------------------------------------------------------------
# scheme tags


def test_scheme_tag_validation():
    for tag in SCHEME_TAGS:
        problem = _scalar_rd() if tag == "central" else _scalar_cd()
        assert assemble(problem, uniform_mesh(4), tag).scheme_tag == tag
    with pytest.raises(ValueError, match="scheme must be one of"):
        assemble(_scalar_cd(), uniform_mesh(4), "upwinded")
    with pytest.raises(ValueError, match="scheme must be one of"):
        sweep(
            problem_family("scalar-cd"),
            mesh_family("shishkin"),
            "upwinded",
            (16,),
            ((1e-3,),),
        )


_SERVES = {
    "simple-upwind": ("weakly-coupled-cd", "strongly-coupled-cd"),
    "midpoint-upwind": ("weakly-coupled-cd",),
    "central": ("reaction-diffusion",),
    "ias": ("weakly-coupled-cd", "strongly-coupled-cd"),
    "galerkin-fem": ("weakly-coupled-cd", "strongly-coupled-cd", "reaction-diffusion"),
}


def test_every_scheme_refuses_exactly_the_kinds_it_does_not_serve():
    assert set(_SERVES) == set(SCHEME_TAGS)
    for tag, kind in itertools.product(SCHEME_TAGS, _SERVES["galerkin-fem"]):
        base = _scalar_rd() if kind == "reaction-diffusion" else _scalar_cd()
        problem = dataclasses.replace(base, kind=kind)
        if kind in _SERVES[tag]:
            assert assemble(problem, uniform_mesh(8), tag).scheme_tag == tag
        else:
            with pytest.raises(ValueError, match=f"scheme '{tag}' serves .*; the problem is {kind}$"):
                assemble(problem, uniform_mesh(8), tag)


# ---------------------------------------------------------------------------
# upwind and midpoint assembly (frozen rows: eps=1/64, h=1/4, b=1, a=2, f=3)


def test_simple_upwind_frozen_interior_row():
    op = assemble(_scalar_cd(), uniform_mesh(4), "simple-upwind")
    for i in (1, 2, 3):
        sub, diag, sup = _interior_row(op, i)
        # -eps/h^2 - b/h = -0.25 - 4, 2eps/h^2 + b/h + a, -eps/h^2
        np.testing.assert_allclose(sub, [[-4.25]], rtol=1e-14)
        np.testing.assert_allclose(diag, [[6.5]], rtol=1e-14)
        np.testing.assert_allclose(sup, [[-0.25]], rtol=1e-14)
        np.testing.assert_allclose(op.rhs[i], [3.0])
    np.testing.assert_allclose(op.matrix.diag[0], [[1.0]])
    np.testing.assert_allclose(op.matrix.sup[0], [[0.0]])
    np.testing.assert_allclose(op.rhs[0], [0.0])


def test_midpoint_upwind_frozen_interior_row():
    op = assemble(_scalar_cd(), uniform_mesh(4), "midpoint-upwind")
    for i in (1, 2, 3):
        sub, diag, sup = _interior_row(op, i)
        # reaction and source move to x_{i-1/2}, unknown averaged there
        np.testing.assert_allclose(sub, [[-3.25]], rtol=1e-14)
        np.testing.assert_allclose(diag, [[5.5]], rtol=1e-14)
        np.testing.assert_allclose(sup, [[-0.25]], rtol=1e-14)
        np.testing.assert_allclose(op.rhs[i], [3.0])


def test_upwind_flips_with_negative_convection():
    op = assemble(_scalar_cd(b=-1.0), uniform_mesh(4), "simple-upwind")
    sub, diag, sup = _interior_row(op, 2)
    np.testing.assert_allclose(sub, [[-0.25]], rtol=1e-14)
    np.testing.assert_allclose(diag, [[6.5]], rtol=1e-14)
    np.testing.assert_allclose(sup, [[-4.25]], rtol=1e-14)


def test_upwind_warns_on_sign_changing_convection():
    problem = SystemProblem(
        m=1,
        eps=(1e-2,),
        kind="weakly-coupled-cd",
        b=Coefficient(shape=(1, 1), fn=lambda x: (x - 0.5)[:, None, None]),
        a=coefficient(np.ones((1, 1)), (1, 1)),
        f=coefficient(np.ones(1), (1,)),
    )
    with pytest.warns(UserWarning, match="changes sign"):
        assemble(problem, uniform_mesh(8), "simple-upwind")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assemble(_scalar_cd(), uniform_mesh(8), "simple-upwind")


def test_upwind_and_midpoint_reject_missing_convection():
    problem = _scalar_rd()
    with pytest.raises(ValueError, match="scheme 'simple-upwind' serves weakly-coupled-cd, "
                       "strongly-coupled-cd; the problem is reaction-diffusion"):
        assemble(problem, uniform_mesh(8), "simple-upwind")
    with pytest.raises(ValueError, match="scheme 'midpoint-upwind' serves weakly-coupled-cd; "
                       "the problem is strongly-coupled-cd"):
        assemble(builtin_strongly_coupled_example(1e-2)[0], uniform_mesh(8), "midpoint-upwind")


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=24),
    eps=st.floats(min_value=1e-6, max_value=1.0),
    b=st.floats(min_value=0.25, max_value=4.0),
    a=st.floats(min_value=0.1, max_value=3.0),
)
def test_upwind_matrix_is_strictly_diagonally_dominant_m_matrix(n, eps, b, a):
    op = assemble(_scalar_cd(eps=eps, b=b, a=a), uniform_mesh(n), "simple-upwind")
    for i in range(1, n):
        sub, diag, sup = _interior_row(op, i)
        assert sub[0, 0] <= 0.0 and sup[0, 0] <= 0.0 and diag[0, 0] > 0.0
        slack = diag[0, 0] - (abs(sub[0, 0]) + abs(sup[0, 0]))
        assert math.isclose(slack, a, rel_tol=1e-9, abs_tol=1e-9)


# ---------------------------------------------------------------------------
# central scheme


def test_central_frozen_interior_row():
    op = assemble(_scalar_rd(eps=0.1, a=2.0, f=1.0), uniform_mesh(4), "central")
    sub, diag, sup = _interior_row(op, 2)
    # diffusion eps^2 = 0.01: -0.01*16, 0.02*16 + 2
    np.testing.assert_allclose(sub, [[-0.16]], rtol=1e-14)
    np.testing.assert_allclose(diag, [[2.32]], rtol=1e-14)
    np.testing.assert_allclose(sup, [[-0.16]], rtol=1e-14)


def test_central_exact_on_quadratics_on_uneven_mesh():
    # -eps^2 D+D- integrates x^2 exactly on any spacing: each row is -2 eps^2
    pts = np.array([0.0, 0.1, 0.35, 0.6, 1.0])
    mesh = dataclasses.replace(uniform_mesh(4), points=pts)
    op = assemble(_scalar_rd(eps=0.1, a=0.0), mesh, "central")
    got = apply(op, (pts**2)[:, None])[1:-1, 0]
    np.testing.assert_allclose(got, -0.02, rtol=1e-12)


def test_central_rejects_convection_kinds():
    with pytest.raises(ValueError, match="scheme 'central' serves reaction-diffusion; "
                       "the problem is weakly-coupled-cd"):
        assemble(_scalar_cd(), uniform_mesh(8), "central")


# ---------------------------------------------------------------------------
# fitted scheme


def test_fitting_factor_frozen_values():
    got = _fitting_factor(np.array([125.0 / 32.0, 8.0, 1e-6, 0.0]))
    np.testing.assert_allclose(
        got, [SIGMA_125_32, SIGMA_8, SIGMA_1E6, 1.0], rtol=1e-14
    )


def test_fitting_factor_even_and_consistent_at_series_seam():
    rho = np.array([0.3, 1.7, 9.0])
    np.testing.assert_allclose(_fitting_factor(-rho), _fitting_factor(rho), rtol=1e-15)
    # just above the cutoff the closed form must agree with the series
    r = 1.01e-4
    series = 1.0 + r * r / 3.0 - r**4 / 45.0
    assert abs(_fitting_factor(np.array([r]))[0] - series) < 1e-13


def test_ias_frozen_fitted_matrix_2x2():
    # B = [[2,1],[1,2]], h = 1/16, eps = 1/25 -> rho = 25/32 and 75/32
    eps = 0.04
    problem = SystemProblem(
        m=2,
        eps=(eps, eps),
        kind="strongly-coupled-cd",
        b=coefficient(np.array([[2.0, 1.0], [1.0, 2.0]]), (2, 2)),
        a=coefficient(np.zeros((2, 2)), (2, 2)),
        f=coefficient(np.zeros(2), (2,)),
    )
    op = assemble(problem, uniform_mesh(16), "ias")
    h = 1.0 / 16.0
    fitted = eps * np.array([[FITTED_DIAG, FITTED_OFF], [FITTED_OFF, FITTED_DIAG]])
    b_mat = np.array([[2.0, 1.0], [1.0, 2.0]])
    sub, diag, sup = _interior_row(op, 8)
    np.testing.assert_allclose(sub, -fitted / h**2 - b_mat / (2 * h), rtol=1e-13)
    np.testing.assert_allclose(diag, 2 * fitted / h**2, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(sup, -fitted / h**2 + b_mat / (2 * h), rtol=1e-13)


def test_ias_scalar_equals_sigma_scaled_central_plus_centered_convection():
    eps, n = 0.04, 16
    problem = _scalar_cd(eps=eps, b=5.0, a=0.0, f=1.0)
    op = assemble(problem, uniform_mesh(n), "ias")
    sub, diag, sup = _interior_row(op, 5)
    h = 1.0 / n
    fitted = eps * SIGMA_125_32  # rho = 5h/(2 eps) = 125/32
    assert math.isclose(sub[0, 0], -fitted / h**2 - 5.0 / (2 * h), rel_tol=1e-13)
    assert math.isclose(diag[0, 0], 2 * fitted / h**2, rel_tol=1e-13)
    assert math.isclose(sup[0, 0], -fitted / h**2 + 5.0 / (2 * h), rel_tol=1e-13)


def test_ias_rejects_nonuniform_multiparameter_asymmetric_and_diffusion():
    spec = LayerSpec(eps=1e-3, gamma=1.0, mu=2.0, side="left")
    with pytest.raises(ValueError, match="uniform mesh"):
        assemble(_scalar_cd(eps=1e-3), system_shishkin([spec], 8), "ias")
    multi = SystemProblem(
        m=2,
        eps=(1e-6, 1e-3),
        kind="weakly-coupled-cd",
        b=coefficient(np.diag([1.0, 1.0]), (2, 2)),
        a=coefficient(np.zeros((2, 2)), (2, 2)),
        f=coefficient(np.ones(2), (2,)),
    )
    with pytest.raises(ValueError, match="single perturbation"):
        assemble(multi, uniform_mesh(8), "ias")
    skewed = SystemProblem(
        m=2,
        eps=(1e-3, 1e-3),
        kind="strongly-coupled-cd",
        b=coefficient(np.array([[1.0, 2.0], [0.5, 1.0]]), (2, 2)),
        a=coefficient(np.zeros((2, 2)), (2, 2)),
        f=coefficient(np.ones(2), (2,)),
    )
    with pytest.raises(ValueError, match="symmetric"):
        assemble(skewed, uniform_mesh(8), "ias")
    with pytest.raises(ValueError, match="scheme 'ias' serves .*; the problem is reaction-diffusion"):
        assemble(_scalar_rd(), uniform_mesh(8), "ias")


def test_ias_is_nodally_exact_on_constant_coefficient_2x2():
    problem, ref = builtin_strongly_coupled_example(1e-6)
    sol = discrete_solve(problem, uniform_mesh(64), "ias")
    err = float(np.max(np.abs(sol.values - ref(sol.mesh.points))))
    assert err <= 5e-13


# ---------------------------------------------------------------------------
# Galerkin FEM


def test_fem_matrix_symmetric_and_interior_positive_definite():
    problem, _ = builtin_reaction_diffusion_system()
    mesh = system_shishkin([LayerSpec(e, gamma=1.3, side="both") for e in problem.eps], 36)
    op = assemble(problem, mesh, "galerkin-fem")
    dense = op.matrix.to_dense()
    asym = float(np.max(np.abs(dense - dense.T)))
    assert asym <= 1e-12 * float(np.max(np.abs(dense)))
    interior = dense[2:-2, 2:-2]
    assert float(np.min(np.linalg.eigvalsh((interior + interior.T) / 2))) > 0.0


def test_fem_boundary_folding_keeps_constant_solutions_exact():
    problem = _scalar_rd(eps=0.05, a=4.0, f=8.0, g0=2.0, g1=2.0)
    op = assemble(problem, uniform_mesh(9), "galerkin-fem")
    np.testing.assert_allclose(op.matrix.sub[0], [[0.0]])
    np.testing.assert_allclose(op.matrix.sup[-1], [[0.0]])
    sol = solve(op)
    np.testing.assert_allclose(sol.values, 2.0, rtol=1e-12)


def test_fem_reproduces_linear_solutions_of_pure_convection():
    problem = _scalar_cd(eps=1e-3, b=2.0, a=0.0, f=2.0, g0=0.0, g1=1.0)
    sol = discrete_solve(problem, uniform_mesh(16), "galerkin-fem")
    np.testing.assert_allclose(sol.values[:, 0], sol.mesh.points, atol=1e-12)


# ---------------------------------------------------------------------------
# apply / dense cross-check


def test_apply_matches_dense_operator():
    rng = np.random.default_rng(7)
    problem = SystemProblem(
        m=2,
        eps=(1e-2, 5e-2),
        kind="weakly-coupled-cd",
        b=coefficient(np.diag([1.5, -0.75]), (2, 2)),
        a=coefficient(np.array([[2.0, -0.3], [-0.4, 1.5]]), (2, 2)),
        f=coefficient(np.ones(2), (2,)),
    )
    pts = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, 14)), [1.0]])
    mesh = dataclasses.replace(uniform_mesh(15), points=pts)
    for tag in ("simple-upwind", "midpoint-upwind", "galerkin-fem"):
        op = assemble(problem, mesh, tag)
        v = rng.standard_normal((op.n_nodes, op.m))
        got = apply(op, v)
        want = (op.matrix.to_dense() @ v.ravel()).reshape(v.shape)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    with pytest.raises(ValueError, match="vector must be"):
        apply(assemble(problem, mesh, "simple-upwind"), np.ones((3, 2)))


# ---------------------------------------------------------------------------
# solve


def test_solve_zero_data_gives_zero():
    problem = _scalar_cd(f=0.0)
    sol = discrete_solve(problem, uniform_mesh(16), "simple-upwind")
    np.testing.assert_array_equal(sol.values, 0.0)


def _system(m, eps, kind, g0, g1):
    """m components of one eps, diagonal convection (none for
    reaction-diffusion), a coupled reaction and the given boundary data."""
    b = None if kind == "reaction-diffusion" else coefficient(np.diag([1.0, 2.0][:m]), (m, m))
    return SystemProblem(
        m=m,
        eps=(eps,) * m,
        kind=kind,
        b=b,
        a=coefficient(np.array([[2.0, -0.5], [-0.25, 3.0]])[:m, :m], (m, m)),
        f=coefficient(np.array([3.0, -1.0])[:m], (m,)),
        g0=np.array(g0),
        g1=np.array(g1),
    )


def test_solve_sets_boundary_values_and_reports_residual():
    # the solver writes no boundary value: the identity boundary rows of
    # every assembler carry the data through the reduction bitwise, alone
    # and in a stack
    for tag in SCHEME_TAGS:
        kind = "reaction-diffusion" if tag == "central" else "weakly-coupled-cd"
        for m, g0, g1 in ((1, [0.25], [-1.5]), (2, [0.25, -0.1], [-1.5, 3.0 / 7.0])):
            ops = [assemble(_system(m, eps, kind, g0, g1), uniform_mesh(16), tag)
                   for eps in (1e-2, 1e-6)]
            for sol in [solve(ops[0])] + solve_many(ops):
                assert sol.values[0].tolist() == g0 and sol.values[-1].tolist() == g1, (tag, m)
                assert 0.0 <= sol.residual <= 1e-10 * (1.0 + 3.0)


def test_solve_refines_fem_rows_with_vanishing_reaction():
    # near-skew coarse rows amplify elimination roundoff at extreme eps;
    # iterative refinement must absorb that without tripping the guard
    problem, ref = builtin_scalar_cd(1e-10)
    spec = LayerSpec(eps=1e-10, gamma=1.0, mu=2.0, side="right")
    sol = discrete_solve(problem, system_shishkin([spec], 64), "galerkin-fem")
    assert sol.residual <= 1e-10 * (1.0 + 1.0)
    assert float(np.max(np.abs(sol.values - ref(sol.mesh.points)))) < 5e-2


def test_solve_forward_error_against_long_double_refinement():
    # cyclic reduction alone leaves ~3.6e-9 here at a row-scaled residual
    # of 3e-16; the refinement pass inside block_thomas brings it to ~2e-11
    problem, _ = builtin_scalar_cd(1e-6)
    spec = LayerSpec(eps=1e-6, gamma=1.0, mu=2.0, side="right")
    op = assemble(problem, system_shishkin([spec], 2**16), "simple-upwind")
    got = solve(op).values
    mat = op.matrix
    sub, diag, sup = (a.astype(np.longdouble) for a in (mat.sub, mat.diag, mat.sup))
    x = got.astype(np.longdouble)
    for _ in range(3):
        r = (diag @ x[..., None])[..., 0] - op.rhs
        r[1:] += (sub @ x[:-1, :, None])[..., 0]
        r[:-1] += (sup @ x[1:, :, None])[..., 0]
        x = x - block_thomas(mat, r.astype(float))
    assert float(np.max(np.abs(got - x))) <= 2e-10
    assert float(np.max(np.abs(block_thomas(mat, op.rhs) - x))) <= 2e-10


def _count_kernel_calls(monkeypatch):
    calls = []
    kernel = schemes.block_thomas

    def counted(mat, rhs):
        calls.append(mat.n)
        return kernel(mat, rhs)

    monkeypatch.setattr(schemes, "block_thomas", counted)
    return calls


def test_solve_factors_each_system_once(monkeypatch):
    calls = _count_kernel_calls(monkeypatch)
    problem, _ = builtin_scalar_cd(1e-6)
    spec = LayerSpec(eps=1e-6, gamma=1.0, mu=2.0, side="right")
    solve(assemble(problem, system_shishkin([spec], 1024), "simple-upwind"))
    assert calls == [1025]
    calls.clear()
    problem, _ = builtin_reaction_diffusion_system(eps=(1e-6, 1e-4))
    mesh = system_shishkin([LayerSpec(e, side="both") for e in (1e-6, 1e-4)], 288)
    solve(assemble(problem, mesh, "central"))
    assert calls == [289]


def test_solve_rejects_poisoned_rhs(monkeypatch):
    calls = _count_kernel_calls(monkeypatch)
    op = assemble(_scalar_cd(), uniform_mesh(8), "simple-upwind")
    bad = dataclasses.replace(op, rhs=np.full_like(op.rhs, np.nan))
    with pytest.raises(RuntimeError, match="solver residual"):
        solve(bad)
    assert len(calls) == 1  # no refinement pass is spent on a nan residual


def test_solve_checks_residual_after_every_pass(monkeypatch):
    calls = _count_kernel_calls(monkeypatch)
    problem, _ = builtin_scalar_cd(1e-2)
    op = assemble(problem, uniform_mesh(16), "simple-upwind")
    mat = op.matrix
    sub, diag, sup = mat.sub.copy(), mat.diag.copy(), mat.sup.copy()
    diag[4] *= 1e-17
    sub[3] *= 1e-17
    sup[4] *= 1e-17
    bad = dataclasses.replace(op, matrix=dataclasses.replace(mat, sub=sub, diag=diag, sup=sup))
    with pytest.raises(RuntimeError, match="solver residual"):
        solve(bad)
    assert len(calls) == 3  # the solve and two further passes, each checked


def test_solve_many_stacks_each_size_once_and_equals_solve(monkeypatch):
    ops = []
    for eps in (1e-4, 1e-6, 1e-8):
        problem, _ = builtin_scalar_cd(eps)
        for n in (16, 32):
            ops.append(assemble(problem, mesh_family("shishkin")(problem, n), "simple-upwind"))
    problem, _ = builtin_reaction_diffusion_system(eps=(1e-6, 1e-4))
    ops.append(assemble(problem, mesh_family("system-shishkin")(problem, 24), "central"))
    alone = [solve(op) for op in ops]
    calls = _count_kernel_calls(monkeypatch)
    together = solve_many(ops)
    assert sorted(calls) == [17, 25, 33]  # one stacked call per (n, m)
    for a, b in zip(alone, together):
        assert np.array_equal(a.values, b.values)
        assert a.residual == b.residual and a.mesh is b.mesh
    assert solve_many([]) == []


def node_last(blocks):
    """Copy of (rows, m, m) blocks stored (m, m, rows), as assemble stores them."""
    return np.ascontiguousarray(blocks.transpose(1, 2, 0))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_row_scale_adds_columns_bitwise_as_axis_sum(m):
    blocks = np.random.default_rng(m).uniform(-1e6, 1e6, (257, m, m))
    got = schemes._row_abs_sum(node_last(blocks).transpose(2, 0, 1))
    assert got.T.flags.c_contiguous  # (m, rows) memory, as the operator's
    assert got.tobytes() == np.abs(blocks).sum(axis=2).tobytes()


def test_second_difference_diagonal_view_bitwise_as_fancy_index():
    rng = np.random.default_rng(5)
    m, n = 3, 40  # n cells
    h = rng.uniform(1e-8, 1e-1, n)
    d = np.array([1e-6, 1e-3, 1.0])
    start = [rng.uniform(-1.0, 1.0, (k, m, m)) for k in (n, n + 1, n)]
    got = [node_last(a) for a in start]
    schemes._add_second_difference(*got, h[:-1], h[1:], d)
    got = [a.transpose(2, 0, 1).copy() for a in got]
    sub, diag, sup = (a.copy() for a in start)
    idx = np.arange(m)
    c2m = 2.0 / (h[:-1] * (h[:-1] + h[1:]))
    c2p = 2.0 / (h[1:] * (h[:-1] + h[1:]))
    sub[:-1, idx, idx] += -d[None, :] * c2m[:, None]
    diag[1:-1, idx, idx] += d[None, :] * (c2m + c2p)[:, None]
    sup[1:, idx, idx] += -d[None, :] * c2p[:, None]
    for a, b in zip(got, (sub, diag, sup)):
        assert a.tobytes() == b.tobytes()


def test_solution_invariant_under_equation_row_scaling():
    alpha = 32.0
    base = dict(
        m=2,
        kind="weakly-coupled-cd",
        f=coefficient(np.array([1.0, 2.0]), (2,)),
    )
    p1 = SystemProblem(
        eps=(1e-3, 4e-3),
        b=coefficient(np.diag([1.0, -2.0]), (2, 2)),
        a=coefficient(np.array([[2.0, -0.5], [-0.25, 3.0]]), (2, 2)),
        **base,
    )
    p2 = SystemProblem(
        m=2,
        kind="weakly-coupled-cd",
        eps=(alpha * 1e-3, 4e-3),
        b=coefficient(np.diag([alpha * 1.0, -2.0]), (2, 2)),
        a=coefficient(np.array([[alpha * 2.0, alpha * -0.5], [-0.25, 3.0]]), (2, 2)),
        f=coefficient(np.array([alpha * 1.0, 2.0]), (2,)),
    )
    mesh = uniform_mesh(64)
    u1 = discrete_solve(p1, mesh, "simple-upwind").values
    u2 = discrete_solve(p2, mesh, "simple-upwind").values
    np.testing.assert_allclose(u1, u2, rtol=1e-12, atol=1e-12)


def test_upwind_reproduces_linears_when_reaction_vanishes():
    problem = _scalar_cd(eps=1e-8, b=3.0, a=0.0, f=3.0, g1=1.0)
    for tag in ("simple-upwind", "midpoint-upwind"):
        sol = discrete_solve(problem, uniform_mesh(12), tag)
        np.testing.assert_allclose(sol.values[:, 0], sol.mesh.points, atol=1e-12)


# ---------------------------------------------------------------------------
# energy norms


def test_energy_norm_error_frozen_quadratic_interpolation_constant():
    mesh = uniform_mesh(4)
    ref = ReferenceSolution(
        kind="exact",
        evaluator=lambda x: (x**2)[:, None],
        derivative_fn=lambda x, k: (2.0 * x)[:, None] if k == 1 else np.full((len(x), 1), 2.0),
    )
    v = (mesh.points**2)[:, None]
    got = energy_norm_error(mesh, v, ref, 1.0)
    assert math.isclose(got, ENERGY_ERR_XSQ, rel_tol=1e-12)


def test_energy_norm_error_zero_for_linear_reference():
    mesh = uniform_mesh(5)
    ref = ReferenceSolution(
        kind="exact",
        evaluator=lambda x: x[:, None],
        derivative_fn=lambda x, k: np.ones((len(x), 1)) if k == 1 else np.zeros((len(x), 1)),
    )
    assert energy_norm_error(mesh, mesh.points[:, None], ref, 0.5) <= 1e-14


def test_energy_norm_error_requires_derivatives():
    mesh = uniform_mesh(4)
    ref = ReferenceSolution(kind="exact", evaluator=lambda x: x[:, None])
    with pytest.raises(ValueError, match="derivatives"):
        energy_norm_error(mesh, mesh.points[:, None], ref, 1.0)
