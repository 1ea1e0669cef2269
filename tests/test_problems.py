"""Problem containers, stability pre-checks, envelopes, built-in references."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spbvp
from spbvp.harness import PROBLEMS, problem_family
from spbvp.meshes import LayerSpec
from spbvp.problems import (
    Coefficient,
    ReferenceSolution,
    SystemProblem,
    builtin_reaction_diffusion_system,
    builtin_scalar_cd,
    builtin_strongly_coupled_example,
    builtin_strongly_coupled_variable,
    builtin_weakly_coupled_cd,
    check_gamma,
    check_upsilon,
    coefficient,
    default_envelope,
    envelope_check,
    stability_report,
)

# frozen expected values
SCALAR_U_HALF_EPS1 = 0.12245933120185456  # mpmath, 40 digits
KAPPA_RD_DEFAULT = 1.3228756555322954  # sqrt((1 - 1/8) * 2) = sqrt(7/4)
GAMMA_RD_DEFAULT = [[1.0, -0.125], [-0.125, 1.0]]  # offdiag (1/4)/2 by hand
UPSILON_2X2 = [[1.0, -4.0], [-4.0, 1.0]]  # sup|b_12| = 4, zero reaction
UPSILON_2X2_INV_MIN = -4.0 / 15.0  # inverse of [[1,-4],[-4,1]] by hand


def _rd_problem(a_matrix, eps=(1e-4, 1e-2)):
    m = len(a_matrix)
    return SystemProblem(
        m=m,
        eps=tuple(eps[:m]) if len(eps) >= m else tuple([1e-3] * m),
        kind="reaction-diffusion",
        a=coefficient(np.asarray(a_matrix, dtype=float), (m, m)),
        f=coefficient(np.ones(m), (m,)),
    )


# ---------------------------------------------------------------------------
# coefficients and problem validation


def test_coefficient_requires_exactly_one_source():
    with pytest.raises(ValueError, match="exactly one"):
        Coefficient(shape=(2, 2))
    with pytest.raises(ValueError, match="exactly one"):
        Coefficient(shape=(2,), constant=np.ones(2), fn=lambda x: x)


def test_coefficient_scalar_broadcast_and_shapes():
    c = coefficient(2.0, (3,))
    assert c.is_constant
    np.testing.assert_array_equal(c.constant, [2.0, 2.0, 2.0])
    with pytest.raises(ValueError, match="cannot shape"):
        coefficient(np.ones((2, 3)), (2, 2))


def test_coefficient_constant_eval_broadcasts_over_x():
    c = coefficient(np.array([[1.0, 2.0], [3.0, 4.0]]), (2, 2))
    out = c(np.linspace(0, 1, 5))
    assert out.shape == (5, 2, 2)
    assert np.all(out[3] == c.constant)


def test_constant_coefficient_evaluates_to_read_only_view():
    const = np.array([[1.0, 2.0], [3.0, 4.0]])
    c = coefficient(const, (2, 2))
    out = c(np.linspace(0, 1, 5))
    assert out.shape == (5, 2, 2)
    np.testing.assert_array_equal(out, np.stack([const] * 5))
    assert not out.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        out[0, 0, 0] = 9.0
    np.testing.assert_array_equal(c.constant, const)
    assert c(0.5).shape == (1, 2, 2)


def test_coefficient_callable_eval_and_shape_check():
    c = coefficient(lambda x: np.stack([x, 1 + x], axis=1), (2,))
    assert not c.is_constant
    out = c(np.array([0.0, 0.5]))
    np.testing.assert_allclose(out, [[0.0, 1.0], [0.5, 1.5]])
    bad = coefficient(lambda x: x, (2,))
    with pytest.raises(ValueError, match="returned shape"):
        bad(np.array([0.0, 0.5]))


def test_problem_kind_validation():
    a = coefficient(np.eye(1), (1, 1))
    f = coefficient(np.ones(1), (1,))
    with pytest.raises(ValueError, match="kind"):
        SystemProblem(m=1, eps=(1e-3,), kind="elliptic", a=a, f=f)
    with pytest.raises(ValueError, match="no convection"):
        SystemProblem(m=1, eps=(1e-3,), kind="reaction-diffusion", a=a, f=f, b=a)
    with pytest.raises(ValueError, match="requires a convection"):
        SystemProblem(m=1, eps=(1e-3,), kind="weakly-coupled-cd", a=a, f=f)
    with pytest.raises(ValueError, match="positive"):
        SystemProblem(m=1, eps=(-1.0,), kind="reaction-diffusion", a=a, f=f)


def test_weakly_coupled_must_have_diagonal_convection():
    a = coefficient(np.eye(2), (2, 2))
    f = coefficient(np.ones(2), (2,))
    b_off = coefficient(np.array([[1.0, 0.5], [0.0, 1.0]]), (2, 2))
    with pytest.raises(ValueError, match="diagonal convection"):
        SystemProblem(m=2, eps=(1e-3, 1e-3), kind="weakly-coupled-cd", a=a, f=f, b=b_off)
    # a varying but diagonal convection is fine
    def bfn(x):
        out = np.zeros(x.shape + (2, 2))
        out[:, 0, 0] = 1.0 + x
        out[:, 1, 1] = 2.0 - x
        return out

    SystemProblem(
        m=2, eps=(1e-3, 1e-3), kind="weakly-coupled-cd",
        a=a, f=f, b=coefficient(bfn, (2, 2)),
    )


def test_problem_boundary_defaults_and_diffusion():
    p = _rd_problem([[2.0, -0.25], [-0.25, 2.0]])
    np.testing.assert_array_equal(p.g0, [0.0, 0.0])
    np.testing.assert_array_equal(p.g1, [0.0, 0.0])
    np.testing.assert_allclose(p.diffusion, [1e-8, 1e-4])  # eps squared
    pc, _ = builtin_scalar_cd(1e-3)
    np.testing.assert_allclose(pc.diffusion, [1e-3])  # eps itself


# ---------------------------------------------------------------------------
# reaction comparison check


def test_gamma_frozen_for_default_reaction_coupling():
    prob, _ = builtin_reaction_diffusion_system()
    rep = check_gamma(prob)
    np.testing.assert_allclose(rep["gamma_matrix"], GAMMA_RD_DEFAULT, atol=0)
    assert rep["gamma_monotone"]
    assert rep["zeta"] == pytest.approx(0.125, abs=0)
    assert rep["diag_dominant"]
    assert rep["kappa"] == pytest.approx(KAPPA_RD_DEFAULT, abs=1e-15)


def test_gamma_identity_and_verdict_false_case():
    rep = check_gamma(_rd_problem(np.eye(2)))
    assert rep["gamma_monotone"] and rep["zeta"] == 0.0
    # strong off-diagonal coupling: inverse of [[1,-3],[-3,1]] has negative
    # entries, so the verdict must come back false
    rep2 = check_gamma(_rd_problem([[1.0, -3.0], [-3.0, 1.0]]))
    assert not rep2["gamma_monotone"]
    assert rep2["zeta"] == pytest.approx(3.0)
    assert not rep2["diag_dominant"]
    assert rep2["gamma_inverse_min"] == pytest.approx(-3.0 / 8.0)


def test_gamma_requires_positive_diagonal():
    with pytest.raises(ValueError, match="not positive"):
        check_gamma(_rd_problem([[0.0, 0.0], [0.0, 1.0]]))


def test_gamma_invariant_under_row_scaling():
    A = np.array([[2.0, -0.3], [-0.4, 3.0]])
    scale = np.array([5.0, 0.25])
    r1 = check_gamma(_rd_problem(A))
    r2 = check_gamma(_rd_problem(scale[:, None] * A))
    np.testing.assert_array_equal(r1["gamma_matrix"], r2["gamma_matrix"])
    assert r1["zeta"] == r2["zeta"]


def test_gamma_uses_same_point_ratios_not_separate_sups():
    # a_12/a_11 is large only where a_11 is large too; the same-point ratio
    # stays small even though sup|a_12| / inf a_11 would not
    def afn(x):
        out = np.zeros(x.shape + (2, 2))
        out[:, 0, 0] = 1.0 + 9.0 * x
        out[:, 0, 1] = -0.3 * (1.0 + 9.0 * x)
        out[:, 1, 1] = 1.0
        return out

    prob = SystemProblem(
        m=2, eps=(1e-4, 1e-3), kind="reaction-diffusion",
        a=coefficient(afn, (2, 2)), f=coefficient(np.ones(2), (2,)),
    )
    rep = check_gamma(prob)
    assert np.asarray(rep["gamma_matrix"])[0, 1] == pytest.approx(-0.3, rel=1e-12)
    assert rep["gamma_monotone"]


def test_symmetric_monotone_implies_positive_definite():
    rng = np.random.default_rng(7)
    monotone_seen = 0
    for _ in range(100):
        m = int(rng.integers(2, 5))
        M = -np.abs(rng.normal(size=(m, m)))
        M = 0.5 * (M + M.T)
        np.fill_diagonal(M, np.abs(rng.normal(size=m)) + rng.uniform(0.1, 3.0))
        rep = check_gamma(_rd_problem(M, eps=tuple([1e-3] * m)))
        if rep["gamma_monotone"]:
            monotone_seen += 1
            assert np.all(np.linalg.eigvalsh(M) > 0.0), M
    assert monotone_seen >= 20


# ---------------------------------------------------------------------------
# convection comparison check


def test_upsilon_frozen_for_builtin_2x2():
    prob, _ = builtin_strongly_coupled_example(1e-6)
    rep = check_upsilon(prob)
    np.testing.assert_allclose(rep["upsilon_matrix"], UPSILON_2X2, atol=0)
    assert rep["upsilon_inverse_min"] == pytest.approx(UPSILON_2X2_INV_MIN)
    assert rep["upsilon_row_sum_min"] == pytest.approx(-3.0)
    assert not rep["upsilon_monotone"]
    assert rep["upsilon_heuristic"]
    assert any("heuristic" in n for n in rep["notes"])


def test_upsilon_kind_and_constants_validation():
    prob, _ = builtin_scalar_cd(1e-3)
    with pytest.raises(ValueError, match="strongly-coupled"):
        check_upsilon(prob)
    prob2, _ = builtin_strongly_coupled_example(1e-3)
    with pytest.raises(ValueError, match="positive constants"):
        check_upsilon(prob2, c=np.array([1.0, -1.0]))
    rep = check_upsilon(prob2, c=np.array([0.1, 0.1]))
    assert not rep["upsilon_heuristic"]
    np.testing.assert_allclose(rep["upsilon_matrix"], [[1.0, -0.4], [-0.4, 1.0]])


def test_upsilon_verdict_implies_dominant_convection():
    # with unit constants the verdict is only trusted when min|b_ii| >= 1;
    # on such instances a true verdict must mean strict diagonal dominance
    rng = np.random.default_rng(42)
    true_seen = 0
    for _ in range(150):
        m = int(rng.integers(2, 4))
        diag = rng.uniform(1.0, 3.0, m) * rng.choice([-1.0, 1.0], m)
        B0 = rng.normal(size=(m, m)) * rng.uniform(0.0, 0.6)
        np.fill_diagonal(B0, diag)
        A0 = rng.normal(size=(m, m)) * rng.uniform(0.0, 0.3)
        prob = SystemProblem(
            m=m, eps=tuple([1e-4] * m), kind="strongly-coupled-cd",
            b=coefficient(B0, (m, m)), a=coefficient(A0, (m, m)),
            f=coefficient(np.ones(m), (m,)),
        )
        rep = check_upsilon(prob)
        if rep["upsilon_monotone"]:
            true_seen += 1
            offsum = np.abs(B0).sum(axis=1) - np.abs(np.diag(B0))
            assert np.all(np.abs(np.diag(B0)) > offsum)
    assert true_seen >= 30


def test_upsilon_accounts_for_convection_derivative():
    # b_12 averages to zero but varies; its derivative contributes through
    # the L1 term, so the entry must be more negative than sup|b_12| alone
    def bfn(x):
        out = np.zeros(x.shape + (2, 2))
        out[:, 0, 0] = 2.0
        out[:, 1, 1] = -2.0
        out[:, 0, 1] = 0.1 * np.sin(2.0 * np.pi * x)
        return out

    prob = SystemProblem(
        m=2, eps=(1e-3, 1e-3), kind="strongly-coupled-cd",
        b=coefficient(bfn, (2, 2)),
        a=coefficient(np.zeros((2, 2)), (2, 2)),
        f=coefficient(np.ones(2), (2,)),
    )
    rep = check_upsilon(prob)
    # L1 of |0.2*pi*cos(2 pi x)| = 0.4, sup = 0.1
    assert np.asarray(rep["upsilon_matrix"])[0, 1] == pytest.approx(-0.5, rel=1e-3)
    assert np.asarray(rep["upsilon_matrix"])[1, 0] == 0.0 + 1.0 * 0.0  # b_21 = a_21 = 0
    assert rep["upsilon_monotone"]


def test_stability_report_merges_sections():
    prob, _ = builtin_strongly_coupled_example(1e-4)
    rep = stability_report(prob)
    # zero reaction diagonal: gamma section skipped with a note
    assert "gamma_matrix" not in rep
    assert any("skipped" in n for n in rep["notes"])
    assert "upsilon_matrix" in rep
    parsed = json.loads(json.dumps(rep))
    assert parsed["upsilon_monotone"] is False
    assert parsed["upsilon_matrix"] == UPSILON_2X2

    prob_rd, _ = builtin_reaction_diffusion_system()
    rep_rd = stability_report(prob_rd)
    assert "upsilon_matrix" not in rep_rd
    assert "notes" not in rep_rd  # no check left a note
    assert rep_rd["gamma_monotone"]
    assert json.loads(json.dumps(rep_rd))["kappa"] == pytest.approx(KAPPA_RD_DEFAULT)


# ---------------------------------------------------------------------------
# built-in problems


def test_scalar_cd_frozen_value_and_boundaries():
    prob, ref = builtin_scalar_cd(1.0)
    vals = ref(np.array([0.0, 0.5, 1.0]))[:, 0]
    assert vals[0] == 0.0
    assert vals[2] == pytest.approx(0.0, abs=1e-16)
    assert vals[1] == pytest.approx(SCALAR_U_HALF_EPS1, rel=1e-14)
    prob6, ref6 = builtin_scalar_cd(1e-6)
    v6 = ref6(np.array([0.0, 0.5, 1.0]))[:, 0]
    assert v6[0] == 0.0 and v6[2] == pytest.approx(0.0, abs=1e-15)
    assert v6[1] == pytest.approx(0.5, rel=1e-12)  # layer correction underflows


def test_scalar_cd_against_sympy_oracle():
    sp = pytest.importorskip("sympy")
    x, e = sp.symbols("x e", positive=True)
    w = sp.exp(-(1 - x) / e)
    u = x - (w - sp.exp(-1 / e)) / (1 - sp.exp(-1 / e))
    resid = sp.simplify(-e * u.diff(x, 2) + u.diff(x) - 1)
    assert resid == 0
    for eps in (0.1, 1e-3):
        # mpmath evaluation: float64 overflows once sympy rewrites the decaying
        # exponential as tiny * exp(+x/eps)
        fn = sp.lambdify(x, u.subs(e, sp.Float(eps, 30)), "mpmath")
        _, ref = builtin_scalar_cd(eps)
        xs = np.linspace(0.0, 1.0, 23)
        oracle = np.array([float(fn(t)) for t in xs])
        np.testing.assert_allclose(ref(xs)[:, 0], oracle, rtol=1e-10, atol=1e-12)


def test_scalar_cd_derivatives_match_difference_quotients():
    _, ref = builtin_scalar_cd(1e-2)
    xs = np.linspace(0.2, 0.99, 41)
    h = 1e-6
    d1 = (ref(xs + h)[:, 0] - ref(xs - h)[:, 0]) / (2 * h)
    np.testing.assert_allclose(ref.derivative(xs, 1)[:, 0], d1, rtol=1e-7, atol=1e-10)
    d2 = (ref(xs + h)[:, 0] - 2 * ref(xs)[:, 0] + ref(xs - h)[:, 0]) / h**2
    # quotient noise floor is ~4 ulp / h^2 = 9e-4; only the layer zone rises
    # above it, and there the relative tolerance takes over
    np.testing.assert_allclose(ref.derivative(xs, 2)[:, 0], d2, rtol=1e-3, atol=2e-3)
    with pytest.raises(ValueError, match="order"):
        ref.derivative(xs, 3)


def test_scalar_cd_rejects_bad_eps():
    with pytest.raises(ValueError, match="positive"):
        builtin_scalar_cd(0.0)


@pytest.mark.parametrize("eps", [math.nan, math.inf])
def test_builtins_and_layers_reject_non_finite_eps(eps):
    # nan passes "eps <= 0" and "residual > tol" checks alike; inf divides to nan
    for build in (builtin_scalar_cd, builtin_strongly_coupled_example,
                  builtin_strongly_coupled_variable):
        with pytest.raises(ValueError, match="eps must be finite and positive"):
            build(eps)
    with pytest.raises(ValueError, match="eps must be finite and positive"):
        builtin_weakly_coupled_cd((1e-3, eps))
    with pytest.raises(ValueError, match="eps must be finite and positive"):
        LayerSpec(eps)


def test_closed_form_builtins_refuse_eps_where_u_second_derivative_overflows():
    # eps**-2 overflows below about 1e-154; the self-check used to pass on nan
    with np.errstate(all="ignore"):
        for build in (builtin_scalar_cd, builtin_strongly_coupled_variable):
            with pytest.raises(ValueError, match="not finite in float64 at eps = 1e-200"):
                build(1e-200)


def test_strongly_coupled_reference_values():
    prob, ref = builtin_strongly_coupled_example(1e-6)
    vals = ref(np.array([0.0, 0.5, 1.0]))
    # layer terms underflow at these points for eps = 1e-6
    np.testing.assert_allclose(vals[0], [0.0, 0.0], atol=1e-300)
    np.testing.assert_allclose(vals[1], [0.1, 0.2], rel := 1e-14, atol=1e-16)
    np.testing.assert_allclose(vals[2], [0.0, 0.0], atol=1e-300)
    np.testing.assert_allclose(ref(np.array([0.3]))[0], [4.7 / 25, 4.6 / 25], rtol=1e-14)
    assert ref.kind == "asymptotic"
    assert "exp(-5/eps)" in ref.defect


def test_strongly_coupled_interior_residual_is_zero():
    sp = pytest.importorskip("sympy")
    x, e = sp.symbols("x e", positive=True)
    e0, e1 = sp.exp(-5 * x / e), sp.exp(-5 * (1 - x) / e)
    u = sp.Matrix(
        [
            sp.Rational(8, 25) - sp.Rational(11, 25) * x
            - sp.Rational(8, 25) * e0 + sp.Rational(3, 25) * e1,
            sp.Rational(4, 25) + sp.Rational(2, 25) * x
            - sp.Rational(4, 25) * e0 - sp.Rational(6, 25) * e1,
        ]
    )
    B = sp.Matrix([[-3, -4], [-4, 3]])
    resid = sp.simplify(-e * u.diff(x, 2) + B * u.diff(x) - sp.Matrix([1, 2]))
    assert resid == sp.zeros(2, 1)
    # and the package evaluator agrees with the symbolic form
    fn = sp.lambdify(x, u.subs(e, sp.Rational(1, 100)).T, "numpy")
    _, ref = builtin_strongly_coupled_example(0.01)
    xs = np.linspace(0.0, 1.0, 17)
    sym_vals = np.array([fn(t)[0] for t in xs])
    np.testing.assert_allclose(ref(xs), sym_vals, rtol=1e-12, atol=1e-15)


def test_strongly_coupled_layer_directions_are_eigenvectors():
    # the layer amplitudes must lie along eigenvectors of the convection
    # matrix: (2,1) for eigenvalue -5 (left), (1,-2) for +5 (right)
    prob, ref = builtin_strongly_coupled_example(1e-3)
    B = prob.b.constant
    left = np.array([8.0 / 25, 4.0 / 25])
    right = np.array([3.0 / 25, -6.0 / 25])
    np.testing.assert_allclose(B @ left, -5.0 * left, atol=1e-14)
    np.testing.assert_allclose(B @ right, 5.0 * right, atol=1e-14)


def test_strongly_coupled_variable_layers_and_boundary_data():
    prob, ref = builtin_strongly_coupled_variable(1e-3)
    assert ref.kind == "exact" and prob.kind == "strongly-coupled-cd"
    xs = np.linspace(0.0, 1.0, 33)
    b = prob.b(xs)
    np.testing.assert_array_equal(b, np.swapaxes(b, 1, 2))
    # the layer amplitudes lie along eigenvectors of the end-point convection
    left = np.array([math.cos(0.3), math.sin(0.3)])
    right = np.array([-math.sin(0.8), math.cos(0.8)])
    np.testing.assert_allclose(b[0] @ left, -4.0 * left, atol=1e-14)
    np.testing.assert_allclose(b[-1] @ right, 6.0 * right, atol=1e-14)
    # the eigenvectors rotate with x, so the fitted scheme fits per node
    assert np.linalg.norm(b[16] @ left + 4.0 * left) > 0.1
    np.testing.assert_array_equal(prob.g0, ref(np.array([0.0]))[0])
    np.testing.assert_array_equal(prob.g1, ref(np.array([1.0]))[0])
    with pytest.raises(ValueError, match="positive"):
        builtin_strongly_coupled_variable(0.0)


def test_strongly_coupled_variable_against_sympy_oracle():
    sp = pytest.importorskip("sympy")
    x = sp.symbols("x")
    for eps in (sp.Rational(1, 10), sp.Rational(1, 50)):
        t = sp.Rational(3, 10) + x / 2
        rot = sp.Matrix([[sp.cos(t), -sp.sin(t)], [sp.sin(t), sp.cos(t)]])
        B = rot * sp.diag(-(4 + x), 5 + x**2) * rot.T
        v0 = sp.Matrix([sp.cos(sp.Rational(3, 10)), sp.sin(sp.Rational(3, 10))])
        v1 = sp.Matrix([-sp.sin(sp.Rational(4, 5)), sp.cos(sp.Rational(4, 5))])
        u = (
            sp.Matrix([1 + sp.sin(2 * x), sp.cos(x) - x])
            + v0 * sp.exp(-4 * x / eps)
            + v1 * sp.exp(-6 * (1 - x) / eps)
        )
        f = -eps * u.diff(x, 2) + B * u.diff(x)
        prob, ref = builtin_strongly_coupled_variable(float(eps))
        xs = np.linspace(0.0, 1.0, 29)

        def sym(expr):
            fn = sp.lambdify(x, expr.T, "numpy")
            return np.array([np.asarray(fn(v), dtype=float).ravel() for v in xs])

        scale = 1.0 / float(eps) ** 2
        np.testing.assert_allclose(ref(xs), sym(u), rtol=1e-13, atol=1e-14)
        np.testing.assert_allclose(
            ref.derivative(xs, 1), sym(u.diff(x)), rtol=1e-13, atol=1e-14 * scale
        )
        np.testing.assert_allclose(
            ref.derivative(xs, 2), sym(u.diff(x, 2)), rtol=1e-13, atol=1e-14 * scale
        )
        np.testing.assert_allclose(prob.f(xs), sym(f), rtol=1e-12, atol=1e-12 * scale)


def test_oracle_builtins_defer_and_round_counts():
    prob, ref = builtin_reaction_diffusion_system()
    assert ref.kind == "oracle"
    assert ref.n_ref == 12288 and ref.n_ref % 6 == 0
    assert prob.eps == (1e-6, 1e-3)  # sorted ascending
    prob2, ref2 = builtin_reaction_diffusion_system(n_ref=1000)
    assert ref2.n_ref == 1002  # rounded up to a multiple of 2*(m+1)
    probw, refw = builtin_weakly_coupled_cd(n_ref=1000)
    assert refw.n_ref == 1002  # multiple of m+1
    assert probw.b.constant[0, 0] == -1.0  # layers at the left end
    # m = len(eps) = 4: multiples of 10 and of 5 both round 12288 to 12290
    eps4 = (1e-8, 1e-6, 1e-4, 1e-2)
    for builtin in (builtin_reaction_diffusion_system, builtin_weakly_coupled_cd):
        prob4, ref4 = builtin(eps4)
        assert prob4.m == 4 and ref4.n_ref == 12290


@pytest.mark.parametrize("builtin, ends", [
    (builtin_reaction_diffusion_system, 2), (builtin_weakly_coupled_cd, 1),
])
def test_oracle_builtins_refuse_sizes_their_oracle_cannot_take(builtin, ends):
    # the oracle is solved lazily, so an n_ref it cannot be solved at must
    # fail when the builtin is built, not at its first evaluation in a sweep
    with pytest.raises(ValueError, match="needs at least one eps value"):
        builtin(())
    for eps in ((1e-3,), (1e-6, 1e-3)):
        per = ends * (len(eps) + 1)
        for n_ref in (2, per):
            with pytest.raises(ValueError, match=f"needs n_ref >= {per + 1} .*got {n_ref}$"):
                builtin(eps, n_ref=n_ref)
        _, ref = builtin(eps, n_ref=per + 1)
        assert ref.n_ref == 2 * per
        assert np.all(np.isfinite(ref(np.linspace(0.0, 1.0, 5))))


def test_builtin_registry_complete():
    assert spbvp.PROBLEMS is PROBLEMS
    builtins = {
        "scalar-cd": builtin_scalar_cd,
        "strongly-coupled-2x2": builtin_strongly_coupled_example,
        "strongly-coupled-2x2-oracle": builtin_strongly_coupled_example,
        "strongly-coupled-variable": builtin_strongly_coupled_variable,
        "reaction-diffusion": builtin_reaction_diffusion_system,
        "weakly-coupled-cd": builtin_weakly_coupled_cd,
    }
    assert set(PROBLEMS) == set(builtins)
    for name, builtin in builtins.items():
        # without eps, every name builds its builtin's default problem
        prob, ref = problem_family(name)()
        assert isinstance(prob, SystemProblem)
        assert isinstance(ref, ReferenceSolution)
        assert prob.label == builtin()[0].label


def test_reference_solution_validation():
    with pytest.raises(ValueError, match="kind"):
        ReferenceSolution(kind="numeric", evaluator=lambda x: x)
    ref = ReferenceSolution(kind="oracle", evaluator=lambda x: x[:, None])
    with pytest.raises(ValueError, match="derivative"):
        ref.derivative(np.array([0.5]))


# ---------------------------------------------------------------------------
# envelopes


def test_envelope_component_values():
    layer = LayerSpec(1e-2, gamma=2.0, side="both")
    # at x = 0 the left term is 1 and the right term is exp(-2/eps)
    assert layer.bound(np.array(0.0), 0) == pytest.approx(2.0)
    assert layer.bound(np.array(0.0), 1) == pytest.approx(1.0 + 1e2)
    assert layer.bound(np.array(0.0), 2) == pytest.approx(1.0 + 1e4)
    mid = layer.bound(np.array(0.5), 2)
    assert mid == pytest.approx(1.0 + 2e4 * math.exp(-100.0))
    assert layer.bound(np.linspace(0, 1, 7), k=1).shape == (7,)
    left = LayerSpec(1e-2, gamma=2.0, side="left").bound(np.array([0.0, 1.0]))
    right = LayerSpec(1e-2, gamma=2.0, side="right").bound(np.array([0.0, 1.0]))
    assert left[0] == right[1] == 2.0 and left[1] == right[0] == pytest.approx(1.0)
    with pytest.raises(ValueError, match="order"):
        layer.bound(np.array(0.0), 3)


def test_default_envelope_per_kind():
    ps, _ = builtin_scalar_cd(1e-4)
    assert default_envelope(ps) == (LayerSpec(1e-4, gamma=1.0, side="right"),)
    p2, _ = builtin_strongly_coupled_example(1e-4)
    e2 = default_envelope(p2)
    assert [layer.side for layer in e2] == ["both", "both"]
    assert [layer.eps for layer in e2] == list(p2.eps)
    np.testing.assert_allclose([layer.gamma for layer in e2], (5.0, 5.0), rtol=1e-12)
    p3, _ = builtin_reaction_diffusion_system()
    e3 = default_envelope(p3)
    assert [layer.side for layer in e3] == ["both", "both"]
    assert [layer.eps for layer in e3] == [1e-6, 1e-3]
    np.testing.assert_allclose(
        [layer.gamma for layer in e3], (KAPPA_RD_DEFAULT,) * 2, rtol=1e-14
    )
    p4, _ = builtin_weakly_coupled_cd()
    assert default_envelope(p4) == (
        LayerSpec(1e-6, gamma=1.0, side="left"),
        LayerSpec(1e-3, gamma=1.0, side="left"),
    )
    skew = SystemProblem(
        m=2, eps=(1e-4, 1e-4), kind="strongly-coupled-cd",
        b=coefficient(np.array([[-3.0, -4.0], [0.0, 3.0]]), (2, 2)),
        a=coefficient(np.zeros((2, 2)), (2, 2)),
        f=coefficient(np.ones(2), (2,)),
    )
    with pytest.raises(ValueError, match="symmetric"):
        default_envelope(skew)


def test_default_envelope_rejects_sign_changing_convection():
    def bfn(x):
        out = np.zeros(x.shape + (1, 1))
        out[:, 0, 0] = x - 0.5
        return out

    prob = SystemProblem(
        m=1, eps=(1e-3,), kind="weakly-coupled-cd",
        b=coefficient(bfn, (1, 1)),
        a=coefficient(np.ones((1, 1)), (1, 1)),
        f=coefficient(np.ones(1), (1,)),
    )
    with pytest.raises(ValueError, match="sign"):
        default_envelope(prob)


def _non_dominant_reaction_problem():
    return SystemProblem(
        m=2, eps=(1e-4, 1e-3), kind="reaction-diffusion",
        a=coefficient(np.array([[1.0, -1.5], [-1.5, 1.0]]), (2, 2)),
        f=coefficient(np.ones(2), (2,)),
    )


def test_default_envelope_rejects_non_dominant_reaction_coupling():
    # zeta = 1.5 leaves no decay rate (kappa = 0); the error says why
    with pytest.raises(ValueError, match=r"not diagonally dominant \(zeta = 1\.5 >= 1\)"):
        default_envelope(_non_dominant_reaction_problem())


def test_default_envelope_computed_once_per_problem(monkeypatch):
    calls = []

    def counting(problem):
        calls.append(problem)
        return check_gamma(problem)

    monkeypatch.setattr("spbvp.problems.check_gamma", counting)
    problem, _ = builtin_reaction_diffusion_system(eps=(1e-6, 1e-3))
    first = default_envelope(problem)
    assert default_envelope(problem) is first and len(calls) == 1
    bad = _non_dominant_reaction_problem()
    for _ in range(2):  # a failing envelope is not cached: it fails every time
        with pytest.raises(ValueError, match="not diagonally dominant"):
            default_envelope(bad)
    assert len(calls) == 3


def test_envelope_constants_scalar_uniform_in_eps():
    # fitted constants for the exact solution must stay bounded and stable
    # across the perturbation sweep; that is the testable form of uniform
    # derivative bounds
    by_k = {0: [], 1: [], 2: []}
    for eps in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10):
        prob, ref = builtin_scalar_cd(eps)
        env = default_envelope(prob)
        for k in (0, 1, 2):
            by_k[k].append(envelope_check(ref, env, k))
    for k, cs in by_k.items():
        assert 0.5 <= min(cs) and max(cs) <= 1.2, (k, cs)
        assert max(cs) / min(cs) <= 1.3, (k, cs)


def test_envelope_constants_coupled_system():
    c0s, c1s, c2s = [], [], []
    for eps in (1e-4, 1e-6, 1e-8):
        prob, ref = builtin_strongly_coupled_example(eps)
        env = default_envelope(prob)
        c0s.append(envelope_check(ref, env, 0))
        c1s.append(envelope_check(ref, env, 1))
        c2s.append(envelope_check(ref, env, 2))
    # sup|u| = 8/25 at the left boundary layer amplitude
    assert all(abs(c - 0.32) < 0.01 for c in c0s), c0s
    assert all(1.3 <= c <= 1.7 for c in c1s), c1s
    assert all(5.5 <= c <= 8.5 for c in c2s), c2s
    for cs in (c0s, c1s, c2s):
        assert max(cs) / min(cs) <= 1.3


def test_envelope_check_rejects_bad_order():
    prob, ref = builtin_scalar_cd(1e-3)
    with pytest.raises(ValueError, match="order"):
        envelope_check(ref, default_envelope(prob), 3)


# ---------------------------------------------------------------------------
# property-based


@given(
    diag=st.lists(st.floats(1.0, 5.0), min_size=2, max_size=4),
    off=st.floats(0.0, 0.45),
)
@settings(max_examples=60, deadline=None)
def test_dominant_reaction_always_passes_gamma(diag, off):
    m = len(diag)
    A = np.full((m, m), -off * min(diag) / (m - 1))
    np.fill_diagonal(A, diag)
    rep = check_gamma(_rd_problem(A, eps=tuple([1e-3] * m)))
    assert rep["gamma_monotone"]
    assert rep["zeta"] <= 0.9 + 1e-12
    assert rep["diag_dominant"]


@given(
    eps=st.floats(1e-8, 1e-1),
    rate=st.floats(0.5, 5.0),
    side=st.sampled_from(["left", "right", "both"]),
    k=st.integers(0, 2),
)
@settings(max_examples=60, deadline=None)
def test_envelope_positive_and_at_least_one(eps, rate, side, k):
    xs = np.linspace(0.0, 1.0, 33)
    vals = LayerSpec(eps, gamma=rate, side=side).bound(xs, k)
    assert vals.shape == (33,)
    assert np.all(vals >= 1.0)
    assert np.all(np.isfinite(vals))
