"""Layer-adapted mesh families: frozen-value anchors and structural
invariants.

The frozen constants below were computed with independent high-precision
oracles (mpmath / brute-force bisection / recursion replay) before the mesh
code was written.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spbvp.meshes import (
    LayerSpec,
    Mesh1D,
    bakhvalov_original,
    bakhvalov_shishkin,
    bakhvalov_type,
    diagnostics,
    equidistribute,
    mirror,
    system_shishkin,
    uniform_mesh,
)

# eps=1e-4, gamma=1, mu=2, n=64 anchors
SHISHKIN_SIGMA = 8.317766166719343e-04  # (2e-4)*ln(64), 50-digit check
SHISHKIN_H_FINE = 2.5993019270997948e-05
SHISHKIN_H_COARSE = 3.1224006980729024e-02
BS_X1 = 6.248958607621524e-06  # -(2e-4)*log1p(-2*(63/64)/64)
BTYPE_X32 = 2.7631021115928548e-05  # (2e-6)*ln(1e6) at eps=1e-6
BAK_TAU = 0.49989980933138023  # bisection on the tangent-matching equation
BAK_TAU_EPS1M8_G3_MU1 = 0.4999999983333332  # same equation, eps=1e-8, gamma=3, mu=1
SYS_TAUS = (0.0, 9.128696382935673e-06, 9.128696382935673e-03, 1.0)

EPS_SWEEP = (1.0, 1e-4, 1e-10)


def shishkin(spec, n):
    """The piecewise-uniform Shishkin mesh of one layer."""
    return system_shishkin([spec], n)


def _two_zone(eps, n):
    """Independent replay of the left-layer Shishkin mesh with mu = 2,
    gamma = 1: n/2 cells up to sigma = min(1/2, 2*eps*ln(n)), n/2 beyond."""
    sigma = min(0.5, 2.0 * eps * math.log(n))
    pts = np.concatenate(
        [np.linspace(0.0, sigma, n // 2 + 1), np.linspace(sigma, 1.0, n // 2 + 1)[1:]]
    )
    pts[-1] = 1.0
    return pts


# ---------------------------------------------------------------------------
# container invariants
# ---------------------------------------------------------------------------


def test_mesh_requires_exact_endpoints():
    with pytest.raises(ValueError):
        Mesh1D(points=np.array([0.0, 0.5, 0.999]), label="bad", meta={})
    with pytest.raises(ValueError):
        Mesh1D(points=np.array([1e-16, 0.5, 1.0]), label="bad", meta={})


def test_mesh_requires_strict_increase():
    with pytest.raises(ValueError):
        Mesh1D(points=np.array([0.0, 0.5, 0.5, 1.0]), label="bad", meta={})


def test_mesh_points_are_read_only():
    m = uniform_mesh(4)
    with pytest.raises(ValueError):
        m.points[1] = 0.9


def test_spacings_sum_to_one():
    m = shishkin(LayerSpec(eps=1e-4), 64)
    assert abs(float(np.sum(m.spacings)) - 1.0) < 1e-14


def test_layer_spec_validation():
    with pytest.raises(ValueError):
        LayerSpec(eps=0.0)
    with pytest.raises(ValueError):
        LayerSpec(eps=1e-3, gamma=-1.0)
    with pytest.raises(ValueError):
        LayerSpec(eps=1e-3, side="top")
    assert LayerSpec(eps=1e-3, gamma=2.0, mu=3.0).width_scale == 1.5e-3


# ---------------------------------------------------------------------------
# piecewise-uniform two-zone meshes
# ---------------------------------------------------------------------------


def test_shishkin_frozen_values():
    m = shishkin(LayerSpec(eps=1e-4), 64)
    assert m.meta["taus"][1] == pytest.approx(SHISHKIN_SIGMA, rel=1e-14)
    h = m.spacings
    assert h[0] == pytest.approx(SHISHKIN_H_FINE, rel=1e-14)
    assert h[-1] == pytest.approx(SHISHKIN_H_COARSE, rel=1e-14)
    # exactly two distinct spacings
    assert np.allclose(h[:32], h[0], rtol=1e-12) and np.allclose(h[32:], h[-1], rtol=1e-12)


def test_shishkin_transition_clamps_to_half():
    m = shishkin(LayerSpec(eps=0.5), 8)
    assert m.meta["taus"][1] == 0.5
    assert np.allclose(m.points, np.linspace(0.0, 1.0, 9), atol=1e-15)


def test_shishkin_right_side_measures_from_one():
    left = shishkin(LayerSpec(eps=1e-4), 64)
    right = shishkin(LayerSpec(eps=1e-4, side="right"), 64)
    assert right.points[32] == pytest.approx(1.0 - SHISHKIN_SIGMA, rel=1e-14)
    assert np.allclose(right.points, 1.0 - left.points[::-1], atol=1e-15)


def test_shishkin_both_sides_symmetric():
    m = shishkin(LayerSpec(eps=1e-4, side="both"), 64)
    assert m.points[16] == pytest.approx(SHISHKIN_SIGMA, rel=1e-14)
    assert m.points[48] == pytest.approx(1.0 - SHISHKIN_SIGMA, rel=1e-14)
    assert np.allclose(m.points + m.points[::-1], 1.0, atol=1e-15)


def test_shishkin_rejects_odd_n():
    with pytest.raises(ValueError):
        shishkin(LayerSpec(eps=1e-4), 63)


def test_bakhvalov_shishkin_frozen_first_point():
    m = bakhvalov_shishkin(LayerSpec(eps=1e-4), 64)
    assert m.points[1] == pytest.approx(BS_X1, rel=1e-13)
    # transition coincides with the two-zone sigma for the same parameters
    assert m.points[32] == pytest.approx(SHISHKIN_SIGMA, rel=1e-13)


def test_bakhvalov_shishkin_grading_is_gentler_than_shishkin():
    spec = LayerSpec(eps=1e-6)
    pw = shishkin(spec, 64)
    bs = bakhvalov_shishkin(spec, 64)
    # graded fine cells: strictly increasing widths, no abrupt jump
    h = bs.spacings
    assert np.all(np.diff(h[:32]) > 0.0)
    rpw = diagnostics(pw).ratio
    rbs = diagnostics(bs).ratio
    assert rbs < rpw


# ---------------------------------------------------------------------------
# graded fine zone with uniform tail
# ---------------------------------------------------------------------------


def test_graded_fine_zone_frozen_midpoint():
    m = bakhvalov_type(LayerSpec(eps=1e-6), 64)
    assert m.points[32] == pytest.approx(BTYPE_X32, rel=1e-13)
    assert m.meta["sigma"] == pytest.approx(BTYPE_X32, rel=1e-13)


def test_graded_fine_zone_uniform_clamp():
    # width_scale*ln(1/eps) = 0.72 > 1/2 forces the uniform fallback
    m = bakhvalov_type(LayerSpec(eps=0.3), 16)
    assert "degenerate" in m.meta
    assert np.allclose(m.points, np.linspace(0.0, 1.0, 17), atol=1e-15)
    m2 = bakhvalov_type(LayerSpec(eps=1.5), 16)
    assert "degenerate" in m2.meta


def test_graded_fine_zone_transition_scales_with_eps():
    a = bakhvalov_type(LayerSpec(eps=1e-4), 64).meta["sigma"]
    b = bakhvalov_type(LayerSpec(eps=1e-8), 64).meta["sigma"]
    assert b / a == pytest.approx(1e-4 * 2.0, rel=1e-10)  # eps*ln(1/eps) scaling


# ---------------------------------------------------------------------------
# fully graded family
# ---------------------------------------------------------------------------


def test_tangent_matched_mesh_frozen_tau():
    # bit for bit: the tangent solve's iteration path is part of the mesh
    m = bakhvalov_original(LayerSpec(eps=1e-4), 64)
    assert m.meta["tau"] == BAK_TAU
    assert abs(m.meta["c1_residual"]) <= 1e-12
    m = bakhvalov_original(LayerSpec(eps=1e-8, gamma=3.0, mu=1.0), 64)
    assert m.meta["tau"] == BAK_TAU_EPS1M8_G3_MU1


def test_tangent_matched_inversion_identity():
    # fine nodes x_i satisfy q*(1 - exp(-x_i/a)) = t_i to 1e-12
    spec = LayerSpec(eps=1e-4)
    m = bakhvalov_original(spec, 64)
    a, q = spec.width_scale, 0.5
    t = np.arange(65) / 64
    tau = m.meta["tau"]
    on_fine = t <= tau
    lhs = q * -np.expm1(-m.points[on_fine] / a)
    assert np.max(np.abs(lhs - t[on_fine])) <= 1e-12


def test_tangent_matched_slope_is_continuous():
    spec = LayerSpec(eps=1e-3)
    m = bakhvalov_original(spec, 256)
    tau, slope = m.meta["tau"], m.meta["tangent_slope"]
    a, q = spec.width_scale, 0.5
    # generating-function slope at tau from the left: a/(q - tau)
    assert slope == pytest.approx(a / (q - tau), rel=1e-10)
    # tangent hits (1, 1): phi(tau) + slope*(1 - tau) = 1
    phi_tau = -a * math.log1p(-tau / q)
    assert phi_tau + slope * (1.0 - tau) == pytest.approx(1.0, abs=1e-12)


def test_tangent_matched_wide_layer_degenerates():
    # the second width_scale lies within 1e-12 of q = 1/2, where no root
    # of the tangent equation leaves tau > 0
    for eps in (0.5, 0.25 * (1.0 - 1e-14)):
        m = bakhvalov_original(LayerSpec(eps=eps), 8)
        assert "degenerate" in m.meta
        assert np.allclose(m.points, np.linspace(0.0, 1.0, 9), atol=1e-15)


def test_tangent_matched_small_eps_residual():
    for eps in (1e-6, 1e-10, 1e-12):
        m = bakhvalov_original(LayerSpec(eps=eps), 64)
        assert abs(m.meta["c1_residual"]) <= 1e-12


# ---------------------------------------------------------------------------
# equidistribution
# ---------------------------------------------------------------------------


def test_equidistribute_constant_monitor_is_uniform():
    m = equidistribute(lambda s: np.ones_like(s), 16)
    assert np.max(np.abs(m.points - np.linspace(0.0, 1.0, 17))) <= 1e-12
    assert m.meta["converged"]
    assert m.meta["residual"] <= 1e-8


def test_equidistribute_linear_monitor_analytic_inverse():
    # cells of 1+s have equal mass when x_i = sqrt(1+3i/n) - 1
    m = equidistribute(lambda s: 1.0 + np.asarray(s), 64)
    exact = np.sqrt(1.0 + 3.0 * np.arange(65) / 64) - 1.0
    assert np.max(np.abs(m.points - exact)) <= 1e-12
    assert m.meta["converged"]


def test_equidistribute_layer_monitor_tracks_layer_width():
    gamma, mu, k_tilde = 1.0, 2.0, 2.0
    inside = {}
    first = {}
    for eps in (1e-4, 1e-6):
        mon = lambda s, e=eps: np.maximum(
            1.0, (k_tilde * gamma / e) * np.exp(-gamma * np.asarray(s) / (mu * e))
        )
        m = equidistribute(mon, 64)
        assert m.meta["converged"], m.meta
        width = mu * eps / gamma * math.log(1.0 / eps)
        inside[eps] = int(np.sum(m.points <= width))
        first[eps] = float(m.points[1])
    # same fraction of points lands inside the layer at every eps, and the
    # first cell scales linearly with eps
    assert inside[1e-4] == inside[1e-6]
    assert 40 <= inside[1e-4] <= 60
    assert first[1e-6] / first[1e-4] == pytest.approx(1e-2, rel=2e-2)


def test_equidistribute_rejects_nonpositive_monitor():
    with pytest.raises(ValueError):
        equidistribute(lambda s: np.asarray(s) - 0.5, 8)


def test_equidistribute_scalar_callable_accepted():
    m = equidistribute(lambda s: 2.0, 8)
    assert np.max(np.abs(m.points - np.linspace(0.0, 1.0, 9))) <= 1e-12


# ---------------------------------------------------------------------------
# multi-scale piecewise-uniform meshes
# ---------------------------------------------------------------------------


def _layers(eps, **kwargs):
    return [LayerSpec(e, **kwargs) for e in eps]


def test_multiscale_frozen_transition_points():
    m = system_shishkin(_layers((1e-6, 1e-3)), 96)
    assert m.meta["taus"] == pytest.approx(SYS_TAUS, rel=1e-14)
    assert m.points[32] == pytest.approx(SYS_TAUS[1], rel=1e-14)
    assert m.points[64] == pytest.approx(SYS_TAUS[2], rel=1e-14)


def test_multiscale_single_scale_equals_two_zone():
    a = system_shishkin([LayerSpec(eps=1e-4, gamma=1.0, mu=2.0)], 64)
    assert np.array_equal(a.points, _two_zone(1e-4, 64))


def test_multiscale_wide_layers_give_uniform():
    m = system_shishkin(_layers((0.3, 0.4)), 96)
    assert np.allclose(m.points, np.linspace(0.0, 1.0, 97), atol=1e-14)


def test_multiscale_divisibility_enforced():
    with pytest.raises(ValueError):
        system_shishkin(_layers((1e-6, 1e-3)), 100)  # needs multiples of 3


def test_multiscale_requires_ascending_eps():
    with pytest.raises(ValueError):
        system_shishkin(_layers((1e-3, 1e-6)), 96)


def test_multiscale_mirrored_bands():
    m = system_shishkin(_layers((1e-6, 1e-3), side="both"), 96)
    assert m.meta["taus"][-1] == 0.5
    assert np.allclose(m.points + m.points[::-1], 1.0, atol=1e-15)
    assert m.n_cells == 96


def test_multiscale_right_side_layer_equals_shishkin():
    for n in (8, 64, 1024):
        for eps in (1e-2, 1e-4, 1e-8):
            spec = LayerSpec(eps, side="right")
            m = system_shishkin([spec], n)
            want = 1.0 - _two_zone(eps, n)[::-1]
            want[0], want[-1] = 0.0, 1.0
            assert np.array_equal(m.points, want)
            assert m.spacings[-1] <= m.spacings[0]  # fine cells at x = 1


def test_multiscale_takes_smallest_gamma():
    mixed = system_shishkin([LayerSpec(1e-6, gamma=5.0), LayerSpec(1e-3, gamma=3.0)], 96)
    want = system_shishkin(_layers((1e-6, 1e-3), gamma=3.0), 96)
    assert np.array_equal(mixed.points, want.points)


def test_multiscale_rejects_mixed_sides_and_mu():
    with pytest.raises(ValueError, match=r"one side.*'left', 'right'"):
        system_shishkin([LayerSpec(1e-6), LayerSpec(1e-3, side="right")], 96)
    with pytest.raises(ValueError, match=r"one mu.*\(2\.0, 1\.0\)"):
        system_shishkin([LayerSpec(1e-6), LayerSpec(1e-3, mu=1.0)], 96)
    with pytest.raises(ValueError, match="at least one layer"):
        system_shishkin([], 96)


# ---------------------------------------------------------------------------
# mirroring and diagnostics
# ---------------------------------------------------------------------------


def test_mirror_involution_is_bitwise():
    m = shishkin(LayerSpec(eps=1e-4), 64)
    back = mirror(mirror(m))
    assert np.array_equal(back.points, m.points)
    assert back.label == m.label


def test_mirror_of_uniform_is_identical():
    m = uniform_mesh(8)
    assert np.allclose(mirror(m).points, m.points, atol=1e-16)


def test_mirror_moves_fine_zone():
    m = mirror(shishkin(LayerSpec(eps=1e-6), 64))
    h = m.spacings
    assert h[-1] < h[0]  # fine cells now at the right end


def test_diagnostics_uniform_quality():
    d = diagnostics(uniform_mesh(16))
    assert d.ratio == 1.0
    assert d.n_cells == 16
    assert d.min_h == d.max_h == pytest.approx(1.0 / 16, rel=1e-15)


def test_diagnostics_two_zone_ratio_is_large():
    m = shishkin(LayerSpec(eps=1e-8), 64)
    d = diagnostics(m)
    assert d.ratio > 1e5  # abrupt change at the transition point


def test_quality_functional_layer_envelope_scaling():
    # max_k int(1 + |u'|) on a fitted right-layer mesh stays ~ ln(n)/n; with
    # g = 1 + exp(-(1-x)/eps)/eps the integral over cell i is exactly
    # h_i + exp(-(1-x_i)/eps) - exp(-(1-x_{i-1})/eps)
    for eps in (1e-2, 1e-6, 1e-10):
        for n in (64, 256):
            m = shishkin(LayerSpec(eps=eps, side="right"), n)
            decay = np.exp(-(1.0 - m.points) / eps)
            q = float(np.max(m.spacings + np.diff(decay)))
            assert q <= 5.0 * math.log(n) / n


# ---------------------------------------------------------------------------
# cross-family properties
# ---------------------------------------------------------------------------

FAMILIES = [
    shishkin,
    bakhvalov_shishkin,
    bakhvalov_type,
    bakhvalov_original,
]


@settings(max_examples=40, deadline=None)
@given(
    eps_exp=st.integers(min_value=-10, max_value=0),
    n=st.sampled_from([8, 64, 512]),
    fam=st.integers(min_value=0, max_value=len(FAMILIES) - 1),
)
def test_every_family_produces_valid_meshes(eps_exp, n, fam):
    spec = LayerSpec(eps=10.0**eps_exp)
    m = FAMILIES[fam](spec, n)
    # Mesh1D construction enforces endpoints and monotonicity; check scale
    assert m.points[0] == 0.0 and m.points[-1] == 1.0
    assert m.n_cells == n
    assert np.all(m.spacings > 0.0)


@settings(max_examples=20, deadline=None)
@given(
    eps_exp=st.integers(min_value=-10, max_value=-1),
    fam=st.integers(min_value=0, max_value=len(FAMILIES) - 1),
)
def test_mirror_round_trip_across_families(eps_exp, fam):
    m = FAMILIES[fam](LayerSpec(eps=10.0**eps_exp), 64)
    assert np.array_equal(mirror(mirror(m)).points, m.points)


@settings(max_examples=30, deadline=None)
@given(
    eps_exp=st.integers(min_value=-12, max_value=-2),
    n=st.sampled_from([8, 32, 256]),
)
def test_fitted_meshes_place_first_point_inside_layer(eps_exp, n):
    eps = 10.0**eps_exp
    spec = LayerSpec(eps=eps)
    for build in (shishkin, bakhvalov_shishkin, bakhvalov_type):
        m = build(spec, n)
        if "degenerate" in m.meta:
            continue
        assert m.points[1] <= 2.0 * spec.width_scale * math.log(n) / n
