"""Adaptive cell quadrature and fixed Gauss rules."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spbvp import quadrature
from spbvp.quadrature import adaptive_cell_integral, gauss_legendre_cells


def test_cubic_is_exact():
    val, ok = adaptive_cell_integral(lambda x: x**3 - 2.0 * x + 1.0, 0.0, 1.0)
    assert ok
    assert abs(val - (0.25 - 1.0 + 1.0)) < 1e-14


def test_transcendental():
    val, ok = adaptive_cell_integral(math.sin, 0.0, math.pi)
    assert ok
    assert abs(val - 2.0) < 1e-12


def test_boundary_layer_spike_at_right_endpoint():
    # integrand concentrated within eps of x=1; interior-node rules miss it
    eps = 1e-6
    g = lambda x: math.exp(-(1.0 - x) / eps) / eps
    val, ok = adaptive_cell_integral(g, 0.0, 1.0, rtol=1e-10)
    assert ok
    exact = 1.0 - math.exp(-1.0 / eps)
    assert abs(val - exact) <= 1e-9 * abs(exact)


def test_boundary_layer_spike_at_left_endpoint():
    eps = 1e-8
    g = lambda x: math.exp(-x / eps) / eps
    val, ok = adaptive_cell_integral(g, 0.0, 0.5, rtol=1e-10)
    assert ok
    assert abs(val - 1.0) <= 1e-9


def test_tiny_cell():
    b = 0.25 + 1e-12
    val, ok = adaptive_cell_integral(lambda x: 1.0 + x, 0.25, b)
    assert ok
    assert val == pytest.approx(1.25 * (b - 0.25), rel=1e-12)


def test_degenerate_cells_rejected():
    with pytest.raises(ValueError):
        adaptive_cell_integral(math.exp, 0.3, 0.3)
    with pytest.raises(ValueError):
        adaptive_cell_integral(math.exp, 1.0, 0.0)


@given(
    c0=st.floats(min_value=-2.0, max_value=2.0),
    c1=st.floats(min_value=-2.0, max_value=2.0),
    c2=st.floats(min_value=-2.0, max_value=2.0),
)
def test_random_quadratics_match_antiderivative(c0, c1, c2):
    g = lambda x: c0 + c1 * x + c2 * x * x
    val, ok = adaptive_cell_integral(g, -1.0, 2.0)
    exact = (c0 * 2.0 + c1 * 2.0 + c2 * 8.0 / 3.0) - (-c0 + c1 / 2.0 - c2 / 3.0)
    assert ok
    assert abs(val - exact) <= 1e-10 * (1.0 + abs(exact))


@settings(max_examples=25, deadline=None)
@given(eps_exp=st.integers(min_value=2, max_value=10))
def test_layer_mass_across_scales(eps_exp):
    eps = 10.0 ** (-eps_exp)
    g = lambda x: math.exp(-x / eps)
    val, ok = adaptive_cell_integral(g, 0.0, 1.0, rtol=1e-10)
    exact = eps * (1.0 - math.exp(-1.0 / eps))
    assert ok
    assert abs(val - exact) <= 1e-8 * exact


def test_gauss_nodes_and_weights_shape():
    edges = np.array([0.0, 0.25, 1.0])
    nodes, weights = gauss_legendre_cells(edges, order=4)
    assert nodes.shape == (2, 4)
    assert weights.shape == (2, 4)
    assert np.all(np.diff(nodes, axis=1) > 0)
    # weights per cell sum to the cell width
    assert np.allclose(weights.sum(axis=1), np.diff(edges), rtol=1e-14)


def test_gauss_exactness_degree():
    # order-k Gauss is exact through degree 2k-1
    edges = np.linspace(0.0, 1.0, 5)
    nodes, weights = gauss_legendre_cells(edges, order=3)
    val = float(np.sum(weights * nodes**5))
    assert abs(val - 1.0 / 6.0) < 1e-14


def test_gauss_layer_integrand_on_fitted_edges():
    # graded edges resolve the layer so the fixed rule converges
    eps = 1e-4
    edges = np.concatenate([eps * np.array([0.0, 1, 2, 4, 8, 16, 32]), [1.0]])
    nodes, weights = gauss_legendre_cells(edges, order=16)
    val = float(np.sum(weights * np.exp(-nodes / eps)))
    exact = eps * (1.0 - math.exp(-1.0 / eps))
    assert abs(val - exact) <= 1e-10 * exact


def test_gauss_reference_rule_is_shared_read_only():
    edges = np.array([0.0, 0.1, 0.5, 1.0])
    nodes, weights = gauss_legendre_cells(edges, order=5)
    again = gauss_legendre_cells(edges, order=5)
    assert np.array_equal(nodes, again[0]) and np.array_equal(weights, again[1])
    # the same values as a fresh rule mapped to every cell
    ref_x, ref_w = np.polynomial.legendre.leggauss(5)
    h = np.diff(edges)[:, None]
    assert np.array_equal(nodes, edges[:-1, None] + 0.5 * h * (ref_x[None, :] + 1.0))
    assert np.array_equal(weights, 0.5 * h * np.tile(ref_w, (3, 1)))
    # the cached rule cannot be changed by a caller, and results are fresh
    cached = quadrature._reference_rule(5)
    assert quadrature._reference_rule(5)[0] is cached[0]
    for arr in cached:
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    nodes[0, 0] = -1.0
    assert gauss_legendre_cells(edges, order=5)[0][0, 0] == again[0][0, 0]
