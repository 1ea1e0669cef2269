"""Fixed Gauss rules mapped to mesh cells."""

import math

import numpy as np
import pytest

from spbvp import quadrature
from spbvp.quadrature import gauss_legendre_cells


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


def _golub_welsch(order):
    """The rule as the module builds it: eigenvalues of the Legendre Jacobi
    matrix and 2 v0^2 from each eigenvector's first component."""
    k = np.arange(1.0, order)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    x, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return x, 2.0 * v[0] ** 2


def test_gauss_reference_rule_is_shared_read_only():
    edges = np.array([0.0, 0.1, 0.5, 1.0])
    nodes, weights = gauss_legendre_cells(edges, order=5)
    again = gauss_legendre_cells(edges, order=5)
    assert np.array_equal(nodes, again[0]) and np.array_equal(weights, again[1])
    # the same values as a fresh rule mapped to every cell
    ref_x, ref_w = _golub_welsch(5)
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


def test_gauss_rule_agrees_with_leggauss():
    for order in range(1, 33):
        ref_x, ref_w = quadrature._reference_rule(order)
        want_x, want_w = np.polynomial.legendre.leggauss(order)
        assert np.max(np.abs(ref_x - want_x)) <= 4e-15, order
        assert np.max(np.abs(ref_w - want_w)) <= 4e-15, order


@pytest.mark.parametrize("order", [0, -1, 2.5])
def test_gauss_rule_refuses_orders_that_are_not_positive_integers(order):
    with pytest.raises(ValueError, match="order must be a positive integer"):
        gauss_legendre_cells(np.array([0.0, 0.5, 1.0]), order)
