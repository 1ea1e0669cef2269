"""Fixed Gauss-Legendre rules mapped to the cells of a mesh."""
from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["gauss_legendre_cells"]


def gauss_legendre_cells(edges: np.ndarray, order: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to every cell of a mesh.

    Returns arrays of shape (n_cells, order): rows hold the nodes/weights
    for one cell.  Intended for integrating functions that are smooth within
    each cell (piecewise-linear approximants, resolved layer tails).
    """
    ref_x, ref_w = _reference_rule(order)
    left = edges[:-1, None]
    h = np.diff(edges)[:, None]
    nodes = left + 0.5 * h * (ref_x[None, :] + 1.0)
    weights = 0.5 * h * ref_w[None, :]
    return nodes, weights


@lru_cache(maxsize=32)
def _reference_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order
    and shared read-only by every caller."""
    ref_x, ref_w = np.polynomial.legendre.leggauss(order)
    ref_x.flags.writeable = False
    ref_w.flags.writeable = False
    return ref_x, ref_w
