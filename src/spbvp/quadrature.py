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
    and shared read-only by every caller.

    Golub-Welsch: the nodes are the eigenvalues of the symmetric tridiagonal
    Jacobi matrix of the Legendre recurrence, off-diagonal k/sqrt(4k^2 - 1),
    and each weight is 2 v0^2 for the first component v0 of its eigenvector.
    """
    if not isinstance(order, (int, np.integer)) or order < 1:
        raise ValueError(f"Gauss-Legendre order must be a positive integer, got {order!r}")
    k = np.arange(1.0, order)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    ref_x, vectors = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    ref_w = 2.0 * vectors[0] ** 2
    ref_x.flags.writeable = False
    ref_w.flags.writeable = False
    return ref_x, ref_w
