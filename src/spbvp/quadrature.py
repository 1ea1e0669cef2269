"""Cell-by-cell quadrature helpers.

Mesh quality functionals integrate functions with sharp layers that sit at
cell endpoints.  Gauss rules with purely interior nodes can miss such a
spike entirely, so the adaptive rule here is Simpson-based: it samples both
endpoints, bisects where the two-level estimates disagree, and applies
Richardson extrapolation.  The tolerance is relative to the converged value
of the integral, which is reached by re-running with an updated scale.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

__all__ = ["adaptive_cell_integral", "gauss_legendre_cells"]

_MAX_DEPTH = 64


def _adsimp(
    g: Callable[[float], float],
    a: float,
    fa: float,
    b: float,
    fb: float,
    fm: float,
    whole: float,
    abs_tol: float,
    depth: int,
) -> tuple[float, bool]:
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = float(g(lm))
    frm = float(g(rm))
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * abs_tol or m <= a or m >= b:
        return left + right + delta / 15.0, abs(delta) <= 15.0 * abs_tol
    if depth >= _MAX_DEPTH:
        return left + right + delta / 15.0, False
    # the tolerance is deliberately not halved per level: spikes pinned to a
    # cell endpoint need ~50 bisection levels, and halving would demand
    # sub-roundoff local errors there long before the spike is resolved
    lv, lok = _adsimp(g, a, fa, m, fm, flm, left, abs_tol, depth + 1)
    rv, rok = _adsimp(g, m, fm, b, fb, frm, right, abs_tol, depth + 1)
    return lv + rv, lok and rok


def adaptive_cell_integral(
    g: Callable[[float], float],
    a: float,
    b: float,
    rtol: float = 1e-10,
) -> tuple[float, bool]:
    """Integrate g over [a, b] to relative tolerance rtol.

    Returns (value, converged).  converged is False when the recursion depth
    cap was hit before the local error estimates fell under tolerance.
    """
    if not b > a:
        raise ValueError(f"degenerate cell [{a!r}, {b!r}]")
    fa = float(g(a))
    fb = float(g(b))
    fm = float(g(0.5 * (a + b)))
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    # First pass scales the tolerance by the crude estimate; re-run until the
    # scale agrees with the converged value so the tolerance is truly relative.
    scale = max(abs(whole), 1e-300)
    value, ok = _adsimp(g, a, fa, b, fb, fm, whole, rtol * scale, 0)
    for _ in range(3):
        new_scale = max(abs(value), 1e-300)
        if new_scale >= 0.5 * scale:
            break
        scale = new_scale
        value, ok = _adsimp(g, a, fa, b, fb, fm, whole, rtol * scale, 0)
    return value, ok


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
