"""Layer-adapted meshes on the unit interval.

Every family is one function of (LayerSpec, n) and builds exactly n cells:
``uniform_mesh`` reads no layer, ``system_shishkin`` builds the
piecewise-uniform Shishkin mesh for one or several layers, and the graded
families (``bakhvalov_shishkin``, ``bakhvalov_type``,
``bakhvalov_original``) take the one layer.

All constructors build the canonical orientation with the boundary layer at
x = 0, and ``_oriented`` is the one place that turns those points into a
mesh, mirrored when the layer sits at x = 1.  ``bakhvalov_shishkin`` and
``bakhvalov_type`` build only their graded points on [0, sigma];
``_layer_mesh`` appends the uniform part and, for side='both', the graded
points reflected at x = 1.  Graded families degenerate to the uniform mesh
(with a note in ``Mesh1D.meta``) whenever their transition point would
leave the admissible range; callers can rely on always getting a valid mesh
back for any positive layer width.

Width parameters follow one convention everywhere: a layer of the form
exp(-gamma*x/eps) is resolved on a region of width ~ mu*eps/gamma, where mu
is the order parameter of the intended scheme (mu = 2 covers first- and
second-order methods).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

__all__ = [
    "Mesh1D",
    "LayerSpec",
    "MeshDiagnostics",
    "uniform_mesh",
    "bakhvalov_shishkin",
    "bakhvalov_type",
    "bakhvalov_original",
    "equidistribute",
    "system_shishkin",
    "mirror",
    "diagnostics",
]


@dataclass(frozen=True)
class Mesh1D:
    """An ordered point set on [0, 1] with cached spacings.

    Invariants: points[0] == 0.0 and points[-1] == 1.0 exactly, points are
    strictly increasing, and the array is read-only after construction.
    """

    points: np.ndarray
    label: str = "mesh"
    meta: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 1 or len(pts) < 2:
            raise ValueError(f"mesh needs at least two points, got shape {pts.shape}")
        if pts[0] != 0.0 or pts[-1] != 1.0:
            raise ValueError(
                f"mesh must span [0, 1] exactly, got [{float(pts[0])!r}, {float(pts[-1])!r}]"
            )
        spacings = np.diff(pts)
        if np.any(spacings <= 0.0):
            bad = int(np.argmin(spacings))
            raise ValueError(
                f"mesh points must increase strictly; cell {bad} has width "
                f"{float(spacings[bad])!r}"
            )
        pts.flags.writeable = False
        spacings.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "_spacings", spacings)

    @property
    def spacings(self) -> np.ndarray:
        return self._spacings  # type: ignore[attr-defined]

    @property
    def n_cells(self) -> int:
        return len(self.points) - 1


def check_eps(eps: float) -> None:
    """The one eps check of layers, problems and studies: finite and positive."""
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be finite and positive, got {float(eps)!r}")


@dataclass(frozen=True)
class LayerSpec:
    """Layer description: decay exp(-gamma*x/eps) at the given side(s).

    mu is the order parameter scaling the resolved width mu*eps/gamma.  One
    LayerSpec per solution component is what every layer-adapted mesh and
    the derivative-bound check read.
    """

    eps: float
    gamma: float = 1.0
    mu: float = 2.0
    side: str = "left"

    def __post_init__(self) -> None:
        check_eps(self.eps)
        if not self.gamma > 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma!r}")
        if not self.mu > 0.0:
            raise ValueError(f"mu must be positive, got {self.mu!r}")
        if self.side not in ("left", "right", "both"):
            raise ValueError(f"side must be left, right or both, got {self.side!r}")

    @property
    def width_scale(self) -> float:
        return self.mu * self.eps / self.gamma

    def bound(self, x: np.ndarray, k: int = 0) -> np.ndarray:
        """Derivative bound shape 1 + eps^{-k} * (exponentials at the layer
        sides), for derivative orders k in {0, 1, 2}."""
        if k not in (0, 1, 2):
            raise ValueError(f"derivative order must be 0, 1 or 2, got {k}")
        x = np.asarray(x, dtype=float)
        amp = self.eps ** (-k)
        out = np.ones_like(x)
        if self.side in ("left", "both"):
            out = out + amp * np.exp(-self.gamma * x / self.eps)
        if self.side in ("right", "both"):
            out = out + amp * np.exp(-self.gamma * (1.0 - x) / self.eps)
        return out


@dataclass(frozen=True)
class MeshDiagnostics:
    """Spacing summary of a mesh."""

    n_cells: int
    min_h: float
    max_h: float
    ratio: float  # worst adjacent-cell ratio, >= 1


def _mesh(points, label: str, meta: dict | None = None) -> Mesh1D:
    return Mesh1D(points=np.asarray(points, dtype=float), label=label, meta=meta or {})


def uniform_mesh(n: int, label: str = "uniform") -> Mesh1D:
    if n < 1:
        raise ValueError(f"need at least one cell, got n={n}")
    return _mesh(np.linspace(0.0, 1.0, n + 1), label, {"uniform": True})


def _oriented(pts, side: str, label: str, meta: dict) -> Mesh1D:
    """Mesh from canonical left-layer points, mirrored when the layer is at x = 1."""
    mesh = _mesh(pts, label, meta)
    return mirror(mesh) if side == "right" else mesh


def _layer_cells(n: int, side: str, who: str) -> tuple[int, float]:
    """Layer cell count and transition clamp: n/4 and 1/4 for side='both',
    n/2 and 1/2 otherwise."""
    divisor = 4 if side == "both" else 2
    if n < 2 * divisor or n % divisor != 0:
        raise ValueError(f"{who} needs n divisible by {divisor} and >= {2 * divisor}, got {n}")
    return n // divisor, 1.0 / divisor


def _layer_mesh(fine: np.ndarray, n: int, side: str, label: str) -> Mesh1D:
    """Complete the layer points on [0, sigma] with n/2 uniform cells, then
    the layer points reflected at x = 1 for side='both', and orient."""
    sigma = float(fine[-1])
    if side == "both":
        pts = np.concatenate(
            [fine, np.linspace(sigma, 1.0 - sigma, n // 2 + 1)[1:], (1.0 - fine[::-1])[1:]]
        )
    else:
        pts = np.concatenate([fine, np.linspace(sigma, 1.0, n // 2 + 1)[1:]])
    pts[-1] = 1.0
    return _oriented(pts, side, label, {"sigma": sigma})


# ---------------------------------------------------------------------------
# graded layer part, uniform tail
# ---------------------------------------------------------------------------


def bakhvalov_shishkin(spec: LayerSpec, n: int) -> Mesh1D:
    """Graded points -width_scale*ln(1 - 2(1-1/n)t) for equispaced t in
    [0, 1/2], uniform beyond.

    The graded points end at the Shishkin transition width_scale*ln(n); the
    mesh degenerates to uniform when that transition reaches the clamp.
    """
    k, limit = _layer_cells(n, spec.side, "bakhvalov_shishkin")
    label = f"bakhvalov_shishkin(eps={spec.eps:g},n={n},side={spec.side})"
    t = np.arange(k + 1) / (2.0 * k)  # [0, 1/2]
    fine = spec.width_scale * -np.log1p(-2.0 * (1.0 - 1.0 / n) * t)
    if fine[-1] >= limit:
        mesh = uniform_mesh(n, label)
        mesh.meta["degenerate"] = "transition reached the uniform clamp"
        return mesh
    return _layer_mesh(fine, n, spec.side, label)


def bakhvalov_type(spec: LayerSpec, n: int) -> Mesh1D:
    """Graded fine mesh -width_scale*ln(1 - 2(1-eps)i/n), uniform beyond.

    The transition point is min(1/2, width_scale*ln(1/eps)); the mesh
    degenerates to uniform when the clamp is active or eps >= 1.
    """
    k, limit = _layer_cells(n, spec.side, "bakhvalov_type")
    label = f"bakhvalov_type(eps={spec.eps:g},n={n},side={spec.side})"
    a = spec.width_scale
    if spec.eps >= 1.0 or a * math.log(1.0 / spec.eps) >= limit:
        mesh = uniform_mesh(n, label)
        mesh.meta["degenerate"] = "transition reached the uniform clamp"
        return mesh
    t = np.arange(k + 1) / (2.0 * k)  # [0, 1/2]
    fine = -a * np.log1p(-2.0 * (1.0 - spec.eps) * t)
    fine[0] = 0.0
    # at t=1/2 the formula collapses to a*ln(1/eps); evaluate that directly
    # instead of routing through fl(1-eps), which costs ~eps^-1 ulps.
    fine[-1] = a * -math.log(spec.eps)
    return _layer_mesh(fine, n, spec.side, label)


# ---------------------------------------------------------------------------
# fully graded family
# ---------------------------------------------------------------------------


def bakhvalov_original(spec: LayerSpec, n: int) -> Mesh1D:
    """Mesh from the generating function -width_scale*ln(1 - t/q), q = 1/2,
    with a C^1 tangent extension.

    The switch point tau solves phi'(tau)*(1 - tau) = 1 - phi(tau), which
    makes the tangent hit (1, 1).  The root is found in the rescaled
    variable s = (q - tau)/width_scale so the residual tolerance 1e-13 is
    meaningful for arbitrarily small eps.  Without a root (wide layers) the
    mesh degenerates to uniform.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if spec.side == "both":
        raise ValueError("bakhvalov_original supports side='left' or 'right' only")
    label = f"bakhvalov(eps={spec.eps:g},n={n},side={spec.side})"
    q, a = 0.5, spec.width_scale

    # C^1 matching in s: residual(s) = (1-q)/s + a - 1 - a*ln(a*s/q).
    def g(s: float) -> float:
        return (1.0 - q) / s + a - 1.0 - a * math.log(a * s / q)

    def gp(s: float) -> float:
        return -(1.0 - q) / (s * s) - a / s

    s_hi = q / a  # tau = 0
    hi = s_hi * (1.0 - 1e-12)
    # g(s_hi) = a/q - 1, so within 1e-12 of a = q no root leaves tau > 0
    if a >= q or g(hi) >= 0.0:
        mesh = uniform_mesh(n, label)
        mesh.meta["degenerate"] = "mesh degenerates to uniform (layer too wide)"
        return mesh
    lo = min(1.0, 0.5 * s_hi)
    while g(lo) <= 0.0:
        lo *= 0.1
        if lo < 1e-280:
            raise RuntimeError("no bracket for the tangent-matching equation")
    # g is decreasing and convex with g(lo) > 0 > g(hi): Newton from the
    # bracket midpoint, kept only strictly inside the bracket, else bisection.
    s = 0.5 * (lo + hi)
    for _ in range(200):
        gs = g(s)
        if abs(gs) <= 1e-13:
            break
        if gs > 0.0:
            lo = s
        else:
            hi = s
        s_new = s - gs / gp(s)
        if not lo < s_new < hi:
            s_new = 0.5 * (lo + hi)
        if not lo < s_new < hi:
            break  # the bracket collapsed to float resolution
        s = s_new
    if not abs(gs) <= 1e-13:
        raise RuntimeError(f"tangent-matching iteration stalled at residual {gs!r}")
    tau = q - a * s
    phi_tau = -a * math.log(a * s / q)
    slope = 1.0 / s

    t = np.arange(n + 1) / n
    pts = np.where(
        t <= tau,
        -a * np.log1p(-np.minimum(t, tau) / q),
        phi_tau + slope * (t - tau),
    )
    pts[0] = 0.0
    residual_at_one = float(pts[-1] - 1.0)
    pts[-1] = 1.0
    meta = {
        "tau": float(tau),
        "tangent_slope": float(slope),
        "c1_residual": float(g(s)),
        "endpoint_defect": residual_at_one,
    }
    return _oriented(pts, spec.side, label, meta)


def _monitor_values(monitor: Callable, grid: np.ndarray) -> np.ndarray:
    out = monitor(grid)
    vals = np.asarray(out, dtype=float)
    if vals.shape != grid.shape:  # scalar-only monitor
        vals = np.array([float(monitor(s)) for s in grid])
    if np.any(vals <= 0.0) or not np.all(np.isfinite(vals)):
        raise ValueError("monitor must be positive and finite on [0, 1]")
    return vals


def equidistribute(
    monitor: Callable[[np.ndarray], np.ndarray],
    n: int,
    max_iter: int = 48,
    tol: float = 1e-8,
    max_points: int = 300_000,
) -> Mesh1D:
    """Equidistribute a positive monitor function over n cells.

    Iterated inversion of the cumulative trapezoid integral on a background
    grid: each pass inverts the piecewise-quadratic cumulative exactly
    (monotone within every cell), measures the residual
    max_i |I_i - mean|/mean on the union of background and mesh points, and
    bisects the background cells whose trapezoid defect still pollutes that
    measure.  meta records iterations, residual, and a converged flag;
    non-convergence returns the best mesh found with converged=False.
    """
    if n < 1:
        raise ValueError(f"need at least one cell, got n={n}")
    if max_iter < 1:
        raise ValueError(f"need max_iter >= 1, got {max_iter}")
    bg = np.linspace(0.0, 1.0, max(4 * n, 256) + 1)
    vals = _monitor_values(monitor, bg)
    best_pts: np.ndarray | None = None
    best_res, best_it = math.inf, 0
    for it in range(1, max_iter + 1):
        w = np.diff(bg)
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (vals[1:] + vals[:-1]) * w)])
        total = float(cum[-1])
        targets = total * np.arange(1, n) / n
        j = np.clip(np.searchsorted(cum, targets, side="right") - 1, 0, len(w) - 1)
        t_loc = targets - cum[j]
        m_j = vals[j]
        slope = (vals[j + 1] - vals[j]) / w[j]
        disc = np.sqrt(np.maximum(m_j * m_j + 2.0 * slope * t_loc, 0.0))
        d = 2.0 * t_loc / (m_j + disc)
        pts = np.empty(n + 1)
        pts[0], pts[-1] = 0.0, 1.0
        pts[1:-1] = bg[j] + np.clip(d, 0.0, w[j])
        if np.any(np.diff(pts) <= 0.0):
            raise ValueError(
                f"monitor contrast exceeds float resolution for n={n} cells"
            )
        union = np.unique(np.concatenate([bg, pts]))
        vu = _monitor_values(monitor, union)
        cum_u = np.concatenate(
            [[0.0], np.cumsum(0.5 * (vu[1:] + vu[:-1]) * np.diff(union))]
        )
        masses = np.diff(cum_u[np.searchsorted(union, pts)])
        mean = float(cum_u[-1]) / n
        res = float(np.max(np.abs(masses - mean)) / mean)
        if res < best_res:
            best_pts, best_res, best_it = pts, res, it
        if res <= tol or it == max_iter or len(bg) >= max_points:
            break
        mid = 0.5 * (bg[:-1] + bg[1:])
        v_mid = _monitor_values(monitor, mid)
        defect = np.abs(0.5 * (vals[:-1] + vals[1:]) - v_mid) * w / 3.0
        worst = float(np.max(defect))
        if worst == 0.0:
            break  # trapezoid already exact on this background
        thresh = max(tol * total / (n * len(bg)), 0.0)
        bad = defect > thresh
        if not np.any(bad):
            bad = defect >= 0.5 * worst
        room = max_points - len(bg)
        if int(np.sum(bad)) > room:
            order = np.argsort(defect)[::-1][:room]
            keep = np.zeros_like(bad)
            keep[order] = True
            bad &= keep
        bg = np.sort(np.concatenate([bg, mid[bad]]))
        vals = _monitor_values(monitor, bg)
    converged = best_res <= tol
    label = f"equidistributed(n={n})"
    return _mesh(
        best_pts,
        label,
        {"iterations": best_it, "residual": best_res, "converged": converged},
    )


def system_shishkin(layers: tuple[LayerSpec, ...] | list[LayerSpec], n: int) -> Mesh1D:
    """Piecewise-uniform Shishkin mesh for one or several layer widths.

    With one layer it is the classical Shishkin mesh: n/2 cells on
    [0, min(1/2, width_scale*ln(n))] and n/2 beyond.  Transition points descend from tau_{m+1} = 1 (or 1/2 for side='both')
    via tau_k = min(k*tau_{k+1}/(k+1), sigma*eps_k*ln(n)/beta) for the
    ascending eps_k, with sigma the layers' common mu and beta their
    smallest gamma; every band [tau_k, tau_{k+1}] carries the same cell
    count.  side='both' reflects the bands onto [1/2, 1]; side='right'
    mirrors the mesh.
    """
    layers = tuple(layers)
    if not layers:
        raise ValueError("system_shishkin needs at least one layer")
    sides = tuple(layer.side for layer in layers)
    if len(set(sides)) != 1:
        raise ValueError(f"system_shishkin needs every layer on one side, got sides {sides}")
    mus = tuple(layer.mu for layer in layers)
    if len(set(mus)) != 1:
        raise ValueError(f"system_shishkin needs one mu for every layer, got {mus}")
    eps_arr = [layer.eps for layer in layers]
    if any(b < a for a, b in zip(eps_arr, eps_arr[1:])):
        raise ValueError(f"eps values must ascend, got {eps_arr}")
    side, sigma = sides[0], mus[0]
    beta = min(layer.gamma for layer in layers)
    both_sides = side == "both"
    m = len(eps_arr)
    bands = m + 1
    per = 2 * bands if both_sides else bands
    if n % per != 0 or n < 2 * per:
        raise ValueError(
            f"system_shishkin needs n divisible by {per} and >= {2 * per}, got {n}"
        )
    outer = 0.5 if both_sides else 1.0
    tau = [0.0] * (m + 2)
    tau[m + 1] = outer
    for k in range(m, 0, -1):
        tau[k] = min(k * tau[k + 1] / (k + 1), sigma * eps_arr[k - 1] * math.log(n) / beta)
    cells = n // per
    half = [np.linspace(tau[0], tau[1], cells + 1)]
    for k in range(1, m + 1):
        half.append(np.linspace(tau[k], tau[k + 1], cells + 1)[1:])
    left = np.concatenate(half)
    pts = np.concatenate([left, (1.0 - left[::-1])[1:]]) if both_sides else left
    pts[-1] = 1.0
    label = f"system_shishkin(m={m},n={n},sigma={sigma:g},beta={beta:g},side={side})"
    return _oriented(pts, side, label, {"taus": tuple(float(t) for t in tau)})


def mirror(mesh: Mesh1D) -> Mesh1D:
    """Reflect a mesh about x = 1/2.

    Mirroring an already-mirrored mesh restores the original points
    bit-for-bit (the source array is retained), so the operation is an exact
    involution.
    """
    if "_mirror_src" in mesh.meta:
        src = mesh.meta["_mirror_src"]
        label = mesh.meta.get("_mirror_src_label", mesh.label)
        meta = {k: v for k, v in mesh.meta.items() if not k.startswith("_mirror_src")}
        return Mesh1D(points=np.array(src), label=str(label), meta=meta)
    pts = 1.0 - mesh.points[::-1]
    pts[0] = 0.0
    pts[-1] = 1.0
    meta = dict(mesh.meta)
    meta["_mirror_src"] = mesh.points
    meta["_mirror_src_label"] = mesh.label
    return Mesh1D(points=pts, label=f"mirror({mesh.label})", meta=meta)


def diagnostics(mesh: Mesh1D) -> MeshDiagnostics:
    """Spacing statistics: cell count, smallest and largest width, and the
    worst adjacent-cell ratio."""
    h = mesh.spacings
    if len(h) >= 2:
        ratio = float(max(np.max(h[1:] / h[:-1]), np.max(h[:-1] / h[1:])))
    else:
        ratio = 1.0
    return MeshDiagnostics(
        n_cells=mesh.n_cells,
        min_h=float(np.min(h)),
        max_h=float(np.max(h)),
        ratio=ratio,
    )
