"""Layer-adapted meshes on the unit interval.

All constructors build the canonical orientation with the boundary layer at
x = 0, and ``_oriented`` is the one place that turns those points into a
mesh, mirrored when the layer sits at x = 1; ``system_shishkin`` orients
its nested bands through it too.  The piecewise families
(``shishkin``, ``shishkin_type``, ``bakhvalov_type``) build only their layer
points on [0, sigma]; ``_layer_mesh`` appends the uniform part and, for
side='both', the layer points reflected at x = 1.  Graded families
degenerate to the uniform mesh (with a note in ``Mesh1D.meta``) whenever
their transition point would leave the admissible range; callers can rely
on always getting a valid mesh back for any positive layer width.

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

from .quadrature import adaptive_cell_integral
from .rootfind import BracketError, solve_scalar

__all__ = [
    "Mesh1D",
    "LayerSpec",
    "MeshCharFn",
    "MeshDiagnostics",
    "uniform_mesh",
    "shishkin",
    "shishkin_charfn",
    "bakhvalov_shishkin_charfn",
    "charfn_from_callable",
    "shishkin_type",
    "bakhvalov_shishkin",
    "bakhvalov_type",
    "bakhvalov_original",
    "gartland",
    "duran_lombardi",
    "lambert_mesh",
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
                f"mesh must span [0, 1] exactly, got [{pts[0]!r}, {pts[-1]!r}]"
            )
        spacings = np.diff(pts)
        if np.any(spacings <= 0.0):
            bad = int(np.argmin(spacings))
            raise ValueError(
                f"mesh points must increase strictly; cell {bad} has width "
                f"{spacings[bad]!r}"
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
        if not self.eps > 0.0:
            raise ValueError(f"eps must be positive, got {self.eps!r}")
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
class MeshCharFn:
    """Mesh-generating data for graded-then-uniform meshes.

    lam maps [0, 1/2] onto [0, ln(n)] monotonically; the associated
    characterizing function psi = exp(-lam) decays from 1 to 1/n, and
    max|psi'| governs the error constant of fitted-mesh schemes.
    """

    lam: Callable[[np.ndarray], np.ndarray]
    max_psi_prime: float
    label: str = "charfn"

    def psi(self, t: np.ndarray) -> np.ndarray:
        return np.exp(-np.asarray(self.lam(t), dtype=float))


@dataclass(frozen=True)
class MeshDiagnostics:
    """Spacing summary plus an optional mesh-quality functional."""

    n_cells: int
    min_h: float
    max_h: float
    ratio: float  # worst adjacent-cell ratio, >= 1
    q: float | None = None  # max over cells of integral of g
    q_warnings: tuple[str, ...] = ()


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
# piecewise-uniform and graded-fine families
# ---------------------------------------------------------------------------


def shishkin(spec: LayerSpec, n: int) -> Mesh1D:
    """Piecewise-uniform mesh: n/2 cells on the layer part, n/2 outside.

    The transition point is min(1/2, width_scale * ln(n)); when the clamp at
    1/2 is active the mesh is uniform.  side='both' splits n/4 + n/2 + n/4
    with transition min(1/4, width_scale * ln(n)).
    """
    k, limit = _layer_cells(n, spec.side, "shishkin")
    sigma = min(limit, spec.width_scale * math.log(n))
    label = f"shishkin(eps={spec.eps:g},n={n},side={spec.side})"
    return _layer_mesh(np.linspace(0.0, sigma, k + 1), n, spec.side, label)


def shishkin_charfn(n: int) -> MeshCharFn:
    """Linear mesh-generating function; psi decays like n^(-2t)."""
    logn = math.log(n)
    return MeshCharFn(lam=lambda t: 2.0 * logn * np.asarray(t, dtype=float),
                      max_psi_prime=2.0 * logn, label="shishkin")


def bakhvalov_shishkin_charfn(n: int) -> MeshCharFn:
    """Mesh-generating function with max|psi'| = 2(1 - 1/n) <= 2."""
    slope = 2.0 * (1.0 - 1.0 / n)
    return MeshCharFn(lam=lambda t: -np.log1p(-slope * np.asarray(t, dtype=float)),
                      max_psi_prime=slope, label="bakhvalov-shishkin")


def charfn_from_callable(
    lam: Callable[[np.ndarray], np.ndarray], label: str = "custom", samples: int = 10001
) -> MeshCharFn:
    """Wrap a user mesh-generating function, estimating max|psi'| by sampling."""
    t = np.linspace(0.0, 0.5, samples)
    psi = np.exp(-np.asarray(lam(t), dtype=float))
    dpsi = np.gradient(psi, t)
    return MeshCharFn(lam=lam, max_psi_prime=float(np.max(np.abs(dpsi))), label=label)


def shishkin_type(spec: LayerSpec, n: int, charfn: MeshCharFn) -> Mesh1D:
    """Graded-fine/uniform-coarse mesh from a mesh-generating function.

    Fine points are width_scale * lam(i/n) for i <= n/2, coarse points are
    uniform up to 1.  Degenerates to the uniform mesh when the transition
    width width_scale * ln(n) reaches 1/2.
    """
    k, limit = _layer_cells(n, spec.side, "shishkin_type")
    label = f"shishkin_type[{charfn.label}](eps={spec.eps:g},n={n},side={spec.side})"
    lam0 = float(charfn.lam(np.array(0.0)))
    lam_half = float(charfn.lam(np.array(0.5)))
    if abs(lam0) > 1e-12:
        raise ValueError(f"mesh-generating function must vanish at 0, got {lam0!r}")
    if abs(lam_half - math.log(n)) > 1e-8 * max(1.0, math.log(n)):
        raise ValueError(
            f"mesh-generating function must reach ln(n)={math.log(n)!r} at 1/2, "
            f"got {lam_half!r}"
        )
    a = spec.width_scale
    if a * lam_half >= limit:
        mesh = uniform_mesh(n, label)
        mesh.meta["degenerate"] = "transition reached the uniform clamp"
        return mesh
    t = np.arange(k + 1) / (2.0 * k)  # [0, 1/2]
    lam_vals = np.asarray(charfn.lam(t), dtype=float)
    if np.any(np.diff(lam_vals) <= 0.0):
        raise ValueError("mesh-generating function is not increasing on its samples")
    fine = a * lam_vals
    fine[0] = 0.0
    return _layer_mesh(fine, n, spec.side, label)


def bakhvalov_shishkin(spec: LayerSpec, n: int) -> Mesh1D:
    return shishkin_type(spec, n, bakhvalov_shishkin_charfn(n))


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
# fully graded families
# ---------------------------------------------------------------------------


def bakhvalov_original(spec: LayerSpec, n: int, q: float = 0.5) -> Mesh1D:
    """Mesh from the generating function -width_scale*ln(1 - t/q) with a C^1
    tangent extension.

    The switch point tau solves phi'(tau)*(1 - tau) = 1 - phi(tau), which
    makes the tangent hit (1, 1).  The root is found in the rescaled
    variable s = (q - tau)/width_scale so the residual tolerance 1e-12 is
    meaningful for arbitrarily small eps.  Without a root (wide layers) the
    mesh degenerates to uniform.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q!r}")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if spec.side == "both":
        raise ValueError("bakhvalov_original supports side='left' or 'right' only")
    label = f"bakhvalov(eps={spec.eps:g},n={n},q={q:g},side={spec.side})"
    a = spec.width_scale
    if a >= q:
        mesh = uniform_mesh(n, label)
        mesh.meta["degenerate"] = "mesh degenerates to uniform (layer too wide)"
        return mesh

    # C^1 matching in s: residual(s) = (1-q)/s + a - 1 - a*ln(a*s/q).
    def g(s: float) -> float:
        return (1.0 - q) / s + a - 1.0 - a * math.log(a * s / q)

    def gp(s: float) -> float:
        return -(1.0 - q) / (s * s) - a / s

    s_hi = q / a  # tau = 0
    s_lo = min(1.0, 0.5 * s_hi)
    while g(s_lo) <= 0.0:
        s_lo *= 0.1
        if s_lo < 1e-280:
            raise RuntimeError("no bracket for the tangent-matching equation")
    s = solve_scalar(g, s_lo, s_hi * (1.0 - 1e-12), fprime=gp, tol=1e-13)
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


def gartland(spec: LayerSpec, h: float, variant: str = "gartland") -> Mesh1D:
    """Recursively graded mesh with target coarse step h.

    Cell widths follow min(h, eps*h*exp(gamma*x/(2*eps))[, e*previous]) from
    a first cell of min(eps*h, h); the bracketed growth cap distinguishes
    'gartland' from 'gartland-type'.  An undersized terminal cell is merged
    into its neighbour (or the merged span re-split) so the capped variant
    keeps every adjacent ratio <= e.
    """
    if not 0.0 < h < 1.0:
        raise ValueError(f"h must lie in (0, 1), got {h!r}")
    if variant not in ("gartland", "gartland-type"):
        raise ValueError(f"unknown variant {variant!r}")
    if spec.side == "both":
        raise ValueError("gartland supports side='left' or 'right' only")
    cap_ratio = variant == "gartland"
    eps, gamma = spec.eps, spec.gamma
    pts = [0.0]
    prev = min(eps * h, h)
    x = prev
    guard = int(20.0 / h) + 10_000_000
    while x < 1.0:
        pts.append(x)
        arg = gamma * x / (2.0 * eps)
        grown = eps * h * math.exp(arg) if arg < 700.0 else h
        step = min(h, grown)
        if cap_ratio:
            step = min(step, math.e * prev)
        prev = step
        x = x + step
        if len(pts) > guard:
            raise RuntimeError("mesh generation did not terminate")
    # Terminal cell: keep the adjacent-cell ratio <= e.  A remainder at
    # least prev/e stands on its own; smaller ones merge into the previous
    # cell, or split the merged span in two when merging would overshoot
    # the ratio bound against the cell before it.
    prev = pts[-1] - pts[-2] if len(pts) >= 2 else 1.0
    rem = 1.0 - pts[-1]
    if rem >= prev / math.e:
        pts.append(1.0)
    else:
        merged = prev + rem
        prev2 = pts[-2] - pts[-3] if len(pts) >= 3 else None
        if prev2 is None or merged <= math.e * prev2:
            pts[-1] = 1.0
        else:
            pts[-1] = 0.5 * (pts[-2] + 1.0)
            pts.append(1.0)
    label = f"{variant}(eps={eps:g},h={h:g},side={spec.side})"
    return _oriented(pts, spec.side, label, {"target_h": h})


def duran_lombardi(
    spec: LayerSpec, h: float, kappa: float = 1.0, initial_uniform: bool = False
) -> Mesh1D:
    """Geometrically graded mesh: x_1 = kappa*h*eps, then growth by 1 + kappa*h.

    With initial_uniform=True the first ~1/(kappa*h) cells stay uniform of
    width kappa*h*eps before the geometric phase starts.  A final cell
    shorter than half its neighbour is merged.
    """
    if not 0.0 < kappa * h < 1.0:
        raise ValueError(f"need 0 < kappa*h < 1, got kappa*h={kappa * h!r}")
    if not spec.eps <= 1.0:
        raise ValueError(f"eps must be <= 1, got {spec.eps!r}")
    if spec.side == "both":
        raise ValueError("duran_lombardi supports side='left' or 'right' only")
    ratio = 1.0 + kappa * h
    pts = [0.0]
    x = kappa * h * spec.eps
    if initial_uniform:
        k_uni = int(math.floor(1.0 / (kappa * h))) + 1
        i = 1
        while i <= k_uni and i * kappa * h * spec.eps < 1.0:
            pts.append(i * kappa * h * spec.eps)
            i += 1
        x = pts[-1] * ratio if len(pts) > 1 else x
    while x < 1.0:
        pts.append(x)
        x *= ratio
    if len(pts) >= 2 and 1.0 - pts[-1] < 0.5 * (pts[-1] - pts[-2]):
        pts[-1] = 1.0  # merge the sliver
    else:
        pts.append(1.0)
    label = (
        f"duran_lombardi(eps={spec.eps:g},h={h:g},kappa={kappa:g},"
        f"uniform_phase={initial_uniform},side={spec.side})"
    )
    return _oriented(pts, spec.side, label, {"ratio": ratio})


def lambert_mesh(spec: LayerSpec, n: int, literal_form: bool = False) -> Mesh1D:
    """Mesh from the implicit relation xi - exp(-xi/width_scale) + 1 - 2t = 0.

    The exponent is negative so the relation has a unique increasing
    solution branch with xi(0) = 0 for every eps; points are rescaled by
    xi(1) so the mesh ends at 1 exactly.  literal_form=True solves the
    variant with a positive exponent instead, which only brackets a root for
    wide layers; failures report the offending t.
    """
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    if spec.side == "both":
        raise ValueError("lambert_mesh supports side='left' or 'right' only")
    c = 1.0 / spec.width_scale
    xi = np.zeros(n + 1)
    for i in range(1, n + 1):
        t = i / n
        if not literal_form:
            f = lambda z, tt=t: z - math.exp(-c * z) + 1.0 - 2.0 * tt
            fp = lambda z: 1.0 + c * math.exp(-c * z)
            xi[i] = solve_scalar(f, 0.0, 2.0 + 2.0 * t, fprime=fp, tol=1e-13)
        else:
            f = lambda z, tt=t: z - math.exp(min(c * z, 700.0)) + 1.0 - 2.0 * tt
            if c >= 1.0:
                raise BracketError(
                    f"literal relation has no root for t={t!r} (exponent too steep)"
                )
            z_peak = math.log(1.0 / c) / c
            if f(z_peak) <= 0.0:
                raise BracketError(f"literal relation has no root for t={t!r}")
            xi[i] = solve_scalar(f, 0.0, z_peak)
    scale = xi[-1]
    pts = xi / scale
    pts[0] = 0.0
    pts[-1] = 1.0
    label = f"lambert(eps={spec.eps:g},n={n},literal={literal_form},side={spec.side})"
    return _oriented(pts, spec.side, label, {"xi_scale": float(scale)})


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
    """Nested piecewise-uniform mesh for systems with several layer widths.

    Transition points descend from tau_{m+1} = 1 (or 1/2 for side='both')
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
    label = (
        f"system_shishkin(m={m},n={n},sigma={sigma:g},beta={beta:g},"
        f"mirrored={both_sides})"
    )
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


def diagnostics(
    mesh: Mesh1D,
    g: Callable[[float], float] | None = None,
    rtol: float = 1e-10,
) -> MeshDiagnostics:
    """Spacing statistics and, optionally, the quality functional
    max over cells of the integral of g (adaptive quadrature per cell)."""
    h = mesh.spacings
    if len(h) >= 2:
        ratio = float(max(np.max(h[1:] / h[:-1]), np.max(h[:-1] / h[1:])))
    else:
        ratio = 1.0
    q = None
    warnings: list[str] = []
    if g is not None:
        worst = 0.0
        for i in range(mesh.n_cells):
            val, ok = adaptive_cell_integral(g, float(mesh.points[i]), float(mesh.points[i + 1]), rtol=rtol)
            if not ok:
                warnings.append(f"cell {i}: quadrature did not converge")
            worst = max(worst, val)
        q = worst
    return MeshDiagnostics(
        n_cells=mesh.n_cells,
        min_h=float(np.min(h)),
        max_h=float(np.max(h)),
        ratio=ratio,
        q=q,
        q_warnings=tuple(warnings),
    )
