"""Layer-adapted meshes on the unit interval.

Every family is one function of (LayerSpec, n) and builds exactly n cells:
``uniform_mesh`` reads no layer, ``system_shishkin`` builds the
piecewise-uniform Shishkin mesh for one or several layers, and the graded
families (``bakhvalov_shishkin``, ``bakhvalov_type``) take the one layer.

Every layer family builds its canonical layer points on [0, tau], with the
boundary layer at x = 0, and ``_finish`` completes them the same way for
all three: it appends the uniform band out to 1 (to 1/2 for side='both',
then reflects that half node for node as 1 - x, so a two-sided mesh is an
exact reflection) and mirrors the mesh when the layer sits at x = 1.
``_band_cells`` holds the one cell-count rule.  Graded families degenerate
to the uniform mesh (with a note in ``Mesh1D.meta``) whenever their
transition point would leave the admissible range; callers can rely on
always getting a valid mesh back for any positive layer width.

Width parameters follow one convention everywhere: a layer of the form
exp(-gamma*x/eps) is resolved on a region of width ~ mu*eps/gamma, where mu
is the order parameter of the intended scheme (mu = 2 covers first- and
second-order methods).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

__all__ = [
    "Mesh1D",
    "LayerSpec",
    "MeshDiagnostics",
    "uniform_mesh",
    "bakhvalov_shishkin",
    "bakhvalov_type",
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
        # a width that overflows is fine (every family clamps it to uniform);
        # one that underflows to 0 would collapse the layer cells
        if not (0.0 < self.gamma < math.inf and 0.0 < self.mu < math.inf
                and self.width_scale > 0.0):
            raise ValueError(
                "gamma and mu must be finite and positive with mu*eps/gamma > 0, "
                f"got gamma={self.gamma!r}, mu={self.mu!r}, eps={self.eps!r}"
            )
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


def _band_cells(n: int, bands: int, side: str, who: str) -> tuple[int, float]:
    """The cell-count rule of every layer mesh: n cells in equal bands on
    [0, end], end = 1/2 for side='both' (whose bands are reflected onto
    [1/2, 1]) and 1 otherwise.  Returns the cells per band and end."""
    per = 2 * bands if side == "both" else bands
    if n % per != 0 or n < 2 * per:
        raise ValueError(f"{who} needs n divisible by {per} and >= {2 * per}, got {n}")
    return n // per, 0.5 if side == "both" else 1.0


def _finish(layer: np.ndarray, cells: int, end: float, side: str, label: str,
            meta: dict) -> Mesh1D:
    """Complete canonical layer points on [0, tau] with a uniform band of
    `cells` cells out to `end`; for side='both' reflect that half node for
    node as 1 - x, for side='right' mirror the points, so the one Mesh1D
    built is the one ``mirror()`` would return.  A cell that the mirror to
    x = 1 collapses is refused with a message naming that cause."""
    half = np.concatenate([layer, np.linspace(float(layer[-1]), end, cells + 1)[1:]])
    pts = np.concatenate([half, (1.0 - half[::-1])[1:]]) if side == "both" else half
    pts[-1] = 1.0
    if side == "right":
        pts, label = _mirrored(pts), f"mirror({label})"
    try:
        return _mesh(pts, label, meta)
    except ValueError as exc:
        if side == "left":
            raise
        raise ValueError(
            f"{exc}: side={side!r} mirrors layer points to x = 1 as 1 - x, and "
            "float64 cannot space points near 1 closer than about 1.1e-16"
        ) from exc


# ---------------------------------------------------------------------------
# graded layer part, uniform tail
# ---------------------------------------------------------------------------


def bakhvalov_shishkin(spec: LayerSpec, n: int) -> Mesh1D:
    """Graded points -width_scale*ln(1 - 2(1-1/n)t) for equispaced t in
    [0, 1/2], uniform beyond.

    The graded points end at the Shishkin transition width_scale*ln(n); the
    mesh degenerates to uniform when that transition reaches the clamp.
    """
    k, end = _band_cells(n, 2, spec.side, "bakhvalov_shishkin")
    label = f"bakhvalov_shishkin(eps={spec.eps:g},n={n},side={spec.side})"
    t = np.arange(k + 1) / (2.0 * k)  # [0, 1/2]
    fine = spec.width_scale * -np.log1p(-2.0 * (1.0 - 1.0 / n) * t)
    if fine[-1] >= end / 2:
        mesh = uniform_mesh(n, label)
        mesh.meta["degenerate"] = "transition reached the uniform clamp"
        return mesh
    return _finish(fine, k, end, spec.side, label, {"sigma": float(fine[-1])})


def bakhvalov_type(spec: LayerSpec, n: int) -> Mesh1D:
    """Graded fine mesh -width_scale*ln(1 - 2(1-eps)i/n), uniform beyond.

    The transition point is min(1/2, width_scale*ln(1/eps)); the mesh
    degenerates to uniform when the clamp is active or eps >= 1.
    """
    k, end = _band_cells(n, 2, spec.side, "bakhvalov_type")
    label = f"bakhvalov_type(eps={spec.eps:g},n={n},side={spec.side})"
    a = spec.width_scale
    if spec.eps >= 1.0 or a * math.log(1.0 / spec.eps) >= end / 2:
        mesh = uniform_mesh(n, label)
        mesh.meta["degenerate"] = "transition reached the uniform clamp"
        return mesh
    t = np.arange(k) / (2.0 * k)  # [0, 1/2)
    fine = np.empty(k + 1)
    fine[:-1] = -a * np.log1p(-2.0 * (1.0 - spec.eps) * t)
    fine[0] = 0.0
    # at t=1/2 the formula collapses to a*ln(1/eps); evaluate that directly
    # instead of routing through fl(1-eps), which costs ~eps^-1 ulps and,
    # below eps ~1.1e-16 where fl(1-eps) = 1, reaches log1p(-1) = -inf.
    fine[-1] = a * -math.log(spec.eps)
    return _finish(fine, k, end, spec.side, label, {"sigma": float(fine[-1])})


def system_shishkin(layers: tuple[LayerSpec, ...] | list[LayerSpec], n: int) -> Mesh1D:
    """Piecewise-uniform Shishkin mesh for one or several layer widths.

    With one layer it is the classical Shishkin mesh: n/2 cells on
    [0, min(1/2, width_scale*ln(n))] and n/2 beyond.  Transition points
    descend from tau_{m+1} = 1 (or 1/2 for side='both')
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
    m = len(eps_arr)
    cells, end = _band_cells(n, m + 1, side, "system_shishkin")
    tau = [0.0] * (m + 2)
    tau[m + 1] = end
    for k in range(m, 0, -1):
        tau[k] = min(k * tau[k + 1] / (k + 1), sigma * eps_arr[k - 1] * math.log(n) / beta)
    layer = np.concatenate(
        [np.linspace(tau[0], tau[1], cells + 1)]
        + [np.linspace(tau[k], tau[k + 1], cells + 1)[1:] for k in range(1, m)]
    )
    label = f"system_shishkin(m={m},n={n},sigma={sigma:g},beta={beta:g},side={side})"
    return _finish(layer, cells, end, side, label, {"taus": tuple(float(t) for t in tau)})


def _mirrored(points: np.ndarray) -> np.ndarray:
    """Points 1 - x in reverse order, with exact endpoints."""
    pts = 1.0 - points[::-1]
    pts[0] = 0.0
    pts[-1] = 1.0
    return pts


def mirror(mesh: Mesh1D) -> Mesh1D:
    """Reflect a mesh about x = 1/2: points 1 - x in reverse order, with
    exact endpoints."""
    return Mesh1D(points=_mirrored(mesh.points), label=f"mirror({mesh.label})",
                  meta=dict(mesh.meta))


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
