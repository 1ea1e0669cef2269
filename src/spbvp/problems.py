"""Problem definitions for singularly perturbed two-point BVPs.

A SystemProblem bundles the data of

    -diag(d_1..d_M) u'' + B(x) u' + A(x) u = f(x),  u(0)=g0, u(1)=g1

where d_i = eps_i for the convection-diffusion kinds and d_i = eps_i**2 for
reaction-diffusion.  Alongside the containers live

- the algebraic stability pre-checks (inverse-monotonicity of comparison
  matrices built from coefficient norms), which return JSON-ready dicts;
- the layer data of each problem (``default_envelope``, one ``LayerSpec``
  per component) with fitted-constant checks;
- the built-in reference problems used by the convergence harness.  The two
  coupled systems take one eps value per component (m = len(eps)) and are
  measured against a lazily solved fine-mesh oracle;
- ``problem_from_dict``, the reader of constant-coefficient problem files.
"""
from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .meshes import LayerSpec, check_eps, system_shishkin

__all__ = [
    "Coefficient",
    "SystemProblem",
    "ReferenceSolution",
    "coefficient",
    "check_gamma",
    "check_upsilon",
    "stability_report",
    "default_envelope",
    "envelope_check",
    "builtin_scalar_cd",
    "builtin_strongly_coupled_example",
    "builtin_strongly_coupled_variable",
    "builtin_reaction_diffusion_system",
    "builtin_weakly_coupled_cd",
    "oracle_reference",
    "problem_from_dict",
]

KINDS = ("weakly-coupled-cd", "strongly-coupled-cd", "reaction-diffusion")

_SAMPLE_POINTS = 10_000  # sup norms / minima of coefficients are sampled here


@dataclass(frozen=True)
class Coefficient:
    """Matrix or vector coefficient: an evaluator plus the exact array when
    the coefficient does not depend on x.

    A constant coefficient evaluates to a read-only broadcast view of that
    array, shape x.shape + shape, not to a fresh filled array: copy it
    before writing into it.
    """

    shape: tuple[int, ...]
    constant: np.ndarray | None = None
    fn: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if (self.constant is None) == (self.fn is None):
            raise ValueError("provide exactly one of constant array or callable")
        if self.constant is not None and self.constant.shape != self.shape:
            raise ValueError(f"constant shape {self.constant.shape} != {self.shape}")

    @property
    def is_constant(self) -> bool:
        return self.constant is not None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.constant is not None:
            return np.broadcast_to(self.constant, x.shape + self.shape)
        out = np.asarray(self.fn(x), dtype=float)
        if out.shape != x.shape + self.shape:
            raise ValueError(
                f"coefficient returned shape {out.shape}, expected {x.shape + self.shape}"
            )
        return out


def coefficient(value, shape: tuple[int, ...]) -> Coefficient:
    """Wrap an array (constant) or callable into a Coefficient."""
    if callable(value):
        return Coefficient(shape=shape, fn=value)
    arr = np.asarray(value, dtype=float)
    if arr.shape == () and shape:
        arr = np.full(shape, float(arr))
    if arr.shape != shape:
        raise ValueError(f"cannot shape {arr.shape} constant into {shape}")
    return Coefficient(shape=shape, constant=arr.copy())


@dataclass(frozen=True)
class SystemProblem:
    """Immutable description of a (possibly coupled) two-point BVP."""

    m: int
    eps: tuple[float, ...]
    kind: str
    a: Coefficient
    f: Coefficient
    b: Coefficient | None = None
    g0: np.ndarray = field(default_factory=lambda: np.zeros(0))
    g1: np.ndarray = field(default_factory=lambda: np.zeros(0))
    label: str = "problem"

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.m < 1:
            raise ValueError(f"need m >= 1, got {self.m}")
        if len(self.eps) != self.m:
            raise ValueError(f"eps must be {self.m} values, got {self.eps}")
        for e in self.eps:
            check_eps(e)
            if self.kind == "reaction-diffusion" and not math.isfinite(float(e) * float(e)):
                raise ValueError(f"reaction-diffusion needs a finite eps^2, got eps {float(e)!r}")
        mm = (self.m, self.m)
        if self.a.shape != mm:
            raise ValueError(f"reaction coefficient must have shape {mm}")
        if self.f.shape != (self.m,):
            raise ValueError(f"source must have shape ({self.m},)")
        if self.kind == "reaction-diffusion":
            if self.b is not None:
                raise ValueError("reaction-diffusion problems carry no convection term")
        else:
            if self.b is None:
                raise ValueError(f"{self.kind} requires a convection coefficient")
            if self.b.shape != mm:
                raise ValueError(f"convection coefficient must have shape {mm}")
            if self.kind == "weakly-coupled-cd":
                self._require_diagonal_b()
        for name in ("g0", "g1"):
            g = getattr(self, name)
            if g.shape == (0,):
                object.__setattr__(self, name, np.zeros(self.m))
            elif g.shape != (self.m,):
                raise ValueError(f"{name} must have shape ({self.m},)")

    def _require_diagonal_b(self) -> None:
        if self.b.is_constant:
            vals = self.b.constant[None, :, :]
        else:
            vals = self.b(np.linspace(0.0, 1.0, 257))
        off = vals.copy()
        idx = np.arange(self.m)
        off[:, idx, idx] = 0.0
        if np.any(off != 0.0):
            raise ValueError("weakly-coupled systems must have diagonal convection")

    @cached_property
    def _layers(self) -> tuple[LayerSpec, ...]:
        # default_envelope's value: the problem is immutable, so it is
        # computed once.  An envelope that raises is not cached and raises
        # again on every call.
        return _envelope(self)

    @property
    def diffusion(self) -> np.ndarray:
        """Coefficients of -u_i'' as used in the operator."""
        e = np.asarray(self.eps)
        return e * e if self.kind == "reaction-diffusion" else e


# ---------------------------------------------------------------------------
# stability pre-checks
# ---------------------------------------------------------------------------


def _grid() -> np.ndarray:
    return np.linspace(0.0, 1.0, _SAMPLE_POINTS)


def _inverse_min(matrix: np.ndarray, notes: list[str]) -> float:
    """Smallest entry of the inverse; -inf, with a note, when it is singular."""
    try:
        return float(np.linalg.inv(matrix).min())
    except np.linalg.LinAlgError:
        notes.append("comparison matrix is singular")
        return -math.inf


def check_gamma(problem: SystemProblem) -> dict:
    """Inverse-monotonicity check of the reaction comparison matrix.

    The matrix has unit diagonal and off-diagonal entries
    -sup_x |a_ij(x)/a_ii(x)|; the verdict holds when its inverse is
    entrywise >= -1e-12.  Also reports the coupling strength zeta (row sums
    of |a_ij|/a_ii off the diagonal) and, for reaction-diffusion problems,
    the decay rate kappa with kappa^2 = (1-zeta)*min_i min_x a_ii.
    Returns a JSON-ready dict (the matrix as a list of rows) with a list of
    notes.
    """
    x = _grid()
    a_vals = problem.a(x)
    idx = np.arange(problem.m)
    diag = a_vals[:, idx, idx]
    diag_min = diag.min(axis=0)
    if np.any(diag_min <= 0.0):
        bad = int(np.argmax(diag_min <= 0.0))
        raise ValueError(
            f"reaction diagonal a[{bad},{bad}] is not positive everywhere "
            f"(min {diag_min[bad]:.3e}); the comparison-matrix check needs "
            "positive diagonals"
        )
    ratios = np.abs(a_vals) / diag[:, :, None]  # same-point ratio, rows scaled
    sup = ratios.max(axis=0)
    gamma = -sup
    gamma[idx, idx] = 1.0
    notes: list[str] = []
    inv_min = _inverse_min(gamma, notes)
    off = sup.copy()
    off[idx, idx] = 0.0
    zeta = float(off.sum(axis=1).max())
    report = {
        "gamma_matrix": gamma.tolist(),
        "gamma_inverse_min": inv_min,
        "gamma_monotone": inv_min >= -1e-12,
        "zeta": zeta,
        "diag_dominant": zeta < 1.0,
        "notes": notes,
    }
    if problem.kind == "reaction-diffusion":
        report["kappa"] = math.sqrt(max(0.0, 1.0 - zeta) * float(diag_min.min()))
    return report


def check_upsilon(problem: SystemProblem, c: np.ndarray | None = None) -> dict:
    """Comparison check for convection-coupled systems.

    Off-diagonal entries are -C_i*(L1 norm of b_ij' + a_ij plus sup norm of
    b_ij).  The constants C_i are not constructive; with the default C_i = 1
    the verdict is heuristic (valid when min|b_ii| >= 1) and flagged as such.
    The verdict requires positive row sums, which makes it imply strict
    diagonal dominance of the convection matrix under that normalization.
    Returns a JSON-ready dict (the matrix as a list of rows) with a list of
    notes.
    """
    if problem.kind != "strongly-coupled-cd":
        raise ValueError(f"upsilon check applies to strongly-coupled-cd, got {problem.kind}")
    heuristic = c is None
    cs = np.ones(problem.m) if c is None else np.asarray(c, dtype=float)
    if cs.shape != (problem.m,) or np.any(cs <= 0.0):
        raise ValueError(f"need {problem.m} positive constants, got {c!r}")
    x = _grid()
    b_vals = problem.b(x)
    a_vals = problem.a(x)
    if problem.b.is_constant:
        b_prime = np.zeros_like(b_vals)
    else:
        b_prime = np.gradient(b_vals, x, axis=0)
    idx = np.arange(problem.m)
    l1 = np.trapezoid(np.abs(b_prime + a_vals), x, axis=0)
    sup_b = np.abs(b_vals).max(axis=0)
    upsilon = -cs[:, None] * (l1 + sup_b)
    upsilon[idx, idx] = 1.0
    notes: list[str] = []
    inv_min = _inverse_min(upsilon, notes)
    row_min = float(upsilon.sum(axis=1).min())
    if heuristic:
        notes.append("constants defaulted to 1; verdict is heuristic")
    return {
        "upsilon_matrix": upsilon.tolist(),
        "upsilon_inverse_min": inv_min,
        "upsilon_row_sum_min": row_min,
        "upsilon_monotone": inv_min >= -1e-12 and row_min > 0.0,
        "upsilon_heuristic": heuristic,
        "notes": notes,
    }


def stability_report(problem: SystemProblem, c: np.ndarray | None = None) -> dict:
    """Run every check applicable to the problem kind and merge their dicts.

    A failed precondition (e.g. a reaction diagonal that is not positive,
    common for purely convective coupling) skips that section with a note
    instead of raising.  The merged dict carries "notes" only when a check
    left one; it is what `spbvp check` prints.
    """
    try:
        report = check_gamma(problem)
    except ValueError as exc:
        report = {"notes": [f"reaction check skipped: {exc}"]}
    if problem.kind == "strongly-coupled-cd":
        ups = check_upsilon(problem, c)
        report = {**report, **ups, "notes": report["notes"] + ups["notes"]}
    if not report["notes"]:
        del report["notes"]
    return report


# ---------------------------------------------------------------------------
# reference solutions and layer envelopes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReferenceSolution:
    """Evaluator for the solution a discrete method is compared against.

    kind "exact" carries analytic derivatives; "asymptotic" states its
    defect; "oracle" records the fine-mesh recipe that generated it and
    interpolates piecewise-linearly between the oracle nodes.
    """

    kind: str
    evaluator: Callable[[np.ndarray], np.ndarray]
    label: str = "reference"
    derivative_fn: Callable[[np.ndarray, int], np.ndarray] | None = None
    defect: str | None = None
    n_ref: int | None = None
    mesh_label: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("exact", "asymptotic", "oracle"):
            raise ValueError(f"unknown reference kind {self.kind!r}")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.evaluator(np.atleast_1d(np.asarray(x, dtype=float)))

    def derivative(self, x: np.ndarray, order: int = 1) -> np.ndarray:
        if self.derivative_fn is None:
            raise ValueError(f"{self.label}: no analytic derivative available")
        if order not in (1, 2):
            raise ValueError(f"order must be 1 or 2, got {order}")
        return self.derivative_fn(np.atleast_1d(np.asarray(x, dtype=float)), order)


def default_envelope(problem: SystemProblem) -> tuple[LayerSpec, ...]:
    """One layer per component, with the decay rate and side implied by the
    problem coefficients.  Computed once per problem and kept on it, so
    every mesh of a sweep and its oracle share one computation."""
    return problem._layers


def _envelope(problem: SystemProblem) -> tuple[LayerSpec, ...]:
    x = np.linspace(0.0, 1.0, 257)
    if problem.kind == "reaction-diffusion":
        report = check_gamma(problem)
        if not report["diag_dominant"]:
            raise ValueError(
                f"reaction coupling is not diagonally dominant (zeta = {report['zeta']:.6g} "
                ">= 1), so the layers have no positive decay rate"
            )
        return tuple(LayerSpec(e, gamma=report["kappa"], side="both") for e in problem.eps)
    b_vals = problem.b(x)
    if problem.kind == "weakly-coupled-cd":
        layers = []
        for i, e in enumerate(problem.eps):
            bi = b_vals[:, i, i]
            if np.all(bi > 0.0):
                side = "right"
            elif np.all(bi < 0.0):
                side = "left"
            else:
                raise ValueError(f"component {i}: convection changes sign; no single layer side")
            layers.append(LayerSpec(e, gamma=float(np.min(np.abs(bi))), side=side))
        return tuple(layers)
    if not problem.b.is_constant:
        raise ValueError("default envelope for strong coupling needs constant convection")
    b = problem.b.constant
    if np.max(np.abs(b - b.T)) > 1e-10 * max(1.0, float(np.max(np.abs(b)))):
        raise ValueError("default envelope for strong coupling needs symmetric convection")
    lam = np.linalg.eigvalsh(b)
    if np.any(np.abs(lam) < 1e-14):
        raise ValueError("convection matrix has a zero eigenvalue; no exponential layers")
    rate = float(np.min(np.abs(lam)))
    return tuple(LayerSpec(e, gamma=rate, side="both") for e in problem.eps)


def _layer_sample_grid(eps: float, rate: float, side: str) -> np.ndarray:
    pieces = [np.linspace(0.0, 1.0, 2001)]
    step = eps / 50.0
    # past 24*eps/rate the exponential sits below the roundoff floor of a
    # second difference quotient with step eps/50, so wider sampling would
    # only fit noise; the ratio being checked peaks at the boundary anyway
    extent = min(0.45, 24.0 * eps / rate)
    fine = np.arange(0.0, extent, step)
    if side in ("left", "both"):
        pieces.append(fine)
    if side in ("right", "both"):
        pieces.append(1.0 - fine)
    grid = np.unique(np.concatenate(pieces))
    # coarse and mirrored fine nodes can land 1 ulp apart; such gaps wreck
    # iterated difference quotients, so merge anything closer than 1e-13
    keep = np.empty(len(grid), dtype=bool)
    keep[0] = True
    keep[1:] = np.diff(grid) > 1e-13
    return grid[keep]


def envelope_check(
    ref: ReferenceSolution, layers: tuple[LayerSpec, ...], k: int = 0
) -> float:
    """Fit the smallest C with |u_i^{(k)}| <= C * layers[i].bound pointwise.

    Derivatives are taken by central differences on a grid with step
    eps/50 inside the layer regions, so the fitted constant is meaningful
    for k <= 2.  Boundedness of C across an eps sweep is the testable form
    of a derivative bound.
    """
    if k not in (0, 1, 2):
        raise ValueError(f"derivative order must be 0, 1 or 2, got {k}")
    worst = 0.0
    for i, layer in enumerate(layers):
        grid = _layer_sample_grid(layer.eps, layer.gamma, layer.side)
        vals = ref(grid)[:, i]
        for _ in range(k):
            vals = np.gradient(vals, grid)
        bound = layer.bound(grid, k)
        if k:
            # a k-th difference quotient samples the derivative somewhere in
            # its +-k stencil, so compare against the envelope max over that
            # window; otherwise the node where coarse and layer-fine grid
            # regions meet reports a smeared quotient against a decayed bound
            widened = bound.copy()
            for s in range(1, k + 1):
                np.maximum(widened[:-s], bound[s:], out=widened[:-s])
                np.maximum(widened[s:], bound[:-s], out=widened[s:])
            bound = widened
        worst = max(worst, float(np.max(np.abs(vals) / bound)))
    return worst


# ---------------------------------------------------------------------------
# built-in problems
# ---------------------------------------------------------------------------


def _self_check(resid: np.ndarray, scale: np.ndarray, eps: float) -> None:
    """Residual self-check of a closed-form builtin, relative to the local
    size of the operator terms.  A residual that is not finite means the
    closed form overflows float64 at this eps (u'' grows like eps^-2), so
    the eps is out of range; a finite one above 1e-10 means a formula slip."""
    worst = float(np.max(np.abs(resid) / scale))
    if not math.isfinite(worst):
        raise ValueError(f"the exact solution is not finite in float64 at eps = {eps!r}")
    if not worst <= 1e-10:
        raise RuntimeError(f"exact-solution self-check failed: residual {worst:.3e}")


def builtin_scalar_cd(eps: float = 1e-6) -> tuple[SystemProblem, ReferenceSolution]:
    """-eps*u'' + u' = 1 with u(0)=u(1)=0: the scalar calibration problem.

    Exact solution u(x) = x - (e^{-(1-x)/eps} - e^{-1/eps})/(1 - e^{-1/eps})
    with a layer at x = 1.  The evaluator is residual-checked at 10^3 points
    before being handed out (relative to the local size of the operator
    terms, since u'' ~ eps^{-2} makes an absolute residual meaningless).
    """
    check_eps(eps)
    den = -math.expm1(-1.0 / eps)  # 1 - e^{-1/eps}, safe for all eps

    def u(x: np.ndarray) -> np.ndarray:
        w = np.exp(-(1.0 - x) / eps)
        # w - e^{-1/eps} without the cancellation that large eps brings
        return (x - w * -np.expm1(-x / eps) / den)[:, None]

    def du(x: np.ndarray, order: int) -> np.ndarray:
        w = np.exp(-(1.0 - x) / eps)
        if order == 1:
            return (1.0 - w / (eps * den))[:, None]
        return (-w / (eps * (eps * den)))[:, None]

    xs = np.linspace(0.0, 1.0, 1000)
    up = du(xs, 1)[:, 0]
    upp = du(xs, 2)[:, 0]
    resid = -eps * upp + up - 1.0
    scale = 1.0 + np.abs(up) + eps * np.abs(upp)
    _self_check(resid, scale, eps)

    problem = SystemProblem(
        m=1,
        eps=(eps,),
        kind="weakly-coupled-cd",
        b=coefficient(np.array([[1.0]]), (1, 1)),
        a=coefficient(np.zeros((1, 1)), (1, 1)),
        f=coefficient(np.ones(1), (1,)),
        label=f"scalar-cd(eps={eps:g})",
    )
    ref = ReferenceSolution(
        kind="exact", evaluator=u, derivative_fn=du, label=problem.label
    )
    return problem, ref


def builtin_strongly_coupled_example(
    eps: float = 1e-6,
) -> tuple[SystemProblem, ReferenceSolution]:
    """2x2 system coupled through the convection matrix [[-3,-4],[-4,3]].

    Sources are (1, 2) with homogeneous boundary data.  The reference is the
    asymptotic solution with smooth parts 8/25 - 11x/25 and 4/25 + 2x/25 and
    exponential layers of rate 5 (the convection eigenvalues are -5 and 5) at
    both ends.  Because the smooth part is linear and the layer profiles are
    exact homogeneous solutions, the interior residual is identically zero;
    the only defect is an O(exp(-5/eps)) boundary mismatch, which is below
    roundoff for eps < 0.05.
    """
    check_eps(eps)

    def parts(x: np.ndarray):
        e0 = np.exp(-5.0 * x / eps)
        e1 = np.exp(-5.0 * (1.0 - x) / eps)
        return e0, e1

    def u(x: np.ndarray) -> np.ndarray:
        e0, e1 = parts(x)
        u1 = 8.0 / 25 - 11.0 / 25 * x - 8.0 / 25 * e0 + 3.0 / 25 * e1
        u2 = 4.0 / 25 + 2.0 / 25 * x - 4.0 / 25 * e0 - 6.0 / 25 * e1
        return np.stack([u1, u2], axis=1)

    def du(x: np.ndarray, order: int) -> np.ndarray:
        e0, e1 = parts(x)
        r = 5.0 / eps
        if order == 1:
            u1 = -11.0 / 25 + 8.0 / 25 * r * e0 + 3.0 / 25 * r * e1
            u2 = 2.0 / 25 + 4.0 / 25 * r * e0 - 6.0 / 25 * r * e1
        else:
            u1 = -8.0 / 25 * r * r * e0 + 3.0 / 25 * r * r * e1
            u2 = -4.0 / 25 * r * r * e0 - 6.0 / 25 * r * r * e1
        return np.stack([u1, u2], axis=1)

    problem = SystemProblem(
        m=2,
        eps=(eps, eps),
        kind="strongly-coupled-cd",
        b=coefficient(np.array([[-3.0, -4.0], [-4.0, 3.0]]), (2, 2)),
        a=coefficient(np.zeros((2, 2)), (2, 2)),
        f=coefficient(np.array([1.0, 2.0]), (2,)),
        label=f"strongly-coupled-2x2(eps={eps:g})",
    )
    ref = ReferenceSolution(
        kind="asymptotic",
        evaluator=u,
        derivative_fn=du,
        defect="O(exp(-5/eps)) boundary mismatch; zero interior residual",
        label=problem.label,
    )
    return problem, ref


def _rotate(t: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Rows R(t_k) (p_k, q_k) for the rotation R(t) = [[cos t, -sin t], [sin t, cos t]]."""
    c, s = np.cos(t), np.sin(t)
    return np.stack([c * p - s * q, s * p + c * q], axis=1)


def builtin_strongly_coupled_variable(
    eps: float = 1e-6,
) -> tuple[SystemProblem, ReferenceSolution]:
    """2x2 system with variable symmetric convection and an exact solution.

    B(x) = R(t) diag(-(4+x), 5+x^2) R(t)^T with t = 0.3 + x/2 and A = 0, so
    the convection eigenvectors rotate with x.  The manufactured solution is
    u = s + v0 e^{-4x/eps} + v1 e^{-6(1-x)/eps} with s = (1 + sin 2x, cos x - x),
    v0 = R(0.3) e_1 the eigenvector of B(0) for -4 and v1 = R(0.8) e_2 the
    eigenvector of B(1) for 6; g0 = u(0), g1 = u(1).  Off the endpoints the
    layer terms are not homogeneous solutions, and f = -eps u'' + B u'
    carries the bounded remainders -(4/eps) e^{-4x/eps} (B + 4I) v0 and
    (6/eps) e^{-6(1-x)/eps} (B - 6I) v1.  These are written without
    cancellation, (B + 4I) v0 = R(t) (-x cos(x/2), -(9+x^2) sin(x/2)) and
    (B - 6I) v1 = R(t) ((10+x) sin(p), -(1-x^2) cos(p)) with p = (1-x)/2,
    independently of the derivative formulas, so the residual self-check at
    10^3 points (800 spread over [0, 1], 100 inside each layer) catches a
    slip in either.
    """
    check_eps(eps)
    v0 = np.array([math.cos(0.3), math.sin(0.3)])
    v1 = np.array([-math.sin(0.8), math.cos(0.8)])

    def b_fn(x: np.ndarray) -> np.ndarray:
        c, s = np.cos(0.3 + 0.5 * x), np.sin(0.3 + 0.5 * x)
        lo, hi = -(4.0 + x), 5.0 + x * x
        out = np.empty(x.shape + (2, 2))
        out[:, 0, 0] = lo * c * c + hi * s * s
        out[:, 1, 1] = lo * s * s + hi * c * c
        out[:, 0, 1] = out[:, 1, 0] = (lo - hi) * c * s
        return out

    def layers(x: np.ndarray):
        return np.exp(-4.0 * x / eps)[:, None], np.exp(-6.0 * (1.0 - x) / eps)[:, None]

    def u(x: np.ndarray) -> np.ndarray:
        e0, e1 = layers(x)
        smooth = np.stack([1.0 + np.sin(2.0 * x), np.cos(x) - x], axis=1)
        return smooth + v0 * e0 + v1 * e1

    def smooth_derivative(x: np.ndarray, order: int) -> np.ndarray:
        if order == 1:
            return np.stack([2.0 * np.cos(2.0 * x), -np.sin(x) - 1.0], axis=1)
        return np.stack([-4.0 * np.sin(2.0 * x), -np.cos(x)], axis=1)

    def du(x: np.ndarray, order: int) -> np.ndarray:
        e0, e1 = layers(x)
        r0, r1 = 4.0 / eps, 6.0 / eps
        if order == 1:
            return smooth_derivative(x, 1) - r0 * v0 * e0 + r1 * v1 * e1
        return smooth_derivative(x, 2) + r0 * r0 * v0 * e0 + r1 * r1 * v1 * e1

    def f_fn(x: np.ndarray) -> np.ndarray:
        e0, e1 = layers(x)
        t = 0.3 + 0.5 * x
        p = 0.5 * (1.0 - x)
        fit0 = _rotate(t, -x * np.cos(0.5 * x), -(9.0 + x * x) * np.sin(0.5 * x))
        fit1 = _rotate(t, (10.0 + x) * np.sin(p), -(1.0 - x * x) * np.cos(p))
        smooth = -eps * smooth_derivative(x, 2) + np.einsum(
            "nij,nj->ni", b_fn(x), smooth_derivative(x, 1)
        )
        return smooth - (4.0 / eps) * e0 * fit0 + (6.0 / eps) * e1 * fit1

    width = min(1.0, 2.0 * eps)
    inner = np.linspace(0.0, width, 100)
    xs = np.concatenate([np.linspace(0.0, 1.0, 800), inner, 1.0 - inner])
    bx = b_fn(xs)
    up = du(xs, 1)
    upp = du(xs, 2)
    resid = -eps * upp + np.einsum("nij,nj->ni", bx, up) - f_fn(xs)
    scale = 1.0 + np.einsum("nij,nj->ni", np.abs(bx), np.abs(up)) + eps * np.abs(upp)
    _self_check(resid, scale, eps)

    problem = SystemProblem(
        m=2,
        eps=(eps, eps),
        kind="strongly-coupled-cd",
        b=coefficient(b_fn, (2, 2)),
        a=coefficient(np.zeros((2, 2)), (2, 2)),
        f=coefficient(f_fn, (2,)),
        g0=u(np.zeros(1))[0],
        g1=u(np.ones(1))[0],
        label=f"strongly-coupled-variable(eps={eps:g})",
    )
    ref = ReferenceSolution(
        kind="exact", evaluator=u, derivative_fn=du, label=problem.label
    )
    return problem, ref


def _lazy_oracle(problem: SystemProblem, n_ref: int, scheme: str, mesh_factory):
    """Fine-mesh solve, materialized on first evaluation and cached."""
    lock = threading.Lock()
    cache: dict = {}

    def ensure():
        with lock:
            if "x" not in cache:
                from .schemes import discrete_solve

                mesh = mesh_factory(n_ref)
                cache["x"] = mesh.points
                cache["u"] = discrete_solve(problem, mesh, scheme).values
        return cache["x"], cache["u"]

    def evaluator(x: np.ndarray) -> np.ndarray:
        nodes, vals = ensure()
        return np.stack(
            [np.interp(x, nodes, vals[:, i]) for i in range(problem.m)], axis=1
        )

    return evaluator


_PROBLEM_KEYS = ("m", "eps", "kind", "a", "f", "b", "g0", "g1", "label")


def _is_number(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _vector(name: str, value, m: int) -> np.ndarray:
    """A JSON list of m numbers as an array; anything else is a TypeError,
    so a scalar cannot broadcast and a string cannot parse as a number."""
    if not (isinstance(value, (list, tuple)) and len(value) == m
            and all(map(_is_number, value))):
        raise TypeError(f"{name} must be a list of {m} numbers, got {value!r}")
    return np.array(value, dtype=float)


def _matrix(name: str, value, m: int) -> np.ndarray:
    """A JSON m x m list of lists of numbers as an array (see _vector)."""
    if not (isinstance(value, (list, tuple)) and len(value) == m and all(
        isinstance(row, (list, tuple)) and len(row) == m and all(map(_is_number, row))
        for row in value
    )):
        raise TypeError(f"{name} must be {m} lists of {m} numbers, got {value!r}")
    return np.array(value, dtype=float)


def problem_from_dict(data: dict) -> SystemProblem:
    """Constant-coefficient SystemProblem from a JSON-style dict.

    Expected keys: m (an integer), eps (a list of numbers), kind, a (m
    lists of m numbers), f (a list of m numbers); optional b (m lists of m
    numbers, or null), g0 and g1 (lists of m numbers), label.  A scalar or
    a string in place of a list is an error, not broadcast or parsed, and
    so is any other key, so a misspelt key cannot be dropped unread.
    Function coefficients are not representable in JSON and must be built
    through the API instead.
    """
    if not isinstance(data, dict):
        raise ValueError(f"problem must be a JSON object, got {type(data).__name__}")
    if unknown := sorted(set(data) - set(_PROBLEM_KEYS)):
        raise ValueError(f"unknown problem keys: {', '.join(unknown)}; "
                         f"known: {', '.join(_PROBLEM_KEYS)}")
    try:
        m, eps = data["m"], data["eps"]
        if isinstance(m, (bool, str)) or not float(m).is_integer():
            raise TypeError(f"m must be an integer, got {m!r}")
        if not isinstance(eps, (list, tuple)) or not all(map(_is_number, eps)):
            raise TypeError(f"eps must be a list of numbers, got {eps!r}")
        m = int(m)
        eps = tuple(float(e) for e in eps)
        kind = str(data["kind"])
        a = coefficient(_matrix("a", data["a"], m), (m, m))
        f = coefficient(_vector("f", data["f"], m), (m,))
        b_raw = data.get("b")
        b = None if b_raw is None else coefficient(_matrix("b", b_raw, m), (m, m))
        g0 = _vector("g0", data.get("g0", [0.0] * m), m)
        g1 = _vector("g1", data.get("g1", [0.0] * m), m)
    except KeyError as exc:
        raise ValueError(f"problem dict missing key {exc.args[0]!r}") from exc
    except TypeError as exc:
        raise ValueError(f"malformed problem dict: {exc}") from exc
    return SystemProblem(
        m=m,
        eps=eps,
        kind=kind,
        a=a,
        f=f,
        b=b,
        g0=g0,
        g1=g1,
        label=str(data.get("label", "json-problem")),
    )


def oracle_reference(
    problem: SystemProblem,
    n_ref: int,
    scheme: str,
    mesh_factory,
    mesh_label: str | None = None,
) -> ReferenceSolution:
    """Fine-mesh oracle from an explicit recipe (lazy, cached, thread-safe).

    mesh_factory maps a cell count to the mesh the oracle is solved on.
    """
    if n_ref < 2:
        raise ValueError(f"n_ref must be at least 2, got {n_ref}")
    return ReferenceSolution(
        kind="oracle",
        evaluator=_lazy_oracle(problem, n_ref, scheme, mesh_factory),
        n_ref=n_ref,
        mesh_label=mesh_label,
        label=problem.label,
    )


def _oracle_system(
    kind: str, eps: tuple[float, ...], n_ref: int, scheme: str, convection: float | None,
    ends: int,
) -> tuple[SystemProblem, ReferenceSolution]:
    """The m = len(eps) system of `kind` with the eps sorted ascending,
    reaction matrix A (diagonal 2, off-diagonal -1/(2m)), source 1 and
    convection None or convection*I.  Its reference is a fine-mesh oracle:
    `scheme` on the multi-scale piecewise-uniform mesh of its default
    envelope, solved lazily at n_ref rounded up to a multiple of ends*(m+1),
    the cell counts system_shishkin accepts for layers at `ends` ends.  The
    oracle is solved only on first evaluation, so an eps or n_ref it could
    not be solved with is refused here."""
    eps_sorted = tuple(sorted(float(e) for e in eps))
    m = len(eps_sorted)
    if m == 0:
        raise ValueError(f"the {kind} builtin needs at least one eps value")
    per = ends * (m + 1)
    if n_ref <= per:  # rounds to `per` cells; system_shishkin needs 2 * per
        raise ValueError(
            f"the {kind} builtin with m = {m} needs n_ref >= {per + 1} (its oracle "
            f"mesh takes a multiple of {per}, at least {2 * per} cells), got {n_ref}"
        )
    a = np.full((m, m), -1.0 / (2.0 * m))
    np.fill_diagonal(a, 2.0)
    b = None if convection is None else coefficient(np.diag(np.full(m, convection)), (m, m))
    problem = SystemProblem(
        m=m, eps=eps_sorted, kind=kind, a=coefficient(a, (m, m)),
        f=coefficient(np.ones(m), (m,)), b=b,
        label=f"{kind}(m={m},eps={','.join(f'{e:g}' for e in eps_sorted)})",
    )
    n_ref = ((n_ref + per - 1) // per) * per
    ref = oracle_reference(problem, n_ref, scheme,
                           lambda n: system_shishkin(default_envelope(problem), n),
                           mesh_label="system_shishkin(default_envelope)")
    return problem, ref


def builtin_reaction_diffusion_system(
    eps: tuple[float, ...] = (1e-6, 1e-3),
    n_ref: int = 12288,
) -> tuple[SystemProblem, ReferenceSolution]:
    """Coupled reaction-diffusion system -eps_i^2 u_i'' + (A u)_i = 1, one
    component per eps value.

    A has diagonal 2 and off-diagonal -1/(2m), which keeps the comparison
    matrix inverse-monotone for every m.  The reference is a fine-mesh
    oracle: central scheme on a multi-scale piecewise-uniform mesh refined
    toward both endpoints, solved lazily at n_ref cells.
    """
    return _oracle_system("reaction-diffusion", eps, n_ref, "central", None, ends=2)


def builtin_weakly_coupled_cd(
    eps: tuple[float, ...] = (1e-6, 1e-3),
    n_ref: int = 12288,
) -> tuple[SystemProblem, ReferenceSolution]:
    """Convection-diffusion system coupled only through the reaction matrix.

    -eps_i u_i'' - u_i' + (A u)_i = 1, one component per eps value, with the
    same well-conditioned A as the reaction-diffusion builtin; every
    component has a layer at x = 0 of width eps_i.  Reference: upwind
    fine-mesh oracle on the multi-scale mesh.
    """
    return _oracle_system("weakly-coupled-cd", eps, n_ref, "simple-upwind", -1.0, ends=1)
