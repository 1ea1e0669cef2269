"""Finite-difference and linear finite-element discretizations.

Assembles block-tridiagonal operators for coupled singularly perturbed
two-point BVPs on arbitrary meshes: simple and midpoint upwinding and a
fitted (coth-factor) scheme for convection-diffusion, the central second
difference for reaction-diffusion, and a linear Galerkin FEM for both.
Each assembler adds only interior terms; ``assemble`` writes the boundary
rows of every scheme: identity blocks carrying the Dirichlet data.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import BlockTridiag, block_thomas, stack
from .meshes import Mesh1D
from .problems import KINDS, ReferenceSolution, SystemProblem
from .quadrature import gauss_legendre_cells

__all__ = [
    "SCHEME_TAGS",
    "DiscreteOperator",
    "DiscreteSolution",
    "assemble",
    "apply",
    "solve",
    "solve_many",
    "discrete_solve",
    "energy_norm_error",
]

@dataclass(frozen=True)
class DiscreteOperator:
    """Assembled block-tridiagonal system with boundary identity rows."""

    matrix: BlockTridiag
    rhs: np.ndarray  # (N+1, M)
    mesh: Mesh1D
    scheme_tag: str

    @property
    def n_nodes(self) -> int:
        return self.matrix.n

    @property
    def m(self) -> int:
        return self.matrix.m


@dataclass(frozen=True)
class DiscreteSolution:
    """Nodal solution with provenance and the row-scaled solver residual."""

    values: np.ndarray  # (N+1, M)
    mesh: Mesh1D
    scheme_tag: str
    residual: float


def apply(op: DiscreteOperator, v: np.ndarray) -> np.ndarray:
    """Operator-vector product on nodal data of shape (N+1, M)."""
    return op.matrix.matvec(np.asarray(v, dtype=float))


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def _component_diagonals(blocks: np.ndarray) -> np.ndarray:
    """Writable (rows, m) view of the diagonals of contiguous (rows, m, m) blocks."""
    return blocks.reshape(len(blocks), -1)[:, ::blocks.shape[1] + 1]


def _add_second_difference(sub, diag, sup, hl, hr, d):
    """Accumulate -d_k * D+D- u_k into the interior rows (component diagonal)."""
    s = hl + hr
    c2m = 2.0 / (hl * s)
    c2p = 2.0 / (hr * s)
    _component_diagonals(sub)[:-1] += -d[None, :] * c2m[:, None]
    _component_diagonals(diag)[1:-1] += d[None, :] * (c2m + c2p)[:, None]
    _component_diagonals(sup)[1:] += -d[None, :] * c2p[:, None]


def _warn_on_sign_change(bkk: np.ndarray) -> None:
    for k in range(bkk.shape[1]):
        col = bkk[:, k]
        if np.any(col > 0.0) and np.any(col < 0.0):
            warnings.warn(
                f"convection coefficient of component {k} changes sign on the "
                "mesh; upwinding per node",
                stacklevel=3,
            )


def _assemble_finite_difference(problem, mesh, sub, diag, sup, rhs):
    """Second difference, convection (if any) upwinded entry by entry,
    nodal reaction and source: without convection, the central scheme."""
    x = mesh.points
    h = mesh.spacings
    hl, hr = h[:-1], h[1:]
    _add_second_difference(sub, diag, sup, hl, hr, problem.diffusion)
    xi = x[1:-1]
    if problem.b is not None:
        b_vals = problem.b(xi)
        idx = np.arange(problem.m)
        _warn_on_sign_change(b_vals[:, idx, idx])
        # every entry upwinded by its own sign: D- where positive, D+ where
        # negative (reduces to the diagonal rule for weakly coupled systems)
        bp = np.maximum(b_vals, 0.0)
        bm = np.minimum(b_vals, 0.0)
        sub[:-1] += -bp / hl[:, None, None]
        diag[1:-1] += bp / hl[:, None, None] - bm / hr[:, None, None]
        sup[1:] += bm / hr[:, None, None]
    diag[1:-1] += problem.a(xi)
    rhs[1:-1] = problem.f(xi)


def _assemble_midpoint_upwind(problem, mesh, sub, diag, sup, rhs):
    x = mesh.points
    m = problem.m
    h = mesh.spacings
    hl, hr = h[:-1], h[1:]
    _add_second_difference(sub, diag, sup, hl, hr, problem.diffusion)
    xi = x[1:-1]
    idx = np.arange(m)
    bkk = problem.b(xi)[:, idx, idx]  # (N-1, m)
    _warn_on_sign_change(bkk)
    xl = 0.5 * (x[:-2] + x[1:-1])  # x_{i-1/2}
    xr = 0.5 * (x[1:-1] + x[2:])  # x_{i+1/2}
    bl = problem.b(xl)[:, idx, idx]
    br = problem.b(xr)[:, idx, idx]
    al, ar = problem.a(xl), problem.a(xr)
    fl, fr = problem.f(xl), problem.f(xr)
    w = (bkk >= 0.0).astype(float)  # 1 -> backward cell, 0 -> forward cell
    for k in range(m):
        wk = w[:, k]
        sub[:-1, k, k] += -bl[:, k] / hl * wk
        diag[1:-1, k, k] += bl[:, k] / hl * wk - br[:, k] / hr * (1.0 - wk)
        sup[1:, k, k] += br[:, k] / hr * (1.0 - wk)
        # reaction and source live at the same midpoint as the convection,
        # with the unknown averaged over that cell
        sub[:-1, k, :] += 0.5 * al[:, k, :] * wk[:, None]
        diag[1:-1, k, :] += 0.5 * (al[:, k, :] * wk[:, None] + ar[:, k, :] * (1.0 - wk)[:, None])
        sup[1:, k, :] += 0.5 * ar[:, k, :] * (1.0 - wk)[:, None]
        rhs[1:-1, k] = fl[:, k] * wk + fr[:, k] * (1.0 - wk)


_GAUSS2 = 1.0 / math.sqrt(3.0)


def _assemble_galerkin(problem, mesh, sub, diag, sup, rhs):
    """Linear-element Galerkin rows via 2-point Gauss per cell.

    Two-point Gauss is exact through cubics, hence exact for every term with
    a constant coefficient (basis products are at most quadratic); variable
    coefficients get the standard quadrature approximation.
    """
    x = mesh.points
    n = len(x) - 1
    m = problem.m
    h = mesh.spacings  # (n,)

    mid = 0.5 * (x[:-1] + x[1:])
    xg = np.stack([mid - 0.5 * h * _GAUSS2, mid + 0.5 * h * _GAUSS2], axis=1)  # (n, 2)
    wq = 0.5 * h  # weight of each Gauss point
    phi_l = (x[1:, None] - xg) / h[:, None]  # (n, 2)
    phi_r = (xg - x[:-1, None]) / h[:, None]

    a_g = problem.a(xg.ravel()).reshape(n, 2, m, m)
    f_g = problem.f(xg.ravel()).reshape(n, 2, m)

    # stiffness: d_k / h * [[1,-1],[-1,1]] per component
    d = problem.diffusion
    stiff = d[None, :] / h[:, None]  # (n, m)
    diag_kk = _component_diagonals(diag)
    diag_kk[:-1] += stiff
    diag_kk[1:] += stiff
    _component_diagonals(sub)[:] += -stiff
    _component_diagonals(sup)[:] += -stiff

    # reaction mass terms: sum_g w phi_l phi_l' A(x_g)
    def mass(pl, pr):
        return np.einsum("ng,ng,ngjk->njk", wq[:, None] * pl, pr, a_g)

    diag[:-1] += mass(phi_l, phi_l)
    sup[:] += mass(phi_l, phi_r)
    sub[:] += mass(phi_r, phi_l)
    diag[1:] += mass(phi_r, phi_r)

    # convection: int phi_l B u' with u' cellwise constant (+-1/h per node)
    if problem.b is not None:
        b_g = problem.b(xg.ravel()).reshape(n, 2, m, m)
        int_bl = np.einsum("ng,ngjk->njk", wq[:, None] * phi_l, b_g) / h[:, None, None]
        int_br = np.einsum("ng,ngjk->njk", wq[:, None] * phi_r, b_g) / h[:, None, None]
        diag[:-1] += -int_bl
        sup[:] += int_bl
        sub[:] += -int_br
        diag[1:] += int_br

    load_l = np.einsum("ng,ngj->nj", wq[:, None] * phi_l, f_g)
    load_r = np.einsum("ng,ngj->nj", wq[:, None] * phi_r, f_g)
    rhs[:-1] += load_l
    rhs[1:] += load_r
    # move the boundary couplings into the rhs so the remaining matrix stays
    # symmetric when the bulk assembly is; the boundary rows themselves are
    # written by assemble
    rhs[1] -= sub[0] @ problem.g0
    sub[0] = 0.0
    rhs[-2] -= sup[-1] @ problem.g1
    sup[-1] = 0.0


def _fitting_factor(rho: np.ndarray) -> np.ndarray:
    """sigma(rho) = rho * coth(rho), even, with sigma(0) = 1.

    Below |rho| = 1e-4 the closed form loses digits to cancellation, so a
    3-term series (error < 1e-16 there) takes over.
    """
    rho = np.asarray(rho, dtype=float)
    out = np.empty_like(rho)
    small = np.abs(rho) < 1e-4
    r2 = rho[small] ** 2
    out[small] = 1.0 + r2 / 3.0 - r2 * r2 / 45.0
    rb = rho[~small]
    out[~small] = rb / np.tanh(rb)
    return out


def _assemble_ias(problem, mesh, sub, diag, sup, rhs):
    """Fitted-operator scheme on a uniform mesh.

    At each node the (symmetric) convection matrix is eigendecomposed,
    B = P diag(lambda_j) P^T, and the second difference is premultiplied by
    the fitted matrix eps * P diag(sigma_j) P^T with
    sigma_j = rho_j coth(rho_j), rho_j = lambda_j h / (2 eps).  The row is
    -eps (P diag(sigma) P^T) D+D- u + B D0 u + A u = f.
    """
    eps_set = set(problem.eps)
    if len(eps_set) != 1:
        raise ValueError(
            f"the fitted scheme uses a single perturbation parameter, got {problem.eps}"
        )
    eps = problem.eps[0]
    h_all = mesh.spacings
    h = float(h_all[0])
    if np.max(np.abs(h_all - h)) > 1e-12 * h:
        raise ValueError("the fitted scheme requires a uniform mesh")
    x = mesh.points
    n = len(x) - 1
    m = problem.m
    xi = x[1:-1]
    b_vals = problem.b(xi)
    # a constant B is checked and decomposed once, not at every node
    b_node = problem.b.constant if problem.b.is_constant else b_vals
    asym = np.max(np.abs(b_node - np.swapaxes(b_node, -1, -2)))
    if asym > 1e-10:
        raise ValueError(
            f"convection matrix must be symmetric at every node "
            f"(max asymmetry {asym:.3e})"
        )

    lam, p = np.linalg.eigh(b_node)
    sig = _fitting_factor(lam * h / (2.0 * eps))
    fitted = eps * (p * sig[..., None, :]) @ np.swapaxes(p, -1, -2)
    fitted = np.broadcast_to(fitted, (n - 1, m, m))

    inv_h2 = 1.0 / (h * h)
    sub[:-1] += -fitted * inv_h2
    diag[1:-1] += 2.0 * fitted * inv_h2
    sup[1:] += -fitted * inv_h2
    inv_2h = 1.0 / (2.0 * h)
    sub[:-1] += -b_vals * inv_2h
    sup[1:] += b_vals * inv_2h
    diag[1:-1] += problem.a(xi)
    rhs[1:-1] = problem.f(xi)


_CD = ("weakly-coupled-cd", "strongly-coupled-cd")

# Each scheme's assembler and the problem kinds it serves.  Midpoint
# upwinding is defined for diagonal convection only; central differences
# are simple upwinding of a problem without convection; galerkin-fem serves
# every kind.
_ASSEMBLERS = {
    "simple-upwind": (_assemble_finite_difference, _CD),
    "midpoint-upwind": (_assemble_midpoint_upwind, ("weakly-coupled-cd",)),
    "central": (_assemble_finite_difference, ("reaction-diffusion",)),
    "ias": (_assemble_ias, _CD),
    "galerkin-fem": (_assemble_galerkin, KINDS),
}

SCHEME_TAGS = tuple(_ASSEMBLERS)


def assemble(problem: SystemProblem, mesh: Mesh1D, scheme: str) -> DiscreteOperator:
    """Assemble the selected scheme for the problem on the mesh.

    Interior row i of the simple upwind scheme encodes
    -d_k D+D- u_k + b_kk (D- if b_kk > 0 else D+) u_k + sum_j a_kj u_j = f_k
    with every convection entry upwinded by its own sign; the midpoint
    variant moves convection, reaction and source to the upwind cell
    midpoint with the unknown averaged there; central is the same rows for
    a problem without convection (reaction-diffusion only); ias fits the second difference to the
    convection (uniform meshes only); galerkin-fem integrates linear
    elements.  The first and last rows are identity blocks with zero
    couplings that carry g0 and g1.
    """
    if scheme not in _ASSEMBLERS:
        raise ValueError(f"scheme must be one of {SCHEME_TAGS}, got {scheme!r}")
    build, kinds = _ASSEMBLERS[scheme]
    if problem.kind not in kinds:
        raise ValueError(
            f"scheme {scheme!r} serves {', '.join(kinds)}; the problem is {problem.kind}"
        )
    n_nodes, m = len(mesh.points), problem.m
    sub, sup = np.zeros((n_nodes - 1, m, m)), np.zeros((n_nodes - 1, m, m))
    diag, rhs = np.zeros((n_nodes, m, m)), np.zeros((n_nodes, m))
    build(problem, mesh, sub, diag, sup, rhs)
    diag[0] = diag[-1] = np.eye(m)
    sup[0] = sub[-1] = 0.0
    rhs[0], rhs[-1] = problem.g0, problem.g1
    matrix = BlockTridiag(sub=sub, diag=diag, sup=sup)
    return DiscreteOperator(matrix=matrix, rhs=rhs, mesh=mesh, scheme_tag=scheme)


# ---------------------------------------------------------------------------
# solving
# ---------------------------------------------------------------------------


def _row_abs_sum(blocks: np.ndarray) -> np.ndarray:
    """np.abs(blocks).sum(axis=2), added column by column in the same order:
    on 2^16 blocks of m = 2 and 3 a reduction over the short last axis runs
    3-5x slower than these column additions."""
    a = np.abs(blocks)
    out = a[:, :, 0].copy()
    for j in range(1, a.shape[2]):
        out += a[:, :, j]
    return out


def solve(op: DiscreteOperator) -> DiscreteSolution:
    """Block cyclic reduction (refined once inside the kernel), a row-scaled
    residual guard: ``solve_many`` of one operator."""
    return solve_many([op])[0]


def solve_many(ops) -> list[DiscreteSolution]:
    """Solve several operators, those of equal size in one stacked
    reduction, and guard each solution.

    The operators of each (n_nodes, m) go to one ``block_thomas`` call as a
    stack; a stack of one is a view of its operator, so a single solve
    copies nothing.  The stacked reduction solves each system as it would
    alone, so every solution is the one ``solve`` gives.  A singular pivot
    block in any system of a stack raises SingularMatrixError for the call.
    The boundary rows are identity rows with zero couplings, so the
    solution carries the Dirichlet data exactly.

    Each solution then passes the residual guard of its own operator.  The
    residual of each scalar row is divided by that row's coefficient norm
    (at least 1): on strongly graded meshes the raw row norms reach 1e10 and
    an absolute residual would measure nothing but their size.  The scaled
    residual must stay below 1e-10 * (1 + max |rhs|).  The solver does not
    pivot across block rows, so near-skew rows (untreated convection with
    vanishing reaction) can amplify roundoff; up to two further refinement
    passes restore the residual, which is checked after every pass.  A
    non-finite residual fails at once: no refinement pass can repair it.
    The first operator that fails its guard raises RuntimeError.
    """
    ops = list(ops)
    first: list = [None] * len(ops)
    groups: dict[tuple[int, int], list[int]] = {}
    for i, op in enumerate(ops):
        groups.setdefault((op.n_nodes, op.m), []).append(i)
    for idx in groups.values():
        u = block_thomas(stack(ops[i].matrix for i in idx), stack(ops[i].rhs for i in idx))
        for i, ui in zip(idx, u):
            first[i] = ui
    return [_guarded(op, u) for op, u in zip(ops, first)]


def _guarded(op: DiscreteOperator, u: np.ndarray) -> DiscreteSolution:
    """The residual guard of ``solve_many`` on a first solution u of op."""
    mat = op.matrix
    scale = _row_abs_sum(mat.diag)
    scale[1:] += _row_abs_sum(mat.sub)
    scale[:-1] += _row_abs_sum(mat.sup)
    np.maximum(scale, 1.0, out=scale)
    tol = 1e-10 * (1.0 + float(np.max(np.abs(op.rhs))))
    for passes in range(3):
        r = mat.matvec(u) - op.rhs
        residual = float(np.max(np.abs(r) / scale))
        if residual <= tol or not math.isfinite(residual) or passes == 2:
            break
        u = u - block_thomas(mat, r)
    if not residual <= tol:  # nan-proof: refuses non-finite residuals too
        raise RuntimeError(
            f"solver residual {residual:.3e} exceeds {tol:.3e} "
            f"({op.scheme_tag} on {op.mesh.label})"
        )
    return DiscreteSolution(
        values=u, mesh=op.mesh, scheme_tag=op.scheme_tag, residual=residual
    )


def discrete_solve(
    problem: SystemProblem, mesh: Mesh1D, scheme: str
) -> DiscreteSolution:
    """Assemble and solve in one call."""
    return solve(assemble(problem, mesh, scheme))


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def energy_norm_error(
    mesh: Mesh1D,
    v: np.ndarray,
    ref: ReferenceSolution,
    eps,
    order: int = 6,
) -> float:
    """Energy-norm distance between nodal data v (as a linear interpolant)
    and a reference with analytic first derivative, by per-cell Gauss."""
    if ref.derivative_fn is None:
        raise ValueError("energy-norm error needs a reference with derivatives")
    v = np.asarray(v, dtype=float)
    if v.ndim == 1:
        v = v[:, None]
    m = v.shape[1]
    eps_arr = np.broadcast_to(np.asarray(eps, dtype=float).ravel(), (m,))
    nodes, weights = gauss_legendre_cells(mesh.points, order)
    flat = nodes.ravel()
    u = ref(flat).reshape(nodes.shape + (m,))
    up = ref.derivative(flat, 1).reshape(nodes.shape + (m,))
    h = mesh.spacings[:, None]
    slope = np.diff(v, axis=0) / h  # (cells, m)
    lin = v[:-1, None, :] + (nodes - mesh.points[:-1, None])[:, :, None] * slope[:, None, :]
    diff = u - lin
    diffp = up - slope[:, None, :]
    semi = np.einsum("cg,cgk->k", weights, diffp * diffp)
    l2 = np.einsum("cg,cgk->k", weights, diff * diff)
    return float(math.sqrt(float(np.sum(eps_arr * semi + l2))))
