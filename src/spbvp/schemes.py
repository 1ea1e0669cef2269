"""Finite-difference and linear finite-element discretizations.

Assembles block-tridiagonal operators for coupled singularly perturbed
two-point BVPs on arbitrary meshes: simple and midpoint upwinding and a
fitted (coth-factor) scheme for convection-diffusion, the central second
difference for reaction-diffusion, and a linear Galerkin FEM for both.
Each assembler adds only interior terms; ``assemble_many`` writes the
boundary rows of every scheme: identity blocks carrying the Dirichlet data.

Assembly runs on stacks of cells: ``assemble_many`` builds the operators of
k cells of one size (the eps cells of one N) with every array carrying a
leading cell axis, so each numpy call serves all k cells, and ``assemble``
is ``assemble_many`` of one cell.  Every block diagonal is allocated and
written node-axis-last, (k, m, m, rows), so each numpy call of the assembly
and of the residual guard runs over contiguous node vectors; coefficients
evaluated as (k, rows, m, m) are added through transposed views.  Each
cell's ``BlockTridiag`` carries (rows, m, m) views of its slice of that
memory.  Likewise ``solve_many`` solves and guards stacks of operators, and
``solve`` is ``solve_many`` of one.
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
    "assemble_many",
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


def _at(problems, name: str, x: np.ndarray) -> np.ndarray:
    """Coefficient `name` of every cell at that cell's points x[c], stacked
    (k, points, ...).  Constant coefficients stay a broadcast view of their
    values, as for one cell: einsum rounds some sums of products on
    materialized copies differently."""
    coefs = [getattr(p, name) for p in problems]
    if all(c.is_constant for c in coefs):
        values = np.array([c.constant for c in coefs])
        lead = (len(coefs),) + (1,) * (x.ndim - 1)
        return np.broadcast_to(values.reshape(lead + values.shape[1:]),
                               x.shape + values.shape[1:])
    return stack([c(xc) for c, xc in zip(coefs, x)])


def _each(problems, name: str) -> np.ndarray:
    """Array attribute `name` (eps, diffusion, g0, g1) of every cell, (k, m)."""
    return np.array([getattr(p, name) for p in problems])


def _component_diagonals(blocks: np.ndarray) -> np.ndarray:
    """Writable (k, m, rows) view of the diagonals of contiguous (k, m, m, rows) blocks."""
    k, m = blocks.shape[:2]
    return blocks.reshape(k, m * m, -1)[:, ::m + 1]


def _add_second_difference(sub, diag, sup, hl, hr, d):
    """Accumulate -d_k * D+D- u_k into the interior rows (component diagonal)."""
    s = hl + hr
    c2m = (2.0 / (hl * s))[:, None]
    c2p = (2.0 / (hr * s))[:, None]
    d = d[:, :, None]
    _component_diagonals(sub)[..., :-1] += -d * c2m
    _component_diagonals(diag)[..., 1:-1] += d * (c2m + c2p)
    _component_diagonals(sup)[..., 1:] += -d * c2p


def _warn_on_sign_change(bkk: np.ndarray) -> None:
    """Warn, cell by cell and component by component, where a (k, rows, m)
    convection diagonal changes sign."""
    for cell in bkk:
        for k in range(cell.shape[1]):
            col = cell[:, k]
            if np.any(col > 0.0) and np.any(col < 0.0):
                warnings.warn(
                    f"convection coefficient of component {k} changes sign on the "
                    "mesh; upwinding per node",
                    stacklevel=3,
                )


def _assemble_finite_difference(problems, x, h, sub, diag, sup, rhs):
    """Second difference, convection (if any) upwinded entry by entry,
    nodal reaction and source: without convection, the central scheme."""
    hl, hr = h[:, :-1], h[:, 1:]
    _add_second_difference(sub, diag, sup, hl, hr, _each(problems, "diffusion"))
    xi = x[:, 1:-1]
    if problems[0].b is not None:
        b_vals = _at(problems, "b", xi)
        idx = np.arange(problems[0].m)
        _warn_on_sign_change(b_vals[:, :, idx, idx])
        # every entry upwinded by its own sign: D- where positive, D+ where
        # negative (reduces to the diagonal rule for weakly coupled systems)
        b_vals = b_vals.transpose(0, 2, 3, 1)
        bp = np.maximum(b_vals, 0.0)
        bm = np.minimum(b_vals, 0.0)
        hl, hr = hl[:, None, None], hr[:, None, None]
        sub[..., :-1] += -bp / hl
        diag[..., 1:-1] += bp / hl - bm / hr
        sup[..., 1:] += bm / hr
    diag[..., 1:-1] += _at(problems, "a", xi).transpose(0, 2, 3, 1)
    rhs[:, 1:-1] = _at(problems, "f", xi)


def _assemble_midpoint_upwind(problems, x, h, sub, diag, sup, rhs):
    hl, hr = h[:, :-1], h[:, 1:]
    _add_second_difference(sub, diag, sup, hl, hr, _each(problems, "diffusion"))
    idx = np.arange(problems[0].m)
    bkk = _at(problems, "b", x[:, 1:-1])[:, :, idx, idx]  # (k, N-1, m)
    _warn_on_sign_change(bkk)
    xl = 0.5 * (x[:, :-2] + x[:, 1:-1])  # x_{i-1/2}
    xr = 0.5 * (x[:, 1:-1] + x[:, 2:])  # x_{i+1/2}
    bl = _at(problems, "b", xl)[:, :, idx, idx]
    br = _at(problems, "b", xr)[:, :, idx, idx]
    al, ar = _at(problems, "a", xl), _at(problems, "a", xr)
    fl, fr = _at(problems, "f", xl), _at(problems, "f", xr)
    w = (bkk >= 0.0).astype(float)  # 1 -> backward cell, 0 -> forward cell
    rhs[:, 1:-1] = fl * w + fr * (1.0 - w)
    bl, br, w = (v.transpose(0, 2, 1) for v in (bl, br, w))  # (k, m, N-1)
    hl, hr = hl[:, None], hr[:, None]
    _component_diagonals(sub)[..., :-1] += -bl / hl * w
    _component_diagonals(diag)[..., 1:-1] += bl / hl * w - br / hr * (1.0 - w)
    _component_diagonals(sup)[..., 1:] += br / hr * (1.0 - w)
    # reaction and source live at the same midpoint as the convection, with
    # the unknown averaged over that cell; row k is upwinded by w[k]
    al, ar, wr = al.transpose(0, 2, 3, 1), ar.transpose(0, 2, 3, 1), w[:, :, None, :]
    sub[..., :-1] += 0.5 * al * wr
    diag[..., 1:-1] += 0.5 * (al * wr + ar * (1.0 - wr))
    sup[..., 1:] += 0.5 * ar * (1.0 - wr)


_GAUSS2 = 1.0 / math.sqrt(3.0)


def _assemble_galerkin(problems, x, h, sub, diag, sup, rhs):
    """Linear-element Galerkin rows via 2-point Gauss per cell.

    Two-point Gauss is exact through cubics, hence exact for every term with
    a constant coefficient (basis products are at most quadratic); variable
    coefficients get the standard quadrature approximation.
    """
    k, n = h.shape  # n mesh cells
    m = problems[0].m

    mid = 0.5 * (x[:, :-1] + x[:, 1:])
    xg = np.stack([mid - 0.5 * h * _GAUSS2, mid + 0.5 * h * _GAUSS2], axis=-1)  # (k, n, 2)
    wq = (0.5 * h)[..., None]  # weight of each Gauss point
    phi_l = (x[:, 1:, None] - xg) / h[..., None]  # (k, n, 2)
    phi_r = (xg - x[:, :-1, None]) / h[..., None]
    xg = xg.reshape(k, 2 * n)

    a_g = _at(problems, "a", xg).reshape(k, n, 2, m, m)
    f_g = _at(problems, "f", xg).reshape(k, n, 2, m)

    # stiffness: d_k / h * [[1,-1],[-1,1]] per component
    stiff = _each(problems, "diffusion")[:, :, None] / h[:, None]  # (k, m, n)
    diag_kk = _component_diagonals(diag)
    diag_kk[..., :-1] += stiff
    diag_kk[..., 1:] += stiff
    _component_diagonals(sub)[:] += -stiff
    _component_diagonals(sup)[:] += -stiff

    # reaction mass terms: sum_g w phi_l phi_l' A(x_g)
    def mass(pl, pr):
        return np.einsum("cng,cng,cngjk->cjkn", wq * pl, pr, a_g)

    diag[..., :-1] += mass(phi_l, phi_l)
    sup[:] += mass(phi_l, phi_r)
    sub[:] += mass(phi_r, phi_l)
    diag[..., 1:] += mass(phi_r, phi_r)

    # convection: int phi_l B u' with u' cellwise constant (+-1/h per node)
    if problems[0].b is not None:
        b_g = _at(problems, "b", xg).reshape(k, n, 2, m, m)
        hb = h[:, None, None]
        int_bl = np.einsum("cng,cngjk->cjkn", wq * phi_l, b_g) / hb
        int_br = np.einsum("cng,cngjk->cjkn", wq * phi_r, b_g) / hb
        diag[..., :-1] += -int_bl
        sup[:] += int_bl
        sub[:] += -int_br
        diag[..., 1:] += int_br

    rhs[:, :-1] += np.einsum("cng,cngj->cnj", wq * phi_l, f_g)
    rhs[:, 1:] += np.einsum("cng,cngj->cnj", wq * phi_r, f_g)
    # move the boundary couplings into the rhs so the remaining matrix stays
    # symmetric when the bulk assembly is; the boundary rows themselves are
    # written by assemble_many; the strided boundary blocks are copied
    # row-major, on which the block-times-vector product rounds as it always has
    rhs[:, 1] -= (sub[..., 0].copy() @ _each(problems, "g0")[..., None])[..., 0]
    sub[..., 0] = 0.0
    rhs[:, -2] -= (sup[..., -1].copy() @ _each(problems, "g1")[..., None])[..., 0]
    sup[..., -1] = 0.0


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


def _assemble_ias(problems, x, h_all, sub, diag, sup, rhs):
    """Fitted-operator scheme on a uniform mesh.

    At each node the (symmetric) convection matrix is eigendecomposed,
    B = P diag(lambda_j) P^T, and the second difference is premultiplied by
    the fitted matrix eps * P diag(sigma_j) P^T with
    sigma_j = rho_j coth(rho_j), rho_j = lambda_j h / (2 eps).  The row is
    -eps (P diag(sigma) P^T) D+D- u + B D0 u + A u = f.
    """
    h = h_all[:, 0]
    for p, hc in zip(problems, h_all):
        if len(set(p.eps)) != 1:
            raise ValueError(
                f"the fitted scheme uses a single perturbation parameter, got {p.eps}"
            )
        if np.max(np.abs(hc - hc[0])) > 1e-12 * hc[0]:
            raise ValueError("the fitted scheme requires a uniform mesh")
    k, n = h_all.shape
    m = problems[0].m
    xi = x[:, 1:-1]
    b_vals = _at(problems, "b", xi)
    # a constant B is checked and decomposed once, not at every node
    constant = all(p.b.is_constant for p in problems)
    b_node = np.array([p.b.constant for p in problems]) if constant else b_vals
    for bc in b_node:
        asym = np.max(np.abs(bc - np.swapaxes(bc, -1, -2)))
        if asym > 1e-10:
            raise ValueError(
                f"convection matrix must be symmetric at every node "
                f"(max asymmetry {asym:.3e})"
            )

    lam, p = np.linalg.eigh(b_node)
    cell = (k,) + (1,) * (lam.ndim - 1)  # a per-cell value against lam
    eps = _each(problems, "eps")[:, 0].reshape(cell)
    sig = _fitting_factor(lam * h.reshape(cell) / (2.0 * eps))
    fitted = eps[..., None] * (p * sig[..., None, :]) @ np.swapaxes(p, -1, -2)
    if constant:
        fitted = fitted[:, None]
    fitted = np.broadcast_to(fitted, (k, n - 1, m, m)).transpose(0, 2, 3, 1)
    b_vals = b_vals.transpose(0, 2, 3, 1)

    # each product is formed once, in one buffer: numpy reuses no temporary
    # against the broadcast per-cell factors.  Subtracting f * c rounds as
    # adding (-f) * c does, and every array takes its terms in the same order
    h = h[:, None, None, None]
    term = fitted * (1.0 / (h * h))
    sub[..., :-1] -= term
    sup[..., 1:] -= term
    np.multiply(fitted, 2.0, out=term)
    term *= 1.0 / (h * h)
    diag[..., 1:-1] += term
    np.multiply(b_vals, 1.0 / (2.0 * h), out=term)
    sub[..., :-1] -= term
    sup[..., 1:] += term
    diag[..., 1:-1] += _at(problems, "a", xi).transpose(0, 2, 3, 1)
    rhs[:, 1:-1] = _at(problems, "f", xi)


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
    """Assemble the selected scheme for the problem on the mesh:
    ``assemble_many`` of one cell.

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
    return assemble_many([problem], [mesh], scheme)[0]


def assemble_many(problems, meshes, scheme: str) -> list[DiscreteOperator]:
    """Assemble the scheme for k cells at once, problems[c] on meshes[c].

    The cells must share one kind, block size m and node count: the eps
    cells of one N.  Every array of the assembly carries a leading cell
    axis, so each numpy call serves all k cells, and each cell's operator
    is the one ``assemble`` gives it alone, bit for bit: its block
    diagonals are (rows, m, m) views of that cell's (m, m, rows) slice of
    one (k, m, m, rows) allocation.  A cell the scheme refuses refuses the
    call, with that cell's message; warnings come cell by cell in order.
    """
    problems, meshes = list(problems), list(meshes)
    if scheme not in _ASSEMBLERS:
        raise ValueError(f"scheme must be one of {SCHEME_TAGS}, got {scheme!r}")
    if len(problems) != len(meshes):
        raise ValueError(f"need one mesh per problem, got {len(meshes)} for {len(problems)}")
    if not problems:
        return []
    build, kinds = _ASSEMBLERS[scheme]
    for problem in problems:
        if problem.kind not in kinds:
            raise ValueError(
                f"scheme {scheme!r} serves {', '.join(kinds)}; the problem is {problem.kind}"
            )
    k, n_nodes, m = len(problems), len(meshes[0].points), problems[0].m
    if {(p.kind, p.m, len(mesh.points)) for p, mesh in zip(problems, meshes)} != {
            (problems[0].kind, m, n_nodes)}:
        raise ValueError("the cells of one assembly must share kind, m and node count")
    # every block array is stored node-axis-last, (k, m, m, rows)
    sub, sup = np.zeros((k, m, m, n_nodes - 1)), np.zeros((k, m, m, n_nodes - 1))
    diag, rhs = np.zeros((k, m, m, n_nodes)), np.zeros((k, n_nodes, m))
    x = stack([mesh.points for mesh in meshes])
    h = stack([mesh.spacings for mesh in meshes])
    build(problems, x, h, sub, diag, sup, rhs)
    diag[..., 0] = diag[..., -1] = np.eye(m)
    sup[..., 0] = sub[..., -1] = 0.0
    rhs[:, 0], rhs[:, -1] = _each(problems, "g0"), _each(problems, "g1")
    return [
        DiscreteOperator(
            matrix=BlockTridiag(*(a[c].transpose(2, 0, 1) for a in (sub, diag, sup))),
            rhs=rhs[c], mesh=mesh, scheme_tag=scheme,
        )
        for c, mesh in enumerate(meshes)
    ]


# ---------------------------------------------------------------------------
# solving
# ---------------------------------------------------------------------------


def _row_abs_sum(blocks: np.ndarray) -> np.ndarray:
    """np.abs(blocks).sum(axis=-1) of (..., rows, m, m) blocks, added column
    by column in the same order: on 2^16 blocks of m = 2 and 3 a reduction
    over the short last axis runs 3-5x slower than these column additions.
    Each column of a node-last operator is m contiguous node vectors, and
    the sums keep that layout (numpy allocates ufunc outputs in input order)."""
    out = np.abs(blocks[..., 0])
    for j in range(1, blocks.shape[-1]):
        out += np.abs(blocks[..., j])
    return out


def _row_scale(mat: BlockTridiag) -> np.ndarray:
    """Each scalar row's coefficient norm, at least 1: the guard's divisor."""
    scale = _row_abs_sum(mat.diag)
    scale[..., 1:, :] += _row_abs_sum(mat.sub)
    scale[..., :-1, :] += _row_abs_sum(mat.sup)
    return np.maximum(scale, 1.0, out=scale)


def _tolerance(rhs: np.ndarray) -> np.ndarray:
    """The guard's bound 1e-10 * (1 + max |rhs|) of each system of a stack."""
    return 1e-10 * (1.0 + np.max(np.abs(rhs), axis=(-2, -1)))


def _stack_group(ops) -> tuple[BlockTridiag, np.ndarray]:
    """One stack of operators of one m, and its right-hand sides.

    Operators of one size stack as they are (a stack of one is a view).
    Operators of several sizes are padded to the longest: the stack is
    allocated once, node-axis-last, and each member's extra rows are
    identity rows with zero couplings and a zero rhs, which no elimination
    step couples to the member's own rows."""
    rows = max(op.n_nodes for op in ops)
    if all(op.n_nodes == rows for op in ops):
        return stack(op.matrix for op in ops), stack(op.rhs for op in ops)
    k, m = len(ops), ops[0].m
    diag, sub, sup = (np.zeros((k, m, m, n)).transpose(0, 3, 1, 2)  # node-last
                      for n in (rows, rows - 1, rows - 1))
    diag[:] = np.eye(m)
    rhs = np.zeros((k, rows, m))
    for c, op in enumerate(ops):
        n = op.n_nodes
        diag[c, :n], sub[c, :n - 1], sup[c, :n - 1] = (
            op.matrix.diag, op.matrix.sub, op.matrix.sup)
        rhs[c, :n] = op.rhs
    return BlockTridiag(sub, diag, sup), rhs


def solve(op: DiscreteOperator) -> DiscreteSolution:
    """Block cyclic reduction (refined once inside the kernel), a row-scaled
    residual guard: ``solve_many`` of one operator."""
    return solve_many([op])[0]


def solve_many(ops) -> list[DiscreteSolution]:
    """Solve several operators in a few stacked reductions, and guard each
    solution.

    The operators of each block size m go to one ``block_thomas`` call,
    as one stack padded to the longest with identity rows, zero couplings
    and zero rhs.  Padding is bitwise: every term it adds to the
    elimination and to the matrix-vector product is a product with a zero
    coupling, a member's rows keep their places, and the kernel rounds a
    block the same whatever the row count of its level, so each member is
    eliminated exactly as it is alone.  A stack of one is a view of its
    operator, so a single solve copies nothing.  A singular pivot block in
    any system of a stack raises SingularMatrixError for the call.  The
    boundary rows are identity rows with zero couplings, so the solution
    carries the Dirichlet data exactly.

    Each solution then passes the residual guard of its own operator.  The
    residual of each scalar row is divided by that row's coefficient norm
    (at least 1): on strongly graded meshes the raw row norms reach 1e10 and
    an absolute residual would measure nothing but their size.  The scaled
    residual must stay below 1e-10 * (1 + max |rhs|).  The guard takes one
    row scale and one matrix-vector product per stack, then each member's
    maximum over its own rows, which equals its residual alone.  The solver
    does not pivot across block rows, so near-skew rows (untreated
    convection with vanishing reaction) can amplify roundoff; a member above
    its bound goes alone through up to two further refinement passes, and
    its residual is checked after every pass.  A non-finite residual fails
    at once: no refinement pass can repair it.  The first operator that
    fails its guard raises RuntimeError.
    """
    ops = list(ops)
    first: list = [None] * len(ops)
    groups: dict[int, list[int]] = {}
    for i, op in enumerate(ops):  # the operators of each m share one padded stack
        groups.setdefault(op.m, []).append(i)
    for idx in groups.values():
        mat, rhs = _stack_group([ops[i] for i in idx])
        u = block_thomas(mat, rhs)
        scaled = np.abs(mat.matvec(u) - rhs) / _row_scale(mat)
        for c, (i, tol) in enumerate(zip(idx, _tolerance(rhs))):
            n = ops[i].n_nodes
            first[i] = u[c, :n], float(np.max(scaled[c, :n])), tol
    return [
        DiscreteSolution(values=u, mesh=op.mesh, scheme_tag=op.scheme_tag, residual=residual)
        if residual <= tol else _guarded(op, u)
        for op, (u, residual, tol) in zip(ops, first)
    ]


def _guarded(op: DiscreteOperator, u: np.ndarray) -> DiscreteSolution:
    """The residual guard of ``solve_many`` on a first solution u of op
    alone, with its refinement passes."""
    mat = op.matrix
    scale = _row_scale(mat)
    tol = float(_tolerance(op.rhs))
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
