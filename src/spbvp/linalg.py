"""Block tridiagonal storage and its direct solver.

Every discretization assembles a ``BlockTridiag`` and solves it with
``block_thomas``, a block cyclic reduction.  A ``BlockTridiag`` holds one
system, with (n, m, m) block diagonals, or a stack of k systems of equal n
and m, with (k, n, m, m) diagonals; ``stack`` builds one.  The reduction
eliminates every system of a stack independently, so k systems share each
numpy call and each still rounds as it does alone.  The kernel always works
on a stack: a single system enters as a stack of one, which is a view of
its arrays, not a copy.

Every array of a solve is stored node-axis-last: an assembled operator's
(n, m, m) block diagonals are transposed views of (m, m, n) memory, and
its (n, m) right-hand side, the solution and every ``matvec`` product are
views of (m, n) memory, so every block or vector entry is one contiguous
vector over the nodes.  ``matvec`` and the solver run over those vectors
and return node-last views; ``stack`` keeps its members' layout.  Other
layouts are accepted: the kernel copies an operator or right-hand side
node-last once, at entry, and ``matvec`` its vector.  For m = 1 both
layouts are the same memory.

The reduction runs component-major at every level and every block size:
each level works on (k, m, m, rows) views of its blocks, in which each of
the m*m block entries is one vector over the rows.  The pivot blocks are
inverted together by a vectorized Gauss-Jordan elimination (a reciprocal
for 1x1 blocks), and a block product is a sum of products of these vectors:

- at a level of fewer than ``_WIDE`` rows, or of 1x1 blocks, the products
  are elementwise and added in a fixed order, each term one numpy call over
  every row of every system, so each element rounds the same whatever the
  row count, the stack or the memory layout;
- at a wider level of m >= 2 blocks, each system's product is one
  ``einsum`` pass, which allocates no temporary per term.  Its operands
  are contiguous component vectors or every other row of them, on which it
  rounds exactly as the elementwise sums do (the test suite pins this).
  The first level reads a node-last operator and right-hand side in place.

So a system rounds alike in every layout and in every stack, also one
padded past ``_WIDE`` rows with identity blocks.

The reduction is factored once per call and applied twice, the second time
as one pass of iterative refinement.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SingularMatrixError", "BlockTridiag", "block_thomas", "stack"]


class SingularMatrixError(RuntimeError):
    """A pivot block of the elimination is singular."""


@dataclass(frozen=True)
class BlockTridiag:
    """Block tridiagonal matrix with n diagonal blocks of size m x m, or a
    stack of k such matrices along a leading axis.

    ``sub[..., i, :, :]`` couples block row i+1 to block column i,
    ``sup[..., i, :, :]`` couples block row i to block column i+1.  ``n`` and
    ``m`` are the block count and block size of each system.  The fields are
    the float arrays checked here; any memory layout is accepted, and an
    assembled operator's are views of node-axis-last memory.
    """

    sub: np.ndarray  # (n-1, m, m) or (k, n-1, m, m)
    diag: np.ndarray  # (n, m, m) or (k, n, m, m)
    sup: np.ndarray  # (n-1, m, m) or (k, n-1, m, m)

    def __post_init__(self) -> None:
        d = np.asarray(self.diag, dtype=float)
        if d.ndim not in (3, 4) or d.shape[-1] != d.shape[-2]:
            raise ValueError(f"diag must be (n, m, m) or (k, n, m, m), got {d.shape}")
        *k, n, m, _ = d.shape
        if n < 1:
            raise ValueError("BlockTridiag needs at least one block row")
        object.__setattr__(self, "diag", d)
        for name in ("sub", "sup"):
            a = np.asarray(getattr(self, name), dtype=float)
            if a.shape != (*k, n - 1, m, m):
                raise ValueError(f"{name} must be {(*k, n - 1, m, m)}, got {a.shape}")
            object.__setattr__(self, name, a)

    @property
    def n(self) -> int:
        return self.diag.shape[-3]

    @property
    def m(self) -> int:
        return self.diag.shape[-1]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        want = self.diag.shape[:-1]
        if v.shape != want:
            raise ValueError(f"vector must be {want}, got {v.shape}")
        # blocks.swapaxes(-3, -1)[..., j, i, r] is entry (i, j) of block r, so
        # each product runs over the contiguous node vectors of a node-last
        # operator and vector and allocates nothing block-sized
        vt = np.ascontiguousarray(v.swapaxes(-1, -2))  # (..., m, n)
        out = np.einsum("...jir,...jr->...ir", self.diag.swapaxes(-3, -1), vt, order="C")
        out[..., 1:] += np.einsum("...jir,...jr->...ir", self.sub.swapaxes(-3, -1), vt[..., :-1])
        out[..., :-1] += np.einsum("...jir,...jr->...ir", self.sup.swapaxes(-3, -1), vt[..., 1:])
        return out.swapaxes(-1, -2)

    def to_dense(self) -> np.ndarray:
        n, m = self.n, self.m
        dense = np.zeros((n * m, n * m))
        for i in range(n):
            dense[i * m:(i + 1) * m, i * m:(i + 1) * m] = self.diag[i]
            if i + 1 < n:
                dense[(i + 1) * m:(i + 2) * m, i * m:(i + 1) * m] = self.sub[i]
                dense[i * m:(i + 1) * m, (i + 1) * m:(i + 2) * m] = self.sup[i]
        return dense


def stack(items):
    """Stack arrays of one shape, or BlockTridiag systems of one n and m,
    along a new leading axis.  A stack of one is a view, not a copy."""
    items = list(items)
    if not items:
        raise ValueError("stack needs at least one item")
    if isinstance(items[0], BlockTridiag):
        return BlockTridiag(*(stack(arrs) for arrs in
                              zip(*((t.sub, t.diag, t.sup) for t in items))))
    return items[0][None] if len(items) == 1 else np.stack(items)


def block_thomas(mat: BlockTridiag, rhs: np.ndarray) -> np.ndarray:
    """Solve a block tridiagonal system, or a stack of them, by block cyclic
    reduction.

    ``rhs`` is (n, m) for one system and (k, n, m) for a stack of k; the
    solution has the shape of ``rhs``, as a node-last view whatever the
    layout of ``rhs``.  The systems of a stack are eliminated
    independently, each as it would be alone, so a stacked solve
    equals its members' solves bit for bit.

    Each level eliminates the odd-numbered block rows of the current
    system: it inverts all their pivot blocks (partial pivoting inside
    each block), and the even rows form a block tridiagonal system of half
    the size.  After ceil(log2 n) levels one block is left; back
    substitution recovers the odd rows level by level (Buzbee, Golub &
    Nielson 1970; Heller 1976 proves the reduction stable for block
    diagonally dominant systems).  There is no pivoting across block rows,
    and a singular pivot block raises SingularMatrixError naming its level.

    Every level runs component-major, with block products as elementwise
    sums below ``_WIDE`` rows and as one einsum pass per system from there
    up (see the module docstring); both round alike, so a solve does not
    depend on where a level falls.

    The matrix is factored once and the factor applied twice: the second
    application is one pass of iterative refinement.  On strongly graded
    meshes cyclic reduction alone leaves a row-scaled residual near 1e-16
    but forward errors up to ~6e-9 (scalar upwind on Shishkin, N = 2^16),
    and one pass brings them back to those of sequential block elimination
    (~2e-11).
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != mat.diag.shape[:-1]:
        raise ValueError(f"rhs must be {mat.diag.shape[:-1]}, got {rhs.shape}")
    if mat.diag.ndim == 3:  # a stack of one, as views
        return block_thomas(stack([mat]), rhs[None])[0]
    factor = _factor(mat)
    x = _apply(factor, rhs)
    x -= _apply(factor, mat.matvec(x) - rhs)
    return x


def _singular(level: int) -> SingularMatrixError:
    return SingularMatrixError(f"singular pivot block at cyclic reduction level {level}")


# Levels of m >= 2 blocks with at least this many rows take each block
# product as one einsum pass per system; narrower levels, and every 1x1
# level, add elementwise products term by term over the whole stack.
# Measured on a 2-vCPU VM (numpy 2.4.6, OpenBLAS), one system's product
# takes the elementwise form 0.96-1.3x the time of einsum at 256-4096 rows
# for m = 2 and 1.2-1.7x for m = 3, but 3.4-4.9x from 16384 rows up, where
# it pays for a fresh temporary per term.  Einsum must not run on
# the narrow levels: for m = 3 it can sum the products of a one-row block
# in another order, and a padded stack would then round a member unlike
# its solve alone.
_WIDE = 2048


def _einsum_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for (k, p, q, rows) and (k, q, r, rows) stacks of blocks, as
    sums of products of component vectors in one einsum pass per system.

    One einsum over the whole stack could sum a block's products in another
    order than a system's own einsum does when its rows are few, so each
    system gets its own call, on the arrays it would have alone.
    """
    out = np.empty((len(a), a.shape[1], b.shape[2], a.shape[3]))
    for s in range(len(a)):
        np.einsum("iqk,qjk->ijk", a[s], b[s], out=out[s])
    return out


def _elementwise_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for (k, p, q, rows) and (k, q, r, rows) stacks of blocks, as
    the products of component vectors added in the order of q, each term
    one numpy call over every row of every system: an element rounds the
    same whatever the row count, the stack or the memory layout."""
    if a.shape[2] == 1:  # 1x1 blocks, or a column of them times a row
        return a * b
    out = a[:, :, 0, None] * b[:, None, 0]
    for j in range(1, a.shape[2]):
        out += a[:, :, j, None] * b[:, None, j]
    return out


def _product(level: np.ndarray):
    """The block product of a level, read off any (k, m, q, rows) array of
    it: the level's `rows` block rows of m x m blocks."""
    m, rows = level.shape[1], level.shape[-1]
    return _einsum_product if m > 1 and rows >= _WIDE else _elementwise_product


def _cm_inv(blocks: np.ndarray) -> np.ndarray:
    """Inverses of a (k, m, m, rows) stack of blocks, by Gauss-Jordan
    elimination in place on a copy, with partial pivoting inside each block.

    Each block brings the entry of largest modulus in the pivot column to
    the pivot row (the first one of equal modulus, as LAPACK does); blocks
    pivot independently, so a row swap is a selection (np.where) over the
    blocks.  Elimination in place leaves the inverse of the row-swapped
    block, which the same swaps on its columns, in reverse order, turn into
    the inverse of the block.  For 1x1 blocks this is the reciprocal.  A
    zero pivot raises LinAlgError, as np.linalg.inv does.
    """
    inv = blocks.copy()
    a = inv.transpose(1, 2, 0, 3)  # (m, m, k, rows) view of it
    m = a.shape[0]
    swaps = []
    for j in range(m):
        for r in range(j + 1, m):
            s = np.abs(a[r, j]) > np.abs(a[j, j])
            if s.any():
                a[j], a[r] = np.where(s, a[r], a[j]), np.where(s, a[j], a[r])
                swaps.append((j, r, s))
        piv = a[j, j]
        if not piv.all():
            raise np.linalg.LinAlgError("singular pivot block")
        for c in range(m):
            if c != j:
                a[j, c] /= piv
        np.divide(1.0, piv, out=piv)
        for i in range(m):
            if i != j:
                f = a[i, j].copy()
                a[i, j] = 0.0
                a[i] -= f * a[j]
    for j, r, s in reversed(swaps):
        a[:, j], a[:, r] = np.where(s, a[:, r], a[:, j]), np.where(s, a[:, j], a[:, r])
    return inv


# Every array below is a component-major stack, (k, m, m, rows) or
# (k, m, 1, rows): the last axis runs over block rows, and a slice of it
# selects the same rows of every system.


def _factor(mat: BlockTridiag) -> tuple[list, np.ndarray]:
    """Per-level (inv, left, right, lo, up) of the reduction, and the last
    block of each system."""
    sub, diag, sup = (np.ascontiguousarray(a.transpose(0, 2, 3, 1))  # a copy unless node-last
                      for a in (mat.sub, mat.diag, mat.sup))
    levels = []
    try:
        while (rows := diag.shape[-1]) > 1:
            mul = _product(diag)
            ko = rows // 2  # odd rows
            nr = (rows - 1) // 2  # odd rows with a right neighbour
            inv = _cm_inv(diag[..., 1::2])
            # x_{2t+1} = inv_t rhs_{2t+1} - left_t x_{2t} - right_t x_{2t+2}
            left = mul(inv, sub[..., 0::2])
            right = mul(inv[..., :nr], sup[..., 1::2])
            # even row 2s reaches odd row 2s-1 through lo[s-1], 2s+1 through up[s]
            lo, up = sub[..., 1::2], sup[..., 0::2]
            if levels:  # a view would keep this level's whole sub/sup alive
                lo, up = lo.copy(), up.copy()
            levels.append((inv, left, right, lo, up))
            diag = diag[..., 0::2].copy()
            diag[..., :ko] -= mul(up, left)
            diag[..., 1:] -= mul(lo, right)
            sub, sup = -mul(lo, left[..., :nr]), -mul(up[..., :nr], right)
    except np.linalg.LinAlgError:
        raise _singular(len(levels)) from None
    return levels, diag


def _apply(factor: tuple[list, np.ndarray], rhs: np.ndarray) -> np.ndarray:
    """Forward sweep, last-block solve and back substitution for a (k, n, m)
    stack of right-hand sides."""
    levels, last = factor
    rhs = np.ascontiguousarray(rhs.transpose(0, 2, 1))[:, :, None]  # (k, m, 1, n), as in _factor
    ys = []
    for inv, left, right, lo, up in levels:
        mul = _product(rhs)
        y = mul(inv, rhs[..., 1::2])
        ys.append(y)
        rhs = rhs[..., 0::2].copy()
        rhs[..., :left.shape[-1]] -= mul(up, y)
        rhs[..., 1:] -= mul(lo, y[..., :right.shape[-1]])
    try:
        x = np.linalg.solve(last[..., 0], rhs[..., 0])[..., None]
    except np.linalg.LinAlgError:
        raise _singular(len(levels)) from None
    for _, left, right, _, _ in reversed(levels):
        ko, nr = left.shape[-1], right.shape[-1]
        y = ys.pop()
        full = np.empty(y.shape[:-1] + (x.shape[-1] + ko,))
        mul = _product(full)
        full[..., 0::2] = x
        np.subtract(y, mul(left, x[..., :ko]), out=full[..., 1::2])
        full[..., 1:2 * nr:2] -= mul(right, x[..., 1:nr + 1])
        x = full
    return x[:, :, 0].transpose(0, 2, 1)  # node-last
