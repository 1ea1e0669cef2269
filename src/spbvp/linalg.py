"""Block tridiagonal storage and its direct solver.

Every discretization assembles a ``BlockTridiag`` and solves it with
``block_thomas``, a block cyclic reduction.  A ``BlockTridiag`` holds one
system, with (n, m, m) block diagonals, or a stack of k systems of equal n
and m, with (k, n, m, m) diagonals; ``stack`` builds one.  The reduction
eliminates every system of a stack independently, so k systems share each
numpy call and each still rounds as it does alone.  The kernel always works
on a stack: a single system enters as a stack of one, which is a view of
its arrays, not a copy.

Each level eliminates half of the block rows left, with one of three
kernels chosen by the block size m and that level's row count per system:

- 1x1 blocks are scalars at every level: a pivot inverse is a reciprocal
  and a block product an elementwise ``multiply``, each one numpy call
  over all rows.  They round exactly as the 1x1 LAPACK inverse and BLAS
  product do;
- for m >= 2, a level with fewer than ``_WIDE`` rows is a few batched
  numpy/LAPACK calls over (k, rows, m, m) stacks, one ``inv`` or ``matmul``
  per block;
- a wider level with m >= 2 works on component-major arrays, in which each
  of the m*m block entries is one contiguous vector over the rows: a block
  product is one ``einsum`` pass of sums of products of these vectors,
  and the pivot blocks are inverted together by a vectorized Gauss-Jordan
  elimination.  With m <= 3 a LAPACK/BLAS call per block is almost all
  call overhead, which these long vector operations do not pay.

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
    ``m`` are the block count and block size of each system.
    """

    sub: np.ndarray  # (n-1, m, m) or (k, n-1, m, m)
    diag: np.ndarray  # (n, m, m) or (k, n, m, m)
    sup: np.ndarray  # (n-1, m, m) or (k, n-1, m, m)

    def __post_init__(self) -> None:
        d = np.asarray(self.diag, dtype=float)
        if d.ndim not in (3, 4) or d.shape[-1] != d.shape[-2]:
            raise ValueError(f"diag must be (n, m, m) or (k, n, m, m), got {d.shape}")
        *k, n, m, _ = d.shape
        for name, arr in (("sub", self.sub), ("sup", self.sup)):
            a = np.asarray(arr, dtype=float)
            if a.shape != (*k, n - 1, m, m):
                raise ValueError(f"{name} must be {(*k, n - 1, m, m)}, got {a.shape}")

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
        out = np.einsum("...nij,...nj->...ni", self.diag, v)
        out[..., 1:, :] += np.einsum("...nij,...nj->...ni", self.sub, v[..., :-1, :])
        out[..., :-1, :] += np.einsum("...nij,...nj->...ni", self.sup, v[..., 1:, :])
        return out

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
    if isinstance(items[0], BlockTridiag):
        return BlockTridiag(*(stack(arrs) for arrs in
                              zip(*((t.sub, t.diag, t.sup) for t in items))))
    return items[0][None] if len(items) == 1 else np.stack(items)


def block_thomas(mat: BlockTridiag, rhs: np.ndarray) -> np.ndarray:
    """Solve a block tridiagonal system, or a stack of them, by block cyclic
    reduction.

    ``rhs`` is (n, m) for one system and (k, n, m) for a stack of k; the
    solution has the shape of ``rhs``.  The systems of a stack are
    eliminated independently, each as it would be alone, so a stacked solve
    equals its members' solves bit for bit.

    Each level eliminates the odd-numbered block rows of the current
    system: it inverts all their pivot blocks (partial pivoting inside
    each block), and the even rows form a block tridiagonal system of half
    the size.  After ceil(log2 n) levels one block is left; back
    substitution recovers the odd rows level by level (Buzbee, Golub &
    Nielson 1970; Heller 1976 proves the reduction stable for block
    diagonally dominant systems).  There is no pivoting across block rows,
    and a singular pivot block raises SingularMatrixError naming its level.

    1x1 blocks run elementwise at every level.  For m >= 2, levels of at
    least ``_WIDE`` block rows run component-major and the narrower ones as
    batched LAPACK/BLAS calls (see the module docstring).  The
    component-major kernel is the faster one from about 256 rows up, but
    ``_WIDE`` sits above 1025 rows, so a system of up to that size
    (N <= 1024) keeps the batched rounding bit for bit.  All three kernels
    round 1x1 blocks identically.

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
    shape = rhs.shape
    if mat.diag.ndim == 3:  # a stack of one, as views
        mat, rhs = stack([mat]), rhs[None]
    factor = _factor(mat)
    x = _apply(factor, rhs)
    x -= _apply(factor, mat.matvec(x) - rhs)
    return x.reshape(shape)


def _singular(level: int) -> SingularMatrixError:
    return SingularMatrixError(f"singular pivot block at cyclic reduction level {level}")


# Levels of m >= 2 blocks with at least this many rows run component-major.
# Measured on a 2-vCPU VM (numpy 2.4.6, OpenBLAS), one level's block work (an
# inverse and six products) runs component-major 1.4x as fast as the batched
# calls at 256 rows for m = 2 and 3, 3.7x and 2.7x at 1024 and 4.9x and 3.5x
# at 2048.  The threshold sits above 1025 rows all the same, so that the
# solves of N <= 1024 cells keep the batched rounding and with it their study
# outputs bit for bit.  The batched kernel still wins on the narrow levels:
# running every m >= 2 level component-major raised the system-studies
# benchmark's wall_s from 0.166 to 0.176 s on the same VM (medians of 4
# alternating pairs, 3 of them lost), so the row count keeps selecting the
# kernel.
_WIDE = 2048


def _cm(a: np.ndarray) -> np.ndarray:
    """(k, p, q, rows) view of a (k, rows, p, q) stack.  Rows more than two
    items apart (the operator's own block arrays) are copied component-major
    first: einsum runs about 10x slower on them, and the copy costs about as
    much as one product."""
    t = a.transpose(0, 2, 3, 1)
    return t if t.strides[-1] <= 2 * t.itemsize else t.copy()


def _cm_copy(a: np.ndarray) -> np.ndarray:
    """Copy of a (k, rows, p, q) stack, each system laid out component-major."""
    return a.transpose(0, 2, 3, 1).copy().transpose(0, 3, 1, 2)


def _cm_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for stacks of blocks, as sums of products of component vectors
    in one einsum pass per system; the product is laid out component-major.

    One einsum over the whole stack could sum a block's products in another
    order than a system's own einsum does when its rows are few, so each
    system gets its own call, on the arrays it would have alone.
    """
    a, b = _cm(a), _cm(b)
    out = np.empty((len(a), a.shape[1], b.shape[2], a.shape[3]))
    for s in range(len(a)):
        np.einsum("iqk,qjk->ijk", a[s], b[s], out=out[s])
    return out.transpose(0, 3, 1, 2)


def _cm_inv(blocks: np.ndarray) -> np.ndarray:
    """np.linalg.inv of a stack of blocks by Gauss-Jordan elimination in
    place on a component-major copy, with partial pivoting inside each block.

    Each block brings the entry of largest modulus in the pivot column to
    the pivot row (the first one of equal modulus, as LAPACK does); blocks
    pivot independently, so a row swap is a selection (np.where) over the
    blocks.  Elimination in place leaves the inverse of the row-swapped
    block, which the same swaps on its columns, in reverse order, turn into
    the inverse of the block.  A zero pivot raises LinAlgError, as
    np.linalg.inv does.
    """
    cm = np.moveaxis(blocks, -3, -1).copy()  # (..., m, m, rows) per system
    a = np.moveaxis(cm, (-3, -2), (0, 1))  # (m, m, ..., rows) view of it
    m = a.shape[0]
    swaps = []
    for j in range(m):
        for r in range(j + 1, m):
            s = np.abs(a[r, j]) > np.abs(a[j, j])
            if s.any():
                a[j], a[r] = np.where(s, a[r], a[j]), np.where(s, a[j], a[r])
                swaps.append((j, r, s))
        piv = a[j, j].copy()
        if not piv.all():
            raise np.linalg.LinAlgError("singular pivot block")
        a[j, j] = 1.0
        a[j] /= piv
        for i in range(m):
            if i != j:
                f = a[i, j].copy()
                a[i, j] = 0.0
                a[i] -= f * a[j]
    for j, r, s in reversed(swaps):
        a[:, j], a[:, r] = np.where(s, a[:, r], a[:, j]), np.where(s, a[:, j], a[:, r])
    return np.moveaxis(cm, -1, -3)


def _reciprocal(blocks: np.ndarray) -> np.ndarray:
    """np.linalg.inv of a stack of 1x1 blocks; a zero pivot raises
    LinAlgError, as np.linalg.inv does."""
    if not blocks.all():
        raise np.linalg.LinAlgError("singular pivot block")
    return 1.0 / blocks


def _ops(rows: int, m: int):
    """Block inverse, block product and copy for a level of `rows` block
    rows (per system) of m x m blocks."""
    if m == 1:
        return _reciprocal, np.multiply, np.ndarray.copy
    if rows >= _WIDE:
        return _cm_inv, _cm_matmul, _cm_copy
    return np.linalg.inv, np.matmul, np.ndarray.copy


# Every array below is a stack, (k, rows, m, m) or (k, rows, m, 1): axis 1
# runs over block rows, and a slice of it selects the same rows of every
# system.


def _factor(mat: BlockTridiag) -> tuple[list, np.ndarray]:
    """Per-level (inv, left, right, lo, up) of the reduction, and the last
    block of each system."""
    sub, diag, sup = (np.asarray(a, dtype=float) for a in (mat.sub, mat.diag, mat.sup))
    levels = []
    try:
        while (rows := diag.shape[1]) > 1:
            inv_of, mul, copy = _ops(rows, diag.shape[2])
            ko = rows // 2  # odd rows
            nr = (rows - 1) // 2  # odd rows with a right neighbour
            inv = inv_of(diag[:, 1::2])
            # x_{2t+1} = inv_t rhs_{2t+1} - left_t x_{2t} - right_t x_{2t+2}
            left = mul(inv, sub[:, 0::2])
            right = mul(inv[:, :nr], sup[:, 1::2])
            # even row 2s reaches odd row 2s-1 through lo[s-1], 2s+1 through up[s]
            lo, up = sub[:, 1::2], sup[:, 0::2]
            if levels:  # a view would keep this level's whole sub/sup alive
                lo, up = copy(lo), copy(up)
            levels.append((inv, left, right, lo, up))
            diag = copy(diag[:, 0::2])
            diag[:, :ko] -= mul(up, left)
            diag[:, 1:] -= mul(lo, right)
            sub, sup = -mul(lo, left[:, :nr]), -mul(up[:, :nr], right)
    except np.linalg.LinAlgError:
        raise _singular(len(levels)) from None
    return levels, diag


def _apply(factor: tuple[list, np.ndarray], rhs: np.ndarray) -> np.ndarray:
    """Forward sweep, last-block solve and back substitution for a (k, n, m)
    stack of right-hand sides."""
    levels, last = factor
    rhs = rhs[..., None]  # (k, n, m, 1): every product below is a block product
    ys = []
    for inv, left, right, lo, up in levels:
        _, mul, copy = _ops(*rhs.shape[1:3])
        y = mul(inv, rhs[:, 1::2])
        ys.append(y)
        rhs = copy(rhs[:, 0::2])
        rhs[:, :left.shape[1]] -= mul(up, y)
        rhs[:, 1:] -= mul(lo, y[:, :right.shape[1]])
    try:
        x = np.linalg.solve(last, rhs)
    except np.linalg.LinAlgError:
        raise _singular(len(levels)) from None
    for _, left, right, _, _ in reversed(levels):
        ko, nr = left.shape[1], right.shape[1]
        rows = x.shape[1] + ko
        mul = _ops(rows, x.shape[2])[1]
        y = ys.pop()
        full = np.empty_like(y, shape=(len(x), rows) + y.shape[2:])  # y's layout
        full[:, 0::2] = x
        np.subtract(y, mul(left, x[:, :ko]), out=full[:, 1::2])
        full[:, 1:2 * nr:2] -= mul(right, x[:, 1:nr + 1])
        x = full
    return np.ascontiguousarray(x[..., 0])
