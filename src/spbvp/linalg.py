"""Block tridiagonal storage and its direct solver.

Every discretization assembles a ``BlockTridiag`` and solves it with
``block_thomas``, a block cyclic reduction.  Each level eliminates half of
the block rows left, with one of three kernels chosen by the block size m
and that level's row count:

- 1x1 blocks are scalars at every level: a pivot inverse is a reciprocal
  and a block product an elementwise ``multiply``, each one numpy call
  over all rows.  They round exactly as the 1x1 LAPACK inverse and BLAS
  product do;
- for m >= 2, a level with fewer than ``_WIDE`` rows is a few batched
  numpy/LAPACK calls over (rows, m, m) stacks, one ``inv`` or ``matmul``
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

__all__ = ["SingularMatrixError", "BlockTridiag", "block_thomas"]


class SingularMatrixError(RuntimeError):
    """A pivot block of the elimination is singular."""


@dataclass(frozen=True)
class BlockTridiag:
    """Block tridiagonal matrix with n diagonal blocks of size m x m.

    ``sub[i]`` couples block row i+1 to block column i, ``sup[i]`` couples
    block row i to block column i+1.
    """

    sub: np.ndarray  # (n-1, m, m)
    diag: np.ndarray  # (n, m, m)
    sup: np.ndarray  # (n-1, m, m)

    def __post_init__(self) -> None:
        d = np.asarray(self.diag, dtype=float)
        if d.ndim != 3 or d.shape[1] != d.shape[2]:
            raise ValueError(f"diag must be (n, m, m), got {d.shape}")
        n, m, _ = d.shape
        for name, arr in (("sub", self.sub), ("sup", self.sup)):
            a = np.asarray(arr, dtype=float)
            if a.shape != (n - 1, m, m):
                raise ValueError(f"{name} must be {(n - 1, m, m)}, got {a.shape}")

    @property
    def n(self) -> int:
        return self.diag.shape[0]

    @property
    def m(self) -> int:
        return self.diag.shape[1]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n, self.m):
            raise ValueError(f"vector must be {(self.n, self.m)}, got {v.shape}")
        out = np.einsum("nij,nj->ni", self.diag, v)
        out[1:] += np.einsum("nij,nj->ni", self.sub, v[:-1])
        out[:-1] += np.einsum("nij,nj->ni", self.sup, v[1:])
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


def block_thomas(mat: BlockTridiag, rhs: np.ndarray) -> np.ndarray:
    """Solve a block tridiagonal system by block cyclic reduction.

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
    if rhs.shape != (mat.n, mat.m):
        raise ValueError(f"rhs must be {(mat.n, mat.m)}, got {rhs.shape}")
    factor = _factor(mat)
    x = _apply(factor, rhs)
    return x - _apply(factor, mat.matvec(x) - rhs)


def _singular(level: int) -> SingularMatrixError:
    return SingularMatrixError(f"singular pivot block at cyclic reduction level {level}")


# Levels of m >= 2 blocks with at least this many rows run component-major.
# Measured on a 2-vCPU VM (numpy 2.4.6, OpenBLAS), one level's block work (an
# inverse and six products) runs component-major 1.4x as fast as the batched
# calls at 256 rows for m = 2 and 3, 3.7x and 2.7x at 1024 and 4.9x and 3.5x
# at 2048.  The threshold sits above 1025 rows all the same, so that the
# solves of N <= 1024 cells keep the batched rounding and with it their study
# outputs bit for bit.
_WIDE = 2048


def _cm(a: np.ndarray) -> np.ndarray:
    """(p, q, rows) view of a (rows, p, q) stack.  Rows more than two items
    apart (the caller's (n, m, m) arrays) are copied component-major first:
    einsum runs about 10x slower on them, and the copy costs about as much
    as one product."""
    t = a.transpose(1, 2, 0)
    return t if t.strides[-1] <= 2 * t.itemsize else t.copy()


def _cm_copy(a: np.ndarray) -> np.ndarray:
    """Copy of a (rows, p, q) stack, laid out component-major."""
    return a.transpose(1, 2, 0).copy().transpose(2, 0, 1)


def _cm_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for stacks of blocks, as sums of products of component vectors
    in one pass; the product is laid out component-major."""
    return np.einsum("iqk,qjk->ijk", _cm(a), _cm(b)).transpose(2, 0, 1)


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
    a = blocks.transpose(1, 2, 0).copy()
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
    return a.transpose(2, 0, 1)


def _reciprocal(blocks: np.ndarray) -> np.ndarray:
    """np.linalg.inv of a stack of 1x1 blocks; a zero pivot raises
    LinAlgError, as np.linalg.inv does."""
    if not blocks.all():
        raise np.linalg.LinAlgError("singular pivot block")
    return 1.0 / blocks


def _ops(rows: int, m: int):
    """Block inverse, block product and copy for a level of `rows` block
    rows of m x m blocks."""
    if m == 1:
        return _reciprocal, np.multiply, np.ndarray.copy
    if rows >= _WIDE:
        return _cm_inv, _cm_matmul, _cm_copy
    return np.linalg.inv, np.matmul, np.ndarray.copy


def _factor(mat: BlockTridiag) -> tuple[list, np.ndarray]:
    """Per-level (inv, left, right, lo, up) of the reduction, and the last block."""
    sub, diag, sup = (np.asarray(a, dtype=float) for a in (mat.sub, mat.diag, mat.sup))
    levels = []
    try:
        while len(diag) > 1:
            inv_of, mul, copy = _ops(*diag.shape[:2])
            ko = len(diag) // 2  # odd rows
            nr = (len(diag) - 1) // 2  # odd rows with a right neighbour
            inv = inv_of(diag[1::2])
            # x_{2t+1} = inv_t rhs_{2t+1} - left_t x_{2t} - right_t x_{2t+2}
            left = mul(inv, sub[0::2])
            right = mul(inv[:nr], sup[1::2])
            # even row 2s reaches odd row 2s-1 through lo[s-1], 2s+1 through up[s]
            lo, up = sub[1::2], sup[0::2]
            if levels:  # a view would keep this level's whole sub/sup alive
                lo, up = copy(lo), copy(up)
            levels.append((inv, left, right, lo, up))
            diag = copy(diag[0::2])
            diag[:ko] -= mul(up, left)
            diag[1:] -= mul(lo, right)
            sub, sup = -mul(lo, left[:nr]), -mul(up[:nr], right)
    except np.linalg.LinAlgError:
        raise _singular(len(levels)) from None
    return levels, diag


def _apply(factor: tuple[list, np.ndarray], rhs: np.ndarray) -> np.ndarray:
    """Forward sweep, last-block solve and back substitution for one rhs."""
    levels, last = factor
    rhs = rhs[..., None]  # (n, m, 1): every product below is a block product
    ys = []
    for inv, left, right, lo, up in levels:
        _, mul, copy = _ops(*rhs.shape[:2])
        y = mul(inv, rhs[1::2])
        ys.append(y)
        rhs = copy(rhs[0::2])
        rhs[:len(left)] -= mul(up, y)
        rhs[1:] -= mul(lo, y[:len(right)])
    try:
        x = np.linalg.solve(last, rhs)
    except np.linalg.LinAlgError:
        raise _singular(len(levels)) from None
    for _, left, right, _, _ in reversed(levels):
        ko, nr = len(left), len(right)
        mul = _ops(len(x) + ko, x.shape[1])[1]
        y = ys.pop()
        full = np.empty_like(y, shape=(len(x) + ko,) + y.shape[1:])  # y's layout
        full[0::2] = x
        np.subtract(y, mul(left, x[:ko]), out=full[1::2])
        full[1:2 * nr:2] -= mul(right, x[1:nr + 1])
        x = full
    return np.ascontiguousarray(x[..., 0])
