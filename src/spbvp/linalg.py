"""Block tridiagonal storage and its direct solver.

Every discretization assembles a ``BlockTridiag`` and solves it with
``block_thomas``, a block cyclic reduction in which each level is a few
batched numpy/LAPACK calls over all the block rows it eliminates.  The
reduction is factored once per call and applied twice, the second time
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
    system: one batched ``np.linalg.inv`` (LU with partial pivoting inside
    each block) inverts all their pivot blocks, and the even rows form a
    block tridiagonal system of half the size.  After ceil(log2 n) levels
    one block is left; back substitution recovers the odd rows level by
    level (Buzbee, Golub & Nielson 1970; Heller 1976 proves the reduction
    stable for block diagonally dominant systems).  There is no pivoting
    across block rows, and a singular pivot block raises
    SingularMatrixError.

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


def _factor(mat: BlockTridiag) -> tuple[list, np.ndarray]:
    """Per-level (inv, left, right, lo, up) of the reduction, and the last block."""
    sub, diag, sup = (np.asarray(a, dtype=float) for a in (mat.sub, mat.diag, mat.sup))
    levels = []
    try:
        while len(diag) > 1:
            ko = len(diag) // 2  # odd rows
            nr = (len(diag) - 1) // 2  # odd rows with a right neighbour
            inv = np.linalg.inv(diag[1::2])
            # x_{2t+1} = inv_t rhs_{2t+1} - left_t x_{2t} - right_t x_{2t+2}
            left = inv @ sub[0::2]
            right = inv[:nr] @ sup[1::2]
            # even row 2s reaches odd row 2s-1 through lo[s-1], 2s+1 through up[s]
            lo, up = sub[1::2], sup[0::2]
            if levels:  # a view would keep this level's whole sub/sup alive
                lo, up = lo.copy(), up.copy()
            levels.append((inv, left, right, lo, up))
            diag = diag[0::2].copy()
            diag[:ko] -= up @ left
            diag[1:] -= lo @ right
            sub, sup = -(lo @ left[:nr]), -(up[:nr] @ right)
    except np.linalg.LinAlgError:
        raise _singular(len(levels)) from None
    return levels, diag


def _apply(factor: tuple[list, np.ndarray], rhs: np.ndarray) -> np.ndarray:
    """Forward sweep, last-block solve and back substitution for one rhs."""
    levels, last = factor
    rhs = rhs[..., None]  # (n, m, 1): every product below is a batched matmul
    ys = []
    for inv, left, right, lo, up in levels:
        y = inv @ rhs[1::2]
        ys.append(y)
        rhs = rhs[0::2].copy()
        rhs[:len(left)] -= up @ y
        rhs[1:] -= lo @ y[:len(right)]
    try:
        x = np.linalg.solve(last, rhs)
    except np.linalg.LinAlgError:
        raise _singular(len(levels)) from None
    for (_, left, right, _, _), y in zip(reversed(levels), reversed(ys)):
        ko, nr = len(left), len(right)
        full = np.empty((len(x) + ko,) + x.shape[1:])
        full[0::2] = x
        full[1::2] = y - left @ x[:ko]
        full[1:2 * nr:2] -= right @ x[1:nr + 1]
        x = full
    return x[..., 0]
