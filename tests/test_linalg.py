"""The block tridiagonal solver, checked against numpy oracles and
hand-computed anchors: scalar systems (1x1 blocks), single dense pivot
blocks (n = 1) and general block systems."""

import numpy as np
import pytest

from spbvp.linalg import BlockTridiag, SingularMatrixError, block_thomas


def random_tridiag(rng, n):
    lower = rng.uniform(-1.0, 1.0, n - 1)
    upper = rng.uniform(-1.0, 1.0, n - 1)
    diag = rng.uniform(2.5, 4.0, n) * rng.choice([-1.0, 1.0], n)
    return lower, diag, upper


def tridiag_dense(lower, diag, upper):
    a = np.diag(diag)
    a += np.diag(lower, -1) + np.diag(upper, 1)
    return a


def thomas(lower, diag, upper, rhs):
    """Scalar tridiagonal solve through block_thomas with 1x1 blocks."""
    mat = BlockTridiag(
        sub=np.reshape(lower, (-1, 1, 1)),
        diag=np.reshape(diag, (-1, 1, 1)),
        sup=np.reshape(upper, (-1, 1, 1)),
    )
    return block_thomas(mat, np.reshape(rhs, (-1, 1))).ravel()


def dense_lu_solve(a, b):
    """One dense pivot block (n = 1) through block_thomas."""
    a = np.asarray(a, dtype=float)
    empty = np.zeros((0,) + a.shape)
    mat = BlockTridiag(sub=empty, diag=a[None], sup=empty)
    return block_thomas(mat, np.asarray(b, dtype=float)[None])[0]


# ---------------------------------------------------------------------------
# scalar systems (1x1 blocks)
# ---------------------------------------------------------------------------


def test_thomas_2x2_by_hand():
    # [[2, 1], [1, 3]] x = [3, 5] -> x = [4/5, 7/5]
    x = thomas(np.array([1.0]), np.array([2.0, 3.0]), np.array([1.0]), np.array([3.0, 5.0]))
    assert np.allclose(x, [0.8, 1.4], rtol=1e-15)


def test_thomas_identity():
    rhs = np.array([1.0, -2.0, 3.0])
    x = thomas(np.zeros(2), np.ones(3), np.zeros(2), rhs)
    assert np.array_equal(x, rhs)


def test_thomas_matches_dense_solver_randomized():
    rng = np.random.default_rng(42)
    for _ in range(300):
        n = int(rng.integers(2, 40))
        lower, diag, upper = random_tridiag(rng, n)
        rhs = rng.uniform(-1.0, 1.0, n)
        x = thomas(lower, diag, upper, rhs)
        ref = np.linalg.solve(tridiag_dense(lower, diag, upper), rhs)
        assert np.allclose(x, ref, rtol=1e-10, atol=1e-12)


def test_thomas_singular_pivot_raises():
    # row 1 is eliminated first and its pivot is zero
    with pytest.raises(SingularMatrixError):
        thomas(np.array([1.0]), np.array([1.0, 0.0]), np.array([1.0]), np.array([1.0, 1.0]))


def test_thomas_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        thomas(np.zeros(2), np.ones(3), np.zeros(2), np.ones(4))


# ---------------------------------------------------------------------------
# block Thomas
# ---------------------------------------------------------------------------


def random_block_system(rng, n, m):
    sub = rng.uniform(-1.0, 1.0, (n - 1, m, m))
    sup = rng.uniform(-1.0, 1.0, (n - 1, m, m))
    diag = rng.uniform(-1.0, 1.0, (n, m, m))
    diag += (2.0 * m + 2.0) * np.eye(m)  # block diagonal dominance
    return BlockTridiag(sub=sub, diag=diag, sup=sup)


def test_block_thomas_matches_dense_randomized():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 14))
        m = int(rng.integers(1, 5))
        mat = random_block_system(rng, n, m)
        rhs = rng.uniform(-1.0, 1.0, (n, m))
        x = block_thomas(mat, rhs)
        ref = np.linalg.solve(mat.to_dense(), rhs.ravel()).reshape(n, m)
        assert np.allclose(x, ref, rtol=1e-9, atol=1e-11)


def test_block_matvec_consistent_with_dense():
    rng = np.random.default_rng(3)
    mat = random_block_system(rng, 6, 3)
    v = rng.uniform(-1.0, 1.0, (6, 3))
    assert np.allclose(mat.matvec(v).ravel(), mat.to_dense() @ v.ravel(), rtol=1e-14)


def test_block_shape_validation():
    with pytest.raises(ValueError):
        BlockTridiag(sub=np.zeros((2, 2, 2)), diag=np.zeros((2, 2, 2)), sup=np.zeros((1, 2, 2)))


def test_block_singular_diagonal_raises():
    mat = BlockTridiag(sub=np.zeros((1, 2, 2)), diag=np.zeros((2, 2, 2)), sup=np.zeros((1, 2, 2)))
    with pytest.raises(SingularMatrixError):
        block_thomas(mat, np.ones((2, 2)))


# ---------------------------------------------------------------------------
# one dense pivot block (n = 1)
# ---------------------------------------------------------------------------


def test_dense_lu_randomized():
    rng = np.random.default_rng(19)
    for _ in range(300):
        n = int(rng.integers(1, 12))
        a = rng.uniform(-1.0, 1.0, (n, n)) + n * np.eye(n)
        b = rng.uniform(-1.0, 1.0, n)
        assert np.allclose(dense_lu_solve(a, b), np.linalg.solve(a, b), rtol=1e-9, atol=1e-12)


def test_dense_lu_needs_pivoting():
    # zero in the (0,0) entry; unpivoted elimination would divide by zero
    a = np.array([[0.0, 1.0], [1.0, 1.0]])
    assert np.allclose(dense_lu_solve(a, np.array([1.0, 2.0])), [1.0, 1.0], rtol=1e-14)
    # the same block as an odd pivot of a 3-block system, eliminated first
    mat = BlockTridiag(
        sub=np.full((2, 2, 2), 0.1),
        diag=np.stack([3.0 * np.eye(2), a, 3.0 * np.eye(2)]),
        sup=np.full((2, 2, 2), 0.1),
    )
    rhs = np.arange(6.0).reshape(3, 2)
    ref = np.linalg.solve(mat.to_dense(), rhs.ravel()).reshape(3, 2)
    assert np.allclose(block_thomas(mat, rhs), ref, rtol=1e-13, atol=1e-14)


def test_dense_singular_raises():
    with pytest.raises(SingularMatrixError):
        dense_lu_solve(np.ones((3, 3)), np.ones(3))
