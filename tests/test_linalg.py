"""The block tridiagonal solver, checked against numpy oracles and
hand-computed anchors: scalar systems (1x1 blocks), single dense pivot
blocks (n = 1) and general block systems."""

import numpy as np
import pytest

from spbvp import linalg
from spbvp.harness import mesh_family, problem_family
from spbvp.linalg import BlockTridiag, SingularMatrixError, block_thomas, stack
from spbvp.problems import builtin_scalar_cd
from spbvp.schemes import assemble


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


# ---------------------------------------------------------------------------
# stacks of systems
# ---------------------------------------------------------------------------


def test_stacked_solve_bitwise_equal_to_each_system_alone():
    # k systems of one n and m share every numpy call and still round as
    # each one does alone
    rng = np.random.default_rng(53)
    for m in (1, 2, 3):
        for n in list(range(1, 41)) + [1025]:
            mats = [random_block_system(rng, n, m) for _ in range(4)]
            rhss = [rng.uniform(-1.0, 1.0, (n, m)) for _ in range(4)]
            alone = [block_thomas(mat, rhs) for mat, rhs in zip(mats, rhss)]
            for k in (1, 2, 3, 4):
                got = block_thomas(stack(mats[:k]), stack(rhss[:k]))
                assert got.shape == (k, n, m)
                for i in range(k):
                    assert np.array_equal(got[i], alone[i]), (m, n, k, i)


def test_stacked_solve_bitwise_equal_alone_with_every_level_wide(monkeypatch):
    monkeypatch.setattr(linalg, "_WIDE", 2)
    test_stacked_solve_bitwise_equal_to_each_system_alone()


def test_stack_of_one_is_a_view_and_keeps_per_system_sizes():
    rng = np.random.default_rng(59)
    mat = random_block_system(rng, 9, 2)
    one = stack([mat])
    assert one.diag.shape == (1, 9, 2, 2)
    for a, b in ((one.sub, mat.sub), (one.diag, mat.diag), (one.sup, mat.sup)):
        assert np.shares_memory(a, b)
    rhs = rng.uniform(-1.0, 1.0, (9, 2))
    assert np.shares_memory(stack([rhs]), rhs)
    pair = stack([mat, random_block_system(rng, 9, 2)])
    assert (pair.n, pair.m) == (9, 2) and pair.diag.shape == (2, 9, 2, 2)
    assert not np.shares_memory(pair.diag, mat.diag)
    v = rng.uniform(-1.0, 1.0, (2, 9, 2))
    assert np.array_equal(pair.matvec(v)[0], mat.matvec(v[0]))
    with pytest.raises(ValueError, match=r"rhs must be \(2, 9, 2\)"):
        block_thomas(pair, rhs)


def test_singular_member_fails_the_stacked_solve():
    rng = np.random.default_rng(61)
    good = random_block_system(rng, 5, 1)
    diag = good.diag.copy()
    diag[1] = 0.0  # an odd row: the first level pivots on it
    bad = BlockTridiag(sub=good.sub, diag=diag, sup=good.sup)
    with pytest.raises(SingularMatrixError, match="level 0$"):
        block_thomas(stack([good, bad]), np.ones((2, 5, 1)))


# ---------------------------------------------------------------------------
# operators stored node-axis-last
# ---------------------------------------------------------------------------


def test_block_tridiag_keeps_the_float_arrays_it_checked():
    mat = BlockTridiag(sub=[[[1.0]]], diag=[[[4.0]], [[4.0]]], sup=[[[1]]])
    assert (mat.n, mat.m) == (2, 1)
    for a in (mat.sub, mat.diag, mat.sup):
        assert isinstance(a, np.ndarray) and a.dtype == float
    assert np.allclose(block_thomas(mat, [[5.0], [5.0]]), [[1.0], [1.0]], rtol=1e-15)
    # a float64 view passes through as it is, with its layout
    blocks = np.zeros((2, 2, 5)).transpose(2, 0, 1)
    edge = np.zeros((2, 2, 4)).transpose(2, 0, 1)
    view = BlockTridiag(sub=edge, diag=blocks, sup=edge)
    assert view.diag is blocks and view.sub is edge


def assembled(problem, eps, mesh, scheme, n):
    prob, _ = problem_family(problem)(eps)
    op = assemble(prob, mesh_family(mesh)(prob, n), scheme)
    for a in (op.matrix.sub, op.matrix.diag, op.matrix.sup):
        assert a.transpose(1, 2, 0).flags.c_contiguous  # (m, m, rows) memory
    return op


def row_major(mat):
    return BlockTridiag(*(np.ascontiguousarray(a) for a in (mat.sub, mat.diag, mat.sup)))


_NARROW = [("strongly-coupled-2x2", "uniform", "ias", 1024)] + [
    (problem, "system-shishkin", scheme, n)
    for problem, schemes in (
        ("weakly-coupled-cd", ("simple-upwind", "midpoint-upwind", "galerkin-fem")),
        ("reaction-diffusion", ("central", "galerkin-fem")),
    )
    for scheme in schemes
    for n in (96, 192, 384, 768)
]


@pytest.mark.parametrize("problem, mesh, scheme, n", _NARROW)
def test_node_last_operator_solves_bitwise_as_row_major(problem, mesh, scheme, n):
    # narrow m >= 2 levels copy the operator's level-0 couplings row-major:
    # their block products round differently on strided blocks (the ias
    # system at N = 1024 solves differently without that copy)
    op = assembled(problem, None, mesh, scheme, n)
    want = block_thomas(row_major(op.matrix), op.rhs)
    assert np.array_equal(block_thomas(op.matrix, op.rhs), want)


@pytest.mark.parametrize("n", [384, 4104])
def test_stack_of_node_last_operators_solves_each_alone(n):
    ops = [
        assembled("weakly-coupled-cd", eps, "system-shishkin", "simple-upwind", n)
        for eps in ((1e-3, 1e-5), (1e-4, 1e-8), (1e-6, 1e-6))
    ]
    mats = stack(op.matrix for op in ops)
    for a in (mats.sub, mats.diag, mats.sup):
        assert a.transpose(0, 2, 3, 1).flags.c_contiguous
    got = block_thomas(mats, stack(op.rhs for op in ops))
    for op, u in zip(ops, got):
        assert np.array_equal(u, block_thomas(op.matrix, op.rhs))


@pytest.mark.parametrize("problem, eps, mesh, scheme", [
    ("strongly-coupled-2x2", None, "uniform", "ias"),
    ("reaction-diffusion", (1e-4, 1e-6, 1e-8), "system-shishkin", "central"),
])
def test_wide_solve_copies_no_coupling_of_an_assembled_operator(
    monkeypatch, problem, eps, mesh, scheme
):
    op = assembled(problem, eps, mesh, scheme, 4096)
    blocks = (op.matrix.sub, op.matrix.diag, op.matrix.sup)
    reads, copies = [], []
    cm = linalg._cm

    def recording(a):
        t = cm(a)
        if any(np.shares_memory(a, b) for b in blocks):
            reads.append(a.shape)
            if not np.shares_memory(t, a):
                copies.append(a.shape)
        return t

    monkeypatch.setattr(linalg, "_cm", recording)
    block_thomas(op.matrix, op.rhs)
    assert reads and not copies


# ---------------------------------------------------------------------------
# component-major (wide) levels
# ---------------------------------------------------------------------------


def pivoting_blocks(rng, n, m):
    """Blocks 5I + R with their rows permuted at random and a tiny (0, 0)
    entry, so every block swaps rows at its first pivot."""
    blocks = rng.uniform(-1.0, 1.0, (n, m, m)) + 5.0 * np.eye(m)
    perms = np.array([rng.permutation(m) for _ in range(n)])
    blocks = np.take_along_axis(blocks, perms[:, :, None], axis=1)
    blocks[:, 0, 0] = 1e-12 * rng.uniform(-1.0, 1.0, n)
    return blocks


@pytest.mark.parametrize("m", [2, 3])
def test_wide_inverse_swaps_rows_per_block(m):
    rng = np.random.default_rng(31)
    blocks = pivoting_blocks(rng, 4096, m)
    got = linalg._cm_inv(blocks)
    assert np.allclose(got, np.linalg.inv(blocks), rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("m", [2, 3])
def test_wide_levels_with_row_swaps_match_dense(monkeypatch, m):
    monkeypatch.setattr(linalg, "_WIDE", 2)
    rng = np.random.default_rng(37)
    n = 301
    mat = BlockTridiag(
        sub=0.2 * rng.uniform(-1.0, 1.0, (n - 1, m, m)),
        diag=pivoting_blocks(rng, n, m),
        sup=0.2 * rng.uniform(-1.0, 1.0, (n - 1, m, m)),
    )
    rhs = rng.uniform(-1.0, 1.0, (n, m))
    ref = np.linalg.solve(mat.to_dense(), rhs.ravel()).reshape(n, m)
    assert np.allclose(block_thomas(mat, rhs), ref, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("row, level", [(2, 1), (4, 2)])
def test_singular_pivot_names_its_level(m, row, level):
    # uncoupled blocks: level k pivots on the original rows that are
    # 2^k mod 2^(k+1).  With 4097 rows levels 0 and 1 run component-major
    # and level 2 batched.
    n = 2 * linalg._WIDE + 1
    diag = np.tile(np.eye(m), (n, 1, 1))
    diag[row] = np.ones((m, m)) if m > 1 else 0.0
    empty = np.zeros((n - 1, m, m))
    mat = BlockTridiag(sub=empty, diag=diag, sup=empty)
    with pytest.raises(SingularMatrixError, match=f"level {level}$"):
        block_thomas(mat, np.ones((n, m)))


def test_scalar_wide_levels_bitwise_equal_to_batched(monkeypatch):
    # 1x1 blocks run elementwise at every level and round as the batched
    # LAPACK/BLAS and the component-major block kernels do, so a scalar
    # solve is the same whichever kernel each level would pick
    problem, _ = builtin_scalar_cd(1e-6)
    op = assemble(problem, mesh_family("shishkin")(problem, 4096), "simple-upwind")
    rng = np.random.default_rng(41)
    lower, diag, upper = random_tridiag(rng, 1025)
    scalar = BlockTridiag(
        sub=lower.reshape(-1, 1, 1), diag=diag.reshape(-1, 1, 1), sup=upper.reshape(-1, 1, 1)
    )
    cases = [(op.matrix, op.rhs), (scalar, rng.uniform(-1.0, 1.0, (1025, 1)))]
    elementwise = [block_thomas(mat, rhs) for mat, rhs in cases]
    for ops in (
        (np.linalg.inv, np.matmul, np.ndarray.copy),
        (linalg._cm_inv, linalg._cm_matmul, linalg._cm_copy),
    ):
        levels = []

        def select(rows, m, ops=ops):
            levels.append(rows)
            return ops

        monkeypatch.setattr(linalg, "_ops", select)
        for (mat, rhs), want in zip(cases, elementwise):
            assert np.array_equal(block_thomas(mat, rhs), want)
        assert 4097 in levels and 1025 in levels


def test_scalar_solve_calls_no_block_inverse_or_product(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a 1x1 block went through a block kernel")

    monkeypatch.setattr(np.linalg, "inv", refuse)
    monkeypatch.setattr(np, "matmul", refuse)
    rng = np.random.default_rng(43)
    for n in (3, 1025, 2 * linalg._WIDE + 1):  # the last one has wide levels
        lower, diag, upper = random_tridiag(rng, n)
        rhs = rng.uniform(-1.0, 1.0, n)
        x = thomas(lower, diag, upper, rhs)
        r = diag * x
        r[1:] += lower * x[:-1]
        r[:-1] += upper * x[1:]
        assert np.allclose(r, rhs, rtol=0.0, atol=1e-13)


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
