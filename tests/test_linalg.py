import random

import pytest

from nilform.errors import NotNilpotent
from nilform.linalg import (
    Matrix,
    char_poly,
    inverse,
    kernel_basis,
    matmul,
    nilpotent_jordan_profile,
    rank,
    rank_sequence,
    rref,
    sparse_kernel,
)
from nilform.rational import ONE, ZERO, rat
from reference_linalg import matvec


def poly_eval_matrix(coeffs, a: Matrix) -> Matrix:
    """Evaluate a polynomial (leading coefficient first) at a square matrix."""
    ident = Matrix.identity(a.nrows)
    out = Matrix.zeros(a.nrows, a.ncols)
    for c in coeffs:
        out = matmul(out, a) + ident.scale(c)
    return out


def conjugate_partition(parts):
    """Conjugate of an integer partition given as a descending list."""
    if not parts:
        return ()
    out = []
    for k in range(1, parts[0] + 1):
        out.append(sum(1 for p in parts if p >= k))
    return tuple(out)


def test_rref_identity():
    r, rk, pivots = rref(Matrix.identity(3))
    assert rk == 3
    assert r == Matrix.identity(3)
    assert pivots == (0, 1, 2)


def test_rref_zero():
    r, rk, pivots = rref(Matrix.zeros(4, 2))
    assert rk == 0
    assert pivots == ()


def test_rref_rank_one():
    # [[1,2],[2,4]] row-reduces to a single pivot in column 0
    r, rk, pivots = rref(Matrix([[1, 2], [2, 4]]))
    assert rk == 1
    assert pivots == (0,)
    assert r.row(0) == [rat(1), rat(2)]


def test_rref_idempotent_and_transpose_rank():
    rng = random.Random(7)
    for _ in range(25):
        mat = Matrix(
            [[rng.randint(-4, 4) for _ in range(4)] for _ in range(5)]
        )
        r1, rk, _ = rref(mat)
        r2, rk2, _ = rref(r1)
        assert r1 == r2 and rk == rk2
        assert rank(mat) == rank(mat.transpose())


def test_kernel_identity_empty():
    assert kernel_basis(Matrix.identity(4)) == []


def test_kernel_zero_full():
    basis = kernel_basis(Matrix.zeros(3, 3))
    assert len(basis) == 3
    assert basis[0] == [ONE, ZERO, ZERO]


def test_kernel_single_row():
    (v,) = kernel_basis(Matrix([[1, 1]]))
    # proportional to (1, -1)
    assert v[0] * (-1) == v[1] and v[0] != 0


def test_kernel_vectors_annihilate():
    rng = random.Random(3)
    for _ in range(20):
        mat = Matrix([[rng.randint(-3, 3) for _ in range(5)] for _ in range(3)])
        vecs = kernel_basis(mat)
        assert len(vecs) == 5 - rank(mat)
        for v in vecs:
            assert all(x == 0 for x in matvec(mat, v))


def test_sparse_kernel_matches_dense():
    rng = random.Random(11)
    for _ in range(20):
        rows = []
        for _ in range(6):
            row = {c: rat(rng.randint(-3, 3)) for c in rng.sample(range(7), 3)}
            rows.append({c: v for c, v in row.items() if v})
        dense = Matrix([[rows[r].get(c, ZERO) for c in range(7)] for r in range(6)])
        _, ker = sparse_kernel(rows, 7)
        assert len(ker) == len(kernel_basis(dense))
        for v in ker:
            assert all(x == 0 for x in matvec(dense, v))


def test_char_poly_examples():
    assert char_poly(Matrix.identity(2)) == [rat(1), rat(-2), rat(1)]
    assert char_poly(Matrix.zeros(4, 4)) == [rat(1)] + [rat(0)] * 4
    diag = Matrix([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    assert char_poly(diag) == [rat(1), rat(-6), rat(11), rat(-6)]


def test_cayley_hamilton_random():
    rng = random.Random(5)
    for _ in range(8):
        mat = Matrix([[rat(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(5)]
                      for _ in range(5)])
        coeffs = char_poly(mat)
        assert poly_eval_matrix(coeffs, mat).is_zero()


def test_char_poly_trace_det():
    mat = Matrix([[2, 1], [7, -3]])
    coeffs = char_poly(mat)
    assert coeffs[1] == -mat.trace()
    assert coeffs[2] == rat(2 * (-3) - 7)


def test_jordan_profile_zero_matrix():
    assert nilpotent_jordan_profile(Matrix.zeros(3, 3)) == (1, 1, 1)


def test_jordan_profile_shift():
    shift = Matrix.zeros(4, 4).rows()
    for i in range(3):
        shift[i][i + 1] = ONE
    assert nilpotent_jordan_profile(Matrix(shift)) == (4,)


def test_jordan_profile_not_nilpotent():
    with pytest.raises(NotNilpotent):
        nilpotent_jordan_profile(Matrix.identity(2))


def _random_nilpotent(rng, n):
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rat(rng.randint(-2, 2))
    return Matrix(rows)


def test_jordan_profile_conjugate_partition_crosscheck():
    # profile equals the conjugate of the rank-difference sequence
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(2, 8)
        mat = _random_nilpotent(rng, n)
        profile = nilpotent_jordan_profile(mat)
        seq = rank_sequence(mat)
        diffs = tuple(seq[k - 1] - seq[k] for k in range(1, len(seq)))
        assert sum(profile) == n
        assert profile == conjugate_partition(diffs)
        # number of blocks = dim ker
        assert len(profile) == n - rank(mat)


def test_inverse_roundtrip():
    rng = random.Random(23)
    for _ in range(10):
        mat = Matrix([[rng.randint(-4, 4) for _ in range(4)] for _ in range(4)])
        if rank(mat) < 4:
            continue
        assert matmul(mat, inverse(mat)) == Matrix.identity(4)
