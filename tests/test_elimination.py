"""Differential tests: the integer elimination core against the reference.

`reference_linalg` is plain Gaussian elimination over the rationals.  The
reduced row echelon form is unique, so the fraction-free core in
`nilform.linalg` must give exactly the same pivots, rref rows, kernel
vectors, ranks, inverses and solutions.
"""

import random

import pytest

import reference_linalg as ref
from nilform import catalog
from nilform.derivations import is_characteristically_nilpotent
from nilform.errors import SingularTransform
from nilform.lie import Subspace
from nilform.linalg import (
    Matrix,
    inverse,
    kernel_basis,
    matmul,
    rank,
    rref,
    solve,
    sparse_kernel,
)
from nilform.rational import ZERO, rat
from reference_derivations import _leibniz_rows


def _entry(rng):
    if rng.random() < 0.4:
        return ZERO
    return rat(rng.randint(-6, 6), rng.randint(1, 4))


def _random_matrix(rng, nrows, ncols):
    return Matrix([[_entry(rng) for _ in range(ncols)] for _ in range(nrows)])


def _matrices(seed, count=60):
    """Seeded rational matrices: square, wide, tall, rank-deficient, zero rows."""
    rng = random.Random(seed)
    out = [Matrix.zeros(3, 4), Matrix.identity(5)]
    for k in range(count):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        kind = k % 4
        if kind == 0:
            ncols = nrows
        mat = _random_matrix(rng, nrows, ncols)
        if kind == 1:
            inner = rng.randint(1, max(1, min(nrows, ncols) - 1))
            left, right = _random_matrix(rng, nrows, inner), _random_matrix(rng, inner, ncols)
            mat = matmul(left, right)
        if kind == 2:
            rows = mat.rows()
            rows[rng.randrange(nrows)] = [ZERO] * ncols
            if nrows > 1:
                rows[rng.randrange(nrows)] = [x * rat(-3, 2) for x in rows[0]]
            mat = Matrix(rows)
        out.append(mat)
    return out


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rref_rank_kernel_match_reference(seed):
    for mat in _matrices(seed):
        assert rref(mat) == ref.rref(mat)
        assert rank(mat) == ref.rank(mat)
        assert kernel_basis(mat) == ref.kernel_basis(mat)
        basis = Subspace.span(mat.ncols, mat.rows())
        r, rk, pivots = ref.rref(mat)
        assert basis.matrix.rows() == r.rows()[:rk] and basis.pivots == pivots


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sparse_kernel_matches_reference(seed):
    for mat in _matrices(seed):
        rows = [{c: x for c, x in enumerate(row) if x} for row in mat.data]
        assert sparse_kernel(rows, mat.ncols) == ref.sparse_kernel(rows, mat.ncols)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_inverse_and_solve_match_reference(seed):
    rng = random.Random(seed)
    for mat in _matrices(seed):
        if mat.is_square:
            try:
                expected = ref.inverse(mat)
            except SingularTransform:
                with pytest.raises(SingularTransform):
                    inverse(mat)
            else:
                assert inverse(mat) == expected
        for _ in range(3):
            b = [_entry(rng) for _ in range(mat.nrows)]
            assert solve(mat, b) == ref.solve(mat, b)


def _conjugate(g, rng):
    n = g.dim
    while True:
        t = Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        if ref.rank(t) == n:
            return g.change_basis(t)


def test_leibniz_kernels_match_reference():
    """Dense Leibniz systems of conjugates, one of each charnilp verdict."""
    rng = random.Random(65084)
    verdicts = set()
    for fam in (65, 84):
        g = catalog.build(fam, 3)
        verdicts.add(is_characteristically_nilpotent(g).value)
        for _ in range(2):
            h = _conjugate(g, rng)
            rows, unknowns = _leibniz_rows(h), h.dim ** 2
            assert sparse_kernel(rows, unknowns) == ref.sparse_kernel(rows, unknowns)
    assert verdicts == {True, False}
