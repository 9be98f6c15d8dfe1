"""Differential tests: the integer elimination core against the reference.

`reference_linalg` is plain Gaussian elimination over the rationals.  The
reduced row echelon form is unique, so the fraction-free core in
`nilform.linalg` must give exactly the same pivots, rref rows, kernel
vectors, ranks and inverses, and `template._solve_correction`, which reads
a solution off the reduced integer echelon of [A | b], must give the
solution of the reference `solve`.  The kernel reader skips the rows
that vanish on the kernel of the rows before them, so its tests take tall
redundant systems, a system in which an independent row arrives after the
kernel was built, Leibniz systems and the certificate systems of the
characteristic sequence.
"""

import random

import pytest

import reference_linalg as ref
from nilform import catalog, derivations, invariants, linalg, template
from nilform.derivations import derivation_space, is_characteristically_nilpotent
from nilform.errors import SingularTransform, TemplateMismatch
from nilform.lie import Subspace
from nilform.linalg import (
    Matrix,
    inverse,
    kernel_basis,
    matmul,
    rank,
    rref,
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
        ad = linalg._integer_columns(mat)
        for _ in range(3):                  # corrections b + u on slots with A (b + u) = 0
            b = [_entry(rng) for _ in range(mat.ncols)]
            slots = sorted(rng.sample(range(mat.ncols), rng.randint(1, mat.ncols)))
            u = ref.solve(
                Matrix([[row[s] for s in slots] for row in mat.data]),
                [-x for x in ref.matvec(mat, b)],
            )
            base = linalg._scaled(enumerate(b))     # the column (d, v) of b
            if u is None:
                with pytest.raises(TemplateMismatch):
                    template._solve_correction(ad, base, slots)
            else:
                expected = list(b)
                for s, x in zip(slots, u):
                    expected[s] += x
                d, v = template._solve_correction(ad, base, slots)
                assert linalg._rref_row(v, d, mat.ncols) == expected


def _conjugate(g, rng):
    n = g.dim
    while True:
        t = Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        if ref.rank(t) == n:
            return g.change_basis(t)


def test_leibniz_kernels_match_reference():
    """Dense n^2 Leibniz systems of conjugates, one of each charnilp verdict, and at n = 8."""
    rng = random.Random(65084)
    verdicts = set()
    for fam, m, count in ((65, 3, 2), (84, 3, 2), (6, 4, 1), (39, 4, 1)):
        g = catalog.build(fam, m)
        verdicts.add(is_characteristically_nilpotent(g).value)
        for _ in range(count):
            h = _conjugate(g, rng)
            rows, unknowns = _leibniz_rows(h), h.dim ** 2
            assert sparse_kernel(rows, unknowns) == ref.sparse_kernel(rows, unknowns)
    assert verdicts == {True, False}


def _redundant_rows(rng, nrows, rank, ncols):
    """nrows integer rows of the given rank: a basis spread among combinations of two of its rows."""
    basis = []
    while len(basis) < rank:
        row = {c: rng.randint(-10, 10) for c in rng.sample(range(ncols), rng.randint(2, ncols))}
        row = {c: v for c, v in row.items() if v}
        if ref.rank(_dense(basis + [row], ncols)) > len(basis):
            basis.append(row)
    rows = []
    for _ in range(nrows - rank):
        a, b = rng.sample(basis, 2) if rank > 1 else (basis[0], {})
        x, y = rng.choice([-2, -1, 1, 2]), rng.randint(-2, 2)
        row = {c: x * a.get(c, 0) + y * b.get(c, 0) for c in set(a) | set(b)}
        rows.append({c: v for c, v in row.items() if v})
    for row in basis:
        rows.insert(rng.randrange(len(rows) + 1), row)
    return rows


def _dense(rows, ncols):
    return Matrix([[row.get(c, 0) for c in range(ncols)] for row in rows])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_redundant_systems_match_reference(seed):
    """40-120 rows of rank 3-10 in 8-30 columns, entries up to 50 in absolute value.

    Every other system has at most twice as many columns as its rank, so
    that a dependent row can meet as many pivots as the kernel has vectors
    and the kernel is kept.
    """
    rng = random.Random(seed)
    for k in range(12):
        if k % 2:
            rank_ = rng.randint(4, 10)
            ncols = rng.randint(max(8, rank_), 2 * rank_)
        else:
            ncols = rng.randint(8, 30)
            rank_ = rng.randint(3, min(10, ncols))
        rows = _redundant_rows(rng, rng.randint(40, 120), rank_, ncols)
        assert max(abs(v) for row in rows for v in row.values()) <= 50
        assert sparse_kernel(rows, ncols) == ref.sparse_kernel(rows, ncols)
        mat = _dense(rows, ncols)
        assert kernel_basis(mat) == ref.kernel_basis(mat)
        assert rank(mat) == rank_


def _count_kernel_builds(monkeypatch):
    builds = []
    build = linalg._kernel_coordinates

    def counting(pivots, ncols):
        builds.append(len(pivots))
        return build(pivots, ncols)

    monkeypatch.setattr(linalg, "_kernel_coordinates", counting)
    return builds


def test_independent_row_after_the_kernel(monkeypatch):
    """A row outside the row space arrives once the kernel is kept: it is folded, not skipped.

    In 5 columns, the first three rows have pivots 0, 1, 2 and a kernel of
    two vectors; the fourth cancels to zero against two of them, which
    builds the kernel.  The fifth is independent, with its pivot at column
    3, where the reduced rows before it have entries, so the echelon must
    be reduced again.  The sixth lies in the new row space but not in the
    old one and builds the kernel again, and the seventh is skipped.  Cut
    after the fifth row, the system ends on a dropped kernel.
    """
    builds = _count_kernel_builds(monkeypatch)
    rows = [
        {0: 2, 1: 1, 3: 5},
        {1: 3, 2: 1, 4: -4},
        {2: 5, 3: 1, 4: 7},
        {0: 2, 1: 7, 2: 2, 3: 5, 4: -8},
        {3: 3, 4: 2},
        {2: 5, 3: 4, 4: 9},
        {0: 2, 1: 1, 3: 8, 4: 2},
    ]
    for system in (rows, rows[:5]):
        del builds[:]
        assert sparse_kernel(system, 5) == ref.sparse_kernel(system, 5)
        assert builds == [3, 4]
        for ncols in (5, 6):
            mat = _dense(system, ncols)
            assert kernel_basis(mat) == ref.kernel_basis(mat)


def test_dependent_leibniz_rows_are_checked_not_cancelled(monkeypatch):
    """In `derivation_space`, most dependent rows are skipped by the kernel check.

    The rows that `_cancel` takes to zero inside the kernel reader are
    counted.  Before the first kernel is built, rows are folded as in plain
    elimination; after it, a row is folded only when it is independent of
    the kept rows, and a row is cancelled to zero only on the way to the
    next build.  Plain elimination cancels every dependent row to zero
    (149 of the 168 rows here).
    """
    h = _conjugate(catalog.build(39, 4), random.Random(39))
    zero_folds, systems, inside = [], [], []
    builds = _count_kernel_builds(monkeypatch)
    cancel, kernel = linalg._cancel, derivations._integer_kernel

    def counting_cancel(row, prow, c):
        out = cancel(row, prow, c)
        if inside and not out:
            zero_folds.append(len(builds))
        return out

    def recording_kernel(rows, ncols):
        rows = list(rows)
        inside.append(True)
        out = kernel(iter(rows), ncols)
        inside.pop()
        systems.append((len(rows), len(out[0])))
        return out

    monkeypatch.setattr(linalg, "_cancel", counting_cancel)
    monkeypatch.setattr(derivations, "_integer_kernel", recording_kernel)
    derivation_space(h)
    (nrows, npivots), = systems
    dependent = nrows - npivots
    assert dependent > 60
    assert builds and sum(1 for b in zero_folds if b) <= len(builds)
    assert len(zero_folds) < dependent - len(zero_folds)


def test_ad_kernel_maps_systems_match_reference(monkeypatch):
    """The certificate systems of the characteristic sequence at n = 12."""
    systems = []
    kernel = invariants._integer_kernel

    def recording_kernel(rows, ncols):
        rows = list(rows)
        systems.append(([dict(r) for r in rows], ncols))
        return kernel(iter(rows), ncols)

    monkeypatch.setattr(invariants, "_integer_kernel", recording_kernel)
    for inst in catalog.enumerate_instances(12):
        invariants._ad_kernel_maps(inst.algebra)
    assert len(systems) > 20
    for rows, ncols in systems:
        assert sparse_kernel(rows, ncols) == ref.sparse_kernel(rows, ncols)
