"""Differential tests: the integer elimination core against the reference.

`reference_linalg` is plain Gaussian elimination over the rationals.  The
reduced row echelon form is unique, so the fraction-free core in
`nilform.linalg` must give exactly the same pivots, rref rows, kernel
vectors, ranks and inverses, and `template._solve_correction`, which reads
a solution off the reduced integer echelon of [A | b], must give the
solution of the reference `solve`.  The kernel reader skips the rows
that vanish on the kernel of the rows before them, and builds that kernel
only when the rows left can repay it, so its tests take tall redundant
systems, systems in which an independent row arrives after the kernel was
built, systems too short to build before the end, Leibniz systems and the
certificate systems of the characteristic sequence.
"""

import random

import pytest

import reference_linalg as ref
from nilform import catalog, invariants, linalg, template
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


def _sum(*terms):
    """The sparse integer row sum of c * row over the (c, row) terms."""
    out = {}
    for c, row in terms:
        for k, v in row.items():
            out[k] = out.get(k, 0) + c * v
    return {k: v for k, v in out.items() if v}


# In 5 columns: three rows with pivots 0, 1, 2, then a fourth, r0 + 2 r1,
# that cancels to zero against two of them; a fifth independent row r4,
# with its pivot at column 3, where the reduced rows before it have entries.
_R = [{0: 2, 1: 1, 3: 5}, {1: 3, 2: 1, 4: -4}, {2: 5, 3: 1, 4: 7}]
_R.append(_sum((1, _R[0]), (2, _R[1])))
_R.append({3: 3, 4: 2})


def test_independent_row_after_the_kernel(monkeypatch):
    """A row outside the row space arrives once the kernel is kept: it is folded, not skipped.

    The fourth row cancels to zero in two `_cancel` calls, with p = 3
    pivots and k = 2 kernel vectors, so it builds the kernel when at least
    5 rows are left: (5 - 2) * 2 >= 3 * 2.  The fifth row is independent,
    so the kernel is dropped and the echelon must be reduced again.  The
    sixth, r2 + r4, lies in the new row space but not in the old one; it
    cancels to zero in two calls, and with p = 4 and k = 1 it builds the
    kernel again when at least 3 rows are left.  The last three are skipped.
    In the second system the fourth row is followed by four rows of the old
    row space, which are skipped, and by the independent row, so the system
    ends on a dropped kernel.
    """
    builds = _count_kernel_builds(monkeypatch)
    rows = _R + [
        _sum((1, _R[2]), (1, _R[4])),
        _sum((1, _R[0]), (1, _R[4])),
        _sum((1, _R[1]), (-1, _R[4])),
        _sum((2, _R[2]), (-1, _R[0])),
    ]
    old_space = [
        _sum((1, _R[0]), (1, _R[1])),
        _sum((1, _R[1]), (-1, _R[2])),
        _sum((1, _R[0]), (1, _R[2])),
        _sum((2, _R[0]), (-1, _R[1])),
    ]
    for system in (rows, _R[:4] + old_space + _R[4:]):
        assert len(system) == 9
        del builds[:]
        assert sparse_kernel(system, 5) == ref.sparse_kernel(system, 5)
        assert builds == [3, 4]
        for ncols in (5, 6):
            mat = _dense(system, ncols)
            assert kernel_basis(mat) == ref.kernel_basis(mat)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_no_kernel_before_the_end_when_few_rows_are_left(monkeypatch, seed):
    """A system with no more rows left than its kernel has vectors builds one kernel, at the end.

    Then at least as many of the rows left may be independent as the kernel
    has vectors, so no build is sure to pay for itself.  The five rows
    above: the fourth cancels to zero with one row left and a kernel of
    two vectors, and the fifth is independent.  And seeded systems of rank
    r in n columns with at most n - r + 1 rows, where every row has at most
    n - r rows after it.
    """
    builds = _count_kernel_builds(monkeypatch)
    assert sparse_kernel(_R, 5) == ref.sparse_kernel(_R, 5)
    assert builds == [4]
    rng = random.Random(seed)
    for _ in range(12):
        rank_ = rng.randint(2, 5)
        ncols = rng.randint(2 * rank_ + 1, 16)
        rows = _redundant_rows(rng, rng.randint(rank_ + 1, ncols - rank_ + 1), rank_, ncols)
        del builds[:]
        assert sparse_kernel(rows, ncols) == ref.sparse_kernel(rows, ncols)
        assert builds == [rank_]


def test_dependent_leibniz_rows_are_checked_not_cancelled(monkeypatch):
    """In `derivation_space`, dependent rows are skipped by the kernel check, not cancelled.

    Conjugates of g7^39 and of g8^6.  The rows that `_cancel` takes to zero
    inside the kernel reader are counted: no more of them than the kernel
    builds, so about one zero row per build.  Plain elimination cancels
    every dependent row to zero (125 of the 144 rows of the first system,
    93 of the 104 of the second).  The system reaches the kernel reader
    through `linalg._kernel_on`; it has no one-entry row to substitute.
    """
    zero_folds, systems, inside = [], [], []
    builds = _count_kernel_builds(monkeypatch)
    cancel, kernel = linalg._cancel, linalg._integer_kernel

    def counting_cancel(row, prow, c):
        out = cancel(row, prow, c)
        if inside and not out:
            zero_folds.append(len(builds))
        return out

    def recording_kernel(rows, ncols):
        inside.append(True)
        out = kernel(rows, ncols)
        inside.pop()
        systems.append((len(rows), len(out[0])))
        return out

    monkeypatch.setattr(linalg, "_cancel", counting_cancel)
    monkeypatch.setattr(linalg, "_integer_kernel", recording_kernel)
    for fam, m, seed in ((39, 4, 39), (6, 4, 2030)):
        h = _conjugate(catalog.build(fam, m), random.Random(seed))
        del zero_folds[:], systems[:], builds[:]
        derivation_space(h)
        (nrows, npivots), = systems
        dependent = nrows - npivots
        assert dependent > 60
        assert builds and len(zero_folds) <= len(builds)
        assert len(zero_folds) < dependent - len(zero_folds)


def test_ad_kernel_maps_systems_match_reference(monkeypatch):
    """The kernel and cokernel certificate systems of ad(x) and ad(x)^2 at n = 12.

    The certificates reach the integer kernel through `linalg._kernel_on`,
    which reads `linalg._integer_kernel`.
    """
    systems = []
    kernel = linalg._integer_kernel

    def recording_kernel(rows, ncols):
        systems.append(([dict(r) for r in rows], ncols))
        return kernel(rows, ncols)

    with monkeypatch.context() as m:        # `sparse_kernel` below reads it too
        m.setattr(linalg, "_integer_kernel", recording_kernel)
        for inst in catalog.enumerate_instances(12):
            for j in (1, 2):
                for transpose in (False, True):
                    invariants._power_maps(inst.algebra, j, transpose)
    assert len(systems) > 80
    for rows, ncols in systems:
        assert sparse_kernel(rows, ncols) == ref.sparse_kernel(rows, ncols)
