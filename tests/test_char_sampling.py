"""Differential tests: characteristic-sequence sampling against the reference.

`reference_invariants` tries every candidate and `reference_linalg` forms
the powers of ad(x) to rank them.  The sampling in `nilform.invariants`
stops at the C1 ceiling, and `rank_sequence` ranks integer images instead
of powers; both must give exactly the same rank sequences, sequences and
witnesses.  The sets are every catalog instance at n = 7..10, seeded
random conjugates (dense structure constants), and abelian(4),
heisenberg(2), g7^65 + abelian(1) and g8^7 with alpha = 1/2.
"""

import random
from functools import cache

import pytest

import reference_invariants as ref_inv
import reference_linalg as ref
from nilform import catalog
from nilform.errors import DimensionMismatch, NotNilpotent
from nilform.invariants import _profile_upper_bound, char_sequence_with_witness
from nilform.lie import LieAlgebra, abelian, heisenberg
from nilform.linalg import Matrix, _integer_row, inverse, matmul, rank, rank_sequence
from nilform.rational import ONE, ZERO, rat


def _entry(rng, zeros=0.4):
    if rng.random() < zeros:
        return ZERO
    return rat(rng.randint(-6, 6), rng.randint(1, 4))


def _random_matrix(rng, nrows, ncols, zeros=0.4):
    return Matrix([[_entry(rng, zeros) for _ in range(ncols)] for _ in range(nrows)])


def _invertible(rng, n):
    while True:
        t = _random_matrix(rng, n, n, zeros=0.2)
        if rank(t) == n:
            return t


def _conjugated(rng, a):
    t = _invertible(rng, a.nrows)
    return ref.matmul(ref.matmul(t, a), inverse(t))


def _block_diagonal(a, b):
    n, m = a.nrows, b.nrows
    rows = [list(r) + [ZERO] * m for r in a.data]
    rows += [[ZERO] * n + list(r) for r in b.data]
    return Matrix(rows, copy=False)


def _square_matrices(seed):
    """Nilpotent and non-nilpotent dense rational matrices, zero and 0x0."""
    rng = random.Random(seed)
    out = [Matrix.zeros(0, 0), Matrix.zeros(4, 4), Matrix.identity(3)]
    for k in range(24):
        n = rng.randint(1, 9)
        strict = Matrix([
            [_entry(rng) if j > i else ZERO for j in range(n)] for i in range(n)
        ])
        kind = k % 3
        if kind == 0:                           # nilpotent
            a = strict
        elif kind == 1:                         # nilpotent block + invertible block
            a = _block_diagonal(strict, _invertible(rng, rng.randint(1, 3)))
        else:                                   # generic
            a = _random_matrix(rng, n, n)
        out.append(_conjugated(rng, a))
    return out


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("kmax", [None, 1, 2])
def test_rank_sequence_matches_reference(seed, kmax):
    for a in _square_matrices(seed):
        assert rank_sequence(a, kmax) == ref.rank_sequence(a, kmax)


def test_rank_sequence_rejects_non_square():
    a = Matrix.zeros(2, 3)
    with pytest.raises(DimensionMismatch):
        rank_sequence(a)
    with pytest.raises(DimensionMismatch):
        ref.rank_sequence(a)


@pytest.mark.parametrize("seed", [1, 2])
def test_matmul_matches_reference(seed):
    rng = random.Random(seed)
    for _ in range(40):
        p, q, r = rng.randint(1, 6), rng.randint(1, 6), rng.randint(0, 6)
        a, b = _random_matrix(rng, p, q), _random_matrix(rng, q, r)
        assert matmul(a, b) == ref.matmul(a, b)


def _conjugate(g, rng):
    n = g.dim
    while True:
        t = Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        if rank(t) == n:
            return g.change_basis(t)


@cache
def _algebras(name):
    if name == "catalog":
        return tuple(
            inst.algebra for n in range(7, 11) for inst in catalog.enumerate_instances(n)
        )
    if name == "conjugates":
        rng = random.Random(2025)
        picks = (catalog.build(65, 3), catalog.build(84, 3), catalog.build(6, 4))
        return tuple(_conjugate(g, rng) for g in picks for _ in range(2))
    return (
        abelian(4),
        heisenberg(2),
        catalog.build(65, 3).direct_sum(abelian(1)),
        catalog.build(7, 4, rat(1, 2)),             # structure constants with denominator 2
    )


SETS = ["catalog", "conjugates", "small"]


@pytest.mark.parametrize("name", SETS)
def test_subspace_reduce_matches_reference(name):
    rng = random.Random(4)
    for g in _algebras(name):
        c1 = g.derived_subalgebra()
        for _ in range(4):
            v = [_entry(rng) for _ in range(g.dim)]
            assert c1.reduce(v) == ref_inv.reduce(c1, v)
        for v in c1.basis_vectors():
            assert c1.contains(v) and ref_inv.contains(c1, v)


@pytest.mark.parametrize("name", SETS)
def test_char_sequence_matches_reference(name):
    for g in _algebras(name):
        assert char_sequence_with_witness(g) == ref_inv.char_sequence_with_witness(g)


@pytest.mark.parametrize("seed,samples", [(1, 0), (7, 4), (11, 64)])
def test_char_sequence_matches_reference_across_seeds(seed, samples):
    for g in _algebras("conjugates"):
        assert (char_sequence_with_witness(g, seed=seed, samples=samples)
                == ref_inv.char_sequence_with_witness(g, seed=seed, samples=samples))


def test_char_sequence_stops_at_the_ceiling(monkeypatch):
    """ad(x) is built up to the witness when it reaches the C1 ceiling, else for all.

    Every candidate outside C1 is otherwise tried: the n basis vectors and
    the 64 random ones, minus those in C1.  The sampling builds ad(x) as
    integer columns, through `LieAlgebra.ad_columns` on the primitive
    integer row of x.
    """
    seen = []
    ad_columns = LieAlgebra.ad_columns

    def recording_ad_columns(g, v):
        seen.append(v)
        return ad_columns(g, v)

    monkeypatch.setattr(LieAlgebra, "ad_columns", recording_ad_columns)
    stopped = 0
    for g in _algebras("catalog")[:60]:
        seen.clear()
        seq, witness = char_sequence_with_witness(g)
        c1 = g.derived_subalgebra()
        if tuple(seq) == _profile_upper_bound(g.dim, c1.dim):
            stopped += 1
            assert seen[-1] == _integer_row(enumerate(witness))
        else:
            assert len(seen) == sum(
                1 for x in ref_inv.candidates(g.dim) if any(x) and not c1.contains(x)
            )
    assert 0 < stopped < 60


NOT_NILPOTENT = [
    LieAlgebra(2, {(0, 1): {0: ONE}}),                      # [e1, e2] = e1
    LieAlgebra(2, {(0, 1): {0: ONE}}).direct_sum(heisenberg(1)),
]


@pytest.mark.parametrize("g", NOT_NILPOTENT, ids=["affine", "affine+heisenberg"])
def test_not_nilpotent_raises_in_both(g):
    with pytest.raises(NotNilpotent):
        char_sequence_with_witness(g)
    with pytest.raises(NotNilpotent):
        ref_inv.char_sequence_with_witness(g)


def test_witness_is_a_fresh_rational_list():
    """The candidates are shared across calls; the witness returned is not."""
    g = catalog.build(65, 3)
    _, first = char_sequence_with_witness(g)
    _, second = char_sequence_with_witness(g)
    assert first == second and first is not second
    assert all(type(x) is type(ONE) for x in first + second)
    first[0] += 1
    assert char_sequence_with_witness(g)[1] == second != first
