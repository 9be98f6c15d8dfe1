"""Differential tests: the Lie-layer contractions against the reference.

`reference_lie` keeps the earlier bracket (through a sparse dict), ad(v)
built column by column, the center as the kernel of the dense stack of
adjoint rows, and the pair-by-pair Leibniz check.  The bracket, ad(v) and
the center, which contract the integer structure tensor, must give exactly
the same vectors, matrices and subspaces, and `is_derivation` the same
verdicts, on three sets of algebras: every catalog instance at n = 7..10,
seeded random conjugates (dense structure constants), and abelian(4),
heisenberg(2) and Der(g7^81); all but `is_derivation` also on a fourth,
g8^7 with alpha = 1/2 (common denominator 2) and the non-nilpotent
[e1, e2] = e1 and sl2.

On all four sets the derived algebra and the lower central and derived
series must give the same Subspaces as the rational reference; `is_ideal`,
`is_abelian_subspace` and `quotient` the same verdicts and quotient
algebras; the integer `change_basis` the same structure constants as the
rational one under seeded integer and non-integer transforms; and the
integer `jacobi_check` the same verdict, and on perturbed tables and on
seeded random tables that fail Jacobi the same first failing triple and
residual.
"""

import random
from functools import cache

import pytest

import reference_lie as ref
from nilform import catalog
from nilform.derivations import derivation_algebra, derivation_space, is_derivation
from nilform.errors import NotAnIdeal, SingularTransform
from nilform.lie import BasisChange, LieAlgebra, Subspace, abelian, basis_vec, heisenberg
from nilform.linalg import Matrix, rank
from nilform.rational import ONE, ZERO, rat


def _entry(rng):
    if rng.random() < 0.4:
        return ZERO
    return rat(rng.randint(-6, 6), rng.randint(1, 4))


def _vector(rng, n):
    return [_entry(rng) for _ in range(n)]


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
        rng = random.Random(2024)
        picks = (catalog.build(65, 3), catalog.build(84, 3), catalog.build(6, 4))
        return tuple(_conjugate(g, rng) for g in picks)
    if name == "rational":
        return (
            catalog.build(7, 4, rat(1, 2)),
            LieAlgebra(2, {(0, 1): {0: ONE}}),                      # [e1, e2] = e1
            LieAlgebra(3, {(0, 1): {1: rat(2)}, (0, 2): {2: rat(-2)}, (1, 2): {0: ONE}}),  # sl2
        )
    return (abelian(4), heisenberg(2), derivation_algebra(catalog.build(81, 3)))


SETS = ["catalog", "conjugates", "small"]


@pytest.mark.parametrize("name", SETS + ["rational"])
def test_series_match_reference(name):
    for g in _algebras(name):
        assert g.derived_subalgebra() == ref.derived_subalgebra(g)
        assert g.lower_central_series() == ref.lower_central_series(g)
        assert g.derived_series() == ref.derived_series(g)


@pytest.mark.parametrize("name", SETS + ["rational"])
def test_bracket_matches_reference(name):
    rng = random.Random(1)
    for g in _algebras(name):
        for _ in range(4):
            u, v = _vector(rng, g.dim), _vector(rng, g.dim)
            assert g.bracket(u, v) == ref.bracket(g, u, v)
        for i in range(g.dim):
            e = basis_vec(g.dim, i)
            assert g.bracket(e, v) == ref.bracket(g, e, v)


@pytest.mark.parametrize("name", SETS + ["rational"])
def test_ad_matches_reference(name):
    rng = random.Random(2)
    for g in _algebras(name):
        vectors = [basis_vec(g.dim, i) for i in range(g.dim)]
        vectors += [_vector(rng, g.dim) for _ in range(3)]
        for v in vectors:
            assert g.ad(v) == ref.ad(g, v)


@pytest.mark.parametrize("name", SETS + ["rational"])
def test_center_matches_reference(name):
    for g in _algebras(name):
        assert g.center() == ref.center(g)


def _perturbed(d, p):
    rows = d.rows()
    rows[p // d.ncols][p % d.ncols] += ONE
    return Matrix(rows, copy=False)


@pytest.mark.parametrize("name", SETS + ["rational"])
def test_ideals_and_quotients_match_reference(name):
    """The same ideals, [s, s] = 0 verdicts and quotients as the reference.

    Both versions take the quotient by the center and by each lower-central
    term; every coordinate line gets the same `is_ideal` verdict, and on
    one that is not an ideal both quotients raise NotAnIdeal.
    """
    non_ideals = 0
    for g in _algebras(name):
        for s in [g.center(), *g.lower_central_series()]:
            assert g.is_ideal(s) and ref.is_ideal(g, s)
            assert g.is_abelian_subspace(s) == ref.is_abelian_subspace(g, s)
            h, want = g.quotient(s), ref.quotient(g, s)
            assert h == want and h.labels == want.labels, g
        lines = [Subspace.span(g.dim, [basis_vec(g.dim, i)]) for i in range(g.dim)]
        verdicts = [g.is_ideal(line) for line in lines]
        assert verdicts == [ref.is_ideal(g, line) for line in lines]
        if not all(verdicts):
            non_ideals += 1
            line = lines[verdicts.index(False)]
            for quotient in (g.quotient, lambda s: ref.quotient(g, s)):
                with pytest.raises(NotAnIdeal):
                    quotient(line)
    assert non_ideals


@pytest.mark.parametrize("name", SETS)
def test_is_derivation_matches_reference(name):
    """True on derivations, False off them, the same verdict as the reference.

    A derivation plus a unit matrix at a pivot position of the Leibniz
    system is never a derivation: every kernel vector is fixed by its free
    coordinates, and the unit matrix is zero at all of them.  Each catalog
    instance checks two seeded basis matrices (the reference costs O(n^4)
    per matrix); the other sets check every basis matrix.
    """
    rng = random.Random(3)
    for g in _algebras(name):
        n = g.dim
        space = derivation_space(g)
        free = set(space.free_positions)
        pivots = [p for p in range(n * n) if p not in free]
        basis = space.basis
        if name == "catalog":
            basis = rng.sample(basis, min(2, len(basis)))
        for d in basis:
            assert is_derivation(g, d) and ref.is_derivation(g, d)
            if pivots:
                bad = _perturbed(d, rng.choice(pivots))
                assert not is_derivation(g, bad) and not ref.is_derivation(g, bad)
        eye = Matrix.identity(n)
        assert is_derivation(g, eye) == ref.is_derivation(g, eye) == g.is_abelian()


def _transform(rng, n, integer):
    """A seeded invertible n x n matrix, integer or with rational entries."""
    while True:
        if integer:
            t = Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        else:
            t = Matrix([_vector(rng, n) for _ in range(n)])
        if rank(t) == n:
            return t


@pytest.mark.parametrize("integer", [True, False], ids=["integer", "rational"])
@pytest.mark.parametrize("name", SETS + ["rational"])
def test_change_basis_matches_reference(name, integer):
    rng = random.Random(4)
    for g in _algebras(name):
        t = _transform(rng, g.dim, integer)
        h, want = g.change_basis(t), ref.change_basis(g, t)
        assert h.brackets == want.brackets, g
        assert h.meta == want.meta
        assert g.change_basis(BasisChange(t)) == h


def test_change_basis_singular_matches_reference():
    g = catalog.build(7, 4, rat(1, 2))
    rows = _transform(random.Random(5), g.dim, False).rows()
    rows[3] = [2 * x - y for x, y in zip(rows[1], rows[5])]     # rank n - 1
    t = Matrix(rows, copy=False)
    for change_basis in (g.change_basis, lambda t: ref.change_basis(g, t)):
        with pytest.raises(SingularTransform):
            change_basis(t)


def _tables_failing_jacobi(seed, count=200):
    """Seeded random bracket tables of dim 3..7 that fail the Jacobi identity.

    Each stored pair gets one to three rational constants, with a pair
    density drawn per table, and a table is kept when the reference scan
    finds a failure.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(3, 7)
        density = rng.choice((0.2, 0.4, 0.7))
        brackets = {}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < density:
                    brackets[(i, j)] = {
                        k: rat(rng.randint(-3, 3), rng.randint(1, 2))
                        for k in rng.sample(range(n), rng.randint(1, 3))
                    }
        g = LieAlgebra(n, brackets)
        if ref.jacobi_check(g) is not None:
            out.append(g)
    return out


@pytest.mark.parametrize("name", SETS + ["rational", "random"])
def test_jacobi_check_matches_reference(name):
    """None on every algebra; on perturbed and random tables the same first failure.

    "random" holds seeded random tables of dim 3..7 that all fail Jacobi
    (`_tables_failing_jacobi`); the others perturb one constant of each
    algebra of their set.
    """
    if name == "random":
        tables = _tables_failing_jacobi(7)
    else:
        rng = random.Random(6)
        tables = []
        for g in _algebras(name):
            assert g.jacobi_check() is None and ref.jacobi_check(g) is None
            if not g.brackets:
                continue
            brackets = {pair: dict(comp) for pair, comp in g.brackets.items()}
            pair = rng.choice(sorted(brackets))
            k = rng.randrange(g.dim)
            shift = rat(rng.randint(1, 5), rng.randint(1, 3))
            brackets[pair][k] = brackets[pair].get(k, ZERO) + shift
            tables.append(LieAlgebra(g.dim, brackets))
    failures = 0
    for bad in tables:
        failure, want = bad.jacobi_check(), ref.jacobi_check(bad)
        assert failure == want, bad
        if failure is not None:
            failures += 1
            assert str(failure) == str(want)
    assert failures
    if name == "random":
        assert failures == len(tables)
