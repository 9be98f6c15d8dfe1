"""Differential tests: the generator-based derivation solver against the reference.

`reference_derivations` keeps the earlier solver, the kernel of the full
Leibniz system in n^2 unknowns.  `derivation_space` now solves for the
values of a derivation on generators only and re-normalizes the lifted
kernel, so it must return exactly the same rref basis and free positions
on four sets of algebras: every catalog instance at n = 7..10; seeded
random conjugates of the ten criterion-10 picks (dense, rational structure
constants) at two seeds; the printed and computed derivation algebras of
g7^81, g8^6 and g7^84; and small edge cases, four of them not nilpotent,
where the generators must grow beyond a complement of C1.  One table that
fails Jacobi pins what the solver returns outside its precondition.

`derivation_algebra` forms the commutators of the basis on integers; it
must give the same structure constants as the rational reference, and
reject a commutator outside the space as the reference does.

A `DerivationSpace` keeps each basis derivation as (scale, integer
columns) and builds the rational `basis` only when it is read: the kept
form must be what `linalg._integer_columns` gives for that matrix, and
the library's own readers must never read `basis`.
"""

import random
from functools import cache

import pytest

from nilform import catalog
from nilform import derivations, invariants
from nilform.derivations import (
    DerivationSpace,
    derivation_algebra,
    derivation_space,
    is_characteristically_nilpotent,
    is_derivation,
)
from nilform.errors import DimensionMismatch
from nilform.lie import LieAlgebra, Subspace, abelian, basis_vec, heisenberg
from nilform.linalg import Matrix, _integer_columns, rank
from nilform.rational import rat
import reference_derivations
from reference_derivations import ReferenceSpace, coordinates_of, derivation_space as reference_space

# Criterion-10 picks: (family, m, alpha).
PICKS = [(65, 3, None), (66, 3, rat(2)), (81, 3, None), (84, 3, None),
         (99, 3, None), (6, 4, None), (7, 4, rat(1, 2)), (24, 4, None),
         (39, 4, None), (51, 4, None)]


def _conjugate(g, rng):
    n = g.dim
    while True:
        t = Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        if rank(t) == n:
            return g.change_basis(t)


def _not_nilpotent():
    solvable = LieAlgebra(2, {(0, 1): {0: 1}})                        # [e1, e2] = e1
    sl2 = LieAlgebra(3, {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})
    return (solvable, sl2, derivation_algebra(catalog.build(84, 3)),
            derivation_algebra(heisenberg(1)))


@cache
def _algebras(name):
    if name == "catalog":
        return tuple(
            inst.algebra for n in range(7, 11) for inst in catalog.enumerate_instances(n)
        )
    if name == "conjugates":
        return tuple(
            _conjugate(catalog.build(fam, m, alpha), random.Random(seed))
            for seed in (2026, 2027) for fam, m, alpha in PICKS
        )
    if name == "presentations":
        return (catalog.derivation_presentation_g7_81(),
                catalog.derivation_presentation_g8_6(),
                derivation_algebra(catalog.build(81, 3)),
                derivation_algebra(catalog.build(84, 3)))
    return (LieAlgebra(0, {}), abelian(4), heisenberg(2)) + _not_nilpotent()


SETS = ["catalog", "conjugates", "presentations", "small"]


@pytest.mark.parametrize("name", SETS)
def test_derivation_space_matches_reference(name):
    for g in _algebras(name):
        space, ref = derivation_space(g), reference_space(g)
        assert space.free_positions == ref.free_positions, g
        assert space.basis == ref.basis, g


def _generated(g, vectors):
    """The subalgebra of g generated by some vectors."""
    span = Subspace.span(g.dim, vectors)
    while True:
        vecs = span.basis_vectors()
        grown = Subspace.span(g.dim, vecs + [g.bracket(u, v) for u in vecs for v in vecs])
        if grown.dim == span.dim:
            return span
        span = grown


def test_small_set_exercises_generator_growth():
    """In the non-nilpotent cases a complement of C1 generates too little."""
    for g in _not_nilpotent():
        pivots = set(g.derived_subalgebra().pivots)
        complement = [basis_vec(g.dim, a) for a in range(g.dim) if a not in pivots]
        assert _generated(g, complement).dim < g.dim


def test_table_failing_jacobi_gives_a_larger_space():
    """Without Jacobi the result holds every derivation, and here one more matrix."""
    g = LieAlgebra(4, {(0, 1): {3: 1}, (0, 2): {1: 1}, (1, 3): {1: 2}})
    assert g.jacobi_check() is not None
    space, ref = derivation_space(g), reference_space(g)
    for d in ref.basis:
        coordinates_of(space, d)            # raises if d is outside the space
    assert (space.dim, ref.dim) == (3, 2)
    assert not all(is_derivation(g, d) for d in space.basis)


def _der_inputs():
    yield catalog.build(81, 3)              # g7^81
    yield catalog.build(6, 4)               # g8^6
    yield heisenberg(1)
    yield catalog.build(84, 3)              # g7^84
    yield from (inst.algebra for inst in catalog.enumerate_instances(7))


def test_derivation_algebra_matches_reference():
    for g in _der_inputs():
        der, ref = derivation_algebra(g), reference_derivations.derivation_algebra(g)
        assert der == ref, g
        assert (der.labels, der.meta) == (ref.labels, ref.meta)
        # same coefficients, also in the same order within each bracket
        assert [list(c.items()) for c in der.brackets.values()] == [
            list(c.items()) for c in ref.brackets.values()
        ]


def test_derivation_algebra_rejects_a_commutator_outside_the_space(monkeypatch):
    """span{E12, E21} is not closed: [E12, E21] = E11 - E22 has coordinates 0.

    The library space holds each basis matrix as (1, its integer columns);
    the reference reads the same span as rational matrices.
    """
    g = abelian(2)
    e12 = Matrix([[0, 1], [0, 0]])
    e21 = Matrix([[0, 0], [1, 0]])
    space = DerivationSpace(algebra=g, cleared=[(1, [{}, {0: 1}]), (1, [{1: 1}, {}])],
                            free_positions=[1, 2])
    ref = ReferenceSpace(algebra=g, basis=[e12, e21], free_positions=[1, 2])
    assert space.basis == ref.basis
    monkeypatch.setattr(derivations, "derivation_space", lambda _: space)
    monkeypatch.setattr(reference_derivations, "generator_space", lambda _: ref)
    for algebra_of in (derivation_algebra, reference_derivations.derivation_algebra):
        with pytest.raises(DimensionMismatch):
            algebra_of(g)


def _integer_form_inputs():
    yield from (inst.algebra for n in (7, 8) for inst in catalog.enumerate_instances(n))
    yield from _algebras("conjugates")[:3]


def test_kept_columns_are_the_cleared_basis():
    for g in _integer_form_inputs():
        space = derivation_space(g)
        assert len(space.basis) == len(space.cleared) == space.dim, g
        for (scale, cols), d in zip(space.cleared, space.basis):
            assert (scale, cols) == _integer_columns(d), g


def test_library_readers_never_build_the_rational_basis(monkeypatch):
    inputs = list(_integer_form_inputs())
    expected = [
        (invariants.fingerprint(g), is_characteristically_nilpotent(g), derivation_algebra(g))
        for g in inputs
    ]

    def unread(space):
        raise AssertionError("DerivationSpace.basis was read")

    monkeypatch.setattr(DerivationSpace, "basis", property(unread))
    with pytest.raises(AssertionError):
        derivation_space(inputs[0]).basis
    for g, (fp, charnilp, der) in zip(inputs, expected):
        assert invariants.fingerprint(g) == fp, g
        assert is_characteristically_nilpotent(g) == charnilp, g
        assert derivation_algebra(g) == der, g
