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

The solver imposes the Leibniz rule for a generator a_p only on a
complement of the vectors where it already holds.  Each pair (a_p, e_j)
it imposes must also be imposed by the earlier pairwise rule, which
skipped only the generators up to a_p and the pairs of a kept bracket
[a_p, x e_j]; on two dense conjugates the row totals are pinned.  The
space keeps the kernel on the generator unknowns: reading its dimension
lifts nothing, the Engel flag reads the lift but not the rref basis, and
gives the same flag as the rref basis does.
"""

import random
from functools import cache

import pytest

from nilform import catalog
from nilform import derivations, invariants, verify
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


def _record_solves(monkeypatch):
    """Per `_solve_derivation_space` call: its generators, kept brackets, pairs and rows.

    Each record is a dict: "gens", "br" and "forms" as `_generator_forms`
    returns them, "kept" the (a, w) of each kept bracket [e_a, w], "pairs"
    the (a, j) whose Leibniz equations were built, "equations" their
    nonzero rows, and "rows" the rows passed to `_integer_kernel`.
    """
    solves = []
    forms_of, image, equations, kernel = (
        derivations._generator_forms, derivations._bracket_image,
        derivations._leibniz_equations, derivations._integer_kernel)

    def generator_forms(g, br):
        solves.append({"br": br, "kept": [], "pairs": [], "equations": 0})
        gens, forms, held = forms_of(g, br)
        solves[-1].update(gens=gens, forms=forms)
        return gens, forms, held

    def bracket_image(br, n, p, a, w, dw):      # called once per kept bracket
        solves[-1]["kept"].append((a, dict(w)))
        return image(br, n, p, a, w, dw)

    def leibniz_equations(br, forms, a, j):
        out = equations(br, forms, a, j)
        solves[-1]["pairs"].append((a, j))
        solves[-1]["equations"] += len(out)
        return out

    def integer_kernel(rows, ncols):
        rows = list(rows)
        solves[-1]["rows"] = len(rows)
        return kernel(rows, ncols)

    monkeypatch.setattr(derivations, "_generator_forms", generator_forms)
    monkeypatch.setattr(derivations, "_bracket_image", bracket_image)
    monkeypatch.setattr(derivations, "_leibniz_equations", leibniz_equations)
    monkeypatch.setattr(derivations, "_integer_kernel", integer_kernel)
    return solves


def _pairwise_rule(n, solve):
    """The pairs (a_p, e_j) the earlier rule imposed.

    It skipped j = a_q for q <= p, and both orders of each kept bracket
    [e_a, x e_j] whose second factor is a single basis vector.
    """
    gens, defined = solve["gens"], set()
    for a, w in solve["kept"]:
        if len(w) == 1:
            (j,) = w
            defined.update(((a, j), (j, a)))
    return {(a, j) for p, a in enumerate(gens) for j in range(n)
            if j not in gens[:p + 1] and (a, j) not in defined}


@pytest.mark.parametrize("name", SETS)
def test_leibniz_pairs_are_imposed_by_the_pairwise_rule(name, monkeypatch):
    algebras = _algebras(name)              # built before the solves are recorded
    solves = _record_solves(monkeypatch)
    grown = fewer = 0
    for g in algebras:
        derivations._solve_derivation_space(g)
        solve = solves[-1]
        imposed, pairwise = set(solve["pairs"]), _pairwise_rule(g.dim, solve)
        assert len(imposed) == len(solve["pairs"]), g
        assert imposed <= pairwise, g
        assert solve["rows"] == solve["equations"], g
        fewer += imposed < pairwise
        grown += len(solve["gens"]) > g.dim - g.derived_subalgebra().dim
    assert len(solves) == len(algebras)
    # every dense conjugate, and a few algebras whose brackets are not basis vectors
    assert fewer == {"catalog": 2, "conjugates": 20, "presentations": 1}.get(name, 0)
    # the non-nilpotent ones: Der(g7^84), and in `small` also [e1, e2] = e1, sl2, Der(h1)
    assert grown == {"presentations": 1, "small": 4}.get(name, 0)


def test_leibniz_rows_on_dense_conjugates(monkeypatch):
    """The conjugates of g7^39 and g8^6 that `test_elimination` solves.

    The pairwise rule built 168 and 136 rows for them.
    """
    hs = [_conjugate(catalog.build(fam, m), random.Random(seed))
          for fam, m, seed in ((39, 4, 39), (6, 4, 2030))]
    solves = _record_solves(monkeypatch)
    totals = []
    for h in hs:
        derivations._solve_derivation_space(h)
        solve = solves[-1]
        pairwise = sum(len(derivations._leibniz_equations(solve["br"], solve["forms"], a, j))
                       for a, j in _pairwise_rule(h.dim, solve))
        totals.append((solve["rows"], pairwise))
    assert totals == [(144, 168), (104, 136)]


def _unbuilt(monkeypatch, *names):
    """Make reading the named `DerivationSpace` fields raise."""
    def unread(space):
        raise AssertionError("DerivationSpace was lifted or canonicalised")

    for name in names:
        monkeypatch.setattr(DerivationSpace, name, property(unread))


def test_dimension_readers_build_neither_lift_nor_rref_basis(monkeypatch):
    g = catalog.build(39, 4)
    h = _conjugate(g, random.Random(39))
    _unbuilt(monkeypatch, "_lift", "cleared")
    with pytest.raises(AssertionError):
        derivation_space(h).cleared
    assert invariants.fingerprint(h) == invariants.fingerprint(g)
    report = verify.tables_structural_suite(4, (4,))
    assert any("dimDer=" in item.computed for item in report.items)


def _flag_inputs():
    positives = [inst.algebra for n in (7, 8, 9) for inst in catalog.enumerate_instances(n)
                 if is_characteristically_nilpotent(inst.algebra)]
    return positives, list(_algebras("conjugates"))


def test_engel_flag_reads_the_lift_not_the_rref_basis(monkeypatch):
    positives, conjugates = _flag_inputs()
    from_rref = []
    for g in positives + conjugates:
        space = derivation_space(g)
        rref_space = DerivationSpace(algebra=g, cleared=space.cleared,
                                     free_positions=space.free_positions)
        from_rref.append(derivations._engel_flag(rref_space))
    flagged = [flag is not None for flag in from_rref]
    assert flagged == [True] * len(positives) + [fam in (65, 66, 81, 6, 7, 39)
                                                 for fam, _, _ in PICKS] * 2
    assert len(positives) >= 13

    _unbuilt(monkeypatch, "cleared", "basis")
    for g, flag in zip(positives + conjugates, from_rref):
        if flag is None:
            assert derivations._engel_flag(derivation_space(g)) is None, g
        else:
            got = is_characteristically_nilpotent(g)
            assert got.value and got.flag == flag, g
