"""Differential tests: the characteristic-nilpotency decision against the reference.

`reference_derivations` keeps an earlier decision: the diagonal witness
read off the `LinearForm` weight signature, seeded random trace-power
trials on all n dense integer powers of the generic derivation, and the
characteristic polynomial of every witness computed eagerly.  The decision
now reads the Engel flag of the derivation space, and only when the flag
stalls searches the lifted basis derivations and the sums of two of them
for one with a nonzero trace power; `diagonal_witness` takes the witness
straight from the integer kernel of the weight system, and
`witness_char_poly` is computed on access.  Both must give the same
verdict on every catalog instance at n = 7..10, on seeded conjugates of the
ten criterion-10 picks, on abelian(1), on Der(g7^81) and on a conjugate of
sl2, whose derivations are all traceless, so its witness shows only in
tr(D^2).  A diagonal witness must equal the reference's; a trace-power
witness must be a derivation with a nonzero trace power that is one
lifted basis derivation or the sum of two, of the derivation space of
h = g.adapted()[0] where the flag is read, mapped back to g's basis for
an algebra that is not its own adapted one (the conjugates and
Der(g7^81)).  Every verdict must equal the
acceptance suite's own Engel-flag test, every positive must carry a flag
in whose basis each rational basis derivation is strictly upper
triangular, and every witness polynomial must be the characteristic
polynomial of the witness, on both negative paths.  The search itself
must reach its pair step on a basis of sl2 whose elements are all
nilpotent, and must raise, not loop, on a nilpotent span.

The reference also keeps the earlier weight signature, which drops
repeated weight rows and reads dense rational kernel vectors.  The diagonal
witness and the weight signature must equal it on the same sets and on
abelian(0).
"""

import random
from functools import cache

import pytest

import reference_derivations as ref
from nilform import catalog
from nilform.derivations import (
    _entry_columns,
    _nonnilpotent_witness,
    derivation_algebra,
    derivation_space,
    diagonal_derivations,
    diagonal_witness,
    is_characteristically_nilpotent,
)
from nilform.errors import NilformError
from nilform.lie import LieAlgebra, abelian
from nilform.linalg import Matrix, _column_matrix, char_poly, inverse, matmul, rank
from nilform.rational import rat
from test_acceptance import _engel_flag_complete, _refutes_char_nilpotency

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


@cache
def _algebras(name):
    if name == "catalog":
        return tuple(
            inst.algebra for n in range(7, 11) for inst in catalog.enumerate_instances(n)
        )
    if name == "conjugates":
        rng = random.Random(2028)
        return tuple(_conjugate(catalog.build(fam, m, alpha), rng) for fam, m, alpha in PICKS)
    return (abelian(1), derivation_algebra(catalog.build(81, 3)),
            _conjugate(SL2, random.Random(2029)))


SETS = ["catalog", "conjugates", "small"]

# sl2 in the basis h, e, f: [h, e] = 2e, [h, f] = -2f, [e, f] = h.
SL2 = LieAlgebra(3, {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})


@cache
def _verdicts(name):
    """(algebra, decision, reference decision), the reference on derivation_space(g).

    For an algebra that is its own adapted one, the decision reads the
    space `derivation_space` keeps for the last algebra it was called on,
    so it sees the one the reference is given.
    """
    out = []
    for g in _algebras(name):
        space = derivation_space(g)
        out.append((g, is_characteristically_nilpotent(g),
                    ref.is_characteristically_nilpotent(g, space=space)))
    return tuple(out)


def _weight_inputs(name):
    """The set, and abelian(0) with the small one: the weights need no derivation space."""
    return _algebras(name) + ((abelian(0),) if name == "small" else ())


@pytest.mark.parametrize("name", SETS)
def test_diagonal_witness_matches_reference(name):
    for g in _weight_inputs(name):
        assert diagonal_witness(g) == ref.diagonal_witness(g), g


@pytest.mark.parametrize("name", SETS)
def test_diagonal_derivations_match_reference(name):
    for g in _weight_inputs(name):
        got, want = diagonal_derivations(g), ref.diagonal_derivations(g)
        assert got.rank == want.rank, g
        assert got.weights == want.weights, g
        # the parameters of each weight in the same order, too
        assert [list(w.coeffs.items()) for w in got.weights] == \
            [list(w.coeffs.items()) for w in want.weights], g
        assert str(got) == str(want), g
        assert got.canonical_key() == want.canonical_key(), g


def _lift_sums(g):
    """The lifted basis derivations of g and the sums of two of them."""
    lift = [_column_matrix(_entry_columns(v, g.dim), 1, g.dim)
            for v in derivation_space(g)._lift]
    return lift + [a + b for i, a in enumerate(lift) for b in lift[i + 1:]]


@pytest.mark.parametrize("name", SETS)
def test_decision_matches_reference(name):
    """Equal verdicts; a diagonal witness equals the reference's, and a
    trace-power witness is a non-nilpotent derivation of the given g from
    the set searched on h = g.adapted()[0], mapped back by T D T^-1."""
    for g, got, want in _verdicts(name):
        assert got.value == want.value, g
        if got.value:
            assert got.witness is None and want.witness is None, g
        elif diagonal_witness(g) is not None:
            assert got.witness == want.witness, g
        else:
            assert _refutes_char_nilpotency(g, got.witness), g
            h, t = g.adapted()
            back = got.witness if t is None else matmul(matmul(t.inverse_matrix, got.witness), t.matrix)
            assert back in _lift_sums(h), g


def _ad_columns(g, v):
    """ad(v) as n sparse integer columns, for an integer vector v."""
    ad = g.ad(v)
    return [{i: int(ad[i, j]) for i in range(g.dim) if ad[i, j]} for j in range(g.dim)]


def test_search_reaches_the_pair_step_on_sl2():
    """ad(e), ad(f) and ad(e + h - f) are each nilpotent, and span ad(sl2),
    which is not: the witness is the first pair sum, ad(e + f)."""
    e, f, x = ([rat(c) for c in v] for v in ((0, 1, 0), (0, 0, 1), (1, 1, -1)))
    mats = [_ad_columns(SL2, v) for v in (e, f, x)]
    for cols in mats:
        assert not _refutes_char_nilpotency(SL2, _column_matrix(cols, 1, 3))
    witness = _nonnilpotent_witness(mats, 3)
    assert witness == SL2.ad([rat(c) for c in (0, 1, 1)])
    assert _refutes_char_nilpotency(SL2, witness)


def test_search_raises_on_a_nilpotent_span():
    """Strictly upper triangular matrices leave nothing to find: an error, not a loop."""
    mats = []
    for i in range(4):
        for j in range(i + 1, 4):
            cols = [{} for _ in range(4)]
            cols[j] = {i: 1 + i + j}
            mats.append(cols)
    with pytest.raises(NilformError, match="Jacobi"):
        _nonnilpotent_witness(mats, 4)


def test_negative_decision_builds_no_rref_basis():
    """A stalled flag on a dense conjugate is decided on the lift of its adapted algebra alone,
    and its witness is a non-nilpotent derivation of the given g."""
    g = _conjugate(catalog.build(84, 3), random.Random(2030))
    h = g.adapted()[0]
    assert h is not g and diagonal_witness(g) is None
    got = is_characteristically_nilpotent(g)
    assert not got and _refutes_char_nilpotency(g, got.witness)
    assert "_lift" in derivation_space(h).__dict__
    assert "cleared" not in derivation_space(h).__dict__


def _flag_triangularizes(g, flag):
    """The dims rise strictly to n, and B^-1 D B is strictly upper triangular
    for every rational basis derivation D, B the matrix of columns flag.basis."""
    n = g.dim
    if len(flag.basis) != n or flag.dims != sorted(set(flag.dims)) or \
            flag.dims[-1:] != [n] or flag.dims[0] <= 0:
        return False
    b = Matrix([[rat(v[i]) for v in flag.basis] for i in range(n)])
    b_inv = inverse(b)
    for d in derivation_space(g).basis:
        t = matmul(matmul(b_inv, d), b)
        if any(t[i, j] for i in range(n) for j in range(i + 1)):
            return False
    return True


@pytest.mark.parametrize("name", SETS)
def test_decision_carries_engel_flag(name):
    """Every verdict equals the test-side Engel flag, and a positive's flag
    triangularizes Der(g); a negative carries no flag."""
    for g, got, _ in _verdicts(name):
        assert got.value == _engel_flag_complete(g.dim, derivation_space(g).basis), g
        if got.value:
            assert _flag_triangularizes(g, got.flag), g
        else:
            assert got.flag is None, g


def test_witness_char_poly_on_both_negative_paths():
    """Computed on access, it is the witness's characteristic polynomial, and
    on the diagonal path the reference's eager one."""
    for name in SETS:
        for g, got, want in _verdicts(name):
            if got.value:
                assert got.witness_char_poly is None
                continue
            assert got.witness_char_poly == char_poly(got.witness), g
            if diagonal_witness(g) is not None:
                assert got.witness_char_poly == want.witness_char_poly, g
            assert got.witness_char_poly != [rat(1)] + [rat(0)] * g.dim


def test_sets_exercise_every_outcome():
    """Positive verdicts, diagonal witnesses and trace-power witnesses all occur.

    Some trace-power witness has trace 0, so it is found at a power k > 1.
    """
    outcomes = {
        "positive" if got.value else
        "diagonal" if diagonal_witness(g) is not None else
        "power 1" if got.witness.trace() else "power > 1"
        for name in SETS for g, got, _ in _verdicts(name)
    }
    assert outcomes == {"positive", "diagonal", "power 1", "power > 1"}
