import random

import pytest

from nilform import catalog
from nilform.derivations import (
    derivation_algebra,
    derivation_space,
    derivation_tower_index,
    diagonal_derivations,
    diagonal_witness,
    is_characteristically_nilpotent,
    is_derivation,
    verify_weight_vector,
)
from nilform.errors import DimensionMismatch
from nilform.lie import abelian
from nilform.linalg import Matrix, matmul, rank
from nilform.linform import LinearForm
from nilform.rational import ZERO, rat
from reference_derivations import coordinates_of, element
from reference_linalg import rref_inplace


def test_derivation_dimensions_examples():
    assert derivation_space(catalog.build(6, 4)).dim == 13      # Der(g8^6)
    assert derivation_space(catalog.build(81, 3)).dim == 10     # Der(g7^81)
    assert derivation_space(abelian(4)).dim == 16


def test_derivation_basis_satisfies_leibniz():
    for inst in (catalog.build(12, 5), catalog.build(93, 3)):
        space = derivation_space(inst)
        for d in space.basis:
            assert is_derivation(inst, d)


def test_derivation_space_coordinates_roundtrip():
    g = catalog.build(67, 3)
    space = derivation_space(g)
    rng = random.Random(4)
    coeffs = [rat(rng.randint(-3, 3)) for _ in space.basis]
    mat = element(space, coeffs)
    assert coordinates_of(space, mat) == coeffs


def test_derivation_algebra_closure():
    g = catalog.build(81, 3)
    der = derivation_algebra(g)
    assert der.dim == 10
    assert der.jacobi_check() is None
    assert derivation_algebra(abelian(1)).is_abelian()


def test_diagonal_derivations_abelian():
    sig = diagonal_derivations(abelian(4))
    assert sig.rank == 4
    assert all(len(w.coeffs) == 1 for w in sig.weights)


def test_diagonal_derivations_additivity():
    for inst in catalog.enumerate_instances(10, alphas=(rat(2),)):
        g = inst.algebra
        sig = diagonal_derivations(g)
        for (i, j), comp in g.brackets.items():
            for k, c in comp.items():
                if c:
                    assert sig.weights[i] + sig.weights[j] == sig.weights[k]


def test_diagonal_derivations_rank_zero_alpha_family():
    sig = diagonal_derivations(catalog.build(66, 3, 1))
    assert sig.rank == 0
    assert all(w.is_zero() for w in sig.weights)


def test_weight_signature_of_family_13():
    # the printed factor list appears under the partner label of the
    # distinction pair (13, 21); computed directly here
    sig = diagonal_derivations(catalog.build(13, 5))
    f1 = LinearForm.var("f1^1")
    ms = sig.multiset()
    assert ms[f1] == 2
    assert ms[3 * f1] == 3
    assert sig.rank == 2


def test_verify_weight_vector():
    g = catalog.build(6, 4)
    assert verify_weight_vector(g, [ZERO] * 8)
    pres = catalog.derivation_presentation_g8_6()
    v = [rat(x) for x in (1, 1, 2, 3, 4, 3, 4, 1, 2, 2, 3, 3, 2)]
    assert verify_weight_vector(pres, v)
    v_bad = list(v)
    v_bad[2] += 1
    assert not verify_weight_vector(pres, v_bad)
    with pytest.raises(DimensionMismatch):
        verify_weight_vector(pres, v[:-1])


def test_char_nilpotency_abelian():
    res = is_characteristically_nilpotent(abelian(1))
    assert not res.value
    assert res.witness is not None
    assert res.witness_char_poly != [rat(1), rat(0)]


def test_char_nilpotency_catalog():
    assert is_characteristically_nilpotent(catalog.build(65, 3)).value
    res = is_characteristically_nilpotent(catalog.build(51, 4))
    assert not res.value
    # witness is exact: a derivation whose characteristic polynomial is not lambda^n
    assert res.witness is not None
    assert is_derivation(catalog.build(51, 4), res.witness)
    n = res.witness.nrows
    assert res.witness_char_poly != [rat(1)] + [rat(0)] * n


def test_char_nilpotency_true_has_engel_flag():
    """A positive carries its Engel flag, the same on every call: the dims
    rise strictly to n, and every basis derivation maps V_{k+1} into V_k."""
    g = catalog.build(65, 3)
    res = is_characteristically_nilpotent(g)
    assert res.value and res.witness is None
    assert res.flag == is_characteristically_nilpotent(g).flag
    dims, basis = res.flag.dims, res.flag.basis
    assert dims[-1] == g.dim and dims == sorted(set(dims))
    for d in derivation_space(g).basis:
        for lo, hi in zip([0] + dims, dims):
            below = [[rat(x) for x in v] for v in basis[:lo]]
            for v in basis[:hi]:
                image = matmul(d, Matrix([[rat(x)] for x in v])).col(0)
                assert rank(Matrix(below + [image])) == lo


def test_diagonal_rank_implies_not_char_nilpotent():
    for inst in catalog.enumerate_instances(8, alphas=(rat(1),)):
        sig = diagonal_derivations(inst.algebra)
        if sig.rank >= 1:
            res = is_characteristically_nilpotent(inst.algebra)
            assert not res.value
            assert diagonal_witness(inst.algebra) is not None


def _hull_all_traces_vanish(g):
    """Independent oracle: the associative hull of Der(g) is nil iff every
    trace vanishes (characteristic zero)."""
    space = derivation_space(g)
    n = g.dim
    basis_rows = []

    def reduce_add(m):
        row = [m.data[i][j] for i in range(n) for j in range(n)]
        rows = basis_rows + [row]
        piv = rref_inplace(rows, n * n)
        if len(piv) > len(basis_rows):
            basis_rows.clear()
            basis_rows.extend(rows[: len(piv)])
            return True
        return False

    gens = list(space.basis)
    frontier = []
    elements = []
    for m in gens:
        if reduce_add(m):
            frontier.append(m)
            elements.append(m)
    while frontier:
        new = []
        for a in gens:
            for b in frontier:
                p = matmul(a, b)
                if reduce_add(p):
                    new.append(p)
                    elements.append(p)
        frontier = new
    return all(m.trace() == 0 for m in elements)


@pytest.mark.parametrize("family,m", [(65, 3), (81, 3), (84, 3), (6, 4), (14, 4), (25, 4)])
def test_char_nilpotency_against_hull_oracle(family, m):
    g = catalog.build(family, m)
    assert is_characteristically_nilpotent(g).value == _hull_all_traces_vanish(g)


def test_derivation_tower_g8_6():
    tower = derivation_tower_index(catalog.build(6, 4), max_depth=1)
    assert tower.index == 1
    assert tower.levels[0].char_nilpotent.value       # g8^6 itself
    assert tower.levels[1].dim == 13
    assert not tower.levels[1].char_nilpotent.value


def test_derivation_tower_abelian():
    tower = derivation_tower_index(abelian(1), max_depth=1)
    assert tower.index == 1


def test_derivation_tower_g7_81():
    # the printed claim is that Der(g7^81) is characteristically nilpotent;
    # exact computation finds a non-nilpotent derivation already at level 1
    tower = derivation_tower_index(catalog.build(81, 3), max_depth=1)
    assert tower.levels[0].char_nilpotent.value
    assert tower.levels[1].dim == 10
    assert tower.index == 1
    witness = tower.levels[1].char_nilpotent.witness
    assert witness is not None
    n = witness.nrows
    assert tower.levels[1].char_nilpotent.witness_char_poly != [rat(1)] + [rat(0)] * n
