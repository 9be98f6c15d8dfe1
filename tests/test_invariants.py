import random

import pytest

from nilform import catalog
from nilform.errors import VectorInDerivedAlgebra
from nilform.invariants import (
    CharSequence,
    char_sequence,
    char_sequence_of_vector,
    char_sequence_with_witness,
    fingerprint,
    is_p_filiform,
    nilindex,
    pairwise_distinguish,
)
from nilform.lie import abelian, basis_vec, heisenberg
from nilform.linalg import Matrix, rank
from nilform.rational import rat


def test_char_sequence_type():
    with pytest.raises(ValueError):
        CharSequence((1, 2))
    with pytest.raises(ValueError):
        CharSequence((2, 0))
    assert CharSequence((5, 1, 1)).total == 7


def test_char_sequence_of_vector_examples():
    a = abelian(4)
    assert tuple(char_sequence_of_vector(a, basis_vec(4, 0))) == (1, 1, 1, 1)
    h = heisenberg(1)
    assert tuple(char_sequence_of_vector(h, basis_vec(3, 0))) == (2, 1)
    g = catalog.build(1, 5)
    assert tuple(char_sequence_of_vector(g, basis_vec(10, 0))) == (5, 1, 1, 1, 1, 1)


def test_char_sequence_of_vector_rejects_derived():
    g = catalog.build(1, 5)
    with pytest.raises(VectorInDerivedAlgebra):
        char_sequence_of_vector(g, basis_vec(10, 5))  # X6 lies in C1


def test_char_sequence_abelian_and_sum():
    assert tuple(char_sequence(abelian(4))) == (1, 1, 1, 1)
    g = catalog.build(65, 3).direct_sum(abelian(1))
    assert tuple(char_sequence(g)) == (5, 1, 1, 1)


def test_char_sequence_witness_recorded():
    g = catalog.build(65, 3)
    seq, witness = char_sequence_with_witness(g)
    assert tuple(seq) == (5, 1, 1)
    assert tuple(char_sequence_of_vector(g, witness)) == tuple(seq)


def test_char_sequence_sum_is_dim():
    for inst in catalog.enumerate_instances(9, alphas=(rat(2),)):
        assert char_sequence(inst.algebra).total == 9


def test_char_sequence_invariant_under_basis_change():
    rng = random.Random(99)
    for fam, m in ((65, 3), (6, 4)):
        g = catalog.build(fam, m)
        base = char_sequence(g)
        n = g.dim
        trials = 0
        while trials < 50:
            t = Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
            if rank(t) < n:
                continue
            trials += 1
            assert char_sequence(g.change_basis(t)) == base


def test_p_filiform_and_nilindex():
    for inst in catalog.enumerate_instances(11, alphas=(rat(1),)):
        if inst.family in (54, 55, 62, 63, 64):
            continue  # documented deviation of the printed laws
        assert is_p_filiform(inst.algebra, 11 - 5), inst.id
    assert is_p_filiform(abelian(6), 5)
    assert nilindex(catalog.build(65, 3)) == 5
    assert nilindex(abelian(3)) == 1


def test_fingerprint_examples():
    fp = fingerprint(catalog.build(24, 4))
    assert (fp.dim_center, fp.dim_derived, fp.derived_abelian, fp.dim_der) == (
        1, 4, False, 15,
    )
    fp86 = fingerprint(catalog.build(86, 5))
    assert fp86.dim_der == 27
    fp_ab = fingerprint(abelian(3))
    assert fp_ab.dim_center == 3
    assert fp_ab.dim_derived == 0
    assert fp_ab.derived_abelian is True
    assert tuple(fp_ab.char_seq) == (1, 1, 1)
    assert fp_ab.dim_der == 9


def test_fingerprint_invariant_under_basis_change():
    rng = random.Random(5)
    g = catalog.build(67, 3)
    base = fingerprint(g)
    n = g.dim
    trials = 0
    while trials < 10:
        t = Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        if rank(t) < n:
            continue
        trials += 1
        fp = fingerprint(g.change_basis(t))
        assert fp == base       # equality ignores the basis-tagged weights
        assert fp.weights is None


def test_pairwise_distinguish_duplicates_and_soundness():
    rng = random.Random(31)
    g = catalog.build(12, 5)
    h = catalog.build(20, 5)
    n = g.dim
    while True:
        t = Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        if rank(t) == n:
            break
    copy = g.change_basis(t)
    result = pairwise_distinguish([g, h, g, copy])
    # the duplicate and the conjugated copy stay with the original
    cls = result.class_of(0)
    assert 2 in cls and 3 in cls
    # soundness: a conjugated copy is never separated from its source
    assert result.class_of(0) is result.class_of(3)


def test_pairwise_distinguish_weight_refinement():
    g12 = catalog.build(12, 6)
    g20 = catalog.build(20, 6)
    result = pairwise_distinguish([g12, g20])
    assert result.class_of(0) is not result.class_of(1)
    assert result.refined_by_weights  # separated by the signature, not the core
