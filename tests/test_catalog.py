import hashlib
import random

import pytest

from nilform import catalog, serialize, tables, template
from nilform.errors import InvalidDimension, MissingParameter
from nilform.invariants import char_sequence, fingerprint, p_filiform_sequence
from nilform.rational import rat


def test_family_count():
    assert len(catalog.FAMILIES) == 103
    assert sum(1 for f in catalog.FAMILIES.values() if f.parity == "even") == 53


def test_m_minimum_enforced():
    with pytest.raises(InvalidDimension):
        catalog.build(1, 3)
    with pytest.raises(InvalidDimension):
        catalog.build(4, 4)


def test_alpha_handling():
    with pytest.raises(MissingParameter):
        catalog.build(7, 4)
    with pytest.raises(MissingParameter):
        catalog.build(7, 4, 0)
    with pytest.raises(MissingParameter):
        catalog.build(1, 4, 2)
    g = catalog.build(66, 3, 2)
    assert g.bracket_basis(3, 1) == {5: rat(2)}    # [X4,X2] = 2 X6


def test_build_examples():
    g = catalog.build(1, 5)
    assert g.bracket_basis(8, 9) == {5: rat(1)}    # [Y3,Y4] = X6
    assert g.dim == 10


def test_enumerate_counts():
    assert catalog.enumerate_instances(6) == []
    n7 = catalog.enumerate_instances(7)
    assert len({inst.family for inst in n7}) == 27
    assert len(n7) == 27 - 1 + len(catalog.DEFAULT_ALPHAS)
    n12 = catalog.enumerate_instances(12)
    assert len({inst.family for inst in n12}) == 53
    assert len(n12) == 53 - 1 + len(catalog.DEFAULT_ALPHAS)


def test_enumerate_deterministic_order():
    a = [inst.id for inst in catalog.enumerate_instances(9)]
    b = [inst.id for inst in catalog.enumerate_instances(9)]
    assert a == b
    keys = [(inst.n, inst.family) for inst in catalog.enumerate_instances(9)]
    assert keys == sorted(keys)


def test_errata():
    assert catalog.errata(1) == []
    assert any("68" in note for note in catalog.errata(69))
    assert any("reconstructed" in note for note in catalog.errata(61))
    assert any("repaired" in note for note in catalog.errata(81))
    with pytest.raises(InvalidDimension):
        catalog.errata(104)


def test_structural_columns_all_families():
    # dim Z and dim C1 against every printed row, at the family minimum
    for i, fam in sorted(catalog.FAMILIES.items()):
        g = catalog.build(i, fam.m_min, 2 if fam.needs_alpha else None)
        if i in tables.DIM_CENTER:      # families 5 and 54 have no printed row
            assert g.center().dim == tables.DIM_CENTER[i], f"family {i}"
        assert g.derived_subalgebra().dim == tables.DIM_DERIVED[i], f"family {i}"
        assert g.derived_subalgebra().contains_subspace(g.center()), f"family {i}"


def test_filiform_at_minimum_except_documented():
    # families 4 and 55 have a Heisenberg pair already at their minimal m
    deviant = {4, 55}
    for i, fam in sorted(catalog.FAMILIES.items()):
        g = catalog.build(i, fam.m_min, 2 if fam.needs_alpha else None)
        seq = char_sequence(g)
        expected = p_filiform_sequence(g.dim, g.dim - 5)
        if i in deviant:
            assert tuple(seq) == (5, 2) + (1,) * (g.dim - 7), f"family {i}"
        else:
            assert seq == expected, f"family {i}: {seq}"


def test_alpha_sign_fingerprints_agree():
    fa = fingerprint(catalog.build(7, 4, 2))
    fb = fingerprint(catalog.build(7, 4, -2))
    assert fa == fb
    fa = fingerprint(catalog.build(66, 3, rat(1, 2)))
    fb = fingerprint(catalog.build(66, 3, rat(-1, 2)))
    assert fa == fb


def test_printed_presentations_are_lie_algebras():
    for g in (
        catalog.derivation_presentation_g8_6(),
        catalog.derivation_presentation_g7_81(),
    ):
        assert g.jacobi_check() is None


def test_chain_with_abelian():
    g = catalog.chain_with_abelian(4, 5)
    assert tuple(char_sequence(g)) == (3, 1, 1)
    g = catalog.chain_with_abelian(5, 6)
    assert tuple(char_sequence(g)) == (4, 1, 1)


def test_heisenberg_tail_is_the_only_m_dependence():
    # from m to m + 1 a family gains Y_{n-5}, Y_{n-4} and the one bracket
    # [Y_{n-5}, Y_{n-4}] = X6; with the n = 7..13 digest below this pins
    # every build up to m = 12
    steps = 0
    for i, fam in sorted(catalog.FAMILIES.items()):
        alpha = 2 if fam.needs_alpha else None
        for m in range(fam.m_min, 12):
            g, h = catalog.build(i, m, alpha), catalog.build(i, m + 1, alpha)
            n = g.dim
            assert h.dim == n + 2, f"family {i}, m = {m}"
            assert h.brackets == {**g.brackets, (n, n + 1): {5: 1}}, f"family {i}, m = {m}"
            steps += 1
    assert steps == 843


# SHA-256 of `serialize.dumps` over the algebras built from bracket lists:
# the catalog at n = 7..13, the two printed derivation presentations and 20
# instantiated templates.  Pinned before the builders were merged into
# `lie.from_bracket_list`; never regenerate it to make a change pass.
CONSTRUCTION_DIGEST = "630a27a0b34a09d65ddcd48a6f5df86eb8b37be791adc28b32f4f2fc6677abc7"


def test_algebra_construction_digest():
    h = hashlib.sha256()
    for n in range(7, 14):
        for inst in catalog.enumerate_instances(n):
            h.update(serialize.dumps(inst.algebra).encode())
    for g in (catalog.derivation_presentation_g8_6(), catalog.derivation_presentation_g7_81()):
        h.update(serialize.dumps(g).encode())
    rng = random.Random(1)
    for _ in range(20):
        law = template.sample_transform_stratum(10, rng)
        h.update(serialize.dumps(template.instantiate(law)).encode())
    assert h.hexdigest() == CONSTRUCTION_DIGEST
