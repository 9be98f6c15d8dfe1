import random

import pytest

from nilform import catalog, linalg
from nilform.errors import TemplateMismatch
from nilform.lie import BasisChange, abelian
from nilform.rational import rat
from nilform.template import (
    GenericN5Law,
    constants_of_interest,
    instantiate,
    type_i_transformed_constants,
    type_ii_transformed_constants,
    sample_transform_stratum,
    template_match,
    type_i_change,
    type_ii_change,
    type_iii_change,
    type_iv_change,
)

RNG_SEED = 20260809


def _q(rng, nonzero=False):
    while True:
        v = rat(rng.randint(-6, 6), rng.randint(1, 10))
        if v or not nonzero:
            return v


def test_zero_template_splits():
    t = GenericN5Law.zero(10)
    g = instantiate(t)
    assert g.jacobi_check() is None
    assert g.has_abelian_direct_factor()   # model chain plus abelian Y's


def test_template_reproduces_family_2():
    # family 2: m^1 = 1, p^2 = 1, Heisenberg pair on (Y3, Y4)
    m = 5
    t = GenericN5Law(
        10,
        d=(0, 0, 0, 0), e=(0, 0, 0, 0), f=(0, 0, 0, 0),
        m=(1, 0, 0, 0), n6=0, o6=0, p=(0, 1, 0, 0), p6=0,
        a={(3, 4): 1},
    )
    assert instantiate(t) == catalog.build(2, m)


def test_template_roundtrip_random():
    rng = random.Random(RNG_SEED)
    for _ in range(50):
        t = sample_transform_stratum(11, rng)
        g = instantiate(t)
        assert g.jacobi_check() is None
        assert template_match(g) == t


def test_template_match_rejects_off_shape():
    # family 30 matches the template; add a bracket the template forbids
    g = catalog.build(30, 5)
    brackets = {k: dict(v) for k, v in g.brackets.items()}
    brackets[(0, 6)] = {4: rat(1)}     # [X1, Y1] must vanish in the template
    from nilform.lie import LieAlgebra

    bad = LieAlgebra(g.dim, brackets, labels=g.labels)
    assert template_match(bad) is None


def test_template_match_catalog_family():
    t = template_match(catalog.build(9, 4))
    assert t is not None
    assert t.o6 == 1 and t.p[0] == 1


def test_type_i_closed_forms_match_conjugation():
    rng = random.Random(RNG_SEED)
    for _ in range(100):
        t = sample_transform_stratum(10, rng)
        g = instantiate(t)
        a = [_q(rng, True)] + [_q(rng) for _ in range(6)]
        b = [_q(rng, True), _q(rng), _q(rng), _q(rng, True), _q(rng)]
        g2 = g.change_basis(type_i_change(g, a, b))
        assert g2.jacobi_check() is None
        t2 = template_match(g2)
        assert t2 is not None
        got = constants_of_interest(t2)
        want = type_i_transformed_constants(t, a, b, corrected=True)
        for key, value in want.items():
            assert got[key] == value, key


def test_type_i_printed_f1_deviates():
    # the printed f1 formula misses -b2*a7*a12/a2; pin the exact difference
    rng = random.Random(7)
    t = sample_transform_stratum(10, rng)
    a = [rat(2), rat(1), rat(0), rat(0), rat(0), rat(3), rat(1)]
    b = [rat(1), rat(2), rat(0), rat(1), rat(0)]
    printed = type_i_transformed_constants(t, a, b, corrected=False)
    exact = type_i_transformed_constants(t, a, b, corrected=True)
    a2, a7, b2 = rat(2), rat(3), rat(2)
    assert printed["f1"] - exact["f1"] == b2 * a7 * t.a_at(1, 2) / a2
    assert exact["a12"] == printed["a12"] / a2


def test_type_ii_closed_forms_match_conjugation():
    rng = random.Random(RNG_SEED + 1)
    for _ in range(100):
        t = sample_transform_stratum(10, rng)
        g = instantiate(t)
        a = [_q(rng, True)] + [_q(rng) for _ in range(7)]
        b2, b7, c2 = _q(rng, True), _q(rng), _q(rng, True)
        b3, c3 = _q(rng), _q(rng)
        g2 = g.change_basis(type_ii_change(g, a, b2, b7, c2, b3=b3, c3=c3))
        assert g2.jacobi_check() is None
        t2 = template_match(g2)
        assert t2 is not None
        got = constants_of_interest(t2)
        want = type_ii_transformed_constants(t, a, b2, b7, c2)
        for key, value in want.items():
            assert got[key] == value, key


def test_type_iii_and_iv_preserve_template():
    rng = random.Random(RNG_SEED + 2)
    for _ in range(25):
        t = sample_transform_stratum(11, rng)
        g = instantiate(t)
        g3 = g.change_basis(type_iii_change(g, [_q(rng) for _ in range(7)]))
        assert g3.jacobi_check() is None
        assert template_match(g3) is not None
        g4 = g.change_basis(type_iv_change(g, _q(rng), _q(rng), _q(rng)))
        assert g4.jacobi_check() is None
        assert template_match(g4) is not None


def test_type_parameter_validation():
    g = instantiate(GenericN5Law.zero(10))
    with pytest.raises(TemplateMismatch):
        type_i_change(g, [0, 0, 0, 0, 0, 0, 0], [1, 0, 0, 1, 0])
    with pytest.raises(TemplateMismatch):
        type_ii_change(g, [0] * 8, 1, 0, 1)
    with pytest.raises(TemplateMismatch):
        type_iii_change(abelian(8), [0] * 7)
    # too few Y's for an index-7 entry, or too few parameters: each names its type
    g7 = instantiate(GenericN5Law.zero(7))
    with pytest.raises(TemplateMismatch, match="type I "):
        type_i_change(g7, [1, 0, 0, 0, 0, 0, 0], [1, 0, 0, 1, 0])
    with pytest.raises(TemplateMismatch, match="type II "):
        type_ii_change(g7, [1] + [0] * 7, 1, 0, 1)
    with pytest.raises(TemplateMismatch, match="type I "):
        type_i_change(g, [1, 0, 0], [1, 0, 0, 1, 0])
    with pytest.raises(TemplateMismatch, match="type I "):
        type_i_change(g, [1, 0, 0, 0, 0, 0, 0], [1, 0, 0])
    with pytest.raises(TemplateMismatch, match="type III "):
        type_iii_change(instantiate(GenericN5Law.zero(11)), [1, 2])


def _seeded_changes(n, rng):
    """(algebra, change) for seeded type I, II, III (n >= 11) and IV (n >= 9) changes."""
    out = []
    for _ in range(5):
        g = instantiate(sample_transform_stratum(n, rng))
        a = [_q(rng, True)] + [_q(rng) for _ in range(6)]
        b = [_q(rng, True), _q(rng), _q(rng), _q(rng, True), _q(rng)]
        out.append((g, type_i_change(g, a, b)))
        a = [_q(rng, True)] + [_q(rng) for _ in range(7)]
        b2, b7, c2, b3, c3 = _q(rng, True), _q(rng), _q(rng, True), _q(rng), _q(rng)
        out.append((g, type_ii_change(g, a, b2, b7, c2, b3=b3, c3=c3)))
        if n >= 11:
            out.append((g, type_iii_change(g, [_q(rng) for _ in range(7)])))
        if n >= 9:
            out.append((g, type_iv_change(g, _q(rng), _q(rng), _q(rng))))
    return out


@pytest.mark.parametrize("n", range(8, 13))
def test_changes_keep_integer_columns(n, monkeypatch):
    """A change keeps d and the integer columns of d T, and conjugates without its matrix."""
    changes = _seeded_changes(n, random.Random(RNG_SEED + n))
    kinds = {"I", "II"} | ({"III"} if n >= 11 else set()) | ({"IV"} if n >= 9 else set())
    assert {c.kind for _, c in changes} == kinds
    want = [template_match(g.change_basis(c)) for g, c in changes]
    for _, c in changes:
        assert (c._scale, c._columns) == linalg._integer_columns(c.matrix)

    def unbuilt(self):
        raise AssertionError("BasisChange.matrix was read")

    monkeypatch.setattr(BasisChange, "matrix", property(unbuilt))
    changes = _seeded_changes(n, random.Random(RNG_SEED + n))     # built under the patch
    got = [template_match(g.change_basis(c)) for g, c in changes]
    assert got == want
    assert None not in got
