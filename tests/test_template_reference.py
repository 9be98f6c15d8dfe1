"""The integer type I-IV changes and the template matcher against their references."""

import random

import pytest

import reference_template as ref
from nilform import catalog, template
from nilform.errors import TemplateMismatch
from nilform.lie import LieAlgebra, from_bracket_list
from nilform.rational import rat

SEED = 20261019


def _q(rng, nonzero=False):
    while True:
        v = rat(rng.randint(-6, 6), rng.randint(1, 10))
        if v or not nonzero:
            return v


@pytest.mark.parametrize("n", range(8, 13))
def test_changes_match_reference(n):
    rng, rng3 = random.Random(SEED + n), random.Random(SEED - n)
    for _ in range(20):
        g = template.instantiate(template.sample_transform_stratum(n, rng))
        a = [_q(rng, True)] + [_q(rng) for _ in range(6)]
        b = [_q(rng, True), _q(rng), _q(rng), _q(rng, True), _q(rng)]
        assert template.type_i_change(g, a, b).matrix == ref.type_i_change(g, a, b).matrix
        a = [_q(rng, True)] + [_q(rng) for _ in range(7)]
        b2, b7, c2, b3, c3 = _q(rng, True), _q(rng), _q(rng, True), _q(rng), _q(rng)
        assert (
            template.type_ii_change(g, a, b2, b7, c2, b3=b3, c3=c3).matrix
            == ref.type_ii_change(g, a, b2, b7, c2, b3=b3, c3=c3).matrix
        )
        if n >= 9:
            abc = _q(rng), _q(rng), _q(rng)
            assert template.type_iv_change(g, *abc).matrix == ref.type_iv_change(g, *abc).matrix
        if n >= 11:                 # its own stream, so the draws above stay as they were
            alphas = [_q(rng3) for _ in range(7)]
            assert (
                template.type_iii_change(g, alphas).matrix
                == ref.type_iii_change(g, alphas).matrix
            )


def test_unsolvable_correction_matches_reference():
    # [X1, Y1] = X3 cannot be cancelled from span{X3, X4, X5}, whose images
    # under ad(X1) lie in span{X4, X5, X6}
    entries = [(0, j, {j + 1: 1}) for j in (1, 2, 3, 4)] + [(0, 6, {2: 1})]
    g = from_bracket_list(8, entries)
    args = ([1, 0, 0, 0, 0, 0, 0, 0], 1, 0, 1)
    with pytest.raises(TemplateMismatch) as got:
        template.type_ii_change(g, *args)
    with pytest.raises(TemplateMismatch) as want:
        ref.type_ii_change(g, *args)
    assert str(got.value) == str(want.value)
    assert "unsolvable" in str(got.value)


def _law(rng, n):
    """A random parameter form at n, each parameter zero about half the time."""
    def q():
        return _q(rng) if rng.random() < 0.5 else 0

    ny = n - 6

    def vec():
        return [q() for _ in range(ny)]

    a = {(i, j): q() for i in range(1, ny + 1) for j in range(i + 1, ny + 1)}
    return template.GenericN5Law(n, vec(), vec(), vec(), vec(), q(), q(), vec(), q(), a)


def _conjugates(rng, n):
    """A stratum law conjugated by a type I and a type II change, and type III at n >= 11."""
    g = template.instantiate(template.sample_transform_stratum(n, rng))
    a = [_q(rng, True)] + [_q(rng) for _ in range(6)]
    b = [_q(rng, True), _q(rng), _q(rng), _q(rng, True), _q(rng)]
    changes = [template.type_i_change(g, a, b)]
    a = [_q(rng, True)] + [_q(rng) for _ in range(7)]
    changes.append(template.type_ii_change(g, a, _q(rng, True), _q(rng), _q(rng, True)))
    if n >= 11:
        changes.append(template.type_iii_change(g, [_q(rng) for _ in range(7)]))
    return [g.change_basis(c) for c in changes]


def _perturbed(rng, g):
    """g with one structure constant set to a random rational, possibly 0.

    Half the time the constant is one g stores, else any (i < j, k).
    """
    brackets = {pair: dict(comp) for pair, comp in g.brackets.items()}
    if brackets and rng.random() < 0.5:
        pair = rng.choice(sorted(brackets))
        k = rng.choice(sorted(brackets[pair]))
    else:
        pair, k = tuple(sorted(rng.sample(range(g.dim), 2))), rng.randrange(g.dim)
    brackets.setdefault(pair, {})[k] = _q(rng)
    return LieAlgebra(g.dim, brackets, labels=g.labels)


def test_template_match_matches_reference():
    rng = random.Random(SEED)
    bases = [inst.algebra for n in range(7, 14) for inst in catalog.enumerate_instances(n)]
    bases += [template.instantiate(_law(rng, n)) for n in range(6, 13) for _ in range(20)]
    bases += [c for n in range(8, 13) for _ in range(12) for c in _conjugates(rng, n)]
    inputs = bases + [_perturbed(rng, g) for g in bases for _ in range(3)]
    got = [template.template_match(g) for g in inputs]
    mismatches = [k for k, g in enumerate(inputs) if got[k] != ref.template_match(g)]
    assert not mismatches, f"{len(mismatches)} of {len(inputs)} inputs differ"
    assert len(inputs) >= 1000 and got.count(None) >= 500
