"""The integer type I-IV changes against the rational reference."""

import random

import pytest

import reference_template as ref
from nilform import template
from nilform.errors import TemplateMismatch
from nilform.lie import from_bracket_list
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
