import numbers
from decimal import Decimal
from fractions import Fraction

from nilform.rational import ONE, ZERO, rat


class Half(Fraction):
    """A Fraction subclass: rat must not hand it back as it is."""


@numbers.Rational.register
class Ratio:
    """A numbers.Rational that is not a Fraction."""

    numerator, denominator = -3, 4     # lowest terms, as numbers.Rational requires


def test_rat_passes_a_fraction_through():
    x = Fraction(3, 4)
    assert rat(x) is x
    assert rat(ZERO) is ZERO and rat(ONE) is ONE


def test_rat_builds_normalized_fractions():
    cases = [
        (rat(5), Fraction(5)),
        (rat("3/4"), Fraction(3, 4)),
        (rat(" -6/8 "), Fraction(-3, 4)),
        (rat(2, 4), Fraction(1, 2)),
        (rat(2, -4), Fraction(-1, 2)),
        (rat(Fraction(3, 4), 3), Fraction(1, 4)),
        (rat(True), Fraction(1)),
        (rat(False), Fraction(0)),
        (rat(Half(1, 2)), Fraction(1, 2)),
        (rat(Ratio()), Fraction(-3, 4)),
        (rat(Decimal("0.25")), Fraction(1, 4)),
    ]
    for got, want in cases:
        assert type(got) is Fraction
        assert got == want
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    h = Half(1, 2)
    assert rat(h) is not h

