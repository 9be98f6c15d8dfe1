"""Exact rational scalars.

Everything downstream computes over Q with no rounding anywhere.  The
scalar type is fractions.Fraction, which stores values in lowest terms
with a positive denominator.  The hot loops do not run on it: row
reduction and the Lie layer work on integers (see `linalg` and `lie`), and
rationals are built only for their results.  A Fraction is immutable, so
`rat` hands one back as it is instead of building a copy.
"""

from __future__ import annotations

from fractions import Fraction

Rational = Fraction


def rat(p=0, q=1):
    """Build a rational from ints, a string like '3/4', or another rational.

    A Fraction (exactly that type) with q == 1 is returned unchanged.
    """
    if q != 1:
        return Fraction(p, q)
    return p if type(p) is Fraction else Fraction(p)


ZERO = rat(0)
ONE = rat(1)


def rat_str(x) -> str:
    """Canonical 'p' or 'p/q' form (q > 0, lowest terms)."""
    x = rat(x)
    num, den = x.numerator, x.denominator
    return str(num) if den == 1 else f"{num}/{den}"


def parse_rat(s):
    """Parse the canonical string form back into a rational."""
    s = s.strip()
    if "/" in s:
        p, q = s.split("/", 1)
        return rat(int(p), int(q))
    return rat(int(s))
