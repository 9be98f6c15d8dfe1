"""Linear forms over named parameters with rational coefficients.

Used for the weights of diagonal derivations, e.g. 3*f1^1 + f2^2.  Forms
are hashable so weight multisets can be compared directly.
"""

from __future__ import annotations

from .rational import ZERO, rat, rat_str


class LinearForm:
    """const + sum(coeff * parameter) with exact rational coefficients."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs=None, const=0):
        cleaned = {}
        if coeffs:
            for name, c in coeffs.items():
                c = rat(c)
                if c:
                    cleaned[name] = c
        self.coeffs = cleaned
        self.const = rat(const)

    @staticmethod
    def var(name):
        return LinearForm({name: 1})

    @staticmethod
    def constant(c):
        return LinearForm({}, c)

    def is_zero(self):
        return not self.coeffs and not self.const

    def variables(self):
        return set(self.coeffs)

    def __add__(self, other):
        other = _coerce(other)
        out = dict(self.coeffs)
        for name, c in other.coeffs.items():
            out[name] = out.get(name, ZERO) + c
        return LinearForm(out, self.const + other.const)

    __radd__ = __add__

    def __neg__(self):
        return LinearForm({k: -v for k, v in self.coeffs.items()}, -self.const)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, c):
        c = rat(c)
        return LinearForm({k: v * c for k, v in self.coeffs.items()}, self.const * c)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, LinearForm):
            other = _coerce(other)
        return self.coeffs == other.coeffs and self.const == other.const

    def __hash__(self):
        return hash((tuple(sorted(self.coeffs.items())), self.const))

    def substitute(self, assignment):
        """Replace parameters by rationals or other forms."""
        out = LinearForm.constant(self.const)
        for name, c in self.coeffs.items():
            if name in assignment:
                out = out + _coerce(assignment[name]) * c
            else:
                out = out + LinearForm({name: c})
        return out

    def key(self):
        """Deterministic sort key (by variable names, then coefficients)."""
        return (
            tuple(sorted(self.coeffs)),
            tuple(str(self.coeffs[k]) for k in sorted(self.coeffs)),
            str(self.const),
        )

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for name in sorted(self.coeffs):
            c = self.coeffs[name]
            if c == 1:
                term = name
            elif c == -1:
                term = f"-{name}"
            else:
                term = f"{rat_str(c)}*{name}"
            if parts and not term.startswith("-"):
                parts.append("+" + term)
            else:
                parts.append(term)
        if self.const:
            s = rat_str(self.const)
            if parts and not s.startswith("-"):
                parts.append("+" + s)
            else:
                parts.append(s)
        return "".join(parts)

    __repr__ = __str__


def _coerce(x):
    if isinstance(x, LinearForm):
        return x
    return LinearForm.constant(rat(x))
