"""Generic (n-5)-filiform law template and its normal-form basis changes.

Every law here is presented on an adapted basis X1..X6, Y1..Y_{n-6} where
ad(X1) acts as the chain X2 -> X3 -> X4 -> X5 -> X6.  The template captures
such a law by the parameter family (d_i, e_i, f_i, m^k, n6, o6, p^k, p6,
a_ij).  The shape is stated once, in `_entries`, the bracket list of a
parameter form: `instantiate` writes it out as structure constants, and
`template_match` reads each parameter at the one place `_entries` puts it
and accepts an algebra only if its brackets are exactly those entries.

The type I-IV changes move to another adapted basis.  Types I, II and IV
regenerate the chain images with the adjoint operator of the (new) X1,
and the Y-images of type II pick up determined corrections so that
[X1', Yi'] = 0 again; type III is a plain substitution.  Each change is
built from integer columns (d, v), the vector v / d: the parameters are
cleared once, the chain and the corrections run on the integer columns of
a positive multiple of ad(X1') (`LieAlgebra.ad_columns`), and no rational
is built.  The `BasisChange` keeps the columns over their common denominator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, lcm

from .errors import TemplateMismatch
from .lie import BasisChange, LieAlgebra, from_bracket_list
from .linalg import _combine, _echelon, _primitive, _scaled
from .rational import ONE, ZERO, rat


@dataclass(frozen=True)
class GenericN5Law:
    """Parameter form of a law on an adapted filiform-chain basis.

    Vector parameters are indexed by the Y's (length n-6); a holds the
    antisymmetric Y-pair coefficients keyed by 1-based (i, j) with i < j.
    """

    n: int
    d: tuple
    e: tuple
    f: tuple
    m: tuple
    n6: object
    o6: object
    p: tuple
    p6: object
    a: dict = field(default_factory=dict)

    def __post_init__(self):
        ny = self.n - 6
        for name in ("d", "e", "f", "m", "p"):
            if len(getattr(self, name)) != ny:
                raise TemplateMismatch(f"parameter vector {name} must have length {ny}")
            object.__setattr__(self, name, tuple(rat(x) for x in getattr(self, name)))
        for name in ("n6", "o6", "p6"):
            object.__setattr__(self, name, rat(getattr(self, name)))
        clean = {}
        for (i, j), c in self.a.items():
            if not 1 <= i < j <= ny:
                raise TemplateMismatch(f"bad a index ({i}, {j})")
            c = rat(c)
            if c:
                clean[(i, j)] = c
        object.__setattr__(self, "a", clean)

    @staticmethod
    def zero(n):
        ny = n - 6
        z = (ZERO,) * ny
        return GenericN5Law(n, z, z, z, z, ZERO, ZERO, z, ZERO, {})

    def a_at(self, i, j):
        if i == j:
            return ZERO
        if i < j:
            return self.a.get((i, j), ZERO)
        return -self.a.get((j, i), ZERO)


def adapted_labels(n):
    """The adapted-basis labels X1..X6, Y1..Y_{n-6}."""
    return tuple(f"X{j}" for j in range(1, 7)) + tuple(f"Y{k}" for k in range(1, n - 5))


def _entries(t: GenericN5Law):
    """The template brackets of t, as (i, j, {k: c}) entries; zero coefficients kept.

    Each basis pair is written at most once.
    """
    ny = t.n - 6
    mix = {5 + k: t.m[k - 1] for k in range(1, ny + 1)}
    mix[5] = t.n6
    pmix = {5 + k: t.p[k - 1] for k in range(1, ny + 1)}
    pmix[4] = t.o6
    pmix[5] = t.p6
    entries = [(0, j, {j + 1: ONE}) for j in (1, 2, 3, 4)]
    entries += [(4, 1, mix), (2, 3, mix), (3, 1, {5: t.o6}), (2, 1, pmix)]
    for i in range(1, ny + 1):
        yi = 5 + i
        entries.append((yi, 3, {5: t.d[i - 1]}))
        entries.append((yi, 2, {4: t.d[i - 1], 5: t.e[i - 1]}))
        entries.append((yi, 1, {3: t.d[i - 1], 4: t.e[i - 1], 5: t.f[i - 1]}))
    entries += [(5 + i, 5 + j, {5: c}) for (i, j), c in t.a.items()]
    return entries


def instantiate(t: GenericN5Law) -> LieAlgebra:
    """Write out the template brackets as an explicit algebra."""
    return from_bracket_list(t.n, _entries(t), labels=adapted_labels(t.n))


def template_match(g: LieAlgebra):
    """Recover the template parameters, or None when a bracket breaks shape.

    Each parameter is read where `_entries` writes it: the X6 coefficient
    of [Yi, X4], [Yi, X3], [Yi, X2], [X4, X2] and [Yi, Yj] for d, e, f, o6
    and a, and [X5, X2], [X3, X2] for the rest.  g matches when every
    entry of the law so read is its bracket and g has no other pair.  Each
    bracket of g is read once: an entry compares with the bracket its
    parameters were read from.
    """
    n = g.dim
    if n < 6:
        return None
    read = {}                                   # (i, j): [e_i, e_j], each pair read once

    def x6(i, j):
        read[i, j] = comp = g.bracket_basis(i, j)
        return comp.get(5, ZERO)

    mix = read[4, 1] = g.bracket_basis(4, 1)
    pmix = read[2, 1] = g.bracket_basis(2, 1)
    ys = range(6, n)
    t = GenericN5Law(
        n,
        tuple(x6(y, 3) for y in ys),
        tuple(x6(y, 2) for y in ys),
        tuple(x6(y, 1) for y in ys),
        tuple(mix.get(y, ZERO) for y in ys),
        mix.get(5, ZERO),
        x6(3, 1),
        tuple(pmix.get(y, ZERO) for y in ys),
        pmix.get(5, ZERO),
        {(i - 5, j - 5): x6(i, j) for i in ys for j in range(i + 1, n)},
    )
    pairs = 0
    for i, j, comp in _entries(t):
        comp = {k: c for k, c in comp.items() if c}
        got = read.get((i, j))
        if comp != (g.bracket_basis(i, j) if got is None else got):
            return None
        pairs += bool(comp)
    return t if pairs == len(g.brackets) else None


# -- adapted-basis changes ----------------------------------------------------

def _ad(g: LieAlgebra, x1):
    """(s, A): A the integer columns of s ad(x1), s > 0, for a column x1."""
    return g._denominator() * x1[0], g.ad_columns(x1[1])


def _chain_from(ad, x2):
    """[X2', X3', X4', X5', X6'] = x2 and its images under ad(X1') = A / s.

    With x2 the column (d, v), ad(X1')^k x2 is the column (d s^k, A^k v).
    """
    s, cols = ad
    d, v = x2
    out = [x2]
    for _ in range(4):
        v = _combine(cols, v)
        d *= s
        out.append((d, v))
    return out


def _solve_correction(ad, base, slots):
    """The column base + sum(u_t e_slot_t) with [X1', base + correction] = 0.

    With base = (d, b) and A the integer columns of s ad(X1'), u = w / d for
    the solution w of sum_t w_t A e_slot_t = -A b (s cancels), unique with
    its free coordinates set to 0: w_t = row[m] / row[t] for pivot row t of
    the reduced integer echelon of [A e_slot | -A b].  With q the lcm of
    the pivots row[t], the column is (q d, q b + sum (q / row[t]) row[m] e_slot_t),
    and its product with A must vanish.
    """
    _, cols = ad
    m = len(slots)
    d, b = base
    rows = {}
    for t, slot in enumerate(slots):
        for i, c in cols[slot].items():
            rows.setdefault(i, {})[t] = c
    for i, c in _combine(cols, b).items():
        rows.setdefault(i, {})[m] = -c
    pivots = _echelon(_primitive(row) for row in rows.values())
    if m in pivots:
        raise TemplateMismatch("basis change cannot be adapted: [X1', Yi'] = 0 is unsolvable")
    q = lcm(*(row[t] for t, row in pivots.items()))
    v = {i: q * x for i, x in b.items()}
    for t, row in pivots.items():
        v[slots[t]] = v.get(slots[t], 0) + q // row[t] * row.get(m, 0)
    if _combine(cols, v):
        raise TemplateMismatch("basis change cannot be adapted: correction left a residual")
    return q * d, v


def _change(cols, kind):
    """The `BasisChange` of columns (d, v) over their least common denominator.

    Each column is put in lowest terms (zeros dropped), so the lcm of the d is that of T.
    """
    low = []
    for d, v in cols:
        c = gcd(d, *v.values())
        low.append((d // c, {i: x // c for i, x in v.items() if x}))
    scale = lcm(*(d for d, _ in low))
    return BasisChange((scale, [{i: scale // d * x for i, x in v.items()} for d, v in low]), kind)


def type_i_change(g: LieAlgebra, a, b) -> BasisChange:
    """Adapted change fixing X1 and the Y's above Y2.

    a = (a2..a8) with a2 != 0 maps X2 to a2*X2 + ... + a7*Y1 + a8*Y2;
    b = (b1..b5) with b1, b4 != 0 maps Y1, Y2 into span{Y1, Y2, X6}.
    The chain X3'..X6' is regenerated by ad(X1).
    """
    n = g.dim
    if n < 8 or len(a) != 7 or len(b) != 5:
        raise TemplateMismatch("type I needs two Y's, a = (a2..a8) and b = (b1..b5)")
    a2, a3, a4, a5, a6, a7, a8 = (rat(x) for x in a)
    b1, b2, b3, b4, b5 = (rat(x) for x in b)
    if a2 == 0 or b1 == 0 or b4 == 0:
        raise TemplateMismatch("type I requires a2, b1, b4 nonzero")
    e = [(1, {i: 1}) for i in range(n)]
    x2 = _scaled({1: a2, 2: a3, 3: a4, 4: a5, 5: a6, 6: a7, 7: a8}.items())
    ys = [_scaled({6: b1, 7: b2, 5: b3}.items()), _scaled({7: b4, 5: b5}.items())]
    return _change([e[0]] + _chain_from(_ad(g, e[0]), x2) + ys + e[8:], "I")


def type_ii_change(g: LieAlgebra, a, b2, b7, c2, b3=0, c3=0) -> BasisChange:
    """Adapted change moving X1; X2 stays fixed.

    a = (a1..a8) with a1 != 0 maps X1 across the whole space; Y1 goes to
    b2*Y1 + b7*Y2 + b3*X6 and Y2 to c2*Y2 + c3*X6, plus determined
    corrections in span{X3, X4, X5} (and X5-corrections on the remaining
    Y's) that restore [X1', Yi'] = 0.
    """
    n = g.dim
    if n < 8:
        raise TemplateMismatch("type II needs at least two Y's")
    avals = [rat(x) for x in a]
    if len(avals) != 8 or avals[0] == 0:
        raise TemplateMismatch("type II requires a = (a1..a8) with a1 != 0")
    b2, b7, c2, b3, c3 = (rat(x) for x in (b2, b7, c2, b3, c3))
    if b2 == 0 or c2 == 0:
        raise TemplateMismatch("type II requires b2, c2 nonzero")
    e = [(1, {i: 1}) for i in range(n)]
    x1 = _scaled(enumerate(avals))
    ad = _ad(g, x1)
    y1 = _solve_correction(ad, _scaled({6: b2, 7: b7, 5: b3}.items()), (2, 3, 4))
    y2 = _solve_correction(ad, _scaled({7: c2, 5: c3}.items()), (3, 4))
    ys = [y1, y2] + [_solve_correction(ad, y, (4,)) for y in e[8:]]
    return _change([x1] + _chain_from(ad, e[1]) + ys, "II")


def type_iii_change(g: LieAlgebra, alphas) -> BasisChange:
    """Y1..Y4 shifted by multiples of Y4, Y5; everything else fixed."""
    n = g.dim
    if n - 6 < 5 or len(alphas) != 7:
        raise TemplateMismatch("type III needs at least five Y's and alphas = (a1..a7)")
    a1, a2, a3, a4, a5, a6, a7 = (rat(x) for x in alphas)
    ys = [{6: 1, 9: a1, 10: a2}, {7: 1, 9: a3, 10: a4}, {8: 1, 9: a5, 10: a6}, {9: 1, 10: a7}]
    e = [(1, {i: 1}) for i in range(n)]
    return _change(e[:6] + [_scaled(y.items()) for y in ys] + e[10:], "III")


def type_iv_change(g: LieAlgebra, alpha, beta, gamma) -> BasisChange:
    """X2 += alpha*Y3, Y1 += beta*Y3, Y2 += gamma*Y3; chain regenerated."""
    n = g.dim
    if n - 6 < 3:
        raise TemplateMismatch("type IV needs at least three Y's")
    e = [(1, {i: 1}) for i in range(n)]
    x2 = _scaled({1: 1, 8: rat(alpha)}.items())
    ys = [_scaled({6: 1, 8: rat(beta)}.items()), _scaled({7: 1, 8: rat(gamma)}.items())]
    return _change([e[0]] + _chain_from(_ad(g, e[0]), x2) + ys + e[8:], "IV")


# -- closed-form transformed constants ----------------------------------------

def type_i_transformed_constants(t: GenericN5Law, a, b, corrected=True):
    """Closed forms for the type-I transformed constants.

    Valid on the stratum m = p = 0, n6 = 0, d = (d1, 0, ...),
    e = (e1, e2, 0, ...), f = (f1, f2, 0, ...).  With corrected=False the
    f1 formula drops its -b2*a7*a12/a2 term, reproducing the printed text;
    general conjugation shows that term is required.
    """
    a2, a3, a4, a5, a6, a7, a8 = (rat(x) for x in a)
    b1, b2, b3, b4, b5 = (rat(x) for x in b)
    d1 = t.d[0]
    e1, e2 = t.e[0], t.e[1]
    f1, f2 = t.f[0], t.f[1]
    a12 = t.a_at(1, 2)
    ny = t.n - 6
    out = {
        "o6": a2 * t.o6 - a7 * d1,
        "p6": a2 * t.p6 - a7 * e1 - a8 * e2,
        "d1": b1 * d1,
        "e1": b1 * e1 + b2 * e2,
        "e2": b4 * e2,
        "f2": b4 * f2 - a7 * b4 * a12 / a2,
        "a12": b1 * b4 * a12 if not corrected else b1 * b4 * a12 / a2,
    }
    f1_new = b1 * f1 + b2 * f2 + b1 * a8 * a12 / a2
    if corrected:
        f1_new -= b2 * a7 * a12 / a2
    out["f1"] = f1_new
    for j in range(3, ny + 1):
        out[f"a1{j}"] = (b1 * t.a_at(1, j) + b2 * t.a_at(2, j)) / a2
        out[f"a2{j}"] = b4 * t.a_at(2, j) / a2
    return out


def type_ii_transformed_constants(t: GenericN5Law, a, b2, b7, c2):
    """Closed forms for the type-II transformed constants (same stratum)."""
    a1, a2, a3, a4, a5, a6, a7, a8 = (rat(x) for x in a)
    b2, b7, c2 = rat(b2), rat(b7), rat(c2)
    d1 = t.d[0]
    e1, e2 = t.e[0], t.e[1]
    f1, f2 = t.f[0], t.f[1]
    a12 = t.a_at(1, 2)
    o6, p6 = t.o6, t.p6
    ny = t.n - 6
    out = {
        "o6": o6 / a1**2,
        "p6": (a1 * p6 + 2 * a2 * o6**2 - 2 * a7 * d1 * o6) / a1**4,
        "d1": b2 * d1 / a1**2,
        "e1": (b2 * e1 + b7 * e2) / a1**3
        + (2 * b2 * d1 / a1**4) * (a2 * o6 - a7 * d1),
        "e2": c2 * e2 / a1**3,
        "f2": c2 * (f2 / a1**4 + 3 * a2 * e2 * o6 / a1**5 - 3 * e2 * a7 * d1 / a1**5),
        "a12": b2 * c2 * a12 / a1**4,
        "f1": (5 * a7**2 * b2 / a1**6) * d1**3
        - (10 * a2 * a7 * o6 * b2 / a1**6) * d1**2
        + (b2 * f1 + b7 * f2) / a1**4
        + (3 * a2 * o6 / a1**5) * (b2 * e1 + b7 * e2)
        + (
            5 * a2**2 * o6**2 * b2 / a1**6
            + 2 * a2 * b2 * p6 / a1**5
            - 5 * a7 * b2 * e1 / a1**5
            - 3 * a7 * b7 * e2 / a1**5
            - 2 * b2 * a8 * e2 / a1**5
        )
        * d1,
    }
    for j in range(3, ny + 1):
        out[f"a1{j}"] = (b2 * t.a_at(1, j) + b7 * t.a_at(2, j)) / a1**4 - (
            a2 * b2 * d1 * t.e[j - 1] / a1**5
        )
        out[f"a2{j}"] = c2 * t.a_at(2, j) / a1**4
    return out


def constants_of_interest(t: GenericN5Law):
    """The template constants the closed forms describe, as a dict."""
    ny = t.n - 6
    out = {
        "o6": t.o6,
        "p6": t.p6,
        "d1": t.d[0],
        "e1": t.e[0],
        "e2": t.e[1],
        "f1": t.f[0],
        "f2": t.f[1],
        "a12": t.a_at(1, 2),
    }
    for j in range(3, ny + 1):
        out[f"a1{j}"] = t.a_at(1, j)
        out[f"a2{j}"] = t.a_at(2, j)
    return out


def sample_transform_stratum(n, rng, max_den=10):
    """Random template on the closed-form stratum (Jacobi holds identically).

    The stratum fixes m = p = 0, n6 = 0, one d slot and two e/f slots, and
    leaves the Y-pair coefficients free; it is exactly where the type I/II
    transformed-constant formulas are stated.
    """
    ny = n - 6

    def q():
        num = rng.randint(-6, 6)
        den = rng.randint(1, max_den)
        return rat(num, den)

    d = [q()] + [ZERO] * (ny - 1)
    e = [q(), q()] + [ZERO] * (ny - 2)
    f = [q(), q()] + [ZERO] * (ny - 2)
    a = {}
    for i in range(1, ny + 1):
        for j in range(i + 1, ny + 1):
            c = q()
            if c:
                a[(i, j)] = c
    z = (ZERO,) * ny
    return GenericN5Law(n, tuple(d), tuple(e), tuple(f), z, ZERO, q(), z, q(), a)
