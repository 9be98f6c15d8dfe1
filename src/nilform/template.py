"""Generic (n-5)-filiform law template and its normal-form basis changes.

Every law here is presented on an adapted basis X1..X6, Y1..Y_{n-6} where
ad(X1) acts as the chain X2 -> X3 -> X4 -> X5 -> X6.  The template captures
such a law by the parameter family (d_i, e_i, f_i, m^k, n6, o6, p^k, p6,
a_ij); instantiate/template_match convert between the parameter form and
explicit structure constants.

The type I-IV changes move to another adapted basis.  Types I, II and IV
leave the chain images implicit: they are regenerated by the adjoint
operator of the (new) X1, and the Y-images of type II pick up determined
corrections so that [X1', Yi'] = 0 again.  Type III is a plain
substitution.  X1' is cleared to integers once per change, and the chain
and the corrections run on the integer columns of a positive multiple of
ad(X1') (`LieAlgebra.ad_columns`); rationals are built only for the
columns of the new basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import TemplateMismatch
from .lie import BasisChange, LieAlgebra, basis_vec, from_bracket_list, zero_vec
from .linalg import Matrix, _combine, _echelon, _primitive, _rref_row, _scaled
from .rational import ONE, ZERO, rat


def _vec(n, entries):
    v = zero_vec(n)
    for k, c in entries.items():
        v[k] = rat(c)
    return v


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


def instantiate(t: GenericN5Law) -> LieAlgebra:
    """Write out the template brackets as an explicit algebra."""
    n = t.n
    ny = n - 6
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

    labels = tuple(f"X{j}" for j in range(1, 7)) + tuple(
        f"Y{k}" for k in range(1, ny + 1)
    )
    return from_bracket_list(n, entries, labels=labels)


def template_match(g: LieAlgebra):
    """Recover the template parameters, or None when a bracket breaks shape."""
    n = g.dim
    ny = n - 6
    if ny < 0:
        return None

    def comp(i, j):
        return g.bracket_basis(i, j)

    # Chain and zero rows of the X1 action.
    for j in (1, 2, 3, 4):
        if comp(0, j) != {j + 1: ONE}:
            return None
    if comp(0, 5):
        return None
    for k in range(ny):
        if comp(0, 6 + k):
            return None

    mix = comp(4, 1)
    if comp(2, 3) != mix:
        return None
    if any(k < 5 for k in mix):
        return None
    n6 = mix.get(5, ZERO)
    m = tuple(mix.get(6 + k, ZERO) for k in range(ny))

    o_comp = comp(3, 1)
    if any(k != 5 for k in o_comp):
        return None
    o6 = o_comp.get(5, ZERO)

    pmix = comp(2, 1)
    if any(k < 4 for k in pmix):
        return None
    if pmix.get(4, ZERO) != o6:
        return None
    p6 = pmix.get(5, ZERO)
    p = tuple(pmix.get(6 + k, ZERO) for k in range(ny))

    # Remaining X-pair brackets must vanish.
    for (i, j) in ((2, 4), (3, 4), (1, 5), (2, 5), (3, 5), (4, 5)):
        if comp(i, j):
            return None

    d = [ZERO] * ny
    e = [ZERO] * ny
    f = [ZERO] * ny
    for k in range(ny):
        yi = 6 + k
        c4 = comp(yi, 3)
        if any(t != 5 for t in c4):
            return None
        d[k] = c4.get(5, ZERO)
        c3 = comp(yi, 2)
        if any(t not in (4, 5) for t in c3):
            return None
        if c3.get(4, ZERO) != d[k]:
            return None
        e[k] = c3.get(5, ZERO)
        c2 = comp(yi, 1)
        if any(t not in (3, 4, 5) for t in c2):
            return None
        if c2.get(3, ZERO) != d[k] or c2.get(4, ZERO) != e[k]:
            return None
        f[k] = c2.get(5, ZERO)
        if comp(yi, 4) or comp(yi, 5):
            return None

    a = {}
    for i in range(ny):
        for j in range(i + 1, ny):
            cij = comp(6 + i, 6 + j)
            if any(t != 5 for t in cij):
                return None
            c = cij.get(5, ZERO)
            if c:
                a[(i + 1, j + 1)] = c

    return GenericN5Law(
        n, tuple(d), tuple(e), tuple(f), m, n6, o6, p, p6, a
    )


# -- adapted-basis changes ----------------------------------------------------

def _ad(g: LieAlgebra, x1):
    """(s, A): A the integer columns of s ad(x1), s > 0, for a rational vector x1."""
    d, v = _scaled(enumerate(x1))
    return g._denominator() * d, g.ad_columns(v)


def _chain_from(ad, x2):
    """[X2', X3', X4', X5', X6'] = x2 and its images under ad(X1') = A / s.

    With x2 = v / d cleared to integers, ad(X1')^k x2 is A^k v / (d s^k).
    """
    s, cols = ad
    d, v = _scaled(enumerate(x2))
    out = [x2]
    for _ in range(4):
        v = _combine(cols, v)
        d *= s
        out.append(_rref_row(v, d, len(x2)))
    return out


def _solve_correction(ad, base, slots):
    """base + sum(u_t e_slot_t) with [X1', base + correction] = 0.

    With base = b / d cleared to integers and A the integer columns of
    s ad(X1'), the u_t are w_t / d for the solution w of
    sum_t w_t A e_slot_t = -A b (s cancels).  The rref of [A e_slot | -A b]
    is unique, so w is too, with its free coordinates set to 0.  The
    corrected vector is checked by one more integer product, which must
    vanish.
    """
    _, cols = ad
    m = len(slots)
    d, b = _scaled(enumerate(base))
    rows = {}
    for t, slot in enumerate(slots):
        for i, c in cols[slot].items():
            rows.setdefault(i, {})[t] = c
    for i, c in _combine(cols, b).items():
        rows.setdefault(i, {})[m] = -c
    pivots = _echelon(_primitive(row) for row in rows.values())
    if m in pivots:
        raise TemplateMismatch(
            "basis change cannot be adapted: [X1', Yi'] = 0 is unsolvable"
        )
    corr = list(base)
    for t, row in pivots.items():
        if m in row:
            corr[slots[t]] += rat(row[m], row[t] * d)
    if _combine(cols, _scaled(enumerate(corr))[1]):
        raise TemplateMismatch(
            "basis change cannot be adapted: correction left a residual"
        )
    return corr


def type_i_change(g: LieAlgebra, a, b) -> BasisChange:
    """Adapted change fixing X1 and the Y's above Y2.

    a = (a2..a8) with a2 != 0 maps X2 to a2*X2 + ... + a7*Y1 + a8*Y2;
    b = (b1..b5) with b1, b4 != 0 maps Y1, Y2 into span{Y1, Y2, X6}.
    The chain X3'..X6' is regenerated by ad(X1).
    """
    n = g.dim
    a2, a3, a4, a5, a6, a7, a8 = (rat(x) for x in a)
    b1, b2, b3, b4, b5 = (rat(x) for x in b)
    if a2 == 0 or b1 == 0 or b4 == 0:
        raise TemplateMismatch("type I requires a2, b1, b4 nonzero")
    x2 = _vec(n, {1: a2, 2: a3, 3: a4, 4: a5, 5: a6, 6: a7, 7: a8})
    cols = [basis_vec(n, 0)] + _chain_from(_ad(g, basis_vec(n, 0)), x2)
    y1 = _vec(n, {6: b1, 7: b2, 5: b3})
    y2 = _vec(n, {7: b4, 5: b5})
    ys = [y1, y2] + [basis_vec(n, 6 + k) for k in range(2, n - 6)]
    return BasisChange(Matrix.from_cols(cols + ys), kind="I")


def type_ii_change(g: LieAlgebra, a, b2, b7, c2, b3=0, c3=0) -> BasisChange:
    """Adapted change moving X1; X2 stays fixed.

    a = (a1..a8) with a1 != 0 maps X1 across the whole space; Y1 goes to
    b2*Y1 + b7*Y2 + b3*X6 and Y2 to c2*Y2 + c3*X6, plus determined
    corrections in span{X3, X4, X5} (and X5-corrections on the remaining
    Y's) that restore [X1', Yi'] = 0.
    """
    n = g.dim
    avals = [rat(x) for x in a]
    if len(avals) != 8 or avals[0] == 0:
        raise TemplateMismatch("type II requires a = (a1..a8) with a1 != 0")
    if rat(b2) == 0 or rat(c2) == 0:
        raise TemplateMismatch("type II requires b2, c2 nonzero")
    x1 = _vec(n, {i: avals[i] for i in range(6)})
    x1[6] = avals[6]
    x1[7] = avals[7]
    ad = _ad(g, x1)
    cols = [x1] + _chain_from(ad, basis_vec(n, 1))
    y1 = _solve_correction(ad, _vec(n, {6: b2, 7: b7, 5: b3}), (2, 3, 4))
    y2 = _solve_correction(ad, _vec(n, {7: c2, 5: c3}), (3, 4))
    ys = [y1, y2]
    for k in range(2, n - 6):
        ys.append(_solve_correction(ad, basis_vec(n, 6 + k), (4,)))
    return BasisChange(Matrix.from_cols(cols + ys), kind="II")


def type_iii_change(g: LieAlgebra, alphas) -> BasisChange:
    """Y1..Y4 shifted by multiples of Y4, Y5; everything else fixed."""
    n = g.dim
    if n - 6 < 5:
        raise TemplateMismatch("type III needs at least five Y's")
    a1, a2, a3, a4, a5, a6, a7 = (rat(x) for x in alphas)
    t = Matrix.identity(n).rows()
    # columns express new basis vectors; adjust Y columns.
    cols = [list(col) for col in zip(*t)]
    y = lambda k: 5 + k
    cols[y(1)][y(4)] = a1
    cols[y(1)][y(5)] = a2
    cols[y(2)][y(4)] = a3
    cols[y(2)][y(5)] = a4
    cols[y(3)][y(4)] = a5
    cols[y(3)][y(5)] = a6
    cols[y(4)][y(5)] = a7
    return BasisChange(Matrix.from_cols(cols), kind="III")


def type_iv_change(g: LieAlgebra, alpha, beta, gamma) -> BasisChange:
    """X2 += alpha*Y3, Y1 += beta*Y3, Y2 += gamma*Y3; chain regenerated."""
    n = g.dim
    if n - 6 < 3:
        raise TemplateMismatch("type IV needs at least three Y's")
    x2 = _vec(n, {1: ONE, 8: rat(alpha)})
    cols = [basis_vec(n, 0)] + _chain_from(_ad(g, basis_vec(n, 0)), x2)
    y1 = _vec(n, {6: ONE, 8: rat(beta)})
    y2 = _vec(n, {7: ONE, 8: rat(gamma)})
    ys = [y1, y2] + [basis_vec(n, 6 + k) for k in range(2, n - 6)]
    return BasisChange(Matrix.from_cols(cols + ys), kind="IV")


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
