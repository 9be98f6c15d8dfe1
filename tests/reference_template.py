"""Reference adapted-basis changes, for differential tests.

This is the version nilform used before the type I-IV changes ran on
integer columns: every column is a dense rational list, the chain X3'..X6'
comes from repeated rational `LieAlgebra.bracket` calls, each correction of
type II solves its rational system with the reference field `solve` and
checks the residual with one more rational bracket, and type III edits the
columns of a rational identity matrix.  The new changes must return the
same `BasisChange.matrix`, and raise `TemplateMismatch` with the same
message.

`template_match` is the matcher nilform used before the template shape
was stated once, in `template._entries`: it restates that shape slot by
slot.  The new matcher must return the same law, or None, on every input.
"""

from nilform.errors import TemplateMismatch
from nilform.lie import BasisChange, LieAlgebra, basis_vec, zero_vec
from nilform.linalg import Matrix
from nilform.rational import ONE, ZERO, rat
from nilform.template import GenericN5Law

from reference_linalg import solve


def _vec(n, entries):
    v = zero_vec(n)
    for k, c in entries.items():
        v[k] = rat(c)
    return v


def _chain_from(g: LieAlgebra, x1, x2):
    """[x1-chain] X3'..X6' generated by the adjoint action of x1 on x2."""
    cols = [x2]
    cur = x2
    for _ in range(4):
        cur = g.bracket(x1, cur)
        cols.append(cur)
    return cols  # [X2', X3', X4', X5', X6']


def _solve_correction(g, x1, base, slots):
    """Correction sum(u_s * e_s) over slots with [x1, base + corr] = 0."""
    n = g.dim
    residual = g.bracket(x1, base)
    cols = [g.bracket(x1, basis_vec(n, s)) for s in slots]
    mat = Matrix.from_cols(cols)
    u = solve(mat, [-r for r in residual])
    if u is None:
        raise TemplateMismatch(
            "basis change cannot be adapted: [X1', Yi'] = 0 is unsolvable"
        )
    corr = list(base)
    for s, c in zip(slots, u):
        corr[s] = corr[s] + c
    if any(g.bracket(x1, corr)):
        raise TemplateMismatch(
            "basis change cannot be adapted: correction left a residual"
        )
    return corr


def type_i_change(g: LieAlgebra, a, b) -> BasisChange:
    n = g.dim
    a2, a3, a4, a5, a6, a7, a8 = (rat(x) for x in a)
    b1, b2, b3, b4, b5 = (rat(x) for x in b)
    if a2 == 0 or b1 == 0 or b4 == 0:
        raise TemplateMismatch("type I requires a2, b1, b4 nonzero")
    x2 = _vec(n, {1: a2, 2: a3, 3: a4, 4: a5, 5: a6, 6: a7, 7: a8})
    cols = [basis_vec(n, 0)] + _chain_from(g, basis_vec(n, 0), x2)
    y1 = _vec(n, {6: b1, 7: b2, 5: b3})
    y2 = _vec(n, {7: b4, 5: b5})
    ys = [y1, y2] + [basis_vec(n, 6 + k) for k in range(2, n - 6)]
    return BasisChange(Matrix.from_cols(cols + ys), kind="I")


def type_ii_change(g: LieAlgebra, a, b2, b7, c2, b3=0, c3=0) -> BasisChange:
    n = g.dim
    avals = [rat(x) for x in a]
    if len(avals) != 8 or avals[0] == 0:
        raise TemplateMismatch("type II requires a = (a1..a8) with a1 != 0")
    if rat(b2) == 0 or rat(c2) == 0:
        raise TemplateMismatch("type II requires b2, c2 nonzero")
    x1 = _vec(n, {i: avals[i] for i in range(6)})
    x1[6] = avals[6]
    x1[7] = avals[7]
    x2 = basis_vec(n, 1)
    cols = [x1] + _chain_from(g, x1, x2)
    y1 = _solve_correction(g, x1, _vec(n, {6: b2, 7: b7, 5: b3}), (2, 3, 4))
    y2 = _solve_correction(g, x1, _vec(n, {7: c2, 5: c3}), (3, 4))
    ys = [y1, y2]
    for k in range(2, n - 6):
        ys.append(_solve_correction(g, x1, basis_vec(n, 6 + k), (4,)))
    return BasisChange(Matrix.from_cols(cols + ys), kind="II")


def type_iii_change(g: LieAlgebra, alphas) -> BasisChange:
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
    n = g.dim
    if n - 6 < 3:
        raise TemplateMismatch("type IV needs at least three Y's")
    x2 = _vec(n, {1: ONE, 8: rat(alpha)})
    cols = [basis_vec(n, 0)] + _chain_from(g, basis_vec(n, 0), x2)
    y1 = _vec(n, {6: ONE, 8: rat(beta)})
    y2 = _vec(n, {7: ONE, 8: rat(gamma)})
    ys = [y1, y2] + [basis_vec(n, 6 + k) for k in range(2, n - 6)]
    return BasisChange(Matrix.from_cols(cols + ys), kind="IV")


def template_match(g: LieAlgebra):
    """Recover the template parameters, or None when a bracket breaks shape.

    One hand-written check per template slot.
    """
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
