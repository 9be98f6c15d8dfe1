"""Reference Lie-layer contractions, for differential tests.

These are the versions nilform used before `bracket`, `ad`, `center` and
`is_derivation` became single passes over the stored bracket pairs: the
bracket through a sparse dict, ad(v) column by column through
`bracket_basis` and `Matrix.from_cols`, the center as the kernel of the
dense stack of all adjoint rows, and the Leibniz rule checked pair by pair
with hand-rolled loops.  They are kept as plain functions of the algebra;
the center's kernel comes from the reference field eliminator.

`derived_subalgebra`, `lower_central_series` and `derived_series` are the
versions used before the series ran on the integer structure tensor: each
term is the `Subspace.span` of the rational brackets of the rref basis
vectors of the terms before it.

`change_basis` and `jacobi_check` are the versions used before they ran
on the integer structure tensor: the rational bracket of the columns of T,
mapped back through the rational inverse of T, and the Jacobi residual
accumulated in rationals through `bracket_basis`.

`is_ideal`, `quotient` and `is_abelian_subspace` are the versions used
before `bracket` read the integer structure tensor: they bracket through
the rational `bracket` above, and the quotient brackets every pair of
complement basis vectors before reducing it against the ideal.  Membership
and remainders come from `reference_invariants.contains` and `reduce`, the
dense rational loop over the ideal's rref rows, not from the `Subspace`
under test.  The reference `change_basis` brackets through it too.

`integer_lower_central_series` and `integer_center` are the integer
versions used before the support of the tensor decided what is built:
the series brackets every e_i with every echelon row of the term before,
and the center hands the integer kernel every row [e_a, e_j]_k, those
with one entry too.  They build the same forward echelons as the
versions under test.
"""

from nilform.errors import DimensionMismatch, NotAnIdeal, SingularTransform
from nilform.lie import (
    BasisChange,
    JacobiFailure,
    LieAlgebra,
    Subspace,
    _int_bracket,
    basis_vec,
    zero_vec,
)
from nilform.linalg import Matrix, _echelon, _integer_kernel, _primitive, inverse, rank
from nilform.rational import ONE, ZERO

import reference_invariants as ref_inv
from reference_linalg import kernel_basis, matvec


def _bracket_sparse(g, u, v):
    out = {}
    for (i, j), comp in g.brackets.items():
        f = u[i] * v[j] - u[j] * v[i]
        if f:
            for k, c in comp.items():
                out[k] = out.get(k, ZERO) + f * c
    return {k: c for k, c in out.items() if c}


def bracket(g, u, v):
    """Bilinear extension [u, v] for coordinate vectors, as a dense list."""
    if len(u) != g.dim or len(v) != g.dim:
        raise DimensionMismatch("vector length != dim")
    out = zero_vec(g.dim)
    for k, c in _bracket_sparse(g, u, v).items():
        out[k] = c
    return out


def ad(g, v):
    """Matrix of ad(v): x -> [v, x] in the given basis."""
    if len(v) != g.dim:
        raise DimensionMismatch("vector length != dim")
    cols = []
    for j in range(g.dim):
        col = zero_vec(g.dim)
        for i in range(g.dim):
            vi = v[i]
            if not vi:
                continue
            for k, c in g.bracket_basis(i, j).items():
                col[k] += vi * c
        cols.append(col)
    return Matrix.from_cols(cols)


def center(g):
    """Kernel of the stacked adjoint matrices."""
    rows = []
    for j in range(g.dim):
        cols = [g.bracket_basis(i, j) for i in range(g.dim)]
        for k in range(g.dim):
            row = [cols[i].get(k, ZERO) for i in range(g.dim)]
            if any(row):
                rows.append(row)
    if not rows:
        return Subspace.full(g.dim)
    return Subspace.span(g.dim, kernel_basis(Matrix(rows, copy=False)))


def is_derivation(g, d):
    """Exact Leibniz check on all basis pairs."""
    n = g.dim
    for i in range(n):
        di = d.col(i)
        for j in range(i + 1, n):
            dj = d.col(j)
            lhs = [ZERO] * n
            for k, c in g.bracket_basis(i, j).items():
                for t in range(n):
                    if d.data[t][k]:
                        lhs[t] += c * d.data[t][k]
            rhs = [
                x + y
                for x, y in zip(
                    bracket(g, di, [ONE if t == j else ZERO for t in range(n)]),
                    bracket(g, [ONE if t == i else ZERO for t in range(n)], dj),
                )
            ]
            if lhs != rhs:
                return False
    return True


def derived_subalgebra(g):
    vecs = []
    for comp in g.brackets.values():
        v = zero_vec(g.dim)
        for k, c in comp.items():
            v[k] = c
        vecs.append(v)
    return Subspace.span(g.dim, vecs)


def _bracket_spaces(g, a, b):
    vecs = []
    for u in a.basis_vectors():
        for v in b.basis_vectors():
            vecs.append(g.bracket(u, v))
    return Subspace.span(g.dim, vecs)


def lower_central_series(g):
    """[C^0 = g, C^1, ...] descending; ends with the first repeat or 0."""
    whole = Subspace.full(g.dim)
    series = [whole]
    while True:
        nxt = _bracket_spaces(g, whole, series[-1])
        if nxt.dim == series[-1].dim:
            break
        series.append(nxt)
        if nxt.dim == 0:
            break
    return series


def integer_lower_central_series(g):
    """The series from every [e_i, v], i over the basis and v over the echelon rows of the term before."""
    br = g.integer_brackets()
    return g._series(lambda basis: (_int_bracket(br, {i: 1}, v) for i in range(g.dim) for v in basis))


def integer_center(g):
    """The integer kernel of every row [e_a, e_j]_k of the center system, one entry or more."""
    rows = {}
    for a, brs in enumerate(g.integer_brackets()):
        for j, comp in brs.items():
            for k, c in comp.items():
                rows.setdefault((a, k), {})[j] = c
    _, _, kernel = _integer_kernel([_primitive(r) for r in rows.values()], g.dim)
    return Subspace._of_echelon(g.dim, _echelon(map(_primitive, kernel), reduced=False))


def derived_series(g):
    series = [Subspace.full(g.dim)]
    while True:
        nxt = _bracket_spaces(g, series[-1], series[-1])
        if nxt.dim == series[-1].dim:
            break
        series.append(nxt)
        if nxt.dim == 0:
            break
    return series


def change_basis(g, transform):
    """Conjugate the structure constants by an invertible matrix.

    Columns of the matrix express the new basis in old coordinates.
    """
    t = transform.matrix if isinstance(transform, BasisChange) else transform
    if t.nrows != g.dim or t.ncols != g.dim:
        raise DimensionMismatch("basis change must be n x n")
    if rank(t) != g.dim:
        raise SingularTransform("basis change matrix is singular")
    tinv = inverse(t)
    cols = [t.col(j) for j in range(g.dim)]
    new = {}
    for a in range(g.dim):
        for b in range(a + 1, g.dim):
            w = bracket(g, cols[a], cols[b])
            coeffs = matvec(tinv, w)
            comp = {k: c for k, c in enumerate(coeffs) if c}
            if comp:
                new[(a, b)] = comp
    meta = {k: v for k, v in g.meta.items() if k != "defining_basis"}
    return LieAlgebra(g.dim, new, labels=g.labels, meta=meta)


def jacobi_check(g):
    """None when the Jacobi identity holds, else the first failure.

    Scans basis triples i < j < k in lexicographic order and reports the
    residual of [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j].
    """
    n = g.dim
    for i in range(n):
        for j in range(i + 1, n):
            cij = g.bracket_basis(i, j)
            for k in range(j + 1, n):
                acc = {}
                for a, c in cij.items():
                    for t, d in g.bracket_basis(a, k).items():
                        acc[t] = acc.get(t, ZERO) + c * d
                for a, c in g.bracket_basis(j, k).items():
                    for t, d in g.bracket_basis(a, i).items():
                        acc[t] = acc.get(t, ZERO) + c * d
                for a, c in g.bracket_basis(k, i).items():
                    for t, d in g.bracket_basis(a, j).items():
                        acc[t] = acc.get(t, ZERO) + c * d
                if any(acc.values()):
                    res = zero_vec(n)
                    for t, c in acc.items():
                        res[t] = c
                    return JacobiFailure((i, j, k), res)
    return None


def is_abelian_subspace(g, s: Subspace):
    """True iff [s, s] = 0, checked on pairs of basis vectors of s."""
    vecs = s.basis_vectors()
    return all(
        not any(bracket(g, u, v))
        for t, u in enumerate(vecs)
        for v in vecs[t + 1 :]
    )


def is_ideal(g, s: Subspace):
    return all(
        ref_inv.contains(s, bracket(g, basis_vec(g.dim, j), v))
        for v in s.basis_vectors()
        for j in range(g.dim)
    )


def quotient(g, ideal: Subspace):
    """Quotient by an ideal, on the standard-vector complement basis.

    The complement takes the non-pivot coordinates of the ideal's rref
    basis in ascending order, which makes the construction deterministic.
    """
    if not is_ideal(g, ideal):
        raise NotAnIdeal("subspace is not an ideal")
    pivot_set = set(ideal.pivots)
    comp = [i for i in range(g.dim) if i not in pivot_set]
    index_of = {c: t for t, c in enumerate(comp)}
    new = {}
    for a in range(len(comp)):
        for b in range(a + 1, len(comp)):
            w = bracket(
                g, basis_vec(g.dim, comp[a]), basis_vec(g.dim, comp[b])
            )
            w = ref_inv.reduce(ideal, w)
            compd = {}
            for k, c in enumerate(w):
                if c:
                    compd[index_of[k]] = c
            if compd:
                new[(a, b)] = compd
    labels = tuple(g.labels[c] for c in comp)
    return LieAlgebra(len(comp), new, labels=labels)
