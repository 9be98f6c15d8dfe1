"""Lie algebras given by structure constants over the rationals.

Brackets are stored sparsely for ordered basis pairs (i < j, 0-based):
`LieAlgebra.brackets` maps each pair with a nonzero bracket to its
{k: c} coefficients, and antisymmetry is structural, so [x, x] = 0 by
construction.

Everything computed from them contracts one table: `integer_brackets`
holds the same constants once, scaled by their common denominator L to
Python ints (cleared by `linalg._scaled`), for both orders of each pair,
and L[x, y] has the ranks, images, spans and derivations of [x, y].  The
bracket and ad(v) clear their rational arguments the same way and contract
them with it; the center is the integer kernel of its rows, those with one
entry substituted first; ad(x) for the characteristic sequence
(`ad_columns`), the derived algebra, the lower central and derived series,
the Jacobi check, the ideal test and the quotient, the basis change and the
derivation solver read it and eliminate with the integer core of `linalg`.
Rationals are built only for what is returned, each integer divided by its
known scale: the bracket, ad(v), the rref rows of a `Subspace` and the
matrix of a `BasisChange` when read, the residual of a Jacobi failure and
the new constants of a quotient or a basis change.  A `Subspace` holds its
reduced integer echelon, which is canonical, and compares, tests membership
and projects on it.  The tensor is built on first use, so algebras that are
never queried pay nothing, and the forward echelon of C1 is kept beside it
once built, so the characteristic sequence and the series share one
elimination of C1.  Algebras are treated as immutable after construction,
so everything here is safe to share across threads: two threads that race
on the first use build equal tensors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import DimensionMismatch, NotAnIdeal
from .linalg import (
    Matrix,
    _column_matrix,
    _combine,
    _echelon,
    _integer_columns,
    _integer_row,
    _inverse_echelon,
    _kernel_coordinates,
    _kernel_on,
    _primitive,
    _reduce,
    _rref,
    _rref_row,
    _scaled,
)
from .rational import ONE, ZERO, rat


def zero_vec(n):
    return [ZERO] * n

def basis_vec(n, i):
    v = [ZERO] * n
    v[i] = ONE
    return v


class Subspace:
    """Subspace of Q^n held as its reduced integer echelon.

    `echelon` maps each pivot column to a primitive integer row with a
    positive pivot entry and zeros at the other pivot columns: the rref row
    of that column times the least positive integer that clears it.  It is
    canonical, so two Subspaces are equal iff their echelons are equal, and
    callers must not modify it.  Rationals are built only when the rref
    rows are read (`matrix`, `basis_vectors`).
    """

    __slots__ = ("ambient", "echelon")

    def __init__(self, ambient, echelon):
        self.ambient = ambient
        self.echelon = echelon

    @staticmethod
    def span(ambient, vectors):
        def row(v):
            if len(v) != ambient:
                raise DimensionMismatch("vector length != ambient dimension")
            return _integer_row(enumerate(v))

        return Subspace._of_echelon(ambient, _echelon(map(row, vectors), reduced=False))

    @staticmethod
    def _of_echelon(ambient, pivots):
        """The span of a forward integer echelon {pivot column: row}, reduced in place."""
        _reduce(pivots)
        return Subspace(ambient, pivots)

    @staticmethod
    def full(ambient):
        return Subspace(ambient, {j: {j: 1} for j in range(ambient)})

    @property
    def dim(self):
        return len(self.echelon)

    @property
    def pivots(self):
        return tuple(sorted(self.echelon))

    def basis_vectors(self):
        """The rref rows, as dense rational lists."""
        return _rref(self.echelon, self.ambient)

    @property
    def matrix(self):
        return Matrix(self.basis_vectors(), copy=False)

    def _coordinates(self):
        """kcols with `_combine(kcols, w)` empty iff the integer vector w lies in the subspace.

        It is a positive multiple of the coordinates of w modulo the
        subspace (see `linalg._kernel_coordinates`).
        """
        return _kernel_coordinates(self.echelon, self.ambient)[1]

    def contains(self, v):
        if len(v) != self.ambient:
            raise DimensionMismatch("vector length != ambient dimension")
        return not _combine(self._coordinates(), _scaled(enumerate(v))[1])

    def contains_subspace(self, other):
        if other.ambient != self.ambient:
            raise DimensionMismatch("subspace ambient dimensions differ")
        kcols = self._coordinates()
        return not any(_combine(kcols, row) for row in other.echelon.values())

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.echelon == other.echelon
        )

    def __hash__(self):
        rows = frozenset((c, frozenset(row.items())) for c, row in self.echelon.items())
        return hash((self.ambient, rows))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient})"


def _copy(pivots):
    """A copy of an integer echelon {pivot column: row} that may be modified."""
    return {c: dict(row) for c, row in pivots.items()}


def _int_bracket(br, u, v):
    """[u, v] for sparse integer vectors {index: int}, through the integer tensor br."""
    out = {}
    for i, x in u.items():
        row = br[i]
        for m, y in v.items():
            comp = row.get(m)
            if comp:
                xy = x * y
                for k, c in comp.items():
                    out[k] = out.get(k, 0) + xy * c
    return {k: c for k, c in out.items() if c}


@dataclass(frozen=True)
class JacobiFailure:
    triple: tuple
    residual: list

    def __str__(self):
        i, j, k = self.triple
        return f"Jacobi fails at basis triple ({i}, {j}, {k}): residual {self.residual}"


class LieAlgebra:
    """Finite-dimensional Lie algebra over Q with a distinguished basis."""

    __slots__ = ("dim", "labels", "brackets", "meta", "_tensor", "_adapted")

    def __init__(self, dim, brackets, labels=None, meta=None):
        self.dim = dim
        if labels is None:
            labels = tuple(f"e{i + 1}" for i in range(dim))
        if len(labels) != dim:
            raise DimensionMismatch("label count != dim")
        self.labels = tuple(labels)
        clean = {}
        for (i, j), comp in brackets.items():
            if not (0 <= i < j < dim):
                raise DimensionMismatch(f"bad bracket pair ({i}, {j})")
            comp = {k: c for k, c in ((k, rat(c)) for k, c in comp.items()) if c}
            for k in comp:
                if not 0 <= k < dim:
                    raise DimensionMismatch(f"bad bracket target {k}")
            if comp:
                clean[(i, j)] = comp
        self.brackets = clean
        self.meta = dict(meta) if meta else {}
        self._tensor = None
        self._adapted = None

    # -- basic bracket machinery -------------------------------------------

    def bracket_basis(self, i, j):
        """[e_i, e_j] as a sparse {index: coeff} dict."""
        if i == j:
            return {}
        if i < j:
            return self.brackets.get((i, j), {})
        d = self.brackets.get((j, i))
        return {k: -c for k, c in d.items()} if d else {}

    def bracket(self, u, v):
        """Bilinear extension [u, v] for coordinate vectors, as a dense list.

        With u = u'/d_u and v = v'/d_v cleared to integers, [u, v] is the
        integer bracket of u' and v' divided by L d_u d_v.
        """
        if len(u) != self.dim or len(v) != self.dim:
            raise DimensionMismatch("vector length != dim")
        du, iu = _scaled(enumerate(u))
        dv, iv = _scaled(enumerate(v))
        w = _int_bracket(self.integer_brackets(), iu, iv)
        return _rref_row(w, self._denominator() * du * dv, self.dim)

    def ad(self, v):
        """Matrix of ad(v): x -> [v, x] in the given basis, from `ad_columns`."""
        if len(v) != self.dim:
            raise DimensionMismatch("vector length != dim")
        d, iv = _scaled(enumerate(v))
        return _column_matrix(self.ad_columns(iv), self._denominator() * d, self.dim)

    def _denominator(self):
        """L, the common denominator of the structure constants."""
        self.integer_brackets()
        return self._tensor[0]

    def integer_brackets(self):
        """br[i][j] = {k: L c_ij^k} for both orders of every nonzero bracket.

        L is the common denominator of the structure constants, which
        `_scaled` clears in one call.  The rescaled bracket L[x, y] has
        exactly the ranks, images, spans and derivations of [x, y].  Built
        on first use and kept with L and, once `derived_echelon` has built
        it, the echelon of C1; callers must not modify it.
        """
        if self._tensor is None:
            scale, consts = _scaled(
                ((i, j, k), c) for (i, j), comp in self.brackets.items() for k, c in comp.items()
            )
            br = [{} for _ in range(self.dim)]
            for (i, j, k), c in consts.items():
                br[i].setdefault(j, {})[k] = c
                br[j].setdefault(i, {})[k] = -c
            self._tensor = (scale, br, None)
        return self._tensor[1]

    def ad_columns(self, v):
        """Sparse integer columns {k: int} of ad(v) for an integer vector v = {i: int}.

        Column j is [v, e_j] = sum_i v_i L[e_i, e_j], a positive multiple of
        ad of any rational vector that v is proportional to.
        """
        br = self.integer_brackets()
        cols = [{} for _ in range(self.dim)]
        for i, x in v.items():
            for j, comp in br[i].items():
                col = cols[j]
                for k, c in comp.items():
                    col[k] = col.get(k, 0) + x * c
        return [{k: y for k, y in col.items() if y} for col in cols]

    # -- axioms -------------------------------------------------------------

    def jacobi_check(self):
        """None when the Jacobi identity holds, else the first failure.

        The first failure is the least basis triple i < j < k, in
        lexicographic order, whose residual
        [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j] is nonzero,
        reported with that residual.  Only nonzero double brackets are
        visited: for each stored pair p < q, each a in [e_p, e_q] and each
        nonzero [e_a, e_r] with r not p or q, the term [[e_p,e_q],e_r] goes
        to the sorted triple of p, q, r, with sign + when (p, q, r) is in
        cyclic order and - otherwise (it is then -[[e_q,e_p],e_r]).  The
        residuals are accumulated on the integer tensor, scaled by L^2,
        and divided by L^2 only for the failure returned.
        """
        br = self.integer_brackets()
        acc = {}
        for p, q in self.brackets:
            for a, c in br[p][q].items():
                for r, comp in br[a].items():
                    if r == p or r == q:
                        continue
                    if r > q:
                        triple, sign = (p, q, r), c
                    elif r < p:
                        triple, sign = (r, p, q), c
                    else:
                        triple, sign = (p, r, q), -c
                    res = acc.setdefault(triple, {})
                    for t, d in comp.items():
                        res[t] = res.get(t, 0) + sign * d
        failed = [triple for triple, res in acc.items() if any(res.values())]
        if not failed:
            return None
        triple = min(failed)
        return JacobiFailure(triple, _rref_row(acc[triple], self._denominator() ** 2, self.dim))

    # -- derived structure ---------------------------------------------------

    def derived_echelon(self):
        """Forward integer echelon {pivot column: row} of C1 = [g, g].

        C1 is spanned by the stored pairs.  The echelon is built on first
        use and kept with the tensor; callers must not modify it, and
        `_copy` gives a copy that may be reduced in place.
        """
        self.integer_brackets()
        scale, br, c1 = self._tensor
        if c1 is None:
            c1 = _echelon((_primitive(dict(br[i][j])) for i, j in self.brackets), reduced=False)
            self._tensor = (scale, br, c1)
        return c1

    def derived_subalgebra(self):
        return Subspace._of_echelon(self.dim, _copy(self.derived_echelon()))

    def center(self):
        """Kernel of x -> ([e_a, x])_a, one integer row [e_a, e_j]_k per (a, k) coordinate.

        A row with one entry, at j, says x_j = 0.  Those rows are
        substituted before the kernel (`linalg._kernel_on`): the other rows
        are written on the columns left, and the central vectors are 0 at
        every substituted column.  In a sparse law most rows are of this
        kind (ad(X1) maps each X_i to one X_(i+1)).
        """
        n = self.dim
        rows = {}
        for a, brs in enumerate(self.integer_brackets()):
            for j, comp in brs.items():
                for k, c in comp.items():
                    rows.setdefault((a, k), {})[j] = c
        zero = {j for r in rows.values() if len(r) == 1 for j in r}
        live = [j for j in range(n) if j not in zero]
        index = {j: i for i, j in enumerate(live)}
        kernel = _kernel_on(({index[j]: c for j, c in r.items() if j not in zero}
                             for r in rows.values() if len(r) > 1), live)
        return Subspace._of_echelon(n, _echelon(map(_primitive, kernel), reduced=False))

    def _series(self, images):
        """[g, C1, ...] for terms T' = span images(integer basis of T), from T = C1.

        Each term is one forward integer echelon of the integer images; the
        series ends with the first repeat or 0, and rationals are built only
        for the rref of the returned terms.
        """
        terms = [{j: {j: 1} for j in range(self.dim)}]
        nxt = _copy(self.derived_echelon())
        while len(nxt) < len(terms[-1]):        # each term lies in the one before
            terms.append(nxt)
            if not nxt:
                break
            vectors = images(list(nxt.values()))
            nxt = _echelon((_primitive(w) for w in vectors if w), reduced=False)
        return [Subspace._of_echelon(self.dim, t) for t in terms]

    def lower_central_series(self):
        """[C^0 = g, C^1, ...] descending; ends with the first repeat or 0.

        Each term is spanned by the [e_i, v], v in the echelon of the term
        before.  [e_i, v] = sum over m of v_m [e_i, e_m] is 0 unless i is
        in the support of a tensor row br[m] with m in v, so only those
        brackets are computed, in the (i, v) order of the full double loop:
        the forward echelons are the same.
        """
        br = self.integer_brackets()
        n = self.dim

        def images(basis):
            by_index = [[] for _ in range(n)]
            for v in basis:
                for i in set().union(*map(br.__getitem__, v)):
                    by_index[i].append(v)
            return (_int_bracket(br, {i: 1}, v) for i in range(n) for v in by_index[i])

        return self._series(images)

    def adapted(self):
        """(h, T): h = change_basis(T), each term of its lower central series spanned by basis vectors.

        When C1 already is (every structure constant lies at its pivots), as
        in the catalog, h is this algebra and T is None.  Else the integer
        columns of T are the e_b off C1's pivots, then each term's echelon
        rows at the pivots the next term lacks, the deepest term last.  Kept,
        so every caller gets one h; an algebra that is its own h keeps False,
        as keeping itself would make a reference cycle.
        """
        if self._adapted is None:
            c1 = self.derived_echelon()
            if all(k in c1 for comp in self.brackets.values() for k in comp):
                self._adapted = False
            else:
                terms = [s.echelon for s in self.lower_central_series()] + [{}]
                cols = [row for term, below in zip(terms, terms[1:])
                        for c, row in sorted(term.items()) if c not in below]
                t = BasisChange((1, cols))
                self._adapted = (self.change_basis(t), t)
        return (self, None) if self._adapted is False else self._adapted

    def derived_series(self):
        br = self.integer_brackets()
        return self._series(
            lambda basis: (
                _int_bracket(br, u, v) for t, u in enumerate(basis) for v in basis[t + 1 :]
            )
        )

    def is_nilpotent(self):
        return self.lower_central_series()[-1].dim == 0

    def is_abelian(self):
        return not self.brackets

    def is_abelian_subspace(self, s: Subspace):
        """True iff [s, s] = 0, checked on pairs of integer echelon rows of s."""
        if s.ambient != self.dim:
            raise DimensionMismatch("subspace ambient != dim")
        br = self.integer_brackets()
        rows = list(s.echelon.values())
        return not any(_int_bracket(br, u, v) for t, u in enumerate(rows) for v in rows[t + 1 :])

    def has_abelian_direct_factor(self):
        """True iff some central vector lies outside the derived algebra.

        Such a vector spans an abelian direct summand: any hyperplane
        containing the derived algebra and complementary to it is an ideal.
        """
        c1 = self.derived_subalgebra()
        return not c1.contains_subspace(self.center())

    # -- constructions --------------------------------------------------------

    def change_basis(self, transform):
        """Conjugate the structure constants by an invertible matrix.

        Columns of the matrix express the new basis in old coordinates; a
        bare matrix is wrapped in a `BasisChange`, which clears and
        eliminates it once.  With d the common denominator of T, the
        brackets of the integer columns of d T come from the integer
        tensor, scaled by L d^2.  Row i of the reduced integer echelon of
        [d T | I] that the `BasisChange` keeps holds p_i (d T)^-1 row i, so
        coordinate i of a new bracket is an integer divided by p_i L d; a
        rational is built only for each nonzero one.
        """
        if not isinstance(transform, BasisChange):
            transform = BasisChange(transform)
        inv, cols = transform._inverse, transform._columns  # cols: the columns of d T
        n = self.dim
        if len(cols) != n:
            raise DimensionMismatch("basis change must be n x n")
        br = self.integer_brackets()
        tinv = [{} for _ in range(n)]           # tinv[j][i] = p_i (d T)^-1[i][j]
        for i, row in inv.items():
            for k, v in row.items():
                if k >= n:
                    tinv[k - n][i] = v
        scale = self._denominator() * transform._scale
        denom = [inv[i][i] * scale for i in range(n)]
        new = {}
        for a in range(n):
            for b in range(a + 1, n):
                acc = _combine(tinv, _int_bracket(br, cols[a], cols[b]))
                comp = {i: rat(acc[i], denom[i]) for i in sorted(acc)}
                if comp:
                    new[(a, b)] = comp
        meta = {k: v for k, v in self.meta.items() if k != "defining_basis"}
        return LieAlgebra(n, new, labels=self.labels, meta=meta)

    def _quotient_map(self, s: Subspace):
        """(scale, kcols) of the projection g -> g/s, or None when s is not an ideal.

        `_combine(kcols, w)` is scale times the coordinates of w modulo s
        on the non-pivot coordinates of s (see
        `linalg._kernel_coordinates`), empty iff w lies in s.  s is an
        ideal iff every column of ad(v) lies in s for each echelon row v
        of s, read from the integer tensor.
        """
        if s.ambient != self.dim:
            raise DimensionMismatch("subspace ambient != dim")
        scale, kcols = _kernel_coordinates(s.echelon, self.dim)
        for v in s.echelon.values():
            if any(_combine(kcols, col) for col in self.ad_columns(v)):
                return None
        return scale, kcols

    def is_ideal(self, s: Subspace):
        return self._quotient_map(s) is not None

    def quotient(self, ideal: Subspace):
        """Quotient by an ideal, on the standard-vector complement basis.

        The complement takes the non-pivot coordinates of the ideal's rref
        basis in ascending order, which makes the construction deterministic.
        Each bracket of two complement vectors is projected on the integer
        tensor; a rational is built only for each structure constant.
        """
        qmap = self._quotient_map(ideal)
        if qmap is None:
            raise NotAnIdeal("subspace is not an ideal")
        scale, kcols = qmap
        comp = [i for i in range(self.dim) if i not in ideal.echelon]
        index_of = {c: t for t, c in enumerate(comp)}
        br = self.integer_brackets()
        denom = self._denominator() * scale
        new = {}
        for a in range(len(comp)):
            row = br[comp[a]]
            for b in range(a + 1, len(comp)):
                w = row.get(comp[b])
                if w:
                    w = _combine(kcols, w)
                    new[(a, b)] = {index_of[k]: rat(w[k], denom) for k in sorted(w)}
        labels = tuple(self.labels[c] for c in comp)
        return LieAlgebra(len(comp), new, labels=labels)

    def direct_sum(self, other):
        n1 = self.dim
        labels = list(self.labels)
        for lab in other.labels:
            while lab in labels:
                lab = lab + "'"
            labels.append(lab)
        new = {}
        for (i, j), comp in self.brackets.items():
            new[(i, j)] = dict(comp)
        for (i, j), comp in other.brackets.items():
            new[(i + n1, j + n1)] = {k + n1: c for k, c in comp.items()}
        return LieAlgebra(n1 + other.dim, new, labels=tuple(labels))

    # -- misc -----------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, LieAlgebra)
            and self.dim == other.dim
            and self.brackets == other.brackets
        )

    def __hash__(self):
        items = tuple(
            (pair, tuple(sorted(comp.items())))
            for pair, comp in sorted(self.brackets.items())
        )
        return hash((self.dim, items))

    def __repr__(self):
        name = self.meta.get("name")
        tag = f" {name}" if name else ""
        return f"LieAlgebra(dim {self.dim}{tag}, {len(self.brackets)} bracket pairs)"


class BasisChange:
    """Invertible transition matrix T, optionally tagged with its kind.

    T comes as a `Matrix` or as (d, columns): d the least common denominator
    of T and the sparse integer columns {row: int} of d T, the form it is
    kept in.  `change_basis` reads (d T)^-1 from the kept integer echelon of
    [d T | I]; the rational `matrix` is built when first read.  A singular T
    raises SingularTransform.
    """

    KINDS = ("I", "II", "III", "IV", "general")

    def __init__(self, matrix, kind="general"):
        if kind not in self.KINDS:
            raise ValueError(f"unknown basis-change kind {kind!r}")
        if isinstance(matrix, Matrix):
            if matrix.nrows != matrix.ncols:
                raise DimensionMismatch("basis change must be square")
            matrix = _integer_columns(matrix)
        self._scale, self._columns = matrix
        n = len(self._columns)
        rows = [{} for _ in range(n)]
        for j, col in enumerate(self._columns):
            for i, v in col.items():
                rows[i][j] = v
        self._inverse = _inverse_echelon(rows, n)
        self.kind = kind

    @cached_property
    def matrix(self):
        return _column_matrix(self._columns, self._scale, len(self._columns))

    @cached_property
    def inverse_matrix(self):
        """T^-1 = d (d T)^-1, read off the kept echelon: row i holds p_i (d T)^-1 row i."""
        n, inv = len(self._columns), self._inverse
        return Matrix([[rat(self._scale * inv[i].get(n + k, 0), inv[i][i]) for k in range(n)]
                       for i in range(n)], copy=False)

    def __repr__(self):
        return f"BasisChange(kind {self.kind}, n={len(self._columns)})"


def from_bracket_list(dim, entries, labels=None, meta=None):
    """The algebra with [e_i, e_j] = sum of c e_k over entries (i, j, {k: c}).

    Indices are 0-based, and i != j may come in either order: an entry
    (j, i, comp) with i < j adds -comp to the pair (i, j), and entries on
    one pair add up.  The first coefficient on a pair and index is stored
    as it is (negated for a reversed pair); only a second one is added.
    `LieAlgebra` drops the zero coefficients and the pairs that cancel.
    """
    brackets = {}
    for i, j, comp in entries:
        negate = i > j
        if negate:
            i, j = j, i
        entry = brackets.setdefault((i, j), {})
        for k, c in comp.items():
            c = -rat(c) if negate else rat(c)
            entry[k] = entry[k] + c if k in entry else c
    return LieAlgebra(dim, brackets, labels=labels, meta=meta)


def abelian(n, labels=None):
    return LieAlgebra(n, {}, labels=labels, meta={"name": f"abelian{n}"})


def heisenberg(p=1):
    """Heisenberg algebra H_{2p+1}: [x_i, y_i] = z."""
    n = 2 * p + 1
    brackets = {(2 * i, 2 * i + 1): {n - 1: ONE} for i in range(p)}
    labels = []
    for i in range(p):
        labels += [f"x{i + 1}", f"y{i + 1}"]
    labels.append("z")
    return LieAlgebra(n, brackets, labels=tuple(labels), meta={"name": f"H{n}"})
