"""Exact linear algebra over the rationals.

Matrices are dense lists of rationals (see `rational`).  Every row
reduction -- rank, rref, kernels, inverse, the subspaces and central
series of the Lie layer (held as reduced integer echelons, with no
rational row), the template corrections, and the sparse Leibniz systems
of the derivation layer -- runs on one integer core, `_echelon`:
fraction-free Gaussian elimination on sparse {col: int} rows, after
Bareiss (Math. Comp. 22, 1968, 565-578).  Rationals are cleared to
integers in one place, `_scaled`: rational rows, the columns of a rational
matrix, the arguments of the Lie bracket and the structure constants of
the Lie layer's integer tensor all go through it.  Every row is kept
primitive (divided by the gcd of its entries) after each step: one gcd per
row and step, where Fraction arithmetic pays one per entry.  Rationals are
built only at the end, one division by the pivot per output entry; `rank`
runs the forward pass only and builds none.  Kernels and inverses each
have one integer reader, `_integer_kernel` and `_inverse_echelon`, shared
by the rational entry points here, by `LieAlgebra.center`, the sequence
certificates and the derivation solver (through `_kernel_on`, which runs it
on the columns that one-entry rows do not fix at 0), by `BasisChange`, and
by the Engel flag and weight system; `_inverse_echelon` takes
integer rows, and `inverse` clears its matrix once to give it them.
`kernel_basis` and `sparse_kernel` have no library caller.  The kernel
reader folds every row into one forward echelon, stops at full rank,
reduces the echelon once and builds its kernel once, in
`_kernel_coordinates`, which also gives `Subspace.contains` and
`LieAlgebra.quotient` their projection; it returns the reduced echelon E,
a basis of the row space, with the kernel.

Ranks of powers come from one integer core too: `_image_ranks` takes an
operator as sparse integer columns and iterates integer images instead of
forming powers, and `_block_sizes` turns the ranks into a nilpotent Jordan
profile.  `rank_sequence` and `nilpotent_jordan_profile` clear the
denominators of a rational matrix once and call them; the characteristic
sequence calls them on the integer columns of ad(x).  Every product of a
sparse integer operator and a vector, here and in the Lie, invariant,
derivation and template layers, is one routine, `_combine`; `matmul`
calls it on the cleared integer columns of its factors.

The reduced row echelon form is unique, so pivots, kernel vectors and
subspace bases do not depend on the elimination order, and results are
byte-reproducible.  The characteristic polynomial is computed with the
Berkowitz scheme, which is division-free.
"""

from __future__ import annotations

from itertools import islice
from math import gcd, lcm

from .errors import DimensionMismatch, NotNilpotent, SingularTransform
from .rational import ONE, ZERO, rat


class Matrix:
    """Immutable-by-convention dense rational matrix."""

    __slots__ = ("nrows", "ncols", "data")

    def __init__(self, data, copy=True):
        data = [[rat(x) for x in row] for row in data] if copy else data
        self.data = data
        self.nrows = len(data)
        self.ncols = len(data[0]) if data else 0
        for row in data:
            if len(row) != self.ncols:
                raise DimensionMismatch("ragged rows")

    @staticmethod
    def zeros(nrows, ncols):
        return Matrix([[ZERO] * ncols for _ in range(nrows)], copy=False)

    @staticmethod
    def identity(n):
        rows = [[ZERO] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = ONE
        return Matrix(rows, copy=False)

    @staticmethod
    def from_cols(cols):
        return Matrix([[col[i] for col in cols] for i in range(len(cols[0]))])

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def row(self, i):
        return list(self.data[i])

    def col(self, j):
        return [row[j] for row in self.data]

    def rows(self):
        return [list(r) for r in self.data]

    @property
    def is_square(self):
        return self.nrows == self.ncols

    def transpose(self):
        return Matrix(
            [[self.data[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
            copy=False,
        )

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.data == other.data
        )

    def __hash__(self):
        return hash(tuple(tuple(r) for r in self.data))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"Matrix({self.nrows}x{self.ncols}: [{body}])"

    def __add__(self, other):
        self._check_same_shape(other)
        return Matrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ],
            copy=False,
        )

    def __sub__(self, other):
        self._check_same_shape(other)
        return Matrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ],
            copy=False,
        )

    def scale(self, c):
        c = rat(c)
        return Matrix([[c * x for x in row] for row in self.data], copy=False)

    def __neg__(self):
        return self.scale(-1)

    def _check_same_shape(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionMismatch("shape mismatch")

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return matmul(self, other)
        return self.scale(other)

    def trace(self):
        if not self.is_square:
            raise DimensionMismatch("trace of non-square matrix")
        return sum((self.data[i][i] for i in range(self.nrows)), ZERO)

    def is_zero(self):
        return all(x == 0 for row in self.data for x in row)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Column j of AB is the `_combine` of the integer columns of A with column j of B."""
    if a.ncols != b.nrows:
        raise DimensionMismatch("matmul shape mismatch")
    da, acols = _integer_columns(a)
    db, bcols = _integer_columns(b)
    return _column_matrix([_combine(acols, bcol) for bcol in bcols], da * db, a.nrows)


def _primitive(row):
    g = gcd(*row.values())
    return {c: v // g for c, v in row.items()} if g != 1 else row


def _combine(rows, v):
    """Sum of x * rows[k] over the entries k: x of a sparse integer vector v, zeros dropped.

    rows is any indexable of sparse {i: int} dicts: with the columns of A it gives A v.
    """
    out = {}
    for k, x in v.items():
        for i, y in rows[k].items():
            out[i] = out.get(i, 0) + x * y
    return {i: y for i, y in out.items() if y}


def _scaled(items):
    """(d, {key: d x}) for (key, value) pairs, d the common denominator of the values.

    The one place where rationals are cleared to integers.  Values may be
    ints or rationals: both have .numerator and .denominator.  Zero values
    are dropped.
    """
    row = {k: x for k, x in items if x}
    d = lcm(*{x.denominator for x in row.values()})
    return d, {k: x.numerator * (d // x.denominator) for k, x in row.items()}


def _integer_row(items):
    """Primitive sparse integer row {col: int} proportional to (col, value) pairs."""
    return _primitive(_scaled(items)[1])


def _cancel(row, prow, c):
    """Primitive integer combination of row and prow that is zero at column c.

    prow[c] is positive, so row is only ever scaled by a positive factor
    and its own pivot keeps its sign.  row may be updated in place.
    """
    a, b = row[c], prow[c]
    g = gcd(a, b)
    a //= g
    b //= g
    if b != 1:
        row = {k: b * v for k, v in row.items()}
    for k, v in prow.items():
        nv = row.get(k, 0) - a * v
        if nv:
            row[k] = nv
        else:
            del row[k]
    return _primitive(row) if row else row


def _remainder(pivots, row):
    """Cancel a primitive integer row against a forward echelon {pivot column: row}.

    The row is cancelled on its smallest column against the pivot row there
    until it reaches a column with no pivot; it returns {} when the row lies
    in the span of the echelon.  The row may be updated in place.
    """
    while row:
        c = min(row)
        prow = pivots.get(c)
        if prow is None:
            return row
        row = _cancel(row, prow, c)
    return row


def _fold(pivots, row):
    """Fold a primitive integer row into a forward echelon {pivot column: row}.

    The remainder of the row becomes the pivot row of its smallest column,
    made positive.  Returns False when it cancels to zero.
    """
    row = _remainder(pivots, row)
    if not row:
        return False
    c = min(row)
    pivots[c] = row if row[c] > 0 else {k: -v for k, v in row.items()}
    return True


def _echelon(rows, reduced=True):
    """Fraction-free Gaussian elimination on sparse primitive integer rows.

    Rows are folded in order by `_fold`.  Returns {pivot column: row}.  With
    reduced=True the echelon is then reduced by `_reduce`.
    """
    pivots = {}
    for row in rows:
        _fold(pivots, row)
    if reduced:
        _reduce(pivots)
    return pivots


def _reduce(pivots):
    """Cancel each pivot row of a forward echelon against the pivot rows to its right.

    In place.  Dividing a reduced pivot row by its pivot entry gives a row
    of the (unique) reduced row echelon form.
    """
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        for k in [k for k in row if k != c and k in pivots]:
            row = _cancel(row, pivots[k], k)
        pivots[c] = row


def _rref_row(row, d, ncols):
    """Dense rational row row/d of a sparse integer row {col: int}."""
    out = [ZERO] * ncols
    for k, v in row.items():
        out[k] = rat(v, d)
    return out


def _column_matrix(cols, d, nrows):
    """The rational Matrix with column j the sparse integer column cols[j] {row: int} over d."""
    out = [[ZERO] * len(cols) for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, v in col.items():
            out[i][j] = rat(v, d)
    return Matrix(out, copy=False)


def _kernel_coordinates(pivots, ncols):
    """(scale, kcols): the kernel of a reduced integer echelon, by coordinate.

    scale is the lcm of the pivot entries and kcols[u] = {f: entry u of
    scale times the canonical kernel vector of free column f}.  That vector
    is 1 at f, minus column f of the rref at the pivot coordinates, and zero
    at every other free column, so kcols[f] = {f: scale} at a free column
    and kcols[c] is minus the pivot row of c at its free columns, scaled to
    scale / pivot entry.  `_combine(kcols, w)` is then scale times the
    coordinates, on the free columns, of w modulo the row space.
    """
    scale = lcm(*(row[c] for c, row in pivots.items()))
    kcols = [{u: scale} for u in range(ncols)]
    for c, row in pivots.items():
        q = -scale // row[c]
        kcols[c] = {k: q * v for k, v in row.items() if k != c}
    return scale, kcols


def _integer_kernel(rows, ncols):
    """Kernel of an iterable of sparse integer rows, on the reduced integer echelon E.

    Returns (E as {pivot column: row}, scale, vectors): scale is the lcm
    of the pivot entries, and there is one integer vector {col: int} per
    free column, ascending, equal to scale times the canonical kernel
    vector of that column (see `_kernel_coordinates`).  Each row is folded
    into one forward echelon by `_fold`; once every column has a pivot, the
    rows left are all dependent and are not read.  The echelon is then
    reduced and its kernel built, once.
    """
    pivots = {}
    for row in rows:
        if _fold(pivots, row) and len(pivots) == ncols:
            break
    _reduce(pivots)
    scale, kcols = _kernel_coordinates(pivots, ncols)
    for c in pivots:                # kcols[f] = {f: scale} becomes vector f
        for f, v in kcols[c].items():
            kcols[f][c] = v
    return pivots, scale, [kcols[f] for f in range(ncols) if f not in pivots]


def _kernel_on(rows, live):
    """The `_integer_kernel` vectors of a system whose columns off `live` are fixed at 0.

    `live` lists the other columns, ascending, and the rows are written
    on them by position: entry i is the coefficient of column live[i].
    A row left empty is dropped.  Each kernel vector is returned in the
    original columns, {live[i]: int}, and is 0 at every fixed column.
    """
    kernel = _integer_kernel((_primitive(r) for r in rows if r), len(live))[2]
    if live and live[-1] == len(live) - 1:          # no column fixed: nothing to map
        return kernel
    return [{live[i]: c for i, c in v.items()} for v in kernel]


def _inverse_echelon(rows, n):
    """Reduced integer echelon of [M | I] for an n x n integer matrix M.

    rows holds the rows of M as sparse {col: int} dicts; the identity entry
    is appended here, and it makes each row of [M | I] primitive.  Returns
    {i: row} for i < n, where row i is p_i (e_i | row i of M^-1) with
    p_i > 0.  Raises SingularTransform when M is singular.
    """
    pivots = _echelon({**r, n + i: 1} for i, r in enumerate(rows))
    if any(c not in pivots for c in range(n)):
        raise SingularTransform("matrix is singular")
    return pivots


def _rref(pivots, ncols):
    """Dense rational rref rows of a reduced integer echelon, by ascending pivot column."""
    return [_rref_row(pivots[c], pivots[c][c], ncols) for c in sorted(pivots)]


def rref(a: Matrix):
    """Reduced row echelon form.

    Returns (R, rank, pivot_columns).
    """
    pivots = _echelon(_integer_row(enumerate(r)) for r in a.data)
    rows = _rref(pivots, a.ncols)
    rows += [[ZERO] * a.ncols for _ in range(a.nrows - len(rows))]
    return Matrix(rows, copy=False), len(pivots), tuple(sorted(pivots))


def rank(a: Matrix) -> int:
    return len(_echelon((_integer_row(enumerate(r)) for r in a.data), reduced=False))


def kernel_basis(a: Matrix):
    """Basis of the right nullspace, one vector per free column of rref(A).

    Each returned vector has a 1 in its free coordinate and zeros at the
    other free coordinates, so the basis is canonical.
    """
    _, scale, kernel = _integer_kernel([_integer_row(enumerate(r)) for r in a.data], a.ncols)
    return [_rref_row(v, scale, a.ncols) for v in kernel]


def inverse(a: Matrix) -> Matrix:
    if not a.is_square:
        raise DimensionMismatch("inverse of non-square matrix")
    n = a.nrows
    # A^-1 = d (d A)^-1, with d the common denominator of A
    d, entries = _scaled(((i, j), x) for i, row in enumerate(a.data) for j, x in enumerate(row))
    rows = [{} for _ in range(n)]
    for (i, j), v in entries.items():
        rows[i][j] = v
    inv = _inverse_echelon(rows, n)
    inv_d = (_rref_row(inv[i], inv[i][i], 2 * n)[n:] for i in range(n))     # rows of (d A)^-1
    return Matrix([[d * x for x in row] for row in inv_d], copy=False)


def char_poly(a: Matrix):
    """Monic characteristic polynomial of det(lambda*I - A).

    Returns coefficients from the leading power down, e.g. the 2x2
    identity gives [1, -2, 1] for lambda^2 - 2*lambda + 1.  Uses the
    Berkowitz recurrence (division-free, exact).
    """
    if not a.is_square:
        raise DimensionMismatch("char_poly of non-square matrix")
    n = a.nrows
    if n == 0:
        return [ONE]
    m = a.data
    poly = [ONE, -m[0][0]]
    for k in range(1, n):
        # Leading (k+1)x(k+1) block split as [[B, C], [R, a]].
        akk = m[k][k]
        row_r = m[k][:k]
        col_c = [m[i][k] for i in range(k)]
        toep = [ONE, -akk]
        v = col_c
        for _ in range(k):
            toep.append(-sum((x * y for x, y in zip(row_r, v) if x and y), ZERO))
            v = [
                sum((m[i][j] * v[j] for j in range(k) if m[i][j] and v[j]), ZERO)
                for i in range(k)
            ]
        new = []
        for j in range(k + 2):
            acc = ZERO
            lo = max(0, j - (len(toep) - 1))
            for t in range(lo, min(j, k) + 1):
                pt = poly[t]
                ct = toep[j - t]
                if pt and ct:
                    acc += ct * pt
            new.append(acc)
        poly = new
    return poly


def _integer_columns(a: Matrix):
    """(d, sparse integer columns {row: int} of d A), d the common denominator of A."""
    d, entries = _scaled(((i, j), x) for i, row in enumerate(a.data) for j, x in enumerate(row) if x)
    cols = [{} for _ in range(a.ncols)]
    for (i, j), v in entries.items():
        cols[j][i] = v
    return d, cols


def _image_ranks(cols):
    """rank(A), rank(A^2), ... lazily, for A given by sparse integer columns.

    No power of A is formed: rank(A^k) is the dimension of A(A^(k-1) Q^n),
    so each step pushes an integer echelon basis of the previous image
    through the columns and runs the forward pass of `_echelon` on the
    results.  Stops after the rank reaches zero or repeats, which happens
    within n steps for an n x n matrix with n > 0.
    """
    prev = len(cols)
    # `_cancel` may update its input rows in place: echelon copies of the columns
    image = [_primitive(dict(c)) for c in cols]
    while True:
        basis = _echelon(image, reduced=False).values()
        r = len(basis)
        yield r
        if r == 0 or r == prev:
            return
        prev = r
        image = [_primitive(_combine(cols, v)) for v in basis]


def _block_sizes(n, ranks):
    """Jordan block sizes, descending, of a nilpotent n x n matrix from rank(A^k), k >= 1.

    The number of blocks of size >= k equals r_{k-1} - r_k.  Raises
    NotNilpotent when the ranks end above zero.
    """
    seq = [n, *ranks]
    if seq[-1] != 0:
        raise NotNilpotent(f"rank(A^{len(seq) - 1}) = {seq[-1]} > 0")
    diffs = [seq[k - 1] - seq[k] for k in range(1, len(seq))]
    profile = []
    for size in range(len(diffs), 0, -1):
        count = diffs[size - 1] - (diffs[size] if size < len(diffs) else 0)
        profile.extend([size] * count)
    profile.sort(reverse=True)
    assert sum(profile) == n
    return tuple(profile)


def rank_sequence(a: Matrix, kmax=None):
    """Ranks of successive powers [rank(A^0), rank(A^1), ...].

    Stops once the rank reaches zero or stabilizes, or after kmax powers.
    The denominators of A are cleared once and the ranks come from
    `_image_ranks`.
    """
    if not a.is_square:
        raise DimensionMismatch("rank_sequence of non-square matrix")
    n = a.nrows
    return [n, *islice(_image_ranks(_integer_columns(a)[1]), n if kmax is None else kmax)]


def nilpotent_jordan_profile(a: Matrix):
    """Jordan block sizes of a nilpotent matrix, sorted descending.

    Derived from the rank sequence (see `_block_sizes`).  Raises
    NotNilpotent when some power fails to vanish.
    """
    return _block_sizes(a.nrows, rank_sequence(a)[1:])


def sparse_kernel(rows, ncols):
    """Kernel basis for a system given as sparse rows ({col: coeff} dicts).

    Returns (pivot_cols, kernel_vectors): the pivot columns of the reduced
    row echelon form, ascending, and one dense kernel vector per free
    column, ascending.
    """
    pivots, scale, kernel = _integer_kernel([_integer_row(raw.items()) for raw in rows], ncols)
    return sorted(pivots), [_rref_row(v, scale, ncols) for v in kernel]
